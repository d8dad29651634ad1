//! Golden canonical reports: the behavioural spec of the allocator.
//!
//! Every built-in benchmark is allocated sequentially (`restarts 2,
//! threads 1`), and four of them also as a two-thread portfolio
//! (`restarts 4, threads 2`). Each case yields one line of
//! `tests/golden/reports.txt`:
//!
//! ```text
//! <case>\t<canonical compact JSON report>\t<winner digest>
//! ```
//!
//! The report alone does not pin the binding (two bindings can share a
//! cost breakdown), so the third column is the FNV-1a-128 digest of the
//! winner's `BindingParts` in its `salsa-seed/1` encoding. A refactor is
//! behaviour-preserving exactly when this file still matches.
//!
//! On a mismatch the test prints the whole actual file, so an intended
//! change of behaviour is reviewed line by line against the checked-in
//! one.

use salsa_hls::alloc::{Allocator, WarmSpec};
use salsa_hls::cdfg::{benchmarks, fnv1a_128, Cdfg};
use salsa_hls::sched::{asap, fds_schedule, FuLibrary};
use salsa_hls::serve::{canonicalize_report, report_json};

const SEED: u64 = 1;

/// `(case name, design, restarts, threads)`.
fn cases() -> Vec<(String, Cdfg, usize, usize)> {
    let mut cases: Vec<_> = benchmarks::all()
        .into_iter()
        .map(|graph| (format!("{}/seq", graph.name()), graph, 2, 1))
        .collect();
    for graph in benchmarks::all() {
        if ["ewf", "dct", "fir8a", "mm2"].contains(&graph.name()) {
            cases.push((format!("{}/portfolio", graph.name()), graph, 4, 2));
        }
    }
    cases
}

fn golden_line(name: &str, graph: &Cdfg, restarts: usize, threads: usize) -> String {
    let library = FuLibrary::standard();
    let schedule = fds_schedule(graph, &library, asap(graph, &library).length)
        .unwrap_or_else(|e| panic!("{name}: schedule: {e}"));
    let result = Allocator::new(graph, &schedule, &library)
        .seed(SEED)
        .restarts(restarts)
        .threads(threads)
        .run()
        .unwrap_or_else(|e| panic!("{name}: allocate: {e}"));
    let mut report = report_json(graph, &schedule, SEED, &result);
    canonicalize_report(&mut report);
    let image = WarmSpec { parts: Some(result.winner), ..WarmSpec::new() }.encode();
    format!("{name}\t{}\t{:032x}", report.to_string_compact(), fnv1a_128(image.as_bytes()))
}

#[test]
fn canonical_reports_match_the_golden_file() {
    let cases = cases();
    // Two case runners keep the debug-build wall time near half the
    // serial sum without oversubscribing small hosts.
    let lines: Vec<String> = std::thread::scope(|scope| {
        let runners: Vec<_> = (0..2)
            .map(|lane| {
                let cases = &cases;
                scope.spawn(move || {
                    cases
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == lane)
                        .map(|(i, (name, graph, r, t))| (i, golden_line(name, graph, *r, *t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut indexed: Vec<_> = runners
            .into_iter()
            .flat_map(|h| h.join().expect("a golden case panicked"))
            .collect();
        indexed.sort_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, line)| line).collect()
    });
    let actual = lines.join("\n") + "\n";
    let expected = include_str!("golden/reports.txt");
    if actual != expected {
        for (want, got) in expected.lines().zip(actual.lines()) {
            if want != got {
                eprintln!("first differing line:\n  expected: {want}\n  actual:   {got}");
                break;
            }
        }
        panic!("golden reports differ; the full actual file follows:\n{actual}");
    }
}
