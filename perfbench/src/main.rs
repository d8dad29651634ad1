//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints each metric by name and unit, a `meta` line with the run's
//! host facts, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
//! spans of the traced phase are written to
//! `.bench_build/perfbench-traces/<workload>-seed<n>.jsonl`.

use std::path::Path;
use std::process::ExitCode;

use salsa_perfbench::{run, trace, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = flag("--workload").and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or malformed --seed");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("missing or malformed --seconds");
    };
    let traced = match flag("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };

    let report = run(workload, seed, seconds, traced);
    println!(
        "perfbench {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(traced)
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    if traced {
        println!("  self time per span (p50 ms, spans):");
        for (name, p50, count) in &report.self_times {
            println!("    {name:<26} {p50:>12.4} ms  x{count}");
        }
        let path = format!(
            ".bench_build/perfbench-traces/{}-seed{seed}.jsonl",
            workload.name()
        );
        match trace::write_spans(Path::new(&path), &report.spans) {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    for failure in &report.failures {
        println!("  failure: {failure}");
    }
    println!("meta {}", report.meta);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
