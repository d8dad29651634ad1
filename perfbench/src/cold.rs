//! `compile-cold`: one in-process caller compiles a never-repeating
//! stream of designs through the library — parse, schedule, prepare,
//! search, complete, Verilog — waiting for each result before the next.

use std::time::Instant;

use salsa_alloc::{portfolio_search, AllocResult, Allocator, PortfolioConfig};
use salsa_cdfg::{parse_cdfg, Cdfg};
use salsa_rtlgen::{generate_verilog, VerilogOptions};
use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};

use crate::design::{check_rtl, cold_job, mix, reference_cost};
use crate::trace::{durations_ms, self_times_ms, Tracer};
use crate::{mean, ms, Phase, PrefixCounts, Stop};

/// Restart chains per job (one search thread).
pub const RESTARTS: usize = 2;

/// Jobs in the deterministic prefix: the cost ratio and the count
/// metrics are taken over exactly these, and every run completes them.
pub const PREFIX: usize = 40;

/// Prepared `compile-cold` state: the seed and the prefix's reference
/// costs.
pub struct Setup {
    seed: u64,
    references: Vec<u64>,
}

/// One compiled job, with the counters the layer metrics need.
pub struct Compiled {
    /// The parsed design.
    pub graph: Cdfg,
    /// Its schedule.
    pub schedule: Schedule,
    /// The verified allocation.
    pub result: AllocResult,
    /// The generated Verilog.
    pub verilog: String,
    /// Portfolio wall time, nanoseconds.
    pub search_nanos: u64,
    /// Moves attempted over all chains.
    pub attempted: usize,
    /// Moves accepted over all chains.
    pub accepted: usize,
}

/// The per-job allocation seed.
fn job_seed(seed: u64, index: usize) -> u64 {
    mix(seed ^ (index as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)) % 1_000_000
}

fn schedule_of(text: &str, slack: usize) -> Result<(Cdfg, Schedule), String> {
    let graph = parse_cdfg(text).map_err(|e| e.to_string())?;
    let library = FuLibrary::standard();
    let steps = asap(&graph, &library).length + slack;
    let schedule = fds_schedule(&graph, &library, steps).map_err(|e| e.to_string())?;
    Ok((graph, schedule))
}

/// Generates the prefix, computes its reference costs and compiles one
/// warm-up job.
pub fn setup(seed: u64) -> Setup {
    let library = FuLibrary::standard();
    let references = (0..PREFIX)
        .map(|i| {
            let (text, slack) = cold_job(seed, i);
            let (graph, schedule) = schedule_of(&text, slack).expect("prefix designs schedule");
            reference_cost(&graph, &schedule, &library)
        })
        .collect();
    let warm = salsa_cdfg::benchmarks::paper_example().canonical_text();
    compile(
        &warm,
        0,
        1,
        &mut Tracer::new(false, Instant::now()),
        u64::MAX,
    )
    .expect("warm-up compiles");
    Setup { seed, references }
}

/// Compiles one design, with a span around each layer call.
pub fn compile(
    text: &str,
    slack: usize,
    seed: u64,
    t: &mut Tracer,
    job: u64,
) -> Result<Compiled, String> {
    let library = FuLibrary::standard();
    let graph = t
        .span("cdfg.parse", job, || parse_cdfg(text))
        .map_err(|e| e.to_string())?;
    let steps = asap(&graph, &library).length + slack;
    let schedule = t
        .span("sched.fds", job, || fds_schedule(&graph, &library, steps))
        .map_err(|e| e.to_string())?;
    let allocator = Allocator::new(&graph, &schedule, &library)
        .seed(seed)
        .restarts(RESTARTS)
        .threads(1);
    let portfolio = PortfolioConfig {
        threads: Some(1),
        ..PortfolioConfig::default()
    };
    let (ctx, config) = t
        .span("core.prepare", job, || allocator.prepare())
        .map_err(|e| e.to_string())?;
    let outcome = t
        .span("core.search", job, || {
            portfolio_search(&ctx, &config, &portfolio, seed, RESTARTS)
        })
        .map_err(|e| e.to_string())?;
    let search_nanos = outcome.portfolio.wall_nanos;
    let attempted = outcome.portfolio.aggregate.attempted;
    let accepted = outcome.portfolio.aggregate.accepted;
    let result = t
        .span("core.complete", job, || allocator.complete(&ctx, outcome))
        .map_err(|e| e.to_string())?;
    let verilog = t.span("rtlgen.verilog", job, || {
        generate_verilog(
            &graph,
            &schedule,
            &library,
            &result,
            &VerilogOptions::default(),
        )
    });
    drop(ctx);
    drop(allocator);
    Ok(Compiled {
        graph,
        schedule,
        result,
        verilog,
        search_nanos,
        attempted,
        accepted,
    })
}

/// Runs the closed loop until `stop`. Each job's output is checked right
/// after its timed window closes; throughput is jobs over the summed
/// timed windows.
pub fn run(setup: Setup, stop: &Stop, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let mut t = Tracer::new(traced, Instant::now());
    let library = FuLibrary::standard();
    let start = Instant::now();
    let mut busy = 0.0;
    let (mut moves, mut search_s) = (0.0, 0.0);
    let mut prefix = PrefixCounts::default();
    let mut index = 0;
    while !stop.reached(0, start, index) {
        let (text, slack) = cold_job(setup.seed, index);
        phase.drew(&text);
        let seed = job_seed(setup.seed, index);
        phase.attempted += 1;
        let job = t.begin("job", index as u64);
        let began = Instant::now();
        let compiled = compile(&text, slack, seed, &mut t, index as u64);
        let latency = began.elapsed();
        t.end(job);
        index += 1;
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => {
                phase.fail(format!("job {}: {e}", index - 1));
                continue;
            }
        };
        let c = &compiled;
        let check = check_rtl(
            &c.graph,
            &c.schedule,
            &library,
            &c.result.rtl,
            &c.result.claims,
            seed,
        )
        .and_then(|unchecked| {
            if c.verilog.contains("module ") && c.result.verified() {
                Ok(unchecked)
            } else {
                Err("missing Verilog module or unverified result".to_string())
            }
        });
        match check {
            Ok(unchecked) => phase.unchecked_arrays += unchecked,
            Err(e) => {
                phase.fail(format!("job {}: {e}", index - 1));
                phase.wrong += 1;
                continue;
            }
        }
        busy += latency.as_secs_f64();
        phase.latencies_ms.push(ms(latency));
        moves += c.attempted as f64;
        search_s += c.search_nanos as f64 / 1e9;
        if let Some(&reference) = setup.references.get(index - 1) {
            phase
                .cost_ratios
                .push(c.result.cost as f64 / reference as f64);
            prefix.add(
                c.attempted as f64,
                c.accepted as f64,
                c.result.stats.trials_to_best as f64,
                c.result.merged_mux_count() as f64,
                c.verilog.len() as f64,
            );
        }
    }
    phase.wall_s = busy;
    phase.units = vec![index];
    prefix.fill(&mut phase.layers);
    if traced {
        phase.spans = t.into_spans();
        let layer_mean = |name: &str| mean(&durations_ms(&phase.spans, name));
        for (metric, span) in [
            ("core.search_ms", "core.search"),
            ("core.prepare_ms", "core.prepare"),
            ("core.complete_ms", "core.complete"),
            ("sched.fds_ms", "sched.fds"),
            ("cdfg.parse_ms", "cdfg.parse"),
            ("rtlgen.verilog_ms", "rtlgen.verilog"),
        ] {
            let value = layer_mean(span);
            phase.layers.insert(metric, value);
        }
        phase
            .layers
            .insert("core.moves_per_s", moves / search_s.max(1e-9));
        let harness = self_times_ms(&phase.spans)
            .remove("job")
            .unwrap_or_default();
        phase.layers.insert("harness.self_ms", mean(&harness));
    }
    phase
}
