//! `certify-full`: one connection submits a stream of distinct designs
//! with `verify: full`; each reply is held by the server until its
//! certificate exists. Allocation and trace record/replay each take
//! roughly half of every job.

use std::time::Instant;

use rand::Rng;
use salsa_cdfg::parse_cdfg;
use salsa_sched::{asap, fds_schedule, FuLibrary};
use salsa_wire::Json;

use crate::design::{random_design, reference_cost, rng_for};
use crate::serve::{self, Fresh, Reproducer};
use crate::trace::{self, Tracer};
use crate::{mean, ms, Phase, PrefixCounts, Stop};

/// Jobs in the deterministic prefix.
pub const PREFIX: usize = 16;

/// Job `index`'s design: sizes walk three strata over 14–22 operations,
/// and one job in five declares an array. The band is narrow so that the
/// tail percentile, taken over about 140 jobs, stays close to the body
/// of the distribution.
fn design(seed: u64, index: usize) -> (String, u64) {
    let mut rng = rng_for(seed, 20, index as u64);
    let ops = 14 + 3 * (index % 3) + rng.gen_range(0..3usize);
    let arrays = usize::from(index % 5 == 2);
    let text = random_design(&mut rng, ops, arrays);
    (text, rng.gen_range(0..1000))
}

/// Prepared `certify-full` state.
pub struct Setup {
    seed: u64,
    service: serve::Service,
    references: Vec<u64>,
}

/// Generates the prefix designs and their reference costs, binds the
/// server and certifies one warm-up job.
pub fn setup(seed: u64) -> Setup {
    let library = FuLibrary::standard();
    let references = (0..PREFIX)
        .map(|i| {
            let graph = parse_cdfg(&design(seed, i).0).expect("generated designs parse");
            let steps = asap(&graph, &library).length;
            let schedule = fds_schedule(&graph, &library, steps).expect("ASAP length schedules");
            reference_cost(&graph, &schedule, &library)
        })
        .collect();
    let service = serve::Service::start(1, true);
    Setup {
        seed,
        service,
        references,
    }
}

/// Runs the closed loop until `stop`, then re-runs every job in-process
/// to check its report and RTL.
pub fn run(mut setup: Setup, stop: &Stop, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let mut conn = serve::connect(&setup.service.addr);
    let start = Instant::now();
    let mut t = Tracer::new(traced, start);
    let mut fresh = Vec::new();
    let mut index = 0;
    while !stop.reached(0, start, index) {
        let (text, knob_seed) = design(setup.seed, index);
        phase.drew(&text);
        let request = serve::request(&text, knob_seed, None, true);
        phase.attempted += 1;
        let job = index as u64;
        index += 1;
        let span = t.begin("request", job);
        let began = Instant::now();
        let reply = t.span("wire.call", job, || serve::call(&mut conn, &request));
        let latency = ms(began.elapsed());
        t.end(span);
        match reply {
            Ok(reply) => {
                phase.latencies_ms.push(latency);
                fresh.push((
                    job as usize,
                    Fresh {
                        text,
                        request,
                        reply,
                    },
                ));
            }
            Err(e) => phase.fail(format!("job {job}: {e}")),
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.units = vec![index];
    let counts = conn.counts();
    let after = serve::stats(&mut conn);
    serve::stats_layers(&setup.service.before, &after, &mut phase.layers);
    if traced {
        phase
            .layers
            .insert("wire.ping_ms_p50", serve::ping_ms_p50(&mut conn, 200));
    }
    drop(conn);
    setup.service.shutdown();

    let mut reproducer = Reproducer::default();
    if let Err(e) = reproducer.check(&setup.service.warmup) {
        phase.fail(format!("warm-up job: {e}"));
        phase.wrong += 1;
    }
    let mut prefix = PrefixCounts::default();
    let (mut verify_ms, mut commits) = (Vec::new(), 0.0);
    for (i, job) in &fresh {
        let verdict = job
            .reply
            .get("report")
            .and_then(|r| r.get("certificate"))
            .and_then(|c| c.get("verdict"));
        if verdict.and_then(Json::as_str) != Some("certified") {
            phase.fail(format!("job {i}: certificate verdict {verdict:?}"));
            phase.wrong += 1;
            continue;
        }
        match reproducer.check(job) {
            Ok(unchecked) => phase.unchecked_arrays += unchecked,
            Err(e) => {
                phase.fail(format!("job {i}: {e}"));
                phase.wrong += 1;
                continue;
            }
        }
        verify_ms.push(serve::num(
            &job.reply,
            &["report", "certificate", "verify_ms"],
        ));
        if let Some(&reference) = setup.references.get(*i) {
            phase
                .cost_ratios
                .push(serve::num(&job.reply, &["report", "cost"]) / reference as f64);
            serve::count_reply(&mut prefix, &job.reply);
            commits += serve::num(&job.reply, &["report", "certificate", "commits"]);
        }
    }
    prefix.fill(&mut phase.layers);
    phase.layers.insert(
        "audit.commits_per_job",
        commits / phase.cost_ratios.len().max(1) as f64,
    );
    phase.layers.insert(
        "wire.bytes_per_job",
        (counts.bytes_in + counts.bytes_out) as f64 / index.max(1) as f64,
    );
    if traced {
        let fresh: Vec<Fresh> = fresh.into_iter().map(|(_, f)| f).collect();
        serve::search_layers(&fresh, &mut phase.layers);
        phase.layers.insert("audit.verify_ms", mean(&verify_ms));
        phase.spans = t.into_spans();
        let harness = trace::self_times_ms(&phase.spans)
            .remove("request")
            .unwrap_or_default();
        phase.layers.insert("harness.self_ms", mean(&harness));
    }
    phase
}
