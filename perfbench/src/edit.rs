//! `serve-edit`: two designer sessions, one binary connection each,
//! against an in-process server. Each session edits its current design
//! (one constant, or a sub→add flip), resubmits it alternately as a
//! `reallocate` of the previous job and as a plain `allocate` the server
//! seeds from its similarity index, and re-sends every request a few
//! times as a designer re-opening a result would. After two edits it
//! starts a fresh design.
//!
//! The sessions draw designs from disjoint size bands (8–12 and 22–30
//! operations). A structural sketch's distance is at least three times
//! the difference in operation count, which puts every cross-session
//! pair beyond the server's 40% seeding threshold: a session is only
//! ever warm-started from its own jobs, so what each session receives
//! does not depend on how the two interleave.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use salsa_cdfg::parse_cdfg;
use salsa_sched::{asap, fds_schedule, FuLibrary};
use salsa_serve::canonicalize_report;
use salsa_wire::Json;

use crate::design::{edit_design, editable, random_design, reference_cost, rng_for};
use crate::serve::{self, Fresh, Reproducer};
use crate::trace::{self, Tracer};
use crate::{mean, median, ms, Phase, PrefixCounts, Stop};

/// Times each request is re-sent after its first reply.
pub const RESUBMITS: usize = 3;

/// Edits per design before the session starts a fresh one. Fresh
/// designs are the slowest misses; at one in three steps there are
/// enough of them per run for the p99 tail to fall well inside their
/// group rather than on its edge.
pub const EDITS: usize = 2;

/// Edit steps per session in the deterministic prefix.
pub const PREFIX_STEPS: usize = 40;

/// Number of designer sessions (and connections).
const SESSIONS: usize = 2;

/// One session's deterministic stream of designs.
struct Script {
    seed: u64,
    session: usize,
    step: usize,
    text: String,
    fresh_constants: i64,
    rng: StdRng,
    knob_seed: u64,
}

/// What one edit step submits.
struct Step {
    text: String,
    knob_seed: u64,
    reallocate: bool,
}

impl Script {
    fn new(seed: u64, session: usize) -> Script {
        Script {
            seed,
            session,
            step: 0,
            text: String::new(),
            fresh_constants: 0,
            rng: rng_for(seed, 10, session as u64),
            knob_seed: 0,
        }
    }

    fn next(&mut self) -> Step {
        let k = self.step % (EDITS + 1);
        let episode = self.step / (EDITS + 1);
        self.step += 1;
        if k == 0 {
            self.rng = rng_for(self.seed, 11 + self.session as u64, episode as u64);
            // A session only opens designs it can edit `EDITS` times.
            self.text = loop {
                let (ops, arrays) = if self.session == 0 {
                    (self.rng.gen_range(8..=12), 0)
                } else {
                    (self.rng.gen_range(22..=30), usize::from(episode % 4 == 3))
                };
                let text = random_design(&mut self.rng, ops, arrays);
                if editable(&text, EDITS) {
                    break text;
                }
            };
            self.knob_seed = self.rng.gen_range(0..1000);
        } else {
            self.fresh_constants += 1;
            self.text = edit_design(&self.text, &mut self.rng, 100 + self.fresh_constants)
                .expect("sessions only open editable designs");
        }
        Step {
            text: self.text.clone(),
            knob_seed: self.knob_seed,
            reallocate: k % 2 == 1,
        }
    }
}

/// Prepared `serve-edit` state: a bound, warmed-up server and the
/// prefix's reference costs per session.
pub struct Setup {
    seed: u64,
    service: serve::Service,
    references: Vec<Vec<u64>>,
}

/// Generates each session's prefix designs and their reference costs,
/// binds the server and runs one warm-up job through it.
pub fn setup(seed: u64) -> Setup {
    let library = FuLibrary::standard();
    let references = (0..SESSIONS)
        .map(|session| {
            let mut script = Script::new(seed, session);
            (0..PREFIX_STEPS)
                .map(|_| {
                    let graph = parse_cdfg(&script.next().text).expect("generated designs parse");
                    let steps = asap(&graph, &library).length;
                    let schedule =
                        fds_schedule(&graph, &library, steps).expect("ASAP length schedules");
                    reference_cost(&graph, &schedule, &library)
                })
                .collect()
        })
        .collect();
    let service = serve::Service::start(SESSIONS, false);
    Setup {
        seed,
        service,
        references,
    }
}

/// What one session thread brings back.
#[derive(Default)]
struct SessionOut {
    phase: Phase,
    fresh: Vec<Fresh>,
    first_replies: Vec<(usize, Json)>,
    hit_ms: Vec<f64>,
    bytes: u64,
}

fn canonical(reply: &Json) -> String {
    let mut reply = reply.clone();
    canonicalize_report(&mut reply);
    reply.to_string_compact()
}

fn session(setup: &Setup, id: usize, stop: &Stop, start: Instant, traced: bool) -> SessionOut {
    let mut out = SessionOut::default();
    let mut conn = serve::connect(&setup.service.addr);
    let mut t = Tracer::new(traced, start);
    let mut script = Script::new(setup.seed, id);
    let mut last_id: Option<String> = None;
    let mut steps = 0;
    let mut job = (id as u64) << 32;
    while !stop.reached(id, start, steps) {
        let step = script.next();
        out.phase.drew(&step.text);
        let base = if step.reallocate {
            last_id.as_deref()
        } else {
            None
        };
        let request = serve::request(&step.text, step.knob_seed, base, false);
        let mut first: Option<String> = None;
        for _ in 0..=RESUBMITS {
            out.phase.attempted += 1;
            job += 1;
            let span = t.begin("request", job);
            let began = Instant::now();
            let reply = t.span("wire.call", job, || serve::call(&mut conn, &request));
            let latency = ms(began.elapsed());
            t.end(span);
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    out.phase.fail(format!("session {id} step {steps}: {e}"));
                    continue;
                }
            };
            out.phase.latencies_ms.push(latency);
            let text = canonical(&reply);
            match &first {
                Some(first) if *first == text => out.hit_ms.push(latency),
                Some(_) => out.fresh.push(Fresh {
                    text: step.text.clone(),
                    request: request.clone(),
                    reply,
                }),
                None => {
                    last_id = reply.get("id").and_then(Json::as_str).map(str::to_string);
                    first = Some(text);
                    out.first_replies.push((steps, reply.clone()));
                    out.fresh.push(Fresh {
                        text: step.text.clone(),
                        request: request.clone(),
                        reply,
                    });
                }
            }
        }
        steps += 1;
    }
    out.phase.units = vec![steps];
    let counts = conn.counts();
    out.bytes = counts.bytes_in + counts.bytes_out;
    out.phase.spans = t.into_spans();
    out
}

/// Runs both sessions until `stop`, then checks every freshly computed
/// reply by re-running it in-process (one thread per session).
pub fn run(mut setup: Setup, stop: &Stop, traced: bool) -> Phase {
    let start = Instant::now();
    let outs: Vec<SessionOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|id| {
                let setup = &setup;
                scope.spawn(move || session(setup, id, stop, start, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut phase = Phase {
        wall_s,
        ..Phase::default()
    };
    let mut conn = serve::connect(&setup.service.addr);
    let after = serve::stats(&mut conn);
    serve::stats_layers(&setup.service.before, &after, &mut phase.layers);
    if traced {
        phase
            .layers
            .insert("wire.ping_ms_p50", serve::ping_ms_p50(&mut conn, 200));
    }
    drop(conn);
    setup.service.shutdown();

    let checks: Vec<Vec<Result<usize, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = outs
            .iter()
            .map(|out| {
                let warmup = &setup.service.warmup;
                scope.spawn(move || {
                    let mut reproducer = Reproducer::default();
                    std::iter::once(warmup)
                        .chain(&out.fresh)
                        .map(|fresh| reproducer.check(fresh))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .collect()
    });

    let mut prefix = PrefixCounts::default();
    let mut hit_ms = Vec::new();
    let mut bytes = 0;
    let mut fresh = Vec::new();
    for ((id, out), checks) in outs.into_iter().enumerate().zip(checks) {
        phase.attempted += out.phase.attempted;
        phase.failed += out.phase.failed;
        phase.failures.extend(out.phase.failures);
        phase.latencies_ms.extend(&out.phase.latencies_ms);
        phase.units.extend(&out.phase.units);
        phase.design_draw ^= out.phase.design_draw.rotate_left(id as u32);
        trace::merge(&mut phase.spans, out.phase.spans);
        for check in checks {
            match check {
                Ok(unchecked) => phase.unchecked_arrays += unchecked,
                Err(e) => {
                    phase.fail(format!("session {id}: {e}"));
                    phase.wrong += 1;
                }
            }
        }
        for (step, reply) in &out.first_replies {
            if let Some(&reference) = setup.references[id].get(*step) {
                phase
                    .cost_ratios
                    .push(serve::num(reply, &["report", "cost"]) / reference as f64);
                serve::count_reply(&mut prefix, reply);
            }
        }
        hit_ms.extend(out.hit_ms);
        fresh.extend(out.fresh);
        bytes += out.bytes;
    }
    prefix.fill(&mut phase.layers);
    phase.layers.insert(
        "wire.bytes_per_job",
        bytes as f64 / phase.attempted.max(1) as f64,
    );
    if traced {
        serve::search_layers(&fresh, &mut phase.layers);
        phase.layers.insert("server.hit_ms_p50", median(&hit_ms));
        let harness = trace::self_times_ms(&phase.spans)
            .remove("request")
            .unwrap_or_default();
        phase.layers.insert("harness.self_ms", mean(&harness));
    }
    phase
}
