//! Helpers shared by the two service workloads: the in-process server,
//! request building, `stats` deltas, and the reproduction check that
//! re-runs each freshly computed response in-process to recover and
//! simulate its RTL.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use salsa_alloc::{verify_lowered, Binding};
use salsa_serve::{
    build_warm_spec, canonicalize_report, knobs_from_json, run_artifact, with_replay_env,
    AdmissionCache, GraphSource, SeedEntry, Server, ServerConfig,
};
use salsa_wire::{Connection, Json, Protocol};

use crate::design::{check_rtl, mix};
use crate::{median, ms, PrefixCounts};

/// Restart chains per service job (one search thread).
pub const RESTARTS: i64 = 2;

/// An in-process server, shut down and joined when dropped, so a set-up
/// that is thrown away leaves no threads behind.
pub struct Service {
    server: Option<Server>,
    /// The bound loopback address.
    pub addr: String,
    /// The warm-up job run at start. It can seed later jobs, so it is
    /// checked like them.
    pub warmup: Fresh,
    /// The server's `stats` right after the warm-up.
    pub before: Json,
}

impl Service {
    /// Binds a loopback server with `workers` allocation workers, one
    /// verifier, and caches large enough that nothing is evicted in a run
    /// (eviction order would depend on how sessions interleave), then runs
    /// one warm-up job (`verify: full` when `verify`).
    pub fn start(workers: usize, verify: bool) -> Service {
        let config = ServerConfig {
            workers,
            queue_capacity: 16,
            cache_capacity: 1 << 16,
            idle_timeout_ms: None,
            verify_workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        let mut conn = connect(&addr);
        let text = salsa_cdfg::benchmarks::paper_example().canonical_text();
        let request = request(&text, 1, None, verify);
        let reply = call(&mut conn, &request).expect("warm-up job");
        let before = stats(&mut conn);
        let warmup = Fresh {
            text,
            request,
            reply,
        };
        Service {
            server: Some(server),
            addr,
            warmup,
            before,
        }
    }

    /// Drains and joins the server (idempotent).
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Opens one binary-protocol connection.
pub fn connect(addr: &str) -> Connection {
    let conn =
        Connection::connect(addr, Protocol::Binary).expect("connect to the in-process server");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set a read timeout");
    conn
}

/// An allocation request for `text`: `base` turns it into a
/// `reallocate` of that prior job.
pub fn request(text: &str, seed: u64, base: Option<&str>, verify: bool) -> Json {
    let mut fields = vec![
        (
            "cmd",
            Json::Str(
                if base.is_some() {
                    "reallocate"
                } else {
                    "allocate"
                }
                .into(),
            ),
        ),
        ("cdfg", Json::Str(text.to_string())),
        ("seed", Json::Int(seed as i64)),
        ("restarts", Json::Int(RESTARTS)),
        ("threads", Json::Int(1)),
        ("timeout_ms", Json::Int(120_000)),
    ];
    if let Some(base) = base {
        fields.push(("base", Json::Str(base.to_string())));
    }
    if verify {
        fields.push(("verify", Json::Str("full".into())));
    }
    Json::obj(fields)
}

/// Sends `request` and waits for its reply; anything but `status: ok`
/// is an error.
pub fn call(conn: &mut Connection, request: &Json) -> Result<Json, String> {
    let reply = conn.call(request).map_err(|e| format!("wire error: {e}"))?;
    match reply.get("status").and_then(Json::as_str) {
        Some("ok") => Ok(reply),
        _ => Err(format!("refused: {}", reply.to_string_compact())),
    }
}

/// The server's `stats` body.
pub fn stats(conn: &mut Connection) -> Json {
    let reply = call(conn, &Json::obj(vec![("cmd", Json::Str("stats".into()))])).expect("stats");
    reply.get("stats").cloned().expect("stats body")
}

/// The number at `path` inside `json` (0 when absent).
pub fn num(json: &Json, path: &[&str]) -> f64 {
    let mut node = json;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0.0,
        }
    }
    node.as_f64().unwrap_or(0.0)
}

/// Median round trip of `count` `ping`s, milliseconds.
pub fn ping_ms_p50(conn: &mut Connection, count: usize) -> f64 {
    let ping = Json::obj(vec![("cmd", Json::Str("ping".into()))]);
    let samples: Vec<f64> = (0..count)
        .map(|_| {
            let start = Instant::now();
            call(conn, &ping).expect("ping");
            ms(start.elapsed())
        })
        .collect();
    median(&samples)
}

/// Layer metrics read from two `stats` bodies taken before and after a
/// phase: cache, admission and warm-seeding ratios over the phase's
/// allocation requests, and the server-side miss latency.
pub fn stats_layers(
    before: &Json,
    after: &Json,
    layers: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    let delta = |path: &[&str]| num(after, path) - num(before, path);
    let hits = delta(&["cache", "hits"]);
    let requests = (hits + delta(&["cache", "misses"])).max(1.0);
    layers.insert("server.cache_hit_ratio", hits / requests);
    layers.insert(
        "server.admission_hit_ratio",
        delta(&["warm", "admission", "hits"]) / requests,
    );
    layers.insert(
        "server.warm_seeded_ratio",
        (delta(&["warm", "seeded"]) + delta(&["warm", "reallocations"])) / requests,
    );
    layers.insert("server.miss_ms_p50", num(after, &["latency_ms", "p50"]));
}

/// One freshly computed response awaiting its reproduction check.
pub struct Fresh {
    /// The CDFG text sent.
    pub text: String,
    /// The request sent.
    pub request: Json,
    /// The server's reply.
    pub reply: Json,
}

/// Re-runs service jobs in-process, in the order one session received
/// them, and checks each: the canonical report must equal the server's
/// byte for byte, and the recovered RTL must compute what the CDFG
/// interpreter computes.
///
/// Warm-started jobs are re-seeded from this reproducer's own record of
/// the base job, so a session's jobs must be replayed in order and may
/// only be seeded by jobs of the same session.
#[derive(Default)]
pub struct Reproducer {
    admission: Option<AdmissionCache>,
    seeds: HashMap<String, Arc<SeedEntry>>,
}

impl Reproducer {
    /// Checks one response; returns the number of arrays whose final
    /// contents could not be compared.
    pub fn check(&mut self, fresh: &Fresh) -> Result<usize, String> {
        let admission = self
            .admission
            .get_or_insert_with(|| AdmissionCache::new(1 << 16));
        let artifact = admission
            .resolve(&GraphSource::Text(fresh.text.clone()))
            .map_err(|e| format!("re-parse: {e:?}"))?;
        let mut knobs = knobs_from_json(&fresh.request).map_err(|e| format!("knobs: {e:?}"))?;
        let report = fresh.reply.get("report").ok_or("reply has no report")?;
        if let Some(warm) = report.get("warm_start") {
            let source = warm.get("source").and_then(Json::as_str).unwrap_or("");
            let base = self
                .seeds
                .get(source)
                .ok_or_else(|| format!("warm seed from unknown job {source}"))?;
            let distance = warm.get("distance").and_then(Json::as_u64).unwrap_or(0);
            knobs.warm = Some(Arc::new(build_warm_spec(base, &artifact.graph, distance)));
        }
        let (mut mine, parts) =
            run_artifact(&artifact, &knobs, None).map_err(|e| format!("re-run: {e:?}"))?;
        let mut theirs = report.clone();
        if let Json::Obj(pairs) = &mut theirs {
            pairs.retain(|(key, _)| key != "certificate");
        }
        canonicalize_report(&mut mine);
        canonicalize_report(&mut theirs);
        if mine.to_string_compact() != theirs.to_string_compact() {
            return Err(format!(
                "{}: report differs from an in-process re-run",
                artifact.graph.name()
            ));
        }
        let id = fresh
            .reply
            .get("id")
            .and_then(Json::as_str)
            .ok_or("reply has no job id")?;
        let key = u128::from_str_radix(id, 16).map_err(|_| format!("bad job id {id}"))?;
        let seed = mix(key as u64);
        let unchecked = with_replay_env(&artifact.graph, &knobs, |ctx, _| {
            let binding = Binding::from_parts(ctx, &parts)?;
            let (rtl, claims, _) = verify_lowered(&binding);
            check_rtl(ctx.graph, ctx.schedule, ctx.library, &rtl, &claims, seed)
        })
        .map_err(|e| format!("replay environment: {e:?}"))??;
        let entry = SeedEntry {
            key,
            graph: artifact.graph.clone(),
            parts,
            cost: report.get("cost").and_then(Json::as_u64).unwrap_or(0),
            sketch: artifact.sketch.clone(),
        };
        self.seeds.insert(id.to_string(), Arc::new(entry));
        Ok(unchecked)
    }
}

/// Adds one reply's report (the winning chain's counters) to `prefix`.
pub fn count_reply(prefix: &mut PrefixCounts, reply: &Json) {
    let search = |key: &str| num(reply, &["report", "search", key]);
    prefix.add(
        search("attempted"),
        search("accepted"),
        search("trials_to_best"),
        num(reply, &["report", "mux", "merged"]),
        0.0,
    );
}

/// Search timing read from freshly computed replies: mean winning-chain
/// search time and its move rate.
pub fn search_layers(fresh: &[Fresh], layers: &mut std::collections::BTreeMap<&'static str, f64>) {
    let elapsed: Vec<f64> = fresh
        .iter()
        .map(|f| num(&f.reply, &["report", "search", "elapsed_ms"]))
        .collect();
    let moves: f64 = fresh
        .iter()
        .map(|f| num(&f.reply, &["report", "search", "attempted"]))
        .sum();
    layers.insert("core.search_ms", crate::mean(&elapsed));
    layers.insert(
        "core.moves_per_s",
        moves / (elapsed.iter().sum::<f64>() / 1e3).max(1e-9),
    );
}
