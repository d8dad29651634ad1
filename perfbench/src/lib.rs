//! The repository's benchmark: three closed-loop workloads over the
//! SALSA allocator, each printing seven end-to-end metrics untraced and
//! the per-layer metrics from a second, traced run. See `README.md`
//! beside this crate for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod certify;
mod cold;
mod design;
mod edit;
mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use trace::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in-process caller compiling never-repeating designs.
    CompileCold,
    /// Two designer sessions editing and resubmitting against the service.
    ServeEdit,
    /// One connection submitting distinct designs with `verify: full`.
    CertifyFull,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::CompileCold,
        Workload::ServeEdit,
        Workload::CertifyFull,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile-cold",
            Workload::ServeEdit => "serve-edit",
            Workload::CertifyFull => "certify-full",
        }
    }

    /// The percentile `latency_ms_tail` reports. It is fixed per
    /// workload, so that a faster or slower run never switches the
    /// statistic, and set so that a 20-second run on a 2-vCPU host keeps
    /// at least ten samples beyond it: about 100–200 jobs on
    /// `compile-cold` and `certify-full`, and about 1,400–1,700 requests
    /// on `serve-edit`.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::CompileCold | Workload::CertifyFull => 90.0,
            Workload::ServeEdit => 99.0,
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// When a closed-loop caller stops issuing work.
#[derive(Debug, Clone)]
pub enum Stop {
    /// Once `secs` of wall time have passed and the caller has finished
    /// at least `min` units (so the deterministic prefix is always
    /// complete).
    After { secs: f64, min: usize },
    /// After exactly this many units per caller (replays an earlier
    /// phase's work, and bounds the self-tests).
    Units(Vec<usize>),
}

impl Stop {
    /// Whether caller `caller`, started at `start` with `done` units
    /// finished, should stop.
    pub fn reached(&self, caller: usize, start: Instant, done: usize) -> bool {
        match self {
            Stop::After { secs, min } => done >= *min && start.elapsed().as_secs_f64() >= *secs,
            Stop::Units(units) => done >= units[caller],
        }
    }
}

/// What one timed phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Client-side latency of every completed job, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that errored, were refused, timed out or failed a check.
    pub failed: u64,
    /// Of `failed`, the jobs whose returned output failed a check.
    pub wrong: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Wall time the throughput is computed over, seconds.
    pub wall_s: f64,
    /// Units each caller finished (jobs, or edit steps on `serve-edit`).
    pub units: Vec<usize>,
    /// Final cost ÷ reference cost over the deterministic prefix.
    pub cost_ratios: Vec<f64>,
    /// Per-layer metrics (the deterministic ones are filled on every
    /// phase, the timing ones only when traced).
    pub layers: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced phases only).
    pub spans: Vec<Span>,
    /// Fingerprint of every design the phase drew, in order.
    pub design_draw: u128,
    /// Arrays whose final contents the check could not compare (written
    /// by more than one store; see [`design::check_rtl`]).
    pub unchecked_arrays: usize,
}

impl Phase {
    /// Folds one drawn design into [`design_draw`](Phase::design_draw).
    pub fn drew(&mut self, text: &str) {
        self.design_draw = self.design_draw.rotate_left(7) ^ salsa_cdfg::fnv1a_128(text.as_bytes());
    }

    /// Records one failed job.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// Deterministic per-job counts summed over a workload's prefix jobs.
#[derive(Default)]
pub(crate) struct PrefixCounts {
    jobs: f64,
    attempted: f64,
    accepted: f64,
    trials_to_best: f64,
    mux_merged: f64,
    verilog_bytes: f64,
}

impl PrefixCounts {
    /// Adds one job's moves attempted and accepted, trial of its best
    /// cost, merged 2-1 muxes and Verilog size (0 where none is made).
    pub(crate) fn add(
        &mut self,
        attempted: f64,
        accepted: f64,
        trials_to_best: f64,
        mux_merged: f64,
        verilog_bytes: f64,
    ) {
        self.jobs += 1.0;
        self.attempted += attempted;
        self.accepted += accepted;
        self.trials_to_best += trials_to_best;
        self.mux_merged += mux_merged;
        self.verilog_bytes += verilog_bytes;
    }

    /// Writes the per-job means into `layers`.
    pub(crate) fn fill(&self, layers: &mut BTreeMap<&'static str, f64>) {
        let jobs = self.jobs.max(1.0);
        layers.insert("core.moves_per_job", self.attempted / jobs);
        layers.insert("core.accept_ratio", self.accepted / self.attempted.max(1.0));
        layers.insert("core.trials_to_best", self.trials_to_best / jobs);
        layers.insert("datapath.mux_merged", self.mux_merged / jobs);
        layers.insert("rtlgen.verilog_bytes", self.verilog_bytes / jobs);
    }
}

/// Per-layer metric names, in the order they are printed. A layer a
/// workload does not exercise reports 0.
pub const LAYER_METRICS: [(&str, &str); 23] = [
    ("core.search_ms", "ms"),
    ("core.moves_per_s", "1/s"),
    ("core.prepare_ms", "ms"),
    ("core.complete_ms", "ms"),
    ("core.moves_per_job", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.trials_to_best", "count"),
    ("sched.fds_ms", "ms"),
    ("cdfg.parse_ms", "ms"),
    ("rtlgen.verilog_ms", "ms"),
    ("rtlgen.verilog_bytes", "bytes"),
    ("datapath.mux_merged", "count"),
    ("audit.verify_ms", "ms"),
    ("audit.commits_per_job", "count"),
    ("server.hit_ms_p50", "ms"),
    ("server.miss_ms_p50", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.admission_hit_ratio", "ratio"),
    ("server.warm_seeded_ratio", "ratio"),
    ("wire.ping_ms_p50", "ms"),
    ("wire.bytes_per_job", "bytes"),
    ("harness.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// End-to-end metric names and units, in the order they are printed.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("cost_ratio_geomean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Times setup runs per benchmark run; the reported `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 5;

/// The nearest-rank `p`-th percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive `values` (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`; 0
/// where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The one-minute load average (0 where `/proc` is unavailable).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A workload's opaque prepared state.
pub enum Prepared {
    /// `compile-cold` set-up.
    Cold(cold::Setup),
    /// `serve-edit` set-up.
    Edit(edit::Setup),
    /// `certify-full` set-up.
    Certify(certify::Setup),
}

/// Runs `workload`'s set-up for `seed`: design generation, reference
/// costs, server bind and warm-up.
pub fn setup(workload: Workload, seed: u64) -> Prepared {
    match workload {
        Workload::CompileCold => Prepared::Cold(cold::setup(seed)),
        Workload::ServeEdit => Prepared::Edit(edit::setup(seed)),
        Workload::CertifyFull => Prepared::Certify(certify::setup(seed)),
    }
}

/// Runs one timed phase over a prepared workload, consuming it (servers
/// are shut down and joined before this returns).
pub fn run_phase(prepared: Prepared, stop: &Stop, traced: bool) -> Phase {
    match prepared {
        Prepared::Cold(s) => cold::run(s, stop, traced),
        Prepared::Edit(s) => edit::run(s, stop, traced),
        Prepared::Certify(s) => certify::run(s, stop, traced),
    }
}

/// The result of one benchmark run.
pub struct RunReport {
    /// Metric name, value and unit, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Jobs attempted over every phase.
    pub attempted: u64,
    /// Jobs failed over every phase.
    pub failed: u64,
    /// Jobs whose returned output failed a check, over every phase.
    pub wrong: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Run metadata as one JSON object.
    pub meta: String,
    /// Self time per span name (p50 ms and count), traced runs only.
    pub self_times: Vec<(&'static str, f64, usize)>,
    /// Spans of the traced phase (written out at exit).
    pub spans: Vec<Span>,
}

/// Runs the benchmark: set-up [`SETUP_REPEATS`] times, then either one
/// untraced phase of `seconds` (end-to-end metrics) or, when `traced`,
/// an untraced phase of `seconds / 2` followed by a traced replay of
/// exactly the same work (per-layer metrics, and the tracing overhead as
/// the wall-time difference between the two).
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunReport {
    let load_start = load_average();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(setup(workload, seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let min = match workload {
        Workload::CompileCold => cold::PREFIX,
        Workload::ServeEdit => edit::PREFIX_STEPS,
        Workload::CertifyFull => certify::PREFIX,
    };

    let mut phases = Vec::new();
    if traced {
        let plain = run_phase(
            prepared,
            &Stop::After {
                secs: seconds / 2.0,
                min,
            },
            false,
        );
        let replay = Stop::Units(plain.units.clone());
        let traced = run_phase(setup(workload, seed), &replay, true);
        phases.push(plain);
        phases.push(traced);
    } else {
        phases.push(run_phase(
            prepared,
            &Stop::After { secs: seconds, min },
            false,
        ));
    }

    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum();
    let wrong = phases.iter().map(|p| p.wrong).sum();
    let failures = phases.iter().flat_map(|p| p.failures.clone()).collect();
    let spans = phases
        .get_mut(1)
        .map(|p| std::mem::take(&mut p.spans))
        .unwrap_or_default();
    let main = &phases[0];
    let mut sorted = main.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = workload.tail_percentile();
    let throughput = main.latencies_ms.len() as f64 / main.wall_s.max(1e-9);

    let mut metrics = Vec::new();
    let mut self_times = Vec::new();
    if let [plain, traced] = &phases[..] {
        let mut layers = traced.layers.clone();
        layers.insert(
            "trace.overhead_pct",
            (traced.wall_s / plain.wall_s.max(1e-9) - 1.0) * 100.0,
        );
        for (name, unit) in LAYER_METRICS {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
        for (name, values) in trace::self_times_ms(&spans) {
            self_times.push((name, median(&values), values.len()));
        }
    } else {
        let values = [
            median(&setup_s),
            throughput,
            percentile(&sorted, 50.0),
            percentile(&sorted, tail_pct),
            geomean(&main.cost_ratios),
            peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    let failed_ratio = failed as f64 / (attempted as f64).max(1.0);
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"traced\":{traced},\
         \"nproc\":{},\"loadavg_start\":{load_start},\"tail_percentile\":{tail_pct},\
         \"tail_samples\":{},\"tail_beyond\":{},\"failed_ratio\":{failed_ratio},\"setup_runs_s\":{:?},\
         \"units\":{:?},\"unchecked_arrays\":{}}}",
        workload.name(),
        nproc(),
        sorted.len(),
        beyond(sorted.len(), tail_pct),
        setup_s,
        main.units,
        phases.iter().map(|p| p.unchecked_arrays).sum::<usize>(),
    );
    RunReport {
        metrics,
        attempted,
        failed,
        wrong,
        failures,
        meta,
        self_times,
        spans,
    }
}
