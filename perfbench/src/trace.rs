//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API. Nothing inside the program is traced.
//!
//! A span has a name, a start and end (nanoseconds from the tracer's
//! origin), its parent span and the id of the job it belongs to. Spans
//! stay in memory during the run and are written out once at exit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.search`.
    pub name: &'static str,
    /// The job this span belongs to (shared by all spans of one job).
    pub job: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer origin.
    pub end_ns: u64,
}

/// A per-thread span recorder. When disabled every call is a plain
/// function call with no clock reads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` of job `job`, nested under the
    /// innermost span still open on this tracer; close it with
    /// [`end`](Tracer::end).
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `begin` returned, and any span left open inside it.
    pub fn end(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name` of job `job`.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let index = self.begin(name, job);
        let result = f();
        self.end(index);
        result
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (one thread's spans) to `all`, rebasing parent links.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span in milliseconds, grouped by span name: each
/// span's duration minus the time its direct children cover. Children of
/// one span never overlap, since each tracer belongs to one thread.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        out.entry(span.name).or_default().push(own as f64 / 1e6);
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Writes one JSON object per span, in recording order.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.job, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
