//! The admission artifact cache: everything a job derives from its
//! design *before* search — parsed graph, canonical text, similarity
//! sketch, and per-knob-shape schedules — computed once per design and
//! shared by every subsequent job over it.
//!
//! Admission used to repeat this work per request: parse (or rebuild) the
//! graph, re-render the canonical text for the cache key and re-run
//! force-directed scheduling even when the previous job had the identical
//! design and knob shape. All of it is a pure function of
//! `(design, pipelined, steps)`, so a repeat miss skips straight to the
//! portfolio search. The compiled move plan is deliberately *not* kept:
//! it is about half of an artifact's memory, and compiling it costs a few
//! hundredths of a millisecond per job.
//!
//! Keyed by the FNV-1a 128 fingerprint of the *request spelling* (raw
//! CDFG text or benchmark name), so a repeat admission doesn't even
//! re-parse to discover it holds a known design. Distinct spellings of
//! one canonical design simply occupy two artifact slots — the artifact
//! is derived state, never an identity, so aliasing costs memory, not
//! correctness; the result cache still keys on canonical text.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use salsa_cdfg::{fnv1a_128, Cdfg};
use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};

use crate::exec::resolve_graph;
use crate::protocol::{ErrorKind, GraphSource, Knobs, ServeError};
use crate::similarity::Sketch;

/// The knob shape a derived schedule depends on: the library choice and
/// the *resolved* step count.
type DerivedKey = (bool, usize);

/// A schedule, derived once per `(design, pipelined, steps)` shape.
pub struct Derived {
    /// The force-directed schedule.
    pub schedule: Schedule,
    /// The resolved step count (`knobs.steps` or the ASAP length).
    pub steps: usize,
}

/// Everything admission derives from one design.
pub struct AdmissionArtifact {
    /// The resolved (and, for benchmarks, canonicalized) graph — shared,
    /// so the seed index's entry for a job holds no second copy.
    pub graph: Arc<Cdfg>,
    /// `graph.canonical_text()`, rendered once — the result-cache key
    /// and the verifier both read it from here.
    pub canonical_text: String,
    /// The similarity sketch for warm-start seeding.
    pub sketch: Sketch,
    derived: Mutex<HashMap<DerivedKey, Arc<Derived>>>,
}

impl AdmissionArtifact {
    /// Builds the artifact for a resolved graph.
    pub fn new(graph: Cdfg) -> Self {
        let canonical_text = graph.canonical_text();
        let sketch = Sketch::of(&graph);
        AdmissionArtifact {
            graph: Arc::new(graph),
            canonical_text,
            sketch,
            derived: Mutex::new(HashMap::new()),
        }
    }

    /// The schedule for this design under `knobs`, deriving and caching
    /// it on first use. Scheduling failures are
    /// not cached — a later request with feasible knobs must not be
    /// poisoned by an earlier infeasible one.
    pub fn derive(&self, knobs: &Knobs) -> Result<Arc<Derived>, ServeError> {
        let library =
            if knobs.pipelined { FuLibrary::pipelined() } else { FuLibrary::standard() };
        let steps = knobs.steps.unwrap_or_else(|| asap(&self.graph, &library).length);
        let key = (knobs.pipelined, steps);
        if let Some(hit) = self.derived.lock().expect("admission poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let schedule = fds_schedule(&self.graph, &library, steps)
            .map_err(|e| ServeError::new(ErrorKind::Schedule, e.to_string()))?;
        let derived = Arc::new(Derived { schedule, steps });
        self.derived
            .lock()
            .expect("admission poisoned")
            .entry(key)
            .or_insert_with(|| Arc::clone(&derived));
        Ok(derived)
    }
}

struct CacheInner {
    map: HashMap<u128, Arc<AdmissionArtifact>>,
    order: VecDeque<u128>,
}

/// Bounded FIFO cache of admission artifacts, keyed by request spelling.
pub struct AdmissionCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AdmissionCache {
    /// A cache holding at most `capacity` designs (min 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionCache {
            inner: Mutex::new(CacheInner { map: HashMap::new(), order: VecDeque::new() }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn source_key(source: &GraphSource) -> u128 {
        match source {
            GraphSource::Bench(name) => {
                fnv1a_128(format!("bench\x00{}", crate::protocol::canonical_bench_name(name)).as_bytes())
            }
            GraphSource::Text(text) => fnv1a_128(text.as_bytes()),
        }
    }

    /// Resolves a request source to its admission artifact, parsing and
    /// sketching only on the first sighting of this spelling.
    pub fn resolve(&self, source: &GraphSource) -> Result<Arc<AdmissionArtifact>, ServeError> {
        let key = Self::source_key(source);
        if let Some(hit) = self.inner.lock().expect("admission poisoned").map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(AdmissionArtifact::new(resolve_graph(source)?));
        let mut inner = self.inner.lock().expect("admission poisoned");
        if inner.map.insert(key, Arc::clone(&artifact)).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
        Ok(artifact)
    }

    /// Designs currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("admission poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_admissions_share_one_artifact_and_one_derivation() {
        let cache = AdmissionCache::new(4);
        let source = GraphSource::Bench("ewf".into());
        let a = cache.resolve(&source).unwrap();
        let b = cache.resolve(&source).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat admission must reuse the artifact");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Aliases land on the same slot as their canonical name.
        let aliased = cache.resolve(&GraphSource::Bench("hal".into())).unwrap();
        let canonical = cache.resolve(&GraphSource::Bench("diffeq".into())).unwrap();
        assert!(Arc::ptr_eq(&aliased, &canonical));

        // Derivations dedupe per schedule shape; the register headroom
        // only sizes the pool, so it shares the schedule.
        let knobs = Knobs::default();
        let d1 = a.derive(&knobs).unwrap();
        let d2 = b.derive(&knobs).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2), "same knob shape must reuse the derivation");
        let roomier = a.derive(&Knobs { extra_regs: 1, ..Knobs::default() }).unwrap();
        assert!(Arc::ptr_eq(&d1, &roomier), "extra_regs does not change the schedule");
        let longer = a.derive(&Knobs { steps: Some(d1.steps + 1), ..Knobs::default() }).unwrap();
        assert!(!Arc::ptr_eq(&d1, &longer), "the step count does");
    }

    #[test]
    fn infeasible_steps_fail_without_poisoning_the_artifact() {
        let cache = AdmissionCache::new(4);
        let artifact = cache.resolve(&GraphSource::Bench("ewf".into())).unwrap();
        let bad = Knobs { steps: Some(1), ..Knobs::default() };
        let err = artifact.derive(&bad).err().expect("1 step is infeasible");
        assert_eq!(err.kind, ErrorKind::Schedule);
        assert!(artifact.derive(&Knobs::default()).is_ok());
    }

    #[test]
    fn text_spellings_key_on_raw_bytes() {
        let cache = AdmissionCache::new(4);
        let text = "cdfg t\ninput a\nop x = add a a\noutput x\n";
        let a = cache.resolve(&GraphSource::Text(text.into())).unwrap();
        let b = cache.resolve(&GraphSource::Text(text.into())).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.canonical_text, a.graph.canonical_text());
    }
}
