//! The benchmark's own determinism self-test: two runs of the same seed
//! over the same number of jobs give identical deterministic metrics,
//! and a different seed draws different designs.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`
//! (a debug build works too, only slower).

use salsa_perfbench::{geomean, run_phase, setup, Phase, Stop, Workload};

fn phase(workload: Workload, seed: u64, units: Vec<usize>) -> Phase {
    let phase = run_phase(setup(workload, seed), &Stop::Units(units), false);
    assert_eq!(
        phase.wrong, 0,
        "{:?}: outputs failed their checks: {:?}",
        workload, phase.failures
    );
    phase
}

/// The metrics that must repeat exactly, rendered bit-exactly.
fn deterministic(phase: &Phase, layers: &[&str]) -> Vec<String> {
    let mut out = vec![format!(
        "cost_ratio_geomean={:?}",
        geomean(&phase.cost_ratios)
    )];
    for name in layers {
        out.push(format!("{name}={:?}", phase.layers.get(name)));
    }
    out
}

fn assert_repeats(workload: Workload, units: Vec<usize>, layers: &[&str]) {
    let a = phase(workload, 7, units.clone());
    let b = phase(workload, 7, units.clone());
    assert!(!a.cost_ratios.is_empty(), "{workload:?}: no cost ratios");
    assert_eq!(
        deterministic(&a, layers),
        deterministic(&b, layers),
        "{workload:?}: same seed differs"
    );
    assert_eq!(a.attempted, b.attempted);
    let other = phase(workload, 8, units);
    assert_ne!(
        a.design_draw, other.design_draw,
        "{workload:?}: the seed must change the design draw"
    );
}

#[test]
fn compile_cold_repeats_exactly_per_seed() {
    assert_repeats(
        Workload::CompileCold,
        vec![6],
        &[
            "core.moves_per_job",
            "core.accept_ratio",
            "rtlgen.verilog_bytes",
            "datapath.mux_merged",
        ],
    );
}

#[test]
fn serve_edit_repeats_exactly_per_seed() {
    assert_repeats(
        Workload::ServeEdit,
        vec![3, 2],
        &[
            "core.moves_per_job",
            "server.cache_hit_ratio",
            "server.warm_seeded_ratio",
        ],
    );
}

#[test]
fn certify_full_repeats_exactly_per_seed() {
    assert_repeats(
        Workload::CertifyFull,
        vec![3],
        &["core.moves_per_job", "audit.commits_per_job"],
    );
}

#[test]
fn tail_is_a_fixed_nearest_rank_percentile() {
    let samples: Vec<f64> = (1..=150).map(f64::from).collect();
    let p = Workload::CertifyFull.tail_percentile();
    assert_eq!(salsa_perfbench::percentile(&samples, p), 135.0);
    assert_eq!(salsa_perfbench::beyond(samples.len(), p), 15);
    assert_eq!(salsa_perfbench::beyond(99, p), 9);
}
