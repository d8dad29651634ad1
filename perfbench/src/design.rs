//! Seeded inputs and the output checks shared by every workload: design
//! draws, designer edits, search-free reference costs, and the
//! simulate-versus-evaluate gate.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salsa_alloc::{initial_allocation, Allocator};
use salsa_baseline::MatchingBinder;
use salsa_cdfg::{
    benchmarks, evaluate, random_cdfg, ArrayId, Cdfg, OpKind, RandomCdfgConfig, ValueId,
    ValueSource,
};
use salsa_datapath::{simulate, Claims, CostWeights, Rtl};
use salsa_sched::{FuLibrary, Schedule};

/// SplitMix64 finalizer: spreads a 64-bit value over all bits.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator for item `index` of stream `stream` under a workload
/// seed. Streams keep the draws of different purposes independent.
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(stream ^ mix(index))))
}

/// A seeded random design in canonical text form. `ops` is the
/// operation count; `arrays > 0` adds banked memory arrays.
pub fn random_design(rng: &mut StdRng, ops: usize, arrays: usize) -> String {
    let config = RandomCdfgConfig {
        ops,
        inputs: rng.gen_range(2..=4),
        states: rng.gen_range(0..=3),
        mul_ratio: 0.3,
        const_coeff_ratio: 0.8,
        arrays,
        mem_ratio: 0.2,
    };
    random_cdfg(&config, rng.gen()).canonical_text()
}

/// Number of leading `compile-cold` jobs that interleave the built-in
/// designs (every fourth job, in a seeded order).
pub const BUILTIN_SPAN: usize = 40;

/// Job `index` of the `compile-cold` stream: its CDFG text and schedule
/// slack (control steps beyond the critical path).
///
/// The first [`BUILTIN_SPAN`] jobs place all ten built-in designs on
/// every fourth slot. Every other job is a random graph whose size walks
/// eight strata over 10–37 operations, and one job in five declares
/// one or two arrays. Sizes are stratified rather than drawn freely so
/// that every seed sees the same size profile.
pub fn cold_job(seed: u64, index: usize) -> (String, usize) {
    let mut rng = rng_for(seed, 1, index as u64);
    let slack = rng.gen_range(0..=2);
    if index < BUILTIN_SPAN && index.is_multiple_of(4) {
        let mut order: Vec<usize> = (0..benchmarks::all().len()).collect();
        let mut perm = rng_for(seed, 2, 0);
        for i in (1..order.len()).rev() {
            order.swap(i, perm.gen_range(0..=i));
        }
        let graph = &benchmarks::all()[order[index / 4]];
        return (graph.canonical_text(), slack);
    }
    let ops = 10 + 7 * (index % 8) / 2 + rng.gen_range(0..4usize);
    let arrays = if index % 5 == 1 {
        rng.gen_range(1..=2)
    } else {
        0
    };
    (random_design(&mut rng, ops, arrays), slack)
}

/// Applies one designer edit to a canonical CDFG text: either flips a
/// `sub` into an `add`, or sets one constant to `fresh`, a value the
/// caller never hands out twice. Either way the result differs from
/// every earlier design of the episode, so no edit can turn a fresh job
/// into a cache hit.
///
/// Edits never turn an `add` into a `sub`: a job warm-started from a
/// winner that swapped that `add`'s operands fails the allocator's
/// final verification (see the README's defect list), and every
/// operation of this workload must succeed.
///
/// Returns `None` when the design has neither a `sub` nor a constant.
pub fn edit_design(text: &str, rng: &mut StdRng, fresh: i64) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let lines_where = |pred: fn(&str) -> bool| -> Vec<usize> {
        (0..lines.len()).filter(|&i| pred(&lines[i])).collect()
    };
    let subs = lines_where(is_sub);
    let constants = lines_where(is_constant);
    if !subs.is_empty() && (constants.is_empty() || rng.gen_bool(0.5)) {
        let at = subs[rng.gen_range(0..subs.len())];
        lines[at] = lines[at].replacen(" = sub ", " = add ", 1);
    } else if !constants.is_empty() {
        let at = constants[rng.gen_range(0..constants.len())];
        let head = lines[at]
            .rsplit_once(' ')
            .map_or("", |(head, _)| head)
            .to_string();
        lines[at] = format!("{head} {fresh}");
    } else {
        return None;
    }
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

/// Whether [`edit_design`] can edit `text` at least `edits` times in a
/// row: it has a constant, or that many `sub` operations.
pub fn editable(text: &str, edits: usize) -> bool {
    text.lines().any(is_constant) || text.lines().filter(|l| is_sub(l)).count() >= edits
}

fn is_sub(line: &str) -> bool {
    line.starts_with("op ") && line.contains(" = sub ")
}

fn is_constant(line: &str) -> bool {
    line.starts_with("const ")
}

/// The search-free reference cost of a design under the pool the
/// allocator would build for `schedule`: the matching binder for scalar
/// designs, the constructive initial allocation for array designs (the
/// matching binder ignores bank conflicts, whose penalty would swamp
/// the ratio).
pub fn reference_cost(graph: &Cdfg, schedule: &Schedule, library: &FuLibrary) -> u64 {
    let allocator = Allocator::new(graph, schedule, library);
    let (ctx, _) = allocator
        .prepare()
        .expect("reference pool fits the schedule");
    let binding = if graph.has_memory() {
        initial_allocation(&ctx)
    } else {
        MatchingBinder::new().bind(&ctx)
    };
    CostWeights::default().evaluate(&binding.breakdown())
}

/// Runs the allocated register-transfer program for four iterations on
/// seeded inputs and compares it with the CDFG interpreter: every output
/// of every iteration, and the final words of every array.
///
/// An array written by two or more store operations is the exception:
/// when two of its stores hit one address in the same iteration, the
/// interpreter keeps the later store in operation order while the RTL
/// keeps the later one in schedule order, and the schedule does not
/// order stores. Such arrays are not compared; their count is returned
/// so the run can report how many went unchecked.
pub fn check_rtl(
    graph: &Cdfg,
    schedule: &Schedule,
    library: &FuLibrary,
    rtl: &Rtl,
    claims: &Claims,
    seed: u64,
) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed));
    let plain: Vec<ValueId> = graph
        .values()
        .filter(|v| v.source() == ValueSource::Input && !v.is_state())
        .map(|v| v.id())
        .collect();
    let inputs: Vec<BTreeMap<ValueId, i64>> = (0..4)
        .map(|_| {
            plain
                .iter()
                .map(|&v| (v, rng.gen_range(-1000..1000)))
                .collect()
        })
        .collect();
    let state: BTreeMap<ValueId, i64> = graph
        .state_values()
        .map(|s| (s, rng.gen_range(-1000..1000)))
        .collect();
    let golden = evaluate(graph, &inputs, &state);
    let sim = simulate(graph, schedule, library, rtl, claims, &inputs, &state)
        .map_err(|e| format!("{}: simulation failed: {e}", graph.name()))?;
    for (k, (want, got)) in golden.outputs.iter().zip(&sim.outputs).enumerate() {
        for (v, expected) in want {
            if got.get(v) != Some(expected) {
                return Err(format!(
                    "{}: iteration {k} output {v} differs",
                    graph.name()
                ));
            }
        }
    }
    let mut stores: BTreeMap<ArrayId, usize> = BTreeMap::new();
    for op in graph.ops().filter(|op| op.kind() == OpKind::Store) {
        *stores
            .entry(op.array().expect("stores carry an array"))
            .or_default() += 1;
    }
    let mut unchecked = 0;
    for (array, words) in &golden.arrays {
        if stores.get(array).copied().unwrap_or(0) > 1 {
            unchecked += 1;
        } else if sim.final_arrays.get(array) != Some(words) {
            return Err(format!(
                "{}: final contents of array {array:?} differ",
                graph.name()
            ));
        }
    }
    Ok(unchecked)
}
