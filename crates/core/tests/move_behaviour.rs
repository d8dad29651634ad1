//! Behavioural unit tests for each move kind of Table 1: observable
//! post-conditions beyond the blanket consistency/verification properties.

use rand::rngs::StdRng;
use rand::SeedableRng;

use salsa_alloc::{initial_allocation, lower, moves, AllocContext, Binding, MoveKind};
use salsa_cdfg::{benchmarks, OpKind};
use salsa_datapath::{verify, Datapath};
use salsa_sched::{fds_schedule, FuLibrary};

struct Fixture {
    graph: salsa_cdfg::Cdfg,
    schedule: salsa_sched::Schedule,
    library: FuLibrary,
}

impl Fixture {
    fn new(graph: salsa_cdfg::Cdfg, steps: usize, extra_regs: usize) -> (Self, Datapath) {
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, steps).unwrap();
        let datapath = Datapath::new(
            &schedule.fu_demand(&graph, &library),
            schedule.register_demand(&graph, &library) + extra_regs,
        );
        (Fixture { graph, schedule, library }, datapath)
    }
}

/// Applies `kind` until it succeeds (bounded); panics if it never does.
fn apply_until(binding: &mut Binding<'_>, kind: MoveKind, rng: &mut StdRng, tries: usize) {
    for _ in 0..tries {
        if moves::try_move(binding, kind, rng) {
            return;
        }
    }
    panic!("{kind:?} never applied in {tries} attempts");
}

fn total_claims(binding: &Binding<'_>) -> usize {
    lower(binding).1.placements.len()
}

#[test]
fn fu_exchange_preserves_per_class_op_counts() {
    let (fx, dp) = Fixture::new(benchmarks::ewf(), 19, 0);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let count_per_fu = |b: &Binding<'_>| -> Vec<usize> {
        let mut counts = vec![0; ctx.datapath.num_fus()];
        for op in fx.graph.op_ids() {
            counts[b.op_fu(op).index()] += 1;
        }
        counts
    };
    let before: usize = count_per_fu(&binding).iter().sum();
    let mut rng = StdRng::seed_from_u64(1);
    apply_until(&mut binding, MoveKind::FuExchange, &mut rng, 50);
    binding.check_consistency();
    assert_eq!(count_per_fu(&binding).iter().sum::<usize>(), before);
}

#[test]
fn operand_reverse_toggles_and_is_self_inverse() {
    let (fx, dp) = Fixture::new(benchmarks::diffeq(), 9, 0);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let swaps = |b: &Binding<'_>| -> usize {
        fx.graph.op_ids().filter(|&o| b.op_swapped(o)).count()
    };
    assert_eq!(swaps(&binding), 0, "initial allocation never swaps");
    let mut rng = StdRng::seed_from_u64(2);
    apply_until(&mut binding, MoveKind::OperandReverse, &mut rng, 20);
    assert_eq!(swaps(&binding), 1);
    binding.check_consistency();
    // Reversing the same op again must restore; reverse until zero again.
    for _ in 0..400 {
        moves::try_move(&mut binding, MoveKind::OperandReverse, &mut rng);
        if swaps(&binding) == 0 {
            break;
        }
    }
    assert_eq!(swaps(&binding), 0, "reversal is an involution");
}

#[test]
fn from_parts_rejects_swapped_operands_on_non_commutative_ops() {
    // Binding images arrive untrusted (warm seeds, cluster workers): one
    // that swaps a `sub` must be refused, or the rebuilt binding computes
    // `b - a` and fails verification. A commutative swap stays legal.
    let (fx, dp) = Fixture::new(benchmarks::diffeq(), 9, 0);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let parts = initial_allocation(&ctx).to_parts();
    let op_of = |kind: OpKind| fx.graph.ops().find(|o| o.kind() == kind).unwrap().id();

    let mut swapped_sub = parts.clone();
    swapped_sub.op_swap[op_of(OpKind::Sub).index()] = true;
    let err = Binding::from_parts(&ctx, &swapped_sub).expect_err("a swapped sub is refused");
    assert!(err.contains("non-commutative"), "{err}");

    let mut swapped_add = parts;
    swapped_add.op_swap[op_of(OpKind::Add).index()] = true;
    let rebuilt = Binding::from_parts(&ctx, &swapped_add).expect("a swapped add is legal");
    assert!(rebuilt.op_swapped(op_of(OpKind::Add)));
    let (rtl, claims) = lower(&rebuilt);
    verify(&fx.graph, &fx.schedule, &fx.library, &ctx.datapath, &rtl, &claims)
        .expect("a commutative swap still verifies");
}

#[test]
fn segment_moves_never_change_claim_count() {
    let (fx, dp) = Fixture::new(benchmarks::ewf(), 19, 1);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let before = total_claims(&binding);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..40 {
        moves::try_move(&mut binding, MoveKind::SegmentMove, &mut rng);
        moves::try_move(&mut binding, MoveKind::SegmentExchange, &mut rng);
    }
    binding.check_consistency();
    assert_eq!(total_claims(&binding), before, "segments move, never appear/disappear");
}

#[test]
fn split_adds_claims_and_merge_removes_them() {
    let (fx, dp) = Fixture::new(benchmarks::dct(), 10, 2);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let base = total_claims(&binding);
    let mut rng = StdRng::seed_from_u64(4);
    apply_until(&mut binding, MoveKind::ValueSplit, &mut rng, 200);
    assert!(total_claims(&binding) > base, "split duplicates at least one segment");
    // Merge everything back and check the claim count returns to base.
    for _ in 0..1000 {
        if fx.graph.value_ids().all(|v| binding.num_copies(v) == 0) {
            break;
        }
        moves::try_move(&mut binding, MoveKind::ValueMerge, &mut rng);
    }
    assert_eq!(total_claims(&binding), base, "all copies merged away");
    binding.check_consistency();
}

#[test]
fn pass_bind_and_unbind_are_inverse_in_count() {
    let (fx, dp) = Fixture::new(benchmarks::fir16(), 10, 0);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let mut rng = StdRng::seed_from_u64(5);
    apply_until(&mut binding, MoveKind::PassBind, &mut rng, 100);
    apply_until(&mut binding, MoveKind::PassBind, &mut rng, 100);
    assert_eq!(binding.passes().len(), 2);
    apply_until(&mut binding, MoveKind::PassUnbind, &mut rng, 50);
    assert_eq!(binding.passes().len(), 1);
    binding.check_consistency();
    let (rtl, claims) = lower(&binding);
    verify(&fx.graph, &fx.schedule, &fx.library, &ctx.datapath, &rtl, &claims).unwrap();
}

#[test]
fn value_move_produces_a_uniform_chain() {
    let (fx, dp) = Fixture::new(benchmarks::ar_lattice(), 17, 1);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let mut rng = StdRng::seed_from_u64(6);
    // Fragment something first.
    for _ in 0..60 {
        moves::try_move(&mut binding, MoveKind::SegmentMove, &mut rng);
    }
    // Then value-moves re-unify; after enough of them at least every moved
    // value is uniform (weak but observable: consistency plus verify).
    for _ in 0..60 {
        moves::try_move(&mut binding, MoveKind::ValueMove, &mut rng);
    }
    binding.check_consistency();
    let uniform = fx
        .graph
        .value_ids()
        .filter(|&v| binding.primal(v).is_some_and(|c| c.is_uniform()))
        .count();
    assert!(uniform > 0);
    let (rtl, claims) = lower(&binding);
    verify(&fx.graph, &fx.schedule, &fx.library, &ctx.datapath, &rtl, &claims).unwrap();
}

#[test]
fn moves_do_not_touch_constants() {
    let (fx, dp) = Fixture::new(benchmarks::ewf(), 17, 1);
    let ctx = AllocContext::new(&fx.graph, &fx.schedule, &fx.library, dp).unwrap();
    let mut binding = initial_allocation(&ctx);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..300 {
        let kind = salsa_alloc::MoveSet::full().pick(&mut rng);
        moves::try_move(&mut binding, kind, &mut rng);
    }
    let (_, claims) = lower(&binding);
    for p in &claims.placements {
        assert!(
            !fx.graph.value(p.value).is_const(),
            "constants never claim registers"
        );
    }
}
