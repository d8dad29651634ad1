//! The immutable context an allocation runs against.

use salsa_cdfg::{Cdfg, OpId, ValueId, ValueSource};
use salsa_datapath::Datapath;
use salsa_sched::{lifetimes, FuClass, FuLibrary, Lifetimes, Schedule};

use crate::plan::MovePlan;
use crate::AllocError;

/// Bundles the graph, schedule, library, resource pool and precomputed
/// lifetime analysis that a [`Binding`](crate::Binding) refers to. Cheap to
/// share; everything derived (issue steps, birth steps, lifetime segments)
/// is cached here once.
#[derive(Debug)]
pub struct AllocContext<'a> {
    /// The behaviour being allocated.
    pub graph: &'a Cdfg,
    /// Its schedule.
    pub schedule: &'a Schedule,
    /// The functional-unit library (must be the one used for scheduling).
    pub library: &'a FuLibrary,
    /// The resource pool.
    pub datapath: Datapath,
    /// Per-value stored lifetimes.
    pub lifetimes: Lifetimes,
    /// Flat candidate tables compiled once per context; the move
    /// proposers and the binding's owner enumeration draw from these
    /// instead of re-deriving their search space per move.
    pub plan: MovePlan,
}

impl<'a> AllocContext<'a> {
    /// Builds a context, checking the pool against the schedule's demand.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InsufficientRegisters`] /
    /// [`AllocError::InsufficientUnits`] when the pool cannot fit the
    /// schedule.
    pub fn new(
        graph: &'a Cdfg,
        schedule: &'a Schedule,
        library: &'a FuLibrary,
        datapath: Datapath,
    ) -> Result<Self, AllocError> {
        let lts = lifetimes(graph, schedule, library);
        let need_regs = lts.max_live();
        if datapath.num_regs() < need_regs {
            return Err(AllocError::InsufficientRegisters {
                need: need_regs,
                have: datapath.num_regs(),
            });
        }
        let demand = schedule.fu_demand(graph, library);
        for (class, need) in &demand {
            let have = datapath.fus_of_class(*class).count();
            if have < *need {
                return Err(AllocError::InsufficientUnits { class: *class, need: *need, have });
            }
        }
        if graph.has_memory() && datapath.num_banks() == 0 {
            return Err(AllocError::NoMemoryBanks);
        }
        let plan = MovePlan::compile(graph, schedule, library, &datapath, &lts);
        Ok(AllocContext { graph, schedule, library, datapath, lifetimes: lts, plan })
    }

    /// Number of control steps.
    pub fn n_steps(&self) -> usize {
        self.schedule.n_steps()
    }

    /// The resource class executing an operation.
    pub fn class_of(&self, op: OpId) -> FuClass {
        FuClass::for_op(self.graph.op(op).kind())
    }

    /// The steps an operation exclusively occupies its unit.
    pub fn occupied_steps(&self, op: OpId) -> std::ops::Range<usize> {
        self.schedule.occupied_steps(self.graph, self.library, op)
    }

    /// The step at which an operation's result completes (is latched).
    pub fn completion_step(&self, op: OpId) -> usize {
        self.schedule.issue(op) + self.library.delay(self.graph.op(op).kind()) - 1
    }

    /// The producing operation of a value, if any.
    pub fn producer(&self, value: ValueId) -> Option<OpId> {
        self.graph.value(value).source().op()
    }

    /// Returns `true` if the value requires storage (not a constant).
    pub fn is_stored(&self, value: ValueId) -> bool {
        !matches!(self.graph.value(value).source(), ValueSource::Const(_))
    }

    /// The position of control step `step` within a value's lifetime, or
    /// `None` if the value is not stored then. O(1) through the compiled
    /// plan's dense `value × step` table.
    pub fn lifetime_index(&self, value: ValueId, step: usize) -> Option<usize> {
        self.plan.lifetime_index(value, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_cdfg::benchmarks::ewf;
    use salsa_sched::fds_schedule;
    use std::collections::BTreeMap;

    #[test]
    fn pool_checks() {
        let graph = ewf();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 17).unwrap();
        let demand = schedule.fu_demand(&graph, &library);
        let regs = schedule.register_demand(&graph, &library);

        let ok = Datapath::new(&demand, regs);
        assert!(AllocContext::new(&graph, &schedule, &library, ok).is_ok());

        let small = Datapath::new(&demand, regs - 1);
        assert!(matches!(
            AllocContext::new(&graph, &schedule, &library, small),
            Err(AllocError::InsufficientRegisters { .. })
        ));

        let mut fewer = demand.clone();
        *fewer.get_mut(&FuClass::Mul).unwrap() -= 1;
        let starved = Datapath::new(&fewer, regs);
        assert!(matches!(
            AllocContext::new(&graph, &schedule, &library, starved),
            Err(AllocError::InsufficientUnits { class: FuClass::Mul, .. })
        ));
        let _ = BTreeMap::from([(FuClass::Alu, 0usize)]);
    }

    #[test]
    fn helpers() {
        let graph = ewf();
        let library = FuLibrary::standard();
        let schedule = fds_schedule(&graph, &library, 17).unwrap();
        let demand = schedule.fu_demand(&graph, &library);
        let regs = schedule.register_demand(&graph, &library);
        let ctx =
            AllocContext::new(&graph, &schedule, &library, Datapath::new(&demand, regs)).unwrap();
        assert_eq!(ctx.n_steps(), 17);
        let mul = graph.ops().find(|o| o.kind() == salsa_cdfg::OpKind::Mul).unwrap();
        assert_eq!(ctx.class_of(mul.id()), FuClass::Mul);
        assert_eq!(
            ctx.completion_step(mul.id()),
            schedule.issue(mul.id()) + 1,
            "two-step multiply completes one step after issue"
        );
        assert!(ctx.is_stored(mul.output()));
        let k = graph.values().find(|v| v.is_const()).unwrap().id();
        assert!(!ctx.is_stored(k));
    }
}
