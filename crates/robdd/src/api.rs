//! The [`ddcore::api`] backend implementations for the ROBDD baseline.
//!
//! Mirrors `bbdd::api`: [`Robdd`] and [`ParRobdd`] implement
//! [`RawManager`], deriving the [`FunctionManager`](ddcore::api::FunctionManager) /
//! [`BooleanFunction`](ddcore::api::BooleanFunction) pair through the
//! shared generic machinery — no per-crate handle code.
//!
//! ```
//! use robdd::prelude::*;
//!
//! let mgr = RobddManager::with_vars(3);
//! let (a, b) = (mgr.var(0), mgr.var(1));
//! let f = &a ^ &b;
//! drop(b);            // the XOR nodes stay alive through `f`
//! mgr.gc();           // no root list — the registry knows
//! assert!(f.eval(&[true, false, false]));
//! ```

use crate::edge::Edge;
use crate::manager::Robdd;
use crate::par::ParRobdd;
use ddcore::api::{ManagerRef, RawManager};
use ddcore::boolop::BoolOp;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::roots::{RootGuard, RootSet};
use ddcore::walk;

/// The trait-level ROBDD manager.
pub type RobddManager = ManagerRef<Robdd>;

/// The trait-level multi-core ROBDD manager.
pub type ParRobddManager = ManagerRef<ParRobdd>;

/// An owned, reference-counted handle to an ROBDD function.
pub type RobddFn = ddcore::api::Function<Robdd>;

/// An owned handle to a function of the multi-core ROBDD manager.
pub type ParRobddFn = ddcore::api::Function<ParRobdd>;

impl RawManager for Robdd {
    type Edge = Edge;

    fn with_vars(num_vars: usize) -> Self {
        Robdd::new(num_vars)
    }

    fn num_vars(&self) -> usize {
        Robdd::num_vars(self)
    }

    fn root_registry(&self) -> &RootSet {
        self.root_set()
    }

    fn edge_bits(e: Edge) -> u64 {
        u64::from(e.bits())
    }

    fn constant_edge(&self, value: bool) -> Edge {
        if value {
            self.one()
        } else {
            self.zero()
        }
    }

    fn var_edge(&mut self, var: usize) -> Edge {
        self.var(var)
    }

    fn try_apply_edge(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_apply(op, f, g, budget)
    }

    fn try_ite_edge(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_ite(f, g, h, budget)
    }

    fn try_exists_edge(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_exists(f, vars, budget)
    }

    fn try_forall_edge(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_forall(f, vars, budget)
    }

    fn try_and_exists_edge(
        &mut self,
        f: Edge,
        g: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_and_exists(f, g, vars, budget)
    }

    fn try_compose_edge(
        &mut self,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_compose(f, var, g, budget)
    }

    fn restrict_edge(&mut self, f: Edge, var: usize, value: bool) -> Edge {
        self.restrict(f, var, value)
    }

    fn vector_compose_edge(&mut self, f: Edge, subs: &[Option<Edge>]) -> Edge {
        self.vector_compose(f, subs)
    }

    fn eval_edge(&self, f: Edge, assignment: &[bool]) -> bool {
        self.eval(f, assignment)
    }

    fn try_sat_count_edge(&self, f: Edge, budget: &mut OpBudget) -> Result<u128, OpAbort> {
        walk::try_sat_count(self, f, self.num_vars(), budget)
    }

    fn any_sat_edge(&self, f: Edge) -> Option<Vec<bool>> {
        self.any_sat(f)
    }

    fn all_sat_edge(&self, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        self.all_sat(f, limit)
    }

    fn shared_node_count_edges(&self, roots: &[Edge]) -> usize {
        self.shared_node_count(roots)
    }

    fn support_edge(&mut self, f: Edge) -> Vec<usize> {
        self.support(f)
    }

    fn to_dot_edges(&self, roots: &[Edge], names: &[&str]) -> String {
        self.to_dot(roots, names)
    }

    /// Internal nodes per top-based order position.
    fn level_profile_edges(&self, roots: &[Edge]) -> Option<Vec<usize>> {
        let mut profile = vec![0; self.num_vars()];
        walk::visit(self, roots, usize::MAX, |_, (_, _, meta)| {
            profile[self.position_of(usize::from(meta as u16))] += 1;
        });
        Some(profile)
    }

    fn after_op(&mut self) {
        self.maybe_auto_gc();
    }

    fn gc(&mut self) -> usize {
        Robdd::gc(self)
    }

    fn set_gc_threshold(&mut self, threshold: usize) {
        Robdd::set_gc_threshold(self, threshold);
    }

    fn gc_threshold(&self) -> usize {
        Robdd::gc_threshold(self)
    }

    fn live_nodes(&self) -> usize {
        Robdd::live_nodes(self)
    }

    fn reorder_with(
        &mut self,
        strategy: ddcore::dvo::DvoStrategy,
        budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>> {
        Some(self.sift_strategy(strategy, budget))
    }

    fn set_reorder_policy(&mut self, policy: Option<ddcore::dvo::DvoPolicy>) {
        Robdd::set_reorder_policy(self, policy);
    }

    fn reorder_policy(&self) -> Option<ddcore::dvo::DvoPolicy> {
        Robdd::reorder_policy(self)
    }

    fn reorder_if_needed_bounded(&mut self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        Robdd::reorder_if_needed_bounded(self, budget)
    }

    fn set_order(&mut self, order: &[usize]) -> bool {
        self.reorder_to(order);
        true
    }

    fn variable_order(&self) -> Vec<usize> {
        self.order()
    }

    fn stats_line(&self) -> String {
        let s = self.stats();
        format!(
            "robdd: {} apply calls, {} quant calls, {} nodes created, {} GCs ({} freed), \
             {} swaps, peak {}",
            s.apply_calls,
            s.quant_calls,
            s.nodes_created,
            s.gc_runs,
            s.nodes_freed,
            s.swaps,
            s.peak_live_nodes
        )
    }

    fn observe(&self) -> ddcore::MetricsSnapshot {
        self.metrics_snapshot()
    }

    fn note_governed(&mut self, checkpoints: u64, abort: Option<OpAbort>) {
        self.govern.note(checkpoints, abort);
    }
}

impl Robdd {
    /// Pin a raw edge as a GC root until the returned guard drops — the
    /// edge-level liveness primitive (trait-level handles are registered
    /// roots by construction).
    #[must_use]
    pub fn pin(&self, e: Edge) -> RootGuard {
        self.root_set().guard(u64::from(e.bits()))
    }
}

impl ddcore::session::SessionBackend for Robdd {
    fn fork(&self) -> Self {
        self.fork_state()
    }
}

/// Everything needed to drive the ROBDD baseline through the unified API.
pub mod prelude {
    pub use super::{ParRobddFn, ParRobddManager, RobddFn, RobddManager};
    pub use crate::{BoolOp, Edge, ParConfig, ParRobdd, Robdd};
    pub use ddcore::api::{BooleanFunction, FunctionManager, ManagerRef};
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcore::api::{BooleanFunction, FunctionManager};

    #[test]
    fn handles_pin_nodes_across_gc() {
        let mgr = RobddManager::with_vars(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = &a ^ &b;
        drop(a);
        drop(b);
        assert_eq!(mgr.external_roots(), 1);
        mgr.gc();
        assert!(f.eval(&[true, false, false, false]));
        drop(f);
        mgr.gc();
        assert_eq!(mgr.live_nodes(), 0, "sink-only once all handles drop");
    }

    #[test]
    fn auto_gc_reclaims_dead_intermediates() {
        let mgr = RobddManager::with_vars(6);
        mgr.set_gc_threshold(1);
        let vs: Vec<RobddFn> = (0..6).map(|v| mgr.var(v)).collect();
        let mut acc = mgr.constant(true);
        for v in &vs {
            acc = acc.xnor(v);
        }
        assert!(mgr.backend().stats().gc_runs > 0, "auto-GC must have fired");
        for m in 0..64u32 {
            let a: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let parity = a.iter().filter(|&&x| x).count() % 2 == 0;
            assert_eq!(acc.eval(&a), parity);
        }
    }

    #[test]
    fn par_manager_matches_sequential() {
        let seq = RobddManager::with_vars(4);
        let par = ParRobddManager::new(ParRobdd::new(4, 4));
        for mgr_out in [
            seq.var(0).ite(&seq.var(1), &seq.var(2)).edge(),
            par.var(0).ite(&par.var(1), &par.var(2)).edge(),
        ]
        .windows(2)
        {
            assert_eq!(mgr_out[0], mgr_out[1], "bit-identical results");
        }
        assert!(
            par.reorder().is_some(),
            "parallel backend reorders via its inner manager"
        );
        assert_eq!(seq.reorder(), Some(seq.live_nodes()));
        // Both ends accept a policy; explicit reorder then uses it.
        seq.set_reorder_policy(Some("window1:nodes64".parse().unwrap()));
        par.set_reorder_policy(Some("window1:nodes64".parse().unwrap()));
        assert_eq!(seq.reorder_policy(), par.reorder_policy());
        assert!(seq.reorder().is_some());
        assert!(par.reorder().is_some());
    }
}
