//! The [`ddcore::api`] backend implementations for the BBDD package.
//!
//! Both the sequential [`Bbdd`] and the fork-join [`ParBbdd`] implement
//! [`RawManager`], which derives the full [`FunctionManager`] /
//! [`BooleanFunction`](ddcore::api::BooleanFunction) pair through the
//! shared generic machinery: [`BbddManager`] / [`ParBbddManager`] are the
//! trait-level managers, [`BbddFn`] / [`ParBbddFn`] the owned handles.
//! There is no per-crate handle code left — clone/drop refcounting, the
//! registration-before-collection pinning rule and the operator overloads
//! all live once in `ddcore::api`.
//!
//! ```
//! use bbdd::prelude::*;
//!
//! let mgr = BbddManager::with_vars(3);
//! let (a, b) = (mgr.var(0), mgr.var(1));
//! let f = &a ^ &b;
//! drop(b);            // the XOR node stays alive through `f`
//! mgr.gc();           // no root list — the registry knows
//! assert!(f.eval(&[true, false, false]));
//! ```

use crate::edge::Edge;
use crate::manager::Bbdd;
use crate::par::ParBbdd;
use ddcore::api::{ManagerRef, RawManager};
use ddcore::boolop::BoolOp;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::roots::{RootGuard, RootSet};
use ddcore::walk;

/// The trait-level BBDD manager: [`ManagerRef`] over the sequential
/// backend. Start here unless you need the edge-level API.
pub type BbddManager = ManagerRef<Bbdd>;

/// The trait-level multi-core BBDD manager.
pub type ParBbddManager = ManagerRef<ParBbdd>;

/// An owned, reference-counted handle to a BBDD function (the generic
/// [`ddcore::api::Function`] over the sequential backend).
pub type BbddFn = ddcore::api::Function<Bbdd>;

/// An owned handle to a function of the multi-core BBDD manager.
pub type ParBbddFn = ddcore::api::Function<ParBbdd>;

impl RawManager for Bbdd {
    type Edge = Edge;

    fn with_vars(num_vars: usize) -> Self {
        Bbdd::new(num_vars)
    }

    fn num_vars(&self) -> usize {
        Bbdd::num_vars(self)
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

    fn apply_edge(&mut self, op: BoolOp, f: Edge, g: Edge) -> Edge {
        self.apply(op, f, g)
    }

    fn ite_edge(&mut self, f: Edge, g: Edge, h: Edge) -> Edge {
        self.ite(f, g, h)
    }

    fn exists_edge(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.exists(f, vars)
    }

    fn forall_edge(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.forall(f, vars)
    }

    fn and_exists_edge(&mut self, f: Edge, g: Edge, vars: &[usize]) -> Edge {
        self.and_exists(f, g, vars)
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

    fn compose_edge(&mut self, f: Edge, var: usize, g: Edge) -> Edge {
        self.compose(f, var, g)
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

    /// Internal nodes per bottom-based level.
    fn level_profile_edges(&self, roots: &[Edge]) -> Option<Vec<usize>> {
        let mut profile = vec![0; self.num_vars()];
        walk::visit(self, roots, usize::MAX, |_, (_, _, meta)| {
            profile[meta as u16 as usize] += 1;
        });
        Some(profile)
    }

    fn after_op(&mut self) {
        self.maybe_auto_gc();
    }

    fn gc(&mut self) -> usize {
        Bbdd::gc(self)
    }

    fn set_gc_threshold(&mut self, threshold: usize) {
        Bbdd::set_gc_threshold(self, threshold);
    }

    fn gc_threshold(&self) -> usize {
        Bbdd::gc_threshold(self)
    }

    fn live_nodes(&self) -> usize {
        Bbdd::live_nodes(self)
    }

    fn try_sift(&mut self) -> Option<usize> {
        // An installed policy's strategy takes precedence over plain
        // Rudell sifting, so `reorder()` and the scheduled firings agree
        // on the algorithm.
        match self.reorder_policy() {
            Some(p) => Some(
                self.sift_strategy(p.strategy, &mut OpBudget::unlimited())
                    .expect("unlimited budget never aborts"),
            ),
            None => Some(self.sift()),
        }
    }

    fn sift_bounded(&mut self, budget: &mut OpBudget) -> Option<Result<usize, OpAbort>> {
        match self.reorder_policy() {
            Some(p) => Some(self.sift_strategy(p.strategy, budget)),
            None => Some(Bbdd::sift_bounded(self, budget)),
        }
    }

    fn reorder_with(
        &mut self,
        strategy: ddcore::dvo::DvoStrategy,
        budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>> {
        Some(self.sift_strategy(strategy, budget))
    }

    fn set_reorder_policy(&mut self, policy: Option<ddcore::dvo::DvoPolicy>) {
        Bbdd::set_reorder_policy(self, policy);
    }

    fn reorder_policy(&self) -> Option<ddcore::dvo::DvoPolicy> {
        Bbdd::reorder_policy(self)
    }

    fn set_auto_reorder(&mut self, threshold: usize) {
        Bbdd::set_auto_reorder(self, threshold);
    }

    fn reorder_if_needed(&mut self) -> bool {
        Bbdd::reorder_if_needed(self)
    }

    fn reorder_if_needed_bounded(&mut self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        Bbdd::reorder_if_needed_bounded(self, budget)
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
            "bbdd: {} apply calls, {} ite calls, {} nodes created, {} GCs ({} freed), \
             {} swaps, peak {}",
            s.apply_calls,
            s.ite_calls,
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

impl Bbdd {
    /// Pin a raw edge as a GC root until the returned guard drops — the
    /// edge-level liveness primitive. (Trait-level code never needs this:
    /// every [`BbddFn`] is a registered root by construction.)
    #[must_use]
    pub fn pin(&self, e: Edge) -> RootGuard {
        self.root_set().guard(u64::from(e.bits()))
    }
}

impl ddcore::session::SessionBackend for Bbdd {
    fn fork(&self) -> Self {
        self.fork_state()
    }
}

/// Everything needed to drive the BBDD package through the unified API:
/// the trait pair, the manager references and handle aliases, plus the
/// operator types shared by all backends.
pub mod prelude {
    pub use super::{BbddFn, BbddManager, ParBbddFn, ParBbddManager};
    pub use crate::{Bbdd, BoolOp, Edge, ParBbdd, ParConfig};
    pub use ddcore::api::{BooleanFunction, FunctionManager, ManagerRef};
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcore::api::{BooleanFunction, FunctionManager};

    #[test]
    fn handles_pin_nodes_across_gc() {
        let mgr = BbddManager::with_vars(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = &a ^ &b;
        drop(a);
        drop(b);
        assert_eq!(mgr.external_roots(), 1);
        mgr.gc();
        assert!(f.eval(&[true, false, false, false]));
        assert!(mgr.backend().validate().is_ok());
        drop(f);
        assert_eq!(mgr.external_roots(), 0);
        mgr.gc();
        assert_eq!(mgr.live_nodes(), 0, "sink-only once all handles drop");
    }

    #[test]
    fn auto_gc_reclaims_dead_intermediates() {
        let mgr = BbddManager::with_vars(6);
        mgr.set_gc_threshold(1); // latch on every node creation
        let vs: Vec<BbddFn> = (0..6).map(|v| mgr.var(v)).collect();
        let mut acc = mgr.constant(true);
        for v in &vs {
            acc = acc.xnor(v); // old acc handle drops each round
        }
        assert!(mgr.backend().stats().gc_runs > 0, "auto-GC must have fired");
        for m in 0..64u32 {
            let a: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let parity = a.iter().filter(|&&x| x).count() % 2 == 0;
            assert_eq!(acc.eval(&a), parity);
        }
        assert!(mgr.backend().validate().is_ok());
    }

    #[test]
    fn trait_ops_match_edge_ops() {
        let mgr = BbddManager::with_vars(4);
        let vs: Vec<BbddFn> = (0..4).map(|v| mgr.var(v)).collect();
        let f = &vs[0] & &vs[1];
        let g = &vs[2] | &vs[3];
        let h = vs[0].ite(&f, &g);
        let ex = h.exists(&[1]);
        let fa = h.forall(&[1]);
        let ae = f.and_exists(&g, &[2]);
        let r = h.restrict(0, true);
        let c = f.compose(0, &g);
        let nf = !&f;
        mgr.gc();
        // Mirror with raw edges (no GC in between, so raw is safe here).
        let mut b = mgr.backend_mut();
        let (a0, a1, a2, a3) = (b.var(0), b.var(1), b.var(2), b.var(3));
        let fe = b.and(a0, a1);
        let ge = b.or(a2, a3);
        let he = b.ite(a0, fe, ge);
        assert_eq!(f.edge(), fe);
        assert_eq!(g.edge(), ge);
        assert_eq!(h.edge(), he);
        assert_eq!(ex.edge(), b.exists(he, &[1]));
        assert_eq!(fa.edge(), b.forall(he, &[1]));
        assert_eq!(ae.edge(), b.and_exists(fe, ge, &[2]));
        assert_eq!(r.edge(), b.restrict(he, 0, true));
        assert_eq!(c.edge(), b.compose(fe, 0, ge));
        assert_eq!(nf.edge(), !fe);
    }

    #[test]
    fn par_manager_drives_the_same_suite() {
        let mgr = ParBbddManager::new(ParBbdd::new(4, 4));
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = &a ^ &b;
        assert!(f.eval(&[true, false, false, false]));
        assert_eq!(f.sat_count(), 8);
        mgr.gc();
        assert!(f.eval(&[false, true, false, false]));
        assert!(
            mgr.reorder().is_some(),
            "parallel backend reorders via its inner manager"
        );
        assert!(
            f.eval(&[true, false, false, false]),
            "order change is semantic-free"
        );
        mgr.set_reorder_policy(Some("pair:growth2".parse().unwrap()));
        assert_eq!(
            mgr.reorder_policy().map(|p| p.strategy),
            Some(ddcore::dvo::DvoStrategy::Pair)
        );
    }
}
