//! The ROBDD baseline package: the [`Manager`](crate::Manager) kernel
//! over the Shannon node shape ([`RobddShape`]: the redundancy rule,
//! CUDD's in-place swap and sift bound), its aliases and its prelude. The
//! `robdd` crate re-exports this module as its root.

mod shape;

pub use crate::boolop::{BoolOp, Unary};
pub use crate::govern::{CancelToken, OpAbort, OpBudget};
pub use crate::nary::NaryOp;
pub use crate::par::{ParConfig, ParStats};
/// A directed edge to a node, carrying the complement attribute.
///
/// ```
/// use ddcore::robdd::Edge;
/// assert_eq!(!Edge::ONE, Edge::ZERO);
/// assert!(Edge::ZERO.is_complemented());
/// ```
pub use crate::Edge;
pub use shape::RobddShape;

/// A manager for Reduced Ordered BDDs with complement edges over a fixed
/// variable set, CUDD-style: the [`crate::Manager`] kernel over the
/// Shannon node shape.
///
/// ```
/// use ddcore::robdd::Robdd;
/// let mut mgr = Robdd::new(2);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.xor(a, b);
/// assert!(mgr.eval(f, &[true, false]));
/// assert_eq!(mgr.node_count(f), 2, "XOR takes two BDD nodes");
/// ```
pub type Robdd = crate::Manager<RobddShape>;

/// Counters exposed for the benchmark harness (`ite_calls` stays 0: the
/// ROBDD counts `ite` recursions as apply recursions).
pub type RobddStats = crate::Stats;

/// The multi-core ROBDD manager: the generic pipeline
/// [`crate::par::Par`] over [`Robdd`].
///
/// ```
/// use ddcore::api::RawManager;
/// use ddcore::robdd::{BoolOp, ParRobdd};
/// let mut mgr = ParRobdd::new(4, 2);
/// let (a, b) = (mgr.var_edge(0), mgr.var_edge(1));
/// let f = mgr.apply_edge(BoolOp::XOR, a, b);
/// assert!(mgr.eval_edge(f, &[true, false, false, false]));
/// ```
pub type ParRobdd = crate::par::Par<Robdd>;

/// The handle-level ROBDD manager.
///
/// ```
/// use ddcore::robdd::prelude::*;
///
/// let mgr = RobddManager::with_vars(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = &a ^ &b;
/// drop(b);            // the XOR nodes stay alive through `f`
/// mgr.gc();           // no root list — the registry knows
/// assert!(f.eval(&[true, false, false]));
/// ```
pub type RobddManager = crate::api::ManagerRef<Robdd>;

/// The handle-level parallel ROBDD manager.
pub type ParRobddManager = crate::api::ManagerRef<ParRobdd>;

/// An owned, GC-safe ROBDD function handle.
pub type RobddFn = crate::api::Function<Robdd>;

/// An owned, GC-safe function handle of the parallel manager.
pub type ParRobddFn = crate::api::Function<ParRobdd>;

/// Public structural view of one ROBDD node (see [`Robdd::node_info`]):
/// the Shannon triple `ite(var, then, else)`. The *then*-edge is always
/// regular (complement attributes are normalized onto *else*/result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobddNodeInfo {
    /// Variable index tested by the node.
    pub var: usize,
    /// The `var = 1` child edge (always regular).
    pub then_: Edge,
    /// The `var = 0` child edge.
    pub else_: Edge,
}

/// The trait-level API: handles, their managers and the traits.
pub mod prelude {
    pub use super::{BoolOp, Edge, ParConfig, ParRobdd, ParRobddFn, ParRobddManager};
    pub use super::{Robdd, RobddFn, RobddManager};
    pub use crate::api::{BooleanFunction, FunctionManager, ManagerRef};
}

#[cfg(test)]
mod tests;
