//! # robdd — a state-of-the-art-style ROBDD manipulation package
//!
//! This crate is the **baseline** of the DATE 2014 BBDD reproduction: a
//! Reduced Ordered Binary Decision Diagram package in the mould of CUDD
//! 2.5.0 (the comparison package of the paper's Table I), built on the same
//! shared infrastructure (`ddcore`) as the BBDD package so that runtime
//! comparisons measure the *diagram algorithms* rather than incidental
//! engineering differences.
//!
//! Features, mirroring §II-B of the paper:
//!
//! * Shannon-expansion nodes with **complement attributes** (only the 1 sink
//!   exists; stored nodes keep a regular *then*-edge for canonicity);
//! * a **unique table** per variable (strong canonical form: pointer
//!   equality ⇔ function equality);
//! * a **computed table** for the recursive `apply`/`ite` operators;
//! * mark-and-sweep **garbage collection** tracing the owned-handle
//!   registry ([`RobddFn`], mirror of `bbdd::BbddFn`) — `gc()`/`sift()`
//!   take no root lists, and `set_gc_threshold` arms automatic GC;
//! * classic in-place adjacent **variable swap** and **Rudell sifting**.
//!
//! ```
//! use robdd::Robdd;
//! let mut mgr = Robdd::new(3);
//! let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//! let ab = mgr.and(a, b);
//! let f = mgr.or(ab, c);
//! assert_eq!(mgr.sat_count(f), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shape;

pub use ddcore::boolop::{BoolOp, Unary};
pub use ddcore::govern::{CancelToken, OpAbort, OpBudget};
pub use ddcore::nary::NaryOp;
pub use ddcore::par::{ParConfig, ParStats};
/// A directed edge to a node, carrying the complement attribute.
///
/// ```
/// use robdd::Edge;
/// assert_eq!(!Edge::ONE, Edge::ZERO);
/// assert!(Edge::ZERO.is_complemented());
/// ```
pub use ddcore::Edge;
pub use shape::RobddShape;

/// A manager for Reduced Ordered BDDs with complement edges over a fixed
/// variable set, CUDD-style: the [`ddcore::Manager`] kernel over the
/// Shannon node shape.
///
/// ```
/// use robdd::Robdd;
/// let mut mgr = Robdd::new(2);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.xor(a, b);
/// assert!(mgr.eval(f, &[true, false]));
/// assert_eq!(mgr.node_count(f), 2, "XOR takes two BDD nodes");
/// ```
pub type Robdd = ddcore::Manager<RobddShape>;

/// Counters exposed for the benchmark harness (`ite_calls` stays 0: the
/// ROBDD counts `ite` recursions as apply recursions).
pub type RobddStats = ddcore::Stats;

/// The multi-core ROBDD manager: the generic pipeline
/// [`ddcore::par::Par`] over [`Robdd`].
///
/// ```
/// use ddcore::api::RawManager;
/// use robdd::{BoolOp, ParRobdd};
/// let mut mgr = ParRobdd::new(4, 2);
/// let (a, b) = (mgr.var_edge(0), mgr.var_edge(1));
/// let f = mgr.apply_edge(BoolOp::XOR, a, b);
/// assert!(mgr.eval_edge(f, &[true, false, false, false]));
/// ```
pub type ParRobdd = ddcore::par::Par<Robdd>;

/// The handle-level ROBDD manager.
///
/// ```
/// use robdd::prelude::*;
///
/// let mgr = RobddManager::with_vars(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = &a ^ &b;
/// drop(b);            // the XOR nodes stay alive through `f`
/// mgr.gc();           // no root list — the registry knows
/// assert!(f.eval(&[true, false, false]));
/// ```
pub type RobddManager = ddcore::api::ManagerRef<Robdd>;

/// The handle-level parallel ROBDD manager.
pub type ParRobddManager = ddcore::api::ManagerRef<ParRobdd>;

/// An owned, GC-safe ROBDD function handle.
pub type RobddFn = ddcore::api::Function<Robdd>;

/// An owned, GC-safe function handle of the parallel manager.
pub type ParRobddFn = ddcore::api::Function<ParRobdd>;

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
    pub use crate::{BoolOp, Edge, ParConfig, ParRobdd, ParRobddFn, ParRobddManager};
    pub use crate::{Robdd, RobddFn, RobddManager};
    pub use ddcore::api::{BooleanFunction, FunctionManager, ManagerRef};
}

#[cfg(test)]
mod tests;
