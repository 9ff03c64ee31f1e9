//! # bbdd — a Biconditional Binary Decision Diagram manipulation package
//!
//! A from-scratch Rust reproduction of
//! *L. Amarù, P.-E. Gaillardon, G. De Micheli, “An Efficient Manipulation
//! Package for Biconditional Binary Decision Diagrams”, DATE 2014.*
//!
//! **Biconditional BDDs** (BBDDs) are canonical binary decision diagrams
//! whose branching condition compares *two* variables per node: each node is
//! labelled with a primary variable `PV = v` and a secondary variable
//! `SV = w` and implements the biconditional expansion
//!
//! ```text
//! f = (v ⊕ w) · f_{v≠w}  +  (v ⊙ w) · f_{v=w}
//! ```
//!
//! Under the *chain variable order* (CVO) and reduction rules R1–R4 they are
//! canonical, remarkably compact for XOR-rich and arithmetic logic, and a
//! native abstraction for comparator-based emerging technologies.
//!
//! This crate implements the paper's four pillars:
//!
//! 1. **Strong canonical form** — hash-consed nodes in per-level unique
//!    tables with complement attributes restricted to `≠`-edges
//!    ([`Bbdd::apply`] returns equal [`Edge`]s iff functions are equal);
//! 2. **Recursive Boolean operations** — Algorithm 1 over the biconditional
//!    expansion with operator-rewriting (`updateop`) and a computed table
//!    ([`Bbdd::apply`], [`Bbdd::ite`]);
//! 3. **Performance-oriented memory management** — Cantor-pairing hashing,
//!    adaptive tables, overwrite-on-collision cache, mark-and-sweep GC
//!    ([`Bbdd::gc`]) tracing the owned-handle registry: functions held as
//!    [`BbddFn`] handles (created through the [`prelude`] trait API) are
//!    roots by construction, and [`Bbdd::set_gc_threshold`] arms automatic
//!    collection for long-running sessions — no caller-maintained root
//!    lists anywhere;
//! 4. **Chain variable re-ordering** — the Fig. 2 three-level swap theory and
//!    Rudell-style sifting ([`Bbdd::swap_adjacent`], [`Bbdd::sift`]).
//!
//! ## Quick start
//!
//! The [`prelude`] exposes the unified trait API ([`ddcore::api`]) shared
//! by every manager in the workspace — owned GC-safe handles with operator
//! overloads:
//!
//! ```
//! use bbdd::prelude::*;
//!
//! // A 4-variable manager; build the 2-bit equality comparator
//! // (a1=b1) ∧ (a0=b0), which BBDDs represent in 2 nodes.
//! let mgr = BbddManager::with_vars(4);
//! let (a1, b1, a0, b0) = (mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3));
//! let eq = &a1.xnor(&b1) & &a0.xnor(&b0);
//! assert_eq!(eq.node_count(), 2);
//! assert_eq!(eq.sat_count(), 4);
//! ```
//!
//! The raw edge-level API ([`Bbdd`], [`Edge`]) remains available underneath
//! (`mgr.backend_mut()`) for recursion internals and benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod serialize;
mod shape;
mod swap;

pub use ddcore::boolop::{BoolOp, Unary};
pub use ddcore::govern::{CancelToken, OpAbort, OpBudget};
pub use ddcore::nary::NaryOp;
pub use ddcore::par::{ParConfig, ParStats};
pub use ddcore::Edge;
pub use serialize::{LoadError, SaveError};
pub use shape::BbddShape;

/// A manager for Biconditional Binary Decision Diagrams over a fixed set
/// of variables: the [`ddcore::Manager`] kernel over the biconditional
/// node shape.
///
/// Variables are identified by indices `0..num_vars`. The *chain variable
/// order* (CVO, paper Eq. 2) is derived from the current variable order
/// `π`: the node level holding `PV = π_t` has `SV = π_{t+1}`, and the
/// bottom level has the fictitious `SV = 1`. Levels are stored
/// bottom-based (level `n-1` is the root level), matching Algorithm 1's
/// `i = maxlevel{f, g}`.
///
/// ```
/// use bbdd::{Bbdd, BoolOp};
/// let mut mgr = Bbdd::new(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.apply(BoolOp::XOR, a, b);
/// assert!(mgr.eval(f, &[true, false, false]));
/// assert!(!mgr.eval(f, &[true, true, false]));
/// ```
pub type Bbdd = ddcore::Manager<BbddShape>;

/// Statistics counters exposed for the benchmark harness.
pub type BbddStats = ddcore::Stats;

/// The multi-core BBDD manager: the generic pipeline
/// [`ddcore::par::Par`] over [`Bbdd`].
///
/// ```
/// use bbdd::{BoolOp, ParBbdd};
/// use ddcore::api::RawManager;
/// let mut mgr = ParBbdd::new(8, 4); // 8 variables, up to 4 threads
/// let (a, b) = (mgr.var_edge(0), mgr.var_edge(1));
/// let f = mgr.apply_edge(BoolOp::XOR, a, b);
/// assert!(mgr.eval_edge(f, &[true, false, false, false, false, false, false, false]));
/// ```
pub type ParBbdd = ddcore::par::Par<Bbdd>;

/// The handle-level BBDD manager: clone/drop refcounting, the
/// registration-before-collection rule and the operator overloads all
/// live once in `ddcore::api`.
///
/// ```
/// use bbdd::prelude::*;
///
/// let mgr = BbddManager::with_vars(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = &a ^ &b;
/// drop(b);            // the XOR node stays alive through `f`
/// mgr.gc();           // no root list — the registry knows
/// assert!(f.eval(&[true, false, false]));
/// ```
pub type BbddManager = ddcore::api::ManagerRef<Bbdd>;

/// The handle-level parallel BBDD manager.
pub type ParBbddManager = ddcore::api::ManagerRef<ParBbdd>;

/// An owned, GC-safe BBDD function handle.
pub type BbddFn = ddcore::api::Function<Bbdd>;

/// An owned, GC-safe function handle of the parallel manager.
pub type ParBbddFn = ddcore::api::Function<ParBbdd>;

/// Public structural view of one BBDD node (see [`Bbdd::node_info`]).
///
/// `sv` is `None` for Shannon (R4) nodes and for the bottom level, whose
/// secondary variable is the fictitious constant 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Bottom-based CVO level.
    pub level: usize,
    /// `true` for a Shannon (reduction rule R4) node.
    pub shannon: bool,
    /// The `PV ≠ SV` child edge.
    pub neq: Edge,
    /// The `PV = SV` child edge (always regular).
    pub eq: Edge,
    /// Primary variable of the node's level.
    pub pv: usize,
    /// Secondary variable (chain neighbour), when it exists.
    pub sv: Option<usize>,
}

/// The trait-level API: handles, their managers and the traits.
pub mod prelude {
    pub use crate::{Bbdd, BbddFn, BbddManager, BoolOp, Edge, ParBbdd, ParBbddFn};
    pub use crate::{ParBbddManager, ParConfig};
    pub use ddcore::api::{BooleanFunction, FunctionManager, ManagerRef};
}

#[cfg(test)]
mod tests;
