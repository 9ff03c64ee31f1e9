//! The Biconditional BDD package: the [`Manager`](crate::Manager) kernel
//! over the biconditional node shape ([`BbddShape`]: reduction rules
//! R1–R4, the chain cofactors, the Fig. 2 swap and the text format), its
//! aliases and its prelude. The `bbdd` crate re-exports this module as its
//! root.

mod serialize;
mod shape;
mod swap;

pub use crate::boolop::{BoolOp, Unary};
pub use crate::govern::{CancelToken, OpAbort, OpBudget};
pub use crate::nary::NaryOp;
pub use crate::par::{ParConfig, ParStats};
pub use crate::Edge;
pub use serialize::{LoadError, SaveError};
pub use shape::BbddShape;

use crate::dvo::{PairSift, ReorderStrategy};
use crate::walk;

/// A manager for Biconditional Binary Decision Diagrams over a fixed set
/// of variables: the [`crate::Manager`] kernel over the biconditional
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
/// use ddcore::bbdd::{Bbdd, BoolOp};
/// let mut mgr = Bbdd::new(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.apply(BoolOp::XOR, a, b);
/// assert!(mgr.eval(f, &[true, false, false]));
/// assert!(!mgr.eval(f, &[true, true, false]));
/// ```
pub type Bbdd = crate::Manager<BbddShape>;

/// Statistics counters exposed for the benchmark harness.
pub type BbddStats = crate::Stats;

/// The multi-core BBDD manager: the generic pipeline
/// [`crate::par::Par`] over [`Bbdd`].
///
/// ```
/// use ddcore::bbdd::{BoolOp, ParBbdd};
/// use ddcore::api::RawManager;
/// let mut mgr = ParBbdd::new(8, 4); // 8 variables, up to 4 threads
/// let (a, b) = (mgr.var_edge(0), mgr.var_edge(1));
/// let f = mgr.apply_edge(BoolOp::XOR, a, b);
/// assert!(mgr.eval_edge(f, &[true, false, false, false, false, false, false, false]));
/// ```
pub type ParBbdd = crate::par::Par<Bbdd>;

/// The handle-level BBDD manager: clone/drop refcounting, the
/// registration-before-collection rule and the operator overloads all
/// live once in [`crate::api`].
///
/// ```
/// use ddcore::bbdd::prelude::*;
///
/// let mgr = BbddManager::with_vars(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = &a ^ &b;
/// drop(b);            // the XOR node stays alive through `f`
/// mgr.gc();           // no root list — the registry knows
/// assert!(f.eval(&[true, false, false]));
/// ```
pub type BbddManager = crate::api::ManagerRef<Bbdd>;

/// The handle-level parallel BBDD manager.
pub type ParBbddManager = crate::api::ManagerRef<ParBbdd>;

/// An owned, GC-safe BBDD function handle.
pub type BbddFn = crate::api::Function<Bbdd>;

/// An owned, GC-safe function handle of the parallel manager.
pub type ParBbddFn = crate::api::Function<ParBbdd>;

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
    pub use super::{Bbdd, BbddFn, BbddManager, BoolOp, Edge, ParBbdd, ParBbddFn};
    pub use super::{ParBbddManager, ParConfig};
    pub use crate::api::{BooleanFunction, FunctionManager, ManagerRef};
}

/// The operations only the BBDD has; its text format is in `serialize`.
impl Bbdd {
    /// Pair-aware sifting: chained pairs whose affinity reaches
    /// `min_affinity` move as rigid units.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn sift_pairs(
        &mut self,
        min_affinity: f64,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        PairSift {
            min_affinity,
            ..PairSift::default()
        }
        .reorder(self, budget)
    }

    /// The conjunction of the literals in `cube` (`Some(true)` positive,
    /// `Some(false)` negative, `None` absent).
    ///
    /// # Panics
    /// Panics if `cube.len() != num_vars()`.
    pub fn cube(&mut self, cube: &[Option<bool>]) -> Edge {
        assert_eq!(cube.len(), self.num_vars(), "cube width");
        let mut acc = Edge::ONE;
        for (v, lit) in cube.iter().enumerate() {
            if let Some(pol) = lit {
                let l = self.var(v).complement_if(!pol);
                acc = self.and(acc, l);
            }
        }
        acc
    }

    /// Build the function whose truth table is `table` (bit `m` = value on
    /// the assignment whose bit `i` gives variable `i`).
    ///
    /// # Panics
    /// Panics if `num_vars() > 24` or the table is too short.
    pub fn from_truth_table(&mut self, table: &[u64]) -> Edge {
        let n = self.num_vars();
        assert!(n <= 24, "truth tables limited to 24 variables");
        let bits = 1usize << n;
        assert!(
            table.len() * 64 >= bits,
            "table too short for {n} variables"
        );
        self.from_tt_rec(table, 0, bits)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_tt_rec(&mut self, table: &[u64], lo: usize, len: usize) -> Edge {
        if len == 1 {
            return Edge::ONE.complement_if((table[lo / 64] >> (lo % 64)) & 1 == 0);
        }
        let half = len / 2;
        let f0 = self.from_tt_rec(table, lo, half);
        let f1 = self.from_tt_rec(table, lo + half, half);
        if f0 == f1 {
            return f0;
        }
        // The splitting variable: bit index log2(half).
        let lit = self.var(half.trailing_zeros() as usize);
        self.ite(lit, f1, f0)
    }

    /// Nodes stored at each top, bottom level first.
    #[must_use]
    pub fn level_sizes(&self) -> Vec<usize> {
        self.subtables
            .iter()
            .map(crate::table::UniqueTable::len)
            .collect()
    }

    /// `sat_count / 2^n` as a float (usable for any variable count).
    #[must_use]
    pub fn sat_fraction(&self, f: Edge) -> f64 {
        walk::sat_fraction(self, f)
    }
}

#[cfg(test)]
mod tests;
