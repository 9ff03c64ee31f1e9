//! [`ParRobdd`] — the multi-core front-end of the ROBDD baseline: the
//! generic pipeline [`ddcore::par::Par`] over the Shannon node shape.
//!
//! This module only describes that shape ([`NodeShape`] for [`Robdd`]): a
//! node's top is its variable, ordered by position; its cofactors are the
//! `(then, else)` pair; overlay nodes follow the base's redundancy rule and
//! regular-*then* normalization. Every recursion visits the *then* branch
//! first. The phases, the determinism argument and the budget handling
//! live in [`ddcore::par::pipeline`].

use crate::edge::Edge;
use crate::manager::{Robdd, RobddStats};
use crate::node::BddKey;
use ddcore::cantor::CantorHasher;
use ddcore::obs::MetricsSnapshot;
use ddcore::par::{AtomicCacheStats, NodeShape, Overlay, PackedEdge, Par, QuantCube};
pub use ddcore::par::{ParConfig, ParStats};
use ddcore::table::TableKey;

/// A multi-core ROBDD manager: the same canonical diagrams and the same
/// results as [`Robdd`], with `apply`/`ite`/`exists`/`forall`/`and_exists`
/// executed across a fork-join worker pool when the operands are large
/// enough to pay for it. Results are bit-identical regardless of thread
/// count. Operations are the [`RawManager`](ddcore::api::RawManager)
/// methods (or the handle API via [`crate::ParRobddManager`]).
///
/// ```
/// use ddcore::api::RawManager;
/// use robdd::{BoolOp, ParRobdd};
/// let mut mgr = ParRobdd::new(4, 2);
/// let (a, b) = (mgr.var_edge(0), mgr.var_edge(1));
/// let f = mgr.apply_edge(BoolOp::XOR, a, b);
/// assert!(mgr.eval_edge(f, &[true, false, false, false]));
/// ```
pub type ParRobdd = Par<Robdd>;

/// Sharded-overlay key: the per-variable [`BddKey`] contents plus the
/// variable itself (the base keeps one table per variable; the overlay is
/// one key space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VarKey {
    var: u16,
    then_bits: u32,
    else_bits: u32,
}

impl TableKey for VarKey {
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        h.hash3(
            u64::from(self.then_bits),
            u64::from(self.else_bits),
            u64::from(self.var),
        )
    }
}

impl PackedEdge for Edge {
    const ONE: Edge = Edge::ONE;
    const ZERO: Edge = Edge::ZERO;

    #[inline]
    fn bits(self) -> u32 {
        Edge::bits(self)
    }

    #[inline]
    fn from_bits(bits: u32) -> Self {
        Edge::from_bits(bits)
    }
}

impl NodeShape for Robdd {
    type Key = VarKey;
    type Stats = RobddStats;
    const PAR_NAME: &'static str = "par-robdd";
    const APPLY_SECOND_FIRST: bool = false;

    #[inline]
    fn node_slots(&self) -> u32 {
        u32::try_from(self.nodes.len()).expect("arena fits u32")
    }

    #[inline]
    fn node_words(&self, id: u32) -> (u32, u32, u32) {
        self.nodes[id as usize].words()
    }

    #[inline]
    fn peek(&self, key: &VarKey) -> Option<u32> {
        let k = BddKey::new(
            Edge::from_bits(key.then_bits),
            Edge::from_bits(key.else_bits),
        );
        self.subtables[key.var as usize].peek(&k)
    }

    /// Positions count from the root, so the height is their complement.
    #[inline]
    fn height(&self, var: u16) -> u32 {
        !self.pos_of_var[var as usize]
    }

    fn base_cofactors(&mut self, e: Edge, var: u16) -> (Edge, Edge) {
        self.cofactors(e, var)
    }

    fn base_node(&mut self, var: u16, then_: Edge, else_: Edge) -> Edge {
        self.make_node(var, then_, else_)
    }

    fn import_node(&mut self, meta: u32, then_: Edge, else_: Edge) -> Edge {
        self.make_node(meta as u16, then_, else_)
    }

    /// Mirror of the sequential `quant_ctx` (cube built pre-freeze).
    fn quant_cube(&mut self, vars: &[usize]) -> Option<QuantCube<Edge>> {
        let n = self.num_vars();
        let mut in_cube = vec![false; n];
        for &v in vars {
            assert!(v < n, "quantified variable {v} out of range");
            in_cube[v] = true;
        }
        let max_pos = (0..n)
            .filter(|&v| in_cube[v])
            .map(|v| self.pos_of_var[v])
            .max()?;
        let mut cube = Edge::ONE;
        for v in (0..n).filter(|&v| in_cube[v]) {
            let lit = self.var(v);
            cube = self.and(cube, lit);
        }
        Some(QuantCube {
            in_cube,
            floor: !max_pos,
            cube,
        })
    }

    #[inline]
    fn overlay_cofactors(ov: &Overlay<'_, Self>, e: Edge, var: u16) -> (Edge, Edge) {
        if e.is_constant() {
            return (e, e);
        }
        let (then_, else_, meta) = ov.words(e.node());
        if meta as u16 != var {
            return (e, e);
        }
        let c = e.is_complemented();
        (
            Edge::from_bits(then_).complement_if(c),
            Edge::from_bits(else_).complement_if(c),
        )
    }

    /// `Robdd::make_node`'s rules in the overlay space (redundancy rule
    /// + regular-*then* normalization).
    #[inline]
    fn overlay_node(ov: &Overlay<'_, Self>, var: u16, mut then_: Edge, mut else_: Edge) -> Edge {
        if then_ == else_ {
            return then_;
        }
        let mut out_c = false;
        if then_.is_complemented() {
            then_ = !then_;
            else_ = !else_;
            out_c = true;
        }
        let key = VarKey {
            var,
            then_bits: then_.bits(),
            else_bits: else_.bits(),
        };
        let id = ov.find_or_insert(key, (then_.bits(), else_.bits(), u32::from(var)));
        Edge::new(id, out_c)
    }

    fn overlay_literal(ov: &Overlay<'_, Self>, var: u16) -> Edge {
        Self::overlay_node(ov, var, Edge::ONE, Edge::ZERO)
    }

    fn gc_generation(&self) -> u64 {
        Robdd::gc_generation(self)
    }

    fn stats(&self) -> RobddStats {
        Robdd::stats(self)
    }

    fn fill_par_metrics(&self, m: &mut MetricsSnapshot, cache: AtomicCacheStats) {
        self.fill_metrics(m, Some(cache));
    }
}
