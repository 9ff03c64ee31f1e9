//! [`ParBbdd`] — the multi-core front-end of the BBDD manager: the generic
//! pipeline [`ddcore::par::Par`] over the biconditional node shape.
//!
//! This module only describes that shape ([`NodeShape`] for [`Bbdd`]):
//! a node's top is its bottom-based level, its cofactors are the
//! `(≠, =)` pair — Shannon (R4) nodes expand lazily through the chain
//! literal of the level below — and overlay nodes follow the base's R2, R4
//! and regular-=-edge rules. The one backend-specific quantification case
//! is the chain's SV-quantified one. Apply and ite recurse into the
//! =-branch first, as the sequential recursion does. The phases, the
//! determinism argument and the budget handling live in
//! [`ddcore::par::pipeline`].

use crate::edge::Edge;
use crate::manager::{Bbdd, BbddStats};
use crate::node::NodeKey;
use ddcore::cantor::CantorHasher;
use ddcore::obs::{MemBytes, MetricsSnapshot};
use ddcore::par::{AtomicCacheStats, NodeShape, Overlay, PackedEdge, Par, QuantCube};
pub use ddcore::par::{ParConfig, ParStats};
use ddcore::table::TableKey;

/// A multi-core BBDD manager: the same canonical diagrams and the same
/// results as [`Bbdd`], with `apply`/`ite`/`exists`/`forall`/`and_exists`
/// executed across a fork-join worker pool when the operands are large
/// enough to pay for it. Results are bit-identical regardless of thread
/// count, so a `ParBbdd` can replace a `Bbdd` anywhere. Operations are the
/// [`RawManager`](ddcore::api::RawManager) methods (or the handle API via
/// [`crate::ParBbddManager`]).
///
/// ```
/// use bbdd::{BoolOp, ParBbdd};
/// use ddcore::api::RawManager;
/// let mut mgr = ParBbdd::new(8, 4); // 8 variables, up to 4 threads
/// let (a, b) = (mgr.var_edge(0), mgr.var_edge(1));
/// let f = mgr.apply_edge(BoolOp::XOR, a, b);
/// assert!(mgr.eval_edge(f, &[true, false, false, false, false, false, false, false]));
/// ```
pub type ParBbdd = Par<Bbdd>;

/// Shannon-mode bit in a node's meta word (level in bits 0..16).
const SHANNON_BIT: u32 = 1 << 16;

/// Unique-table key of the overlay: the per-level [`NodeKey`] plus the
/// level itself (the base manager keeps one table per level; the sharded
/// overlay is a single key space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelKey {
    level: u16,
    key: NodeKey,
}

impl TableKey for LevelKey {
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        h.hash4(
            u64::from(self.key.neq().bits()),
            u64::from(self.key.eq().bits()),
            u64::from(self.key.shannon()),
            u64::from(self.level),
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

/// Find-or-create `(level, key)` in the overlay space.
#[inline]
fn overlay_find(ov: &Overlay<'_, Bbdd>, level: u16, key: NodeKey) -> u32 {
    let meta = u32::from(level) | if key.shannon() { SHANNON_BIT } else { 0 };
    ov.find_or_insert((key.neq().bits(), key.eq().bits(), meta))
}

/// The Shannon (R4) node of `level` in the overlay space.
fn overlay_shannon(ov: &Overlay<'_, Bbdd>, level: u16) -> Edge {
    let key = NodeKey::new(true, Edge::ZERO, Edge::ONE);
    Edge::new(overlay_find(ov, level, key), false)
}

/// Is `e` exactly the regular positive literal of the level below `level`?
fn overlay_is_lit_below(ov: &Overlay<'_, Bbdd>, e: Edge, level: u16) -> bool {
    if e.is_complemented() {
        return false;
    }
    if level == 0 {
        return e == Edge::ONE;
    }
    if e.is_constant() {
        return false;
    }
    let (_, _, meta) = ov.words(e.node());
    meta & SHANNON_BIT != 0 && meta as u16 == level - 1
}

impl NodeShape for Bbdd {
    type Key = LevelKey;
    type Stats = BbddStats;
    const PAR_NAME: &'static str = "par-bbdd";
    const APPLY_SECOND_FIRST: bool = true;

    #[inline]
    fn overlay_key((neq, eq, meta): (u32, u32, u32)) -> LevelKey {
        LevelKey {
            level: meta as u16,
            key: NodeKey::new(
                meta & SHANNON_BIT != 0,
                Edge::from_bits(neq),
                Edge::from_bits(eq),
            ),
        }
    }

    #[inline]
    fn peek(&self, key: &LevelKey) -> Option<u32> {
        self.subtables[key.level as usize].peek(&key.key, &self.nodes)
    }

    #[inline]
    fn height(&self, top: u16) -> u32 {
        u32::from(top)
    }

    fn base_cofactors(&mut self, e: Edge, top: u16) -> (Edge, Edge) {
        self.cofactors(e, top)
    }

    fn base_node(&mut self, top: u16, neq: Edge, eq: Edge) -> Edge {
        self.make_node(top, neq, eq)
    }

    fn import_node(&mut self, meta: u32, neq: Edge, eq: Edge) -> Edge {
        let level = meta as u16;
        if meta & SHANNON_BIT != 0 {
            self.shannon_node(level)
        } else {
            self.make_node(level, neq, eq)
        }
    }

    /// Mirror of the sequential `quant_ctx`: the level cube mask plus the
    /// canonical cube handle.
    fn quant_cube(&mut self, vars: &[usize]) -> Option<QuantCube<Edge>> {
        let n = self.num_vars();
        let mut in_cube = vec![false; n];
        let mut min_level = u16::MAX;
        for &v in vars {
            assert!(v < n, "quantified variable {v} out of range");
            let l = self.level_of_var[v] as u16;
            in_cube[l as usize] = true;
            min_level = min_level.min(l);
        }
        if min_level == u16::MAX {
            return None;
        }
        let mut cube = Edge::ONE;
        for l in (0..n).rev() {
            if in_cube[l] {
                let lit = self.shannon_node(l as u16);
                cube = self.and(cube, lit);
            }
        }
        Some(QuantCube {
            in_cube,
            floor: u32::from(min_level),
            cube,
        })
    }

    /// The biconditional cofactors; Shannon operands expand through the
    /// lazy chain literal.
    #[inline]
    fn overlay_cofactors(ov: &Overlay<'_, Self>, e: Edge, level: u16) -> (Edge, Edge) {
        if e.is_constant() {
            return (e, e);
        }
        let (neq, eq, meta) = ov.words(e.node());
        if (meta as u16) < level {
            return (e, e);
        }
        debug_assert_eq!(meta as u16, level, "cofactor below the node's own level");
        let c = e.is_complemented();
        if meta & SHANNON_BIT != 0 {
            let lw = if level == 0 {
                Edge::ONE
            } else {
                overlay_shannon(ov, level - 1)
            };
            ((!lw).complement_if(c), lw.complement_if(c))
        } else {
            (
                Edge::from_bits(neq).complement_if(c),
                Edge::from_bits(eq).complement_if(c),
            )
        }
    }

    /// `Bbdd::make_node`'s rules in the overlay space (R2, complement
    /// normalization, R4).
    #[inline]
    fn overlay_node(ov: &Overlay<'_, Self>, level: u16, mut neq: Edge, mut eq: Edge) -> Edge {
        if neq == eq {
            return eq;
        }
        let mut out_c = false;
        if eq.is_complemented() {
            neq = !neq;
            eq = !eq;
            out_c = true;
        }
        if neq == !eq && overlay_is_lit_below(ov, eq, level) {
            return overlay_shannon(ov, level).complement_if(out_c);
        }
        let key = NodeKey::new(false, neq, eq);
        Edge::new(overlay_find(ov, level, key), out_c)
    }

    fn overlay_literal(ov: &Overlay<'_, Self>, level: u16) -> Edge {
        overlay_shannon(ov, level)
    }

    /// The chain's SV-quantified case (documented in `quant.rs`): the SV
    /// of `level` is the PV of the level below.
    fn chain_partner(level: u16, in_cube: &[bool]) -> Option<u16> {
        (level > 0 && in_cube[level as usize - 1]).then(|| level - 1)
    }

    fn gc_generation(&self) -> u64 {
        Bbdd::gc_generation(self)
    }

    fn stats(&self) -> BbddStats {
        Bbdd::stats(self)
    }

    fn fill_par_metrics(
        &self,
        m: &mut MetricsSnapshot,
        cache: AtomicCacheStats,
        overlay: MemBytes,
    ) {
        self.fill_metrics(m, Some(cache), overlay);
    }
}
