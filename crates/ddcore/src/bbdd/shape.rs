//! The biconditional node shape: what makes a [`crate::Manager`] a BBDD.
//!
//! A stored node is uniquely labelled by `{CVO-level, ≠-child,
//! ≠-attribute, =-child}` (paper §IV-A1) plus the Shannon meta bit that
//! tells reduction-rule-R4 nodes (`SV = 1`, the literal `v`) from ordinary
//! biconditional nodes: `v` and `XNOR(v, w)` both have constant children.
//! A node's top is its bottom-based level (level `n-1` is the root level);
//! its words are `(≠, =)`, the `=`-edge always regular.
//!
//! Apply and ite recurse into the `=`-branch first, as Algorithm 1 does.
//! Single-variable (Shannon) operands are expanded on the fly through the
//! literal of the level below — the lazy equivalent of Algorithm 1's
//! `chain-transform`. Quantification has one case an ROBDD never needs:
//! a node whose SV is quantified but whose PV is not cannot be rebuilt,
//! so it is Shannon-decomposed on the unquantified PV
//! ([`Shape::chain_partner`]).

use super::swap::{swap_levels, SwapCtx};
use super::{Bbdd, NodeInfo};
use crate::cantor::CantorHasher;
use crate::fxhash::FxHashMap;
use crate::govern::{OpAbort, OpBudget};
use crate::manager::ops::push_completions;
use crate::manager::{Node, NodeStore, Shape, META_SHANNON};
use crate::Edge;

/// The BBDD node shape ([`Bbdd`] is `Manager<BbddShape>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbddShape;

/// Level of the node an edge points to (`None` for constants).
pub(crate) fn edge_level(m: &Bbdd, e: Edge) -> Option<u16> {
    (!e.is_constant()).then(|| m.top(e))
}

/// The Shannon (R4) node of `level` — the positive literal of its PV.
#[inline]
fn shannon_node(st: &mut impl NodeStore, level: u16) -> Edge {
    let words = (
        Edge::ZERO.bits(),
        Edge::ONE.bits(),
        u32::from(level) | META_SHANNON,
    );
    Edge::new(st.find_or_insert(words), false)
}

/// The positive literal of the level below `level` — `Edge::ONE` for the
/// fictitious `SV = 1` of the bottom level.
#[inline]
fn lit_below(st: &mut impl NodeStore, level: u16) -> Edge {
    if level == 0 {
        Edge::ONE
    } else {
        shannon_node(st, level - 1)
    }
}

/// Is `e` exactly the regular positive literal of the level below
/// `level`? (The R4 detection pattern; no node is created.)
#[inline]
fn is_lit_below(st: &impl NodeStore, e: Edge, level: u16) -> bool {
    if e.is_complemented() {
        return false;
    }
    if level == 0 {
        return e == Edge::ONE;
    }
    if e.is_constant() {
        return false;
    }
    let meta = st.words(e.node()).2;
    meta & META_SHANNON != 0 && meta as u16 == level - 1
}

impl Shape for BbddShape {
    type NodeInfo = NodeInfo;
    type Scratch = SwapCtx;
    const NAME: &'static str = "bbdd";
    const PAR_NAME: &'static str = "par-bbdd";
    const TOP_IS_VAR: bool = false;
    const APPLY_SECOND_FIRST: bool = true;
    const ITE_COUNTER: bool = true;
    const STRUCTURAL_SUPPORT: bool = false;
    const DOT_SOLID_SECOND: bool = true;

    #[inline]
    fn key_hash(key: u64, h: &CantorHasher) -> u64 {
        // Nested Cantor pairing over the seed's tuple (paper §IV-A3): the
        // ≠-attribute travels in the packed edge word, the mode bit third.
        h.hash3(key >> 32, key & 0xFFFF_FFFE, key & 1)
    }

    #[inline]
    fn overlay_hash(key: u64, level: u16, h: &CantorHasher) -> u64 {
        h.hash4(key >> 32, key & 0xFFFF_FFFE, key & 1, u64::from(level))
    }

    /// R2 (identical children), the regular-`=`-edge normalization and R4
    /// (single-variable degeneration).
    #[inline]
    fn make_node(st: &mut impl NodeStore, level: u16, mut neq: Edge, mut eq: Edge) -> Edge {
        if neq == eq {
            return eq; // R2
        }
        let mut out_c = false;
        if eq.is_complemented() {
            neq = !neq;
            eq = !eq;
            out_c = true;
        }
        // R4: (v ⊕ w)·w' + (v ⊙ w)·w  ≡  the literal v.
        if neq == !eq && is_lit_below(st, eq, level) {
            return shannon_node(st, level).complement_if(out_c);
        }
        let id = st.find_or_insert((neq.bits(), eq.bits(), u32::from(level)));
        Edge::new(id, out_c)
    }

    /// The biconditional cofactors `(f_{v≠w}, f_{v=w})` at `level`.
    #[inline]
    fn cofactors(st: &mut impl NodeStore, e: Edge, level: u16) -> (Edge, Edge) {
        if e.is_constant() {
            return (e, e);
        }
        let (neq, eq, meta) = st.words(e.node());
        if (meta as u16) < level {
            return (e, e);
        }
        debug_assert_eq!(meta as u16, level, "cofactor below the node's own level");
        let c = e.is_complemented();
        if meta & META_SHANNON != 0 {
            // f = v:  f_{v≠w} = w',  f_{v=w} = w.
            let lw = lit_below(st, level);
            ((!lw).complement_if(c), lw.complement_if(c))
        } else {
            (
                Edge::from_bits(neq).complement_if(c),
                Edge::from_bits(eq).complement_if(c),
            )
        }
    }

    fn literal(st: &mut impl NodeStore, level: u16) -> Edge {
        shannon_node(st, level)
    }

    fn chain_partner(level: u16, in_cube: &[bool]) -> Option<u16> {
        (level > 0 && in_cube[usize::from(level) - 1]).then(|| level - 1)
    }

    fn takes_first(m: &Bbdd, (_, _, meta): (u32, u32, u32), assignment: &[bool]) -> bool {
        let level = meta as u16;
        let v = assignment[m.var_of_top(level)];
        // Shannon nodes compare against the fictitious SV = 1.
        let w = meta & META_SHANNON != 0 || assignment[m.var_of_top(level - 1)];
        v != w
    }

    /// A variable is both the PV of its own level and the SV of the level
    /// above, so restriction rebuilds both levels by Shannon-recombining
    /// with the neighbouring literal.
    fn try_restrict(
        m: &mut Bbdd,
        f: Edge,
        var: usize,
        value: bool,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        let lv = m.top_of_var(var);
        restrict_rec(m, f, lv, value, &mut FxHashMap::default(), budget)
    }

    /// `(g ∧ f|_{var=1}) ∨ (¬g ∧ f|_{var=0})`.
    fn try_compose(
        m: &mut Bbdd,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        m.stats.compose_calls += 1;
        let f1 = m.try_restrict(f, var, true, budget)?;
        let f0 = m.try_restrict(f, var, false, budget)?;
        m.try_ite(g, f1, f0, budget)
    }

    /// Both the node's own test and the level-above SV role of `v` are
    /// rebuilt through `ite`: `f|_{v=1} = ite(w, f_=, f_≠)`,
    /// `f|_{v=0} = ite(w, f_≠, f_=)`.
    fn shannon_split(
        m: &mut Bbdd,
        f: Edge,
        budget: &mut OpBudget,
    ) -> Result<(usize, Edge, Edge), OpAbort> {
        let level = m.top(f);
        let v = m.var_of_top(level);
        let (fd, fe) = m.cofactors(f, level);
        let w = lit_below(m, level);
        let f1 = m.try_ite(w, fe, fd, budget)?;
        let f0 = m.try_ite(w, fd, fe, budget)?;
        Ok((v, f1, f0))
    }

    /// Walks one root-to-sink path (every non-constant edge is
    /// satisfiable by canonicity), collecting its biconditional
    /// constraints, then resolves them bottom-up along the chain.
    fn any_sat(m: &Bbdd, f: Edge) -> Option<Vec<bool>> {
        if f == Edge::ZERO {
            return None;
        }
        let mut path = Path::new(m.num_vars());
        let mut e = f;
        while !e.is_constant() {
            let node = m.node(e.node());
            let c = e.is_complemented();
            let l = usize::from(node.top());
            if node.is_shannon() {
                path.val[l] = Some(!c);
                break;
            }
            let zn = node.first().complement_if(c);
            // At least one branch is non-false (R2 + canonicity).
            if zn == Edge::ZERO {
                path.rel[l] = Some(true);
                e = node.second().complement_if(c);
            } else {
                path.rel[l] = Some(false);
                e = zn;
            }
        }
        Some(path.resolve(m, 0))
    }

    fn all_sat(m: &Bbdd, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        if limit > 0 {
            all_sat_rec(m, f, &mut Path::new(m.num_vars()), limit, &mut out);
        }
        out
    }

    fn node_info(m: &Bbdd, e: Edge) -> Option<NodeInfo> {
        if e.is_constant() {
            return None;
        }
        let n = m.node(e.node());
        let level = n.top();
        Some(NodeInfo {
            level: usize::from(level),
            shannon: n.is_shannon(),
            neq: n.first(),
            eq: n.second(),
            pv: m.var_of_top(level),
            sv: (!n.is_shannon() && level > 0).then(|| m.var_of_top(level - 1)),
        })
    }

    /// `PV⊕SV` for biconditional nodes, `PV` for Shannon ones.
    fn dot_label(m: &Bbdd, id: u32) -> String {
        let n = m.node(id);
        let pv = m.var_of_top(n.top());
        if n.is_shannon() {
            format!("x{pv}")
        } else {
            format!("x{pv}⊕x{}", m.var_of_top(n.top() - 1))
        }
    }

    fn check_node(m: &Bbdd, id: u32, n: Node) -> Result<(), String> {
        if n.second().is_complemented() {
            return Err(format!("node {id} has complemented =-edge"));
        }
        if n.is_shannon() {
            if n.first() != Edge::ZERO || n.second() != Edge::ONE {
                return Err(format!("shannon node {id} with non-literal children"));
            }
        } else if n.first() == !n.second() && is_lit_below(m, n.second(), n.top()) {
            return Err(format!("node {id} violates R4"));
        }
        Ok(())
    }

    fn swap_adjacent(m: &mut Bbdd, pos: usize) {
        swap_levels(m, (m.num_vars() - 2 - pos) as u16);
    }

    /// The *biconditional chain affinity*: a biconditional node at level
    /// `l` branches on `PV ⊕ SV`, coupling the variables at positions
    /// `p = n-1-l` and `p+1`, so the fraction of non-Shannon nodes at a
    /// level measures how strongly it is chained to the one below. Pair
    /// sifting moves pairs above its threshold as rigid units.
    fn pair_affinity(m: &Bbdd, pos: usize) -> f64 {
        let table = &m.subtables[m.num_vars() - 1 - pos];
        let total = table.len();
        if total == 0 {
            return 0.0;
        }
        let chained = table
            .ids()
            .into_iter()
            .filter(|&id| !m.node(id).is_shannon())
            .count();
        chained as f64 / total as f64
    }

    /// A swap at position `p` rewrites the three chain levels at positions
    /// `p - 1 ..= p + 1` (see the `swap` module) and never touches a level
    /// above or below them. Moving down, the next swaps sit at positions
    /// `>= top`, so everything above `top - 1` is settled; moving up they
    /// sit at positions `< top + len - 1`, so everything from `top + len`
    /// down is. There is no interaction refinement: the swap re-expands
    /// `y`'s nodes over `y ⊕ x` when `x` lands between `y` and its SV, even
    /// if no function depends on both.
    fn settled_width(m: &Bbdd, top: usize, len: usize, down: bool) -> usize {
        let n = m.num_vars();
        let settled = if down {
            0..top.saturating_sub(1)
        } else {
            top + len..n
        };
        settled.map(|pos| m.subtables[n - 1 - pos].len()).sum()
    }
}

fn restrict_rec(
    m: &mut Bbdd,
    f: Edge,
    lv: u16,
    value: bool,
    memo: &mut FxHashMap<u32, Edge>,
    budget: &mut OpBudget,
) -> Result<Edge, OpAbort> {
    if f.is_constant() {
        return Ok(f);
    }
    let id = f.node();
    let c = f.is_complemented();
    let n = m.node(id);
    if n.top() < lv {
        return Ok(f); // entirely below var: independent of it
    }
    if let Some(&r) = memo.get(&id) {
        return Ok(r.complement_if(c));
    }
    budget.checkpoint()?;
    let r = if n.top() == lv {
        if n.is_shannon() {
            Edge::ONE.complement_if(!value) // the literal itself
        } else {
            // Node tests (v, w): f|_{v=1} = ite(w, f_eq, f_neq),
            //                    f|_{v=0} = ite(w, f_neq, f_eq).
            let w = lit_below(m, lv);
            let (a, b) = if value {
                (n.second(), n.first())
            } else {
                (n.first(), n.second())
            };
            m.try_ite(w, a, b, budget)?
        }
    } else if n.is_shannon() {
        Edge::new(id, false) // a literal of a higher variable
    } else {
        let rd = restrict_rec(m, n.first(), lv, value, memo, budget)?;
        let re = restrict_rec(m, n.second(), lv, value, memo, budget)?;
        if n.top() == lv + 1 {
            // Branching condition (u, v) mentions var as SV:
            // f|_{v=1} = ite(u, E', D'),  f|_{v=0} = ite(u, D', E').
            let u = shannon_node(m, n.top());
            let (a, b) = if value { (re, rd) } else { (rd, re) };
            m.try_ite(u, a, b, budget)?
        } else {
            m.make_node(n.top(), rd, re)
        }
    };
    memo.insert(id, r);
    Ok(r.complement_if(c))
}

/// Per-level path constraints of a model search: `val[l]` pins the PV of
/// level `l` absolutely (Shannon nodes compare against the fictitious
/// SV = 1); `rel[l]` relates it to the chain neighbour one level down.
struct Path {
    val: Vec<Option<bool>>,
    rel: Vec<Option<bool>>,
}

impl Path {
    fn new(n: usize) -> Self {
        Path {
            val: vec![None; n],
            rel: vec![None; n],
        }
    }

    /// The concrete assignment (indexed by variable), giving free levels
    /// the bits of `free_bits` in bottom-up level order.
    fn resolve(&self, m: &Bbdd, free_bits: u128) -> Vec<bool> {
        let n = self.val.len();
        let mut by_level = vec![false; n];
        let mut free_idx = 0u32;
        for l in 0..n {
            by_level[l] = if let Some(v) = self.val[l] {
                v
            } else if let Some(eq) = self.rel[l] {
                let w = l == 0 || by_level[l - 1];
                w == eq
            } else {
                let bit = free_idx < 128 && (free_bits >> free_idx) & 1 == 1;
                free_idx += 1;
                bit
            };
        }
        let mut out = vec![false; n];
        for (l, &v) in by_level.iter().enumerate() {
            out[m.var_of_top(l as u16)] = v;
        }
        out
    }
}

fn all_sat_rec(m: &Bbdd, e: Edge, path: &mut Path, limit: usize, out: &mut Vec<Vec<bool>>) {
    if out.len() >= limit || e == Edge::ZERO {
        return;
    }
    if e == Edge::ONE {
        // Expand the free levels of this path.
        let free = path
            .val
            .iter()
            .zip(&path.rel)
            .filter(|(v, r)| v.is_none() && r.is_none())
            .count();
        push_completions(free, limit, out, |k| path.resolve(m, k));
        return;
    }
    let node = m.node(e.node());
    let c = e.is_complemented();
    let l = usize::from(node.top());
    if node.is_shannon() {
        path.val[l] = Some(!c);
        all_sat_rec(m, Edge::ONE, path, limit, out);
        path.val[l] = None;
        return;
    }
    path.rel[l] = Some(false);
    all_sat_rec(m, node.first().complement_if(c), path, limit, out);
    path.rel[l] = Some(true);
    all_sat_rec(m, node.second().complement_if(c), path, limit, out);
    path.rel[l] = None;
}
