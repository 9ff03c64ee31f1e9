//! The Shannon node shape: what makes a [`crate::Manager`] a CUDD-style
//! ROBDD with complement edges.
//!
//! A node is the triple `ite(var, then, else)`; its top is its variable
//! (subtables are per variable and never move during reordering) and its
//! words are `(then, else)`, the *then*-edge kept regular. Apply and ite
//! recurse into the *then*-branch first; there is no chain quantification
//! case.
//!
//! Reordering is the classic in-place adjacent swap plus CUDD's sift
//! bound: per-position level widths and the variable interaction matrix,
//! built when a reorder opens.

use super::{Robdd, RobddNodeInfo};
use crate::cantor::CantorHasher;
use crate::fxhash::FxHashMap;
use crate::govern::{OpAbort, OpBudget};
use crate::manager::ops::push_completions;
use crate::manager::{Node, NodeStore, Shape};
use crate::optag;
use crate::Edge;
use std::ops::Range;

/// The ROBDD node shape ([`Robdd`] is `Manager<RobddShape>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobddShape;

/// Top-based position of the node an edge points to (`usize::MAX` for
/// constants, i.e. "below everything").
fn edge_pos(m: &Robdd, e: Edge) -> usize {
    if e.is_constant() {
        usize::MAX
    } else {
        m.position_of(usize::from(m.top(e)))
    }
}

impl Shape for RobddShape {
    type NodeInfo = RobddNodeInfo;
    type Scratch = SiftBound;
    const NAME: &'static str = "robdd";
    const PAR_NAME: &'static str = "par-robdd";
    const TOP_IS_VAR: bool = true;
    const APPLY_SECOND_FIRST: bool = false;
    const ITE_COUNTER: bool = false;
    const STRUCTURAL_SUPPORT: bool = true;
    const DOT_SOLID_SECOND: bool = false;

    #[inline]
    fn key_hash(key: u64, h: &CantorHasher) -> u64 {
        h.hash2(key >> 32, key & 0xFFFF_FFFF)
    }

    #[inline]
    fn overlay_hash(key: u64, var: u16, h: &CantorHasher) -> u64 {
        h.hash3(key >> 32, key & 0xFFFF_FFFF, u64::from(var))
    }

    /// The redundancy rule and the regular-*then* normalization.
    #[inline]
    fn make_node(st: &mut impl NodeStore, var: u16, mut then_: Edge, mut else_: Edge) -> Edge {
        if then_ == else_ {
            return then_;
        }
        let mut out_c = false;
        if then_.is_complemented() {
            then_ = !then_;
            else_ = !else_;
            out_c = true;
        }
        let id = st.find_or_insert((then_.bits(), else_.bits(), u32::from(var)));
        Edge::new(id, out_c)
    }

    /// The Shannon cofactors `(f|var=1, f|var=0)`.
    #[inline]
    fn cofactors(st: &mut impl NodeStore, e: Edge, var: u16) -> (Edge, Edge) {
        if e.is_constant() {
            return (e, e);
        }
        let (then_, else_, meta) = st.words(e.node());
        if meta as u16 != var {
            return (e, e);
        }
        let c = e.is_complemented();
        (
            Edge::from_bits(then_).complement_if(c),
            Edge::from_bits(else_).complement_if(c),
        )
    }

    fn literal(st: &mut impl NodeStore, var: u16) -> Edge {
        Self::make_node(st, var, Edge::ONE, Edge::ZERO)
    }

    fn takes_first(_m: &Robdd, (_, _, meta): (u32, u32, u32), assignment: &[bool]) -> bool {
        assignment[usize::from(meta as u16)]
    }

    fn try_restrict(
        m: &mut Robdd,
        f: Edge,
        var: usize,
        value: bool,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        let target_pos = m.position_of(var);
        let var = m.top_of_var(var);
        restrict_rec(
            m,
            f,
            var,
            target_pos,
            value,
            &mut FxHashMap::default(),
            budget,
        )
    }

    /// A cached recursion: `f[var := g]` rebuilt top-down through `ite`.
    fn try_compose(
        m: &mut Robdd,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        assert!(var < m.num_vars(), "compose variable out of range");
        compose_rec(m, f, var as u16, g, budget)
    }

    fn shannon_split(
        m: &mut Robdd,
        f: Edge,
        _budget: &mut OpBudget,
    ) -> Result<(usize, Edge, Edge), OpAbort> {
        let n = m.node(f.node());
        Ok((usize::from(n.top()), n.first(), n.second()))
    }

    fn any_sat(m: &Robdd, f: Edge) -> Option<Vec<bool>> {
        if f == Edge::ZERO {
            return None;
        }
        let mut out = vec![false; m.num_vars()];
        let mut e = f;
        while !e.is_constant() {
            let n = m.node(e.node());
            let c = e.is_complemented();
            let t = n.first().complement_if(c);
            // At least one branch is satisfiable (reduction + canonicity).
            if t == Edge::ZERO {
                e = n.second().complement_if(c);
            } else {
                out[usize::from(n.top())] = true;
                e = t;
            }
        }
        Some(out)
    }

    fn all_sat(m: &Robdd, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        if limit > 0 {
            all_sat_rec(m, f, &mut vec![None; m.num_vars()], limit, &mut out);
        }
        out
    }

    fn node_info(m: &Robdd, e: Edge) -> Option<RobddNodeInfo> {
        (!e.is_constant()).then(|| {
            let n = m.node(e.node());
            RobddNodeInfo {
                var: usize::from(n.top()),
                then_: n.first(),
                else_: n.second(),
            }
        })
    }

    fn dot_label(m: &Robdd, id: u32) -> String {
        format!("x{}", m.node(id).top())
    }

    fn check_node(_m: &Robdd, id: u32, n: Node) -> Result<(), String> {
        if n.first().is_complemented() {
            return Err(format!("node {id} has complemented then-edge"));
        }
        Ok(())
    }

    /// Nodes of the upper variable whose cofactors involve the lower one
    /// are rewritten (keeping their pointers) to test the lower variable
    /// first; all other nodes are untouched. Variables that do not
    /// interact share no node, so only their positions trade (CUDD's
    /// shortcut).
    fn swap_adjacent(m: &mut Robdd, pos: usize) {
        let x = m.var_at_pos[pos] as u16;
        let y = m.var_at_pos[pos + 1] as u16;
        if m.scratch
            .as_ref()
            .and_then(|sb| sb.interact.as_ref())
            .is_none_or(|im| im.interacts(usize::from(x), usize::from(y)))
        {
            rewrite_pair(m, x, y);
        }
        m.swap_order(pos);
        if let Some(sb) = m.scratch.as_mut() {
            for p in [pos, pos + 1] {
                sb.widths
                    .set(p, m.subtables[m.var_at_pos[p] as usize].len());
            }
        }
    }

    fn begin_reorder(m: &mut Robdd) {
        m.scratch = Some(SiftBound {
            widths: LevelWidths::new(
                (0..m.num_vars())
                    .map(|pos| m.subtables[m.var_at_pos[pos] as usize].len())
                    .collect(),
            ),
            interact: Interaction::of_roots(m),
        });
    }

    fn end_reorder(m: &mut Robdd) {
        m.scratch = None;
    }

    /// Structural analogue of the BBDD chain affinity: the fraction of the
    /// upper variable's nodes with a cofactor testing the next variable in
    /// the order directly. Those are exactly the nodes an adjacent swap
    /// must rewrite, so a high fraction means the two levels are tightly
    /// coupled.
    fn pair_affinity(m: &Robdd, pos: usize) -> f64 {
        let x = m.var_at_pos[pos] as usize;
        let y = m.var_at_pos[pos + 1] as u16;
        let table = &m.subtables[x];
        let total = table.len();
        if total == 0 {
            return 0.0;
        }
        let tests_y = |e: Edge| !e.is_constant() && m.top(e) == y;
        let mut coupled = 0usize;
        table.for_each(|id| {
            let nd = m.node(id);
            coupled += usize::from(tests_y(nd.first()) || tests_y(nd.second()));
        });
        coupled as f64 / total as f64
    }

    /// A swap rewrites only the two swapped levels. Moving the group one
    /// way leaves every level on the other side untouched, and on its own
    /// side every level whose variable interacts with no group member: the
    /// group passes such a variable by position exchanges alone. Outside a
    /// reorder scope there is no bound.
    fn settled_width(m: &Robdd, top: usize, len: usize, down: bool) -> usize {
        let Some(sb) = &m.scratch else {
            return 0;
        };
        let n = m.num_vars();
        debug_assert!(
            (0..n).all(|pos| sb.widths.width[pos] == m.subtables[m.var_at_pos[pos] as usize].len()),
            "stale sift-bound level widths"
        );
        let above = sb.widths.sum_to(top);
        let below = m.live_nodes() - sb.widths.sum_to(top + len);
        let (behind, ahead, ahead_width) = if down {
            (above, top + len..n, below)
        } else {
            (below, 0..top, above)
        };
        match &sb.interact {
            None => behind,
            Some(im) => {
                let group = &m.var_at_pos[top..top + len];
                behind + ahead_width - im.interacting_width(m, group, ahead)
            }
        }
    }
}

fn restrict_rec(
    m: &mut Robdd,
    f: Edge,
    var: u16,
    target_pos: usize,
    value: bool,
    memo: &mut FxHashMap<u32, Edge>,
    budget: &mut OpBudget,
) -> Result<Edge, OpAbort> {
    if f.is_constant() || edge_pos(m, f) > target_pos {
        return Ok(f);
    }
    let id = f.node();
    let c = f.is_complemented();
    if let Some(&r) = memo.get(&id) {
        return Ok(r.complement_if(c));
    }
    budget.checkpoint()?;
    let n = m.node(id);
    let r = if n.top() == var {
        if value {
            n.first()
        } else {
            n.second()
        }
    } else {
        let t = restrict_rec(m, n.first(), var, target_pos, value, memo, budget)?;
        let e = restrict_rec(m, n.second(), var, target_pos, value, memo, budget)?;
        m.make_node(n.top(), t, e)
    };
    memo.insert(id, r);
    Ok(r.complement_if(c))
}

fn compose_rec(
    m: &mut Robdd,
    f: Edge,
    var: u16,
    g: Edge,
    budget: &mut OpBudget,
) -> Result<Edge, OpAbort> {
    // f is independent of var once its top sits below var in the order.
    if f.is_constant() || edge_pos(m, f) > m.position_of(usize::from(var)) {
        return Ok(f);
    }
    m.stats.compose_calls += 1;
    let k1 = u64::from(f.bits());
    let k2 = (u64::from(g.bits()) << 32) | u64::from(var);
    if let Some(r) = m.cache.get(k1, k2, optag::COMPOSE) {
        return Ok(Edge::from_bits(r as u32));
    }
    // Poll on the miss, before materializing.
    budget.checkpoint()?;
    let n = m.node(f.node());
    let c = f.is_complemented();
    let (f1, f0) = (n.first().complement_if(c), n.second().complement_if(c));
    let r = if n.top() == var {
        m.try_ite(g, f1, f0, budget)?
    } else {
        let t = compose_rec(m, f1, var, g, budget)?;
        let e = compose_rec(m, f0, var, g, budget)?;
        let lit = m.var(usize::from(n.top()));
        m.try_ite(lit, t, e, budget)?
    };
    m.cache.insert(k1, k2, optag::COMPOSE, u64::from(r.bits()));
    Ok(r)
}

fn all_sat_rec(
    m: &Robdd,
    e: Edge,
    partial: &mut Vec<Option<bool>>,
    limit: usize,
    out: &mut Vec<Vec<bool>>,
) {
    if out.len() >= limit || e == Edge::ZERO {
        return;
    }
    if e == Edge::ONE {
        let free: Vec<usize> = (0..partial.len())
            .filter(|&v| partial[v].is_none())
            .collect();
        push_completions(free.len(), limit, out, |k| {
            let mut a: Vec<bool> = partial.iter().map(|v| v.unwrap_or(false)).collect();
            for (i, &v) in free.iter().enumerate() {
                a[v] = i < 128 && (k >> i) & 1 == 1;
            }
            a
        });
        return;
    }
    let n = m.node(e.node());
    let c = e.is_complemented();
    let v = usize::from(n.top());
    partial[v] = Some(true);
    all_sat_rec(m, n.first().complement_if(c), partial, limit, out);
    partial[v] = Some(false);
    all_sat_rec(m, n.second().complement_if(c), partial, limit, out);
    partial[v] = None;
}

/// Rewrite the `x`-nodes with a `y`-child to test `y` first (`x` sits
/// directly above `y`), then reclaim what the rewrite left dead.
///
/// The swap commits the `x` level as a whole: it takes the `x` ids and
/// clears the subtable instead of removing each rewritten node from it.
/// Nearly every `x` node of a sift swap moves, and on the small tables a
/// sift walks through, each removal left a tombstone that lengthened the
/// probes of the next cofactor lookups and tripped the adaptive rehash.
/// The `x` nodes without a `y` child stay valid `x` nodes (now below `y`)
/// and go back into the table before the first new cofactor is made, so
/// `make_node` finds them instead of making a duplicate; a new cofactor
/// never equals a moving node, whose children include a `y` node. The
/// rewritten nodes join the `y` subtable only after `reclaim_dead` has
/// taken out the old `y` nodes the rewrite left dead, so they reuse the
/// slots of the dead instead of growing the table while the dead still
/// hold them. A rewritten node cannot die in between: the counts of its
/// parents do not change.
fn rewrite_pair(m: &mut Robdd, x: u16, y: u16) {
    let tests_y = |m: &Robdd, e: Edge| !e.is_constant() && m.top(e) == y;
    let mut moving = m.subtables[usize::from(x)].ids();
    m.subtables[usize::from(x)].clear();
    moving.retain(|&id| {
        let nd = m.node(id);
        let moves = tests_y(m, nd.first()) || tests_y(m, nd.second());
        if !moves {
            // Does not involve y: stays a valid x-node (now below y).
            m.subtables[usize::from(x)].insert(id, &m.nodes);
        }
        moves
    });
    for &id in &moving {
        let nd = m.node(id);
        let (t, e) = (nd.first(), nd.second());
        let (t_dep, e_dep) = (tests_y(m, t), tests_y(m, e));
        // Grand-cofactors with respect to y. The then-edge is regular, so
        // t1 is regular and the rebuilt node keeps its polarity.
        let split = |m: &Robdd, e: Edge, dep: bool| {
            if dep {
                let n = m.node(e.node());
                let c = e.is_complemented();
                (n.first().complement_if(c), n.second().complement_if(c))
            } else {
                (e, e)
            }
        };
        let (t1, t0) = split(m, t, t_dep);
        let (e1, e0) = split(m, e, e_dep);
        let new_t = make_swap_node(m, x, t1, e1); // f_{y=1}
        let new_e = make_swap_node(m, x, t0, e0); // f_{y=0}
        debug_assert_ne!(new_t, new_e, "swap produced a redundant node");
        debug_assert!(!new_t.is_complemented(), "polarity flip in swap");
        m.nodes[id as usize] = Node::new(y, false, new_t, new_e);
        // Inside a reorder, the rewritten node trades its references to
        // the old children for the new ones.
        if let Some(refs) = m.sift_refs.as_mut() {
            refs.inc(new_t);
            refs.inc(new_e);
            refs.dec(t);
            refs.dec(e);
        }
    }
    m.reclaim_dead(0);
    for id in moving {
        debug_assert!(m.peek(y, m.node(id).key()).is_none());
        m.subtables[usize::from(y)].insert(id, &m.nodes);
    }
}

/// `make_node` for the swap: inside a reorder, a node it creates
/// references its children.
fn make_swap_node(m: &mut Robdd, var: u16, then_: Edge, else_: Edge) -> Edge {
    let created = m.stats.nodes_created;
    let r = m.make_node(var, then_, else_);
    if m.stats.nodes_created != created {
        if let Some(refs) = m.sift_refs.as_mut() {
            refs.inc(then_);
            refs.inc(else_);
        }
    }
    r
}

/// What the sift bound keeps for one reorder scope.
#[derive(Debug)]
pub struct SiftBound {
    /// Level widths by position; each swap refreshes its two positions.
    widths: LevelWidths,
    /// `None` when the matrix would outweigh the node arena.
    interact: Option<Interaction>,
}

/// Level widths by position with `O(log n)` prefix sums (a Fenwick tree),
/// so the bound costs no pass over the order per move.
#[derive(Debug)]
struct LevelWidths {
    width: Vec<usize>,
    /// Fenwick sums, 1-based.
    tree: Vec<usize>,
}

impl LevelWidths {
    fn new(width: Vec<usize>) -> Self {
        let mut lw = LevelWidths {
            tree: vec![0; width.len() + 1],
            width: vec![0; width.len()],
        };
        for (pos, w) in width.into_iter().enumerate() {
            lw.set(pos, w);
        }
        lw
    }

    fn set(&mut self, pos: usize, w: usize) {
        let delta = w.wrapping_sub(std::mem::replace(&mut self.width[pos], w));
        if delta == 0 {
            return;
        }
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Total width of the positions `0..pos`.
    fn sum_to(&self, pos: usize) -> usize {
        let (mut sum, mut i) = (0usize, pos);
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i &= i - 1;
        }
        sum
    }
}

/// CUDD's interaction matrix: variables `x` and `y` interact when some
/// root's support holds both. A reduced node's support contains its
/// children's, so an `x`-node with a `y`-child proves an interaction, and
/// swapping two variables that do not interact rewrites nothing. Support
/// does not depend on the order, so the matrix built when a reorder opens
/// holds for its whole scope: nodes the swaps create denote cofactors of
/// functions already stored.
#[derive(Debug)]
struct Interaction {
    /// `u64` words per row.
    words: usize,
    /// Row `x`: the union of the supports of every root whose support
    /// holds `x`.
    rows: Vec<u64>,
}

impl Interaction {
    /// The matrix for the root snapshot the opening collection marked
    /// from, or `None` (no refinement) when its `n²/8` bytes would exceed
    /// the node arena's.
    fn of_roots(mgr: &Robdd) -> Option<Self> {
        let n = mgr.num_vars();
        let words = n.div_ceil(64);
        if n * words * 8 > mgr.nodes.len() * std::mem::size_of::<Node>() {
            return None;
        }
        let mut rows = vec![0u64; n * words];
        let mut supp = vec![0u64; words];
        // Last root whose traversal reached each node.
        let mut seen = vec![u32::MAX; mgr.nodes.len()];
        let mut stack = Vec::new();
        for (r, &bits) in mgr.root_scratch.iter().enumerate() {
            let root = Edge::from_bits(bits as u32);
            // A node an earlier traversal reached has a support inside
            // that root's, which the rows already cover.
            if root.is_constant() || seen[root.node() as usize] != u32::MAX {
                continue;
            }
            supp.fill(0);
            stack.push(root.node());
            while let Some(id) = stack.pop() {
                if seen[id as usize] == r as u32 {
                    continue;
                }
                seen[id as usize] = r as u32;
                let nd = mgr.node(id);
                let v = usize::from(nd.top());
                supp[v / 64] |= 1 << (v % 64);
                for c in [nd.first(), nd.second()] {
                    if !c.is_constant() {
                        stack.push(c.node());
                    }
                }
            }
            for (w, &word) in supp.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for (row, &s) in rows[v * words..(v + 1) * words].iter_mut().zip(&supp) {
                        *row |= s;
                    }
                }
            }
        }
        Some(Interaction { words, rows })
    }

    /// Do `x` and `y` share some root's support?
    fn interacts(&self, x: usize, y: usize) -> bool {
        (self.rows[x * self.words + y / 64] >> (y % 64)) & 1 == 1
    }

    /// Stored nodes of the variables at positions `ahead` that interact
    /// with some member of `group`.
    fn interacting_width(&self, mgr: &Robdd, group: &[u32], ahead: Range<usize>) -> usize {
        let mut width = 0;
        for w in 0..self.words {
            let mut bits = group
                .iter()
                .fold(0, |acc, &g| acc | self.rows[g as usize * self.words + w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if ahead.contains(&(mgr.pos_of_var[v] as usize)) {
                    width += mgr.subtables[v].len();
                }
            }
        }
        width
    }
}
