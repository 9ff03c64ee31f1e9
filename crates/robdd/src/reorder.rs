//! Dynamic variable ordering: the classic in-place adjacent swap, plus the
//! [`ddcore::dvo`] engine instantiated for the ROBDD manager (the `sift`
//! of CUDD used in Table I).
//!
//! The sifting algorithms live in [`ddcore::dvo`], generic over
//! [`ReorderBackend`]; this module supplies the backend contract (adjacent
//! swaps, sift-scoped reference counts with window-local reclamation,
//! per-variable widths and a structural pair-affinity analogue) and keeps
//! the `sift`/`sift_strategy` entry points as thin wrappers.

use crate::edge::Edge;
use crate::manager::Robdd;
use crate::node::Node;
use ddcore::dvo::{DvoStrategy, ReorderBackend};
use ddcore::govern::{OpAbort, OpBudget};
use std::ops::Range;

impl ReorderBackend for Robdd {
    fn num_vars(&self) -> usize {
        Robdd::num_vars(self)
    }

    fn position_of(&self, var: usize) -> usize {
        Robdd::position_of(self, var)
    }

    fn var_at_position(&self, pos: usize) -> usize {
        self.var_at_pos[pos] as usize
    }

    fn swap_positions(&mut self, pos: usize) {
        self.swap_adjacent(pos);
    }

    fn sweep(&mut self) -> usize {
        self.live_nodes()
    }

    fn begin_reorder(&mut self) {
        self.begin_sift_refs();
        self.sift_bound = Some(SiftBound {
            widths: LevelWidths::new(
                (0..Robdd::num_vars(self))
                    .map(|pos| self.subtables[self.var_at_pos[pos] as usize].len())
                    .collect(),
            ),
            interact: Interaction::of_roots(self),
        });
    }

    fn end_reorder(&mut self) -> usize {
        self.sift_bound = None;
        self.end_sift_refs()
    }

    fn var_width(&self, var: usize) -> usize {
        self.subtables[var].len()
    }

    /// Structural analogue of the BBDD chain affinity: the fraction of the
    /// upper variable's nodes with a cofactor testing the next variable in
    /// the order directly. Those are exactly the nodes an adjacent swap
    /// must rewrite, so a high fraction means the two levels are tightly
    /// coupled.
    fn pair_affinity(&self, pos: usize) -> f64 {
        let x = self.var_at_pos[pos] as usize;
        let y = self.var_at_pos[pos + 1] as u16;
        let table = &self.subtables[x];
        let total = table.len();
        if total == 0 {
            return 0.0;
        }
        let coupled = table
            .ids()
            .into_iter()
            .filter(|&id| {
                let nd = self.node(id);
                let (t, e) = (nd.then_(), nd.else_());
                (!t.is_constant() && self.node(t.node()).var() == y)
                    || (!e.is_constant() && self.node(e.node()).var() == y)
            })
            .count();
        coupled as f64 / total as f64
    }

    /// A swap rewrites only the two swapped levels. Moving the group one
    /// way leaves every level on the other side untouched, and on its own
    /// side every level whose variable interacts with no group member: the
    /// group passes such a variable by position exchanges alone. Outside a
    /// reorder scope there is no bound.
    fn settled_width(&self, top: usize, len: usize, down: bool) -> usize {
        let Some(sb) = &self.sift_bound else {
            return 0;
        };
        let n = Robdd::num_vars(self);
        debug_assert!(
            (0..n)
                .all(|pos| sb.widths.width[pos]
                    == self.subtables[self.var_at_pos[pos] as usize].len()),
            "stale sift-bound level widths"
        );
        let above = sb.widths.sum_to(top);
        let below = self.live_nodes() - sb.widths.sum_to(top + len);
        let (behind, ahead, ahead_width) = if down {
            (above, top + len..n, below)
        } else {
            (below, 0..top, above)
        };
        match &sb.interact {
            None => behind,
            Some(m) => {
                let group = &self.var_at_pos[top..top + len];
                behind + ahead_width - m.interacting_width(self, group, ahead)
            }
        }
    }
}

/// What the sift bound keeps for one reorder scope.
#[derive(Debug)]
pub(crate) struct SiftBound {
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
                let v = nd.var() as usize;
                supp[v / 64] |= 1 << (v % 64);
                for c in [nd.then_(), nd.else_()] {
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

impl Robdd {
    /// Swap the variables at order positions `pos` and `pos + 1` in place.
    ///
    /// Nodes of the upper variable whose cofactors involve the lower
    /// variable are rewritten (keeping their pointers) to test the lower
    /// variable first; all other nodes are untouched. Every existing
    /// [`Edge`](crate::Edge) keeps denoting the same function.
    ///
    /// # Panics
    /// Panics if `pos + 1 >= num_vars()`.
    pub fn swap_adjacent(&mut self, pos: usize) {
        let timer = ddcore::obs::prof_timer();
        let n = self.num_vars();
        assert!(pos + 1 < n, "swap position out of range");
        let x = self.var_at_pos[pos] as u16;
        let y = self.var_at_pos[pos + 1] as u16;
        // Variables that do not interact share no node: only the positions
        // trade (CUDD's shortcut).
        if self
            .sift_bound
            .as_ref()
            .and_then(|sb| sb.interact.as_ref())
            .is_none_or(|m| m.interacts(x as usize, y as usize))
        {
            self.rewrite_pair(x, y);
        }
        self.var_at_pos.swap(pos, pos + 1);
        self.pos_of_var[self.var_at_pos[pos] as usize] = pos as u32;
        self.pos_of_var[self.var_at_pos[pos + 1] as usize] = (pos + 1) as u32;
        if let Some(sb) = self.sift_bound.as_mut() {
            for p in [pos, pos + 1] {
                sb.widths
                    .set(p, self.subtables[self.var_at_pos[p] as usize].len());
            }
        }
        self.stats.swaps += 1;
        ddcore::obs::prof_record(ddcore::obs::Op::Swap, timer);
    }

    /// Rewrite the `x`-nodes with a `y`-child to test `y` first (`x` sits
    /// directly above `y`), then reclaim what the rewrite left dead.
    fn rewrite_pair(&mut self, x: u16, y: u16) {
        let ids = self.subtables[x as usize].ids();
        for id in ids {
            let nd = *self.node(id);
            let (t, e) = (nd.then_(), nd.else_());
            let t_dep = !t.is_constant() && self.node(t.node()).var() == y;
            let e_dep = !e.is_constant() && self.node(e.node()).var() == y;
            if !t_dep && !e_dep {
                // Does not involve y: stays a valid x-node (now below y).
                continue;
            }
            // Grand-cofactors with respect to y. The then-edge is regular,
            // so t1 is regular and the rebuilt node keeps its polarity.
            let (t1, t0) = if t_dep {
                let tn = self.node(t.node());
                let c = t.is_complemented();
                (tn.then_().complement_if(c), tn.else_().complement_if(c))
            } else {
                (t, t)
            };
            let (e1, e0) = if e_dep {
                let en = self.node(e.node());
                let c = e.is_complemented();
                (en.then_().complement_if(c), en.else_().complement_if(c))
            } else {
                (e, e)
            };
            let new_t = self.make_swap_node(x, t1, e1); // f_{y=1}
            let new_e = self.make_swap_node(x, t0, e0); // f_{y=0}
            debug_assert_ne!(new_t, new_e, "swap produced a redundant node");
            debug_assert!(!new_t.is_complemented(), "polarity flip in swap");
            let removed = self.subtables[x as usize].remove(id, &self.nodes);
            debug_assert!(removed);
            self.nodes[id as usize] = Node::new(y, new_t, new_e);
            debug_assert!(self.subtables[y as usize]
                .peek(&self.node(id).key(), &self.nodes)
                .is_none());
            self.subtables[y as usize].insert(id, &self.nodes);
            // Inside a reorder, the rewritten node trades its references
            // to the old children for the new ones.
            if let Some(refs) = self.sift_refs.as_mut() {
                refs.inc(new_t);
                refs.inc(new_e);
                refs.dec(t);
                refs.dec(e);
            }
        }
        self.reclaim_dead();
    }

    /// `make_node` for the swap: inside a reorder, a node it creates
    /// references its children.
    fn make_swap_node(&mut self, var: u16, then_: Edge, else_: Edge) -> Edge {
        let created = self.stats.nodes_created;
        let r = self.make_node(var, then_, else_);
        if self.stats.nodes_created != created {
            if let Some(refs) = self.sift_refs.as_mut() {
                refs.inc(then_);
                refs.inc(else_);
            }
        }
        r
    }

    /// Sift all variables once with default settings; returns the live
    /// node count. Everything a live [`crate::RobddFn`] handle denotes
    /// survives — the handle registry is the root set.
    pub fn sift(&mut self) -> usize {
        self.sift_strategy(DvoStrategy::Full, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// Run a specific [`DvoStrategy`] (full, window or pair-aware sift)
    /// under a resource budget, polled before every adjacent swap. On
    /// abort, the variable currently being sifted is first parked back at
    /// the best position seen (a bounded amount of un-budgeted work), so
    /// the order, tables and every registered handle stay consistent — the
    /// result is simply a partially improved order.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn sift_strategy(
        &mut self,
        strategy: DvoStrategy,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        strategy.run(self, budget)
    }

    /// Re-order to the given permutation (top first) by adjacent swaps.
    ///
    /// # Panics
    /// Panics if `target` is not a permutation of `0..num_vars()`.
    pub fn reorder_to(&mut self, target: &[usize]) {
        let n = self.num_vars();
        assert_eq!(target.len(), n, "order must mention every variable once");
        let mut seen = vec![false; n];
        for &v in target {
            assert!(v < n && !seen[v], "order must be a permutation");
            seen[v] = true;
        }
        for (goal_pos, &v) in target.iter().enumerate() {
            let mut pos = self.position_of(v);
            while pos > goal_pos {
                self.swap_adjacent(pos - 1);
                pos -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn truth_of(mgr: &Robdd, f: Edge, n: usize) -> Vec<bool> {
        (0..1u32 << n)
            .map(|m| {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect()
    }

    fn equality_bad_order(mgr: &mut Robdd, k: usize) -> Edge {
        let mut f = mgr.one();
        for i in 0..k {
            let (a, b) = (mgr.var(i), mgr.var(i + k));
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        f
    }

    #[test]
    fn swap_preserves_functions() {
        let n = 5;
        let mut mgr = Robdd::new(n);
        let f = equality_bad_order(&mut mgr, 2);
        let g = {
            let a = mgr.var(4);
            let b = mgr.var(0);
            mgr.xor(a, b)
        };
        let (tf, tg) = (truth_of(&mgr, f, n), truth_of(&mgr, g, n));
        for pos in 0..n - 1 {
            mgr.swap_adjacent(pos);
            assert_eq!(truth_of(&mgr, f, n), tf, "pos {pos}");
            assert_eq!(truth_of(&mgr, g, n), tg, "pos {pos}");
            mgr.validate().unwrap();
        }
    }

    #[test]
    fn random_swap_walks() {
        let n = 7;
        for seed in 0..6u64 {
            let mut mgr = Robdd::new(n);
            let vs: Vec<Edge> = (0..n).map(|v| mgr.var(v)).collect();
            let mut f = vs[0];
            let mut state = seed | 1;
            for _ in 0..2 * n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = vs[(state >> 33) as usize % n];
                f = match (state >> 20) % 4 {
                    0 => mgr.and(f, v),
                    1 => mgr.or(f, v),
                    2 => mgr.xor(f, v),
                    _ => mgr.nand(f, v),
                };
            }
            let tf = truth_of(&mgr, f, n);
            for step in 0..40 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pos = (state >> 33) as usize % (n - 1);
                mgr.swap_adjacent(pos);
                assert_eq!(truth_of(&mgr, f, n), tf, "seed {seed} step {step}");
                mgr.validate().unwrap();
            }
        }
    }

    #[test]
    fn sifting_shrinks_equality() {
        let k = 5;
        let mut mgr = Robdd::new(2 * k);
        let f = equality_bad_order(&mut mgr, k);
        let tf = truth_of(&mgr, f, 2 * k);
        let before = mgr.node_count(f);
        let _fh = mgr.pin(f);
        mgr.sift();
        let after = mgr.node_count(f);
        assert!(after < before, "sift must shrink: {before} -> {after}");
        assert!(after <= 3 * k + 1, "near-linear size expected, got {after}");
        assert_eq!(truth_of(&mgr, f, 2 * k), tf);
        mgr.validate().unwrap();
    }

    /// A random function of `n` variables.
    fn random_fn(mgr: &mut Robdd, n: usize, seed: u64) -> Edge {
        use ddcore::boolop::BoolOp;
        let ops = [
            BoolOp::XOR,
            BoolOp::AND,
            BoolOp::OR,
            BoolOp::XNOR,
            BoolOp::NAND,
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut f = mgr.var((seed as usize) % n);
        for _ in 0..3 * n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = ops[(state >> 33) as usize % ops.len()];
            let v = mgr.var((state >> 18) as usize % n);
            f = mgr.apply(op, f, v);
        }
        f
    }

    /// Four pinned random functions plus unpinned garbage for the opening
    /// collection to reclaim.
    fn random_forest(n: usize, seed: u64) -> (Robdd, Vec<(Edge, ddcore::roots::RootGuard)>) {
        let mut mgr = Robdd::new(n);
        let roots = (0..4)
            .map(|i| {
                let f = random_fn(&mut mgr, n, seed * 8 + i);
                let _garbage = random_fn(&mut mgr, n, seed * 8 + i + 4);
                (f, mgr.pin(f))
            })
            .collect();
        (mgr, roots)
    }

    /// Nodes reachable from a fresh snapshot of the root registry.
    fn full_mark(mgr: &Robdd) -> HashSet<u32> {
        let mut seen = HashSet::new();
        let mut stack: Vec<Edge> = mgr
            .root_set()
            .snapshot()
            .into_iter()
            .map(|bits| Edge::from_bits(bits as u32))
            .collect();
        while let Some(e) = stack.pop() {
            if !e.is_constant() && seen.insert(e.node()) {
                let n = mgr.node(e.node());
                stack.extend([n.then_(), n.else_()]);
            }
        }
        seen
    }

    fn stored(mgr: &Robdd) -> HashSet<u32> {
        mgr.subtables.iter().flat_map(|t| t.ids()).collect()
    }

    /// Runs a strategy on the wrapped manager and, after every swap,
    /// checks the sift-scoped reclamation against a fresh full mark.
    struct Checked<'a> {
        mgr: &'a mut Robdd,
        swaps: usize,
    }

    impl ReorderBackend for Checked<'_> {
        fn num_vars(&self) -> usize {
            self.mgr.num_vars()
        }
        fn position_of(&self, var: usize) -> usize {
            self.mgr.position_of(var)
        }
        fn var_at_position(&self, pos: usize) -> usize {
            ReorderBackend::var_at_position(&*self.mgr, pos)
        }
        fn swap_positions(&mut self, pos: usize) {
            self.mgr.swap_adjacent(pos);
            self.swaps += 1;
            assert!(self.mgr.sift_refs.is_some(), "swap outside the scope");
            let live = full_mark(self.mgr);
            assert_eq!(
                stored(self.mgr),
                live,
                "swap {}: stored != marked",
                self.swaps
            );
            assert_eq!(self.mgr.live_nodes(), live.len(), "swap {}", self.swaps);
            self.mgr.validate().unwrap();
        }
        fn sweep(&mut self) -> usize {
            self.mgr.sweep()
        }
        fn var_width(&self, var: usize) -> usize {
            self.mgr.var_width(var)
        }
        fn pair_affinity(&self, pos: usize) -> f64 {
            self.mgr.pair_affinity(pos)
        }
        fn begin_reorder(&mut self) {
            self.mgr.begin_reorder();
        }
        fn end_reorder(&mut self) -> usize {
            self.mgr.end_reorder()
        }
    }

    const STRATEGIES: [DvoStrategy; 3] =
        [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair];

    #[test]
    fn every_swap_reclaims_exactly_the_dead_nodes() {
        let n = 7;
        for seed in 0..4u64 {
            for strategy in STRATEGIES {
                let (mut mgr, roots) = random_forest(n, seed);
                let truth: Vec<_> = roots.iter().map(|(f, _)| truth_of(&mgr, *f, n)).collect();
                let mut checked = Checked {
                    mgr: &mut mgr,
                    swaps: 0,
                };
                let live = strategy
                    .run(&mut checked, &mut OpBudget::unlimited())
                    .expect("unlimited budget");
                assert!(checked.swaps > 0, "{strategy}: the sift must move");
                assert!(mgr.sift_refs.is_none(), "{strategy}: counts dropped");
                assert_eq!(live, full_mark(&mgr).len(), "{strategy} seed {seed}");
                for ((f, _), t) in roots.iter().zip(&truth) {
                    assert_eq!(&truth_of(&mgr, *f, n), t, "{strategy} seed {seed}");
                }
                mgr.validate().unwrap();
            }
        }
    }

    #[test]
    fn aborting_at_every_checkpoint_drops_the_counts() {
        let n = 6;
        for strategy in STRATEGIES {
            for k in 0.. {
                let (mut mgr, roots) = random_forest(n, 11);
                let truth: Vec<_> = roots.iter().map(|(f, _)| truth_of(&mgr, *f, n)).collect();
                let mut budget = OpBudget::unlimited().inject_cancel_at(k);
                let res = mgr.sift_strategy(strategy, &mut budget);
                assert!(mgr.sift_refs.is_none(), "{strategy} k={k}: counts dropped");
                mgr.validate().unwrap();
                assert_eq!(stored(&mgr), full_mark(&mgr), "{strategy} k={k}");
                for ((f, _), t) in roots.iter().zip(&truth) {
                    assert_eq!(&truth_of(&mgr, *f, n), t, "{strategy} k={k}");
                }
                match res {
                    Ok(_) => break,
                    Err(reason) => assert_eq!(reason, OpAbort::Cancelled),
                }
            }
        }
    }

    #[test]
    fn swaps_outside_a_reorder_leave_dead_nodes_for_the_next_gc() {
        let n = 6;
        let (mut mgr, _roots) = random_forest(n, 5);
        mgr.gc();
        let freed = mgr.stats().nodes_freed;
        for pos in 0..n - 1 {
            mgr.swap_adjacent(pos);
        }
        assert_eq!(
            mgr.stats().nodes_freed,
            freed,
            "no reclamation outside a reorder"
        );
        mgr.validate().unwrap();
        assert!(mgr.gc() > 0, "the swaps stranded dead nodes");
        assert_eq!(stored(&mgr), full_mark(&mgr));
    }

    #[test]
    fn reorder_to_target() {
        let n = 5;
        let mut mgr = Robdd::new(n);
        let f = equality_bad_order(&mut mgr, 2);
        let tf = truth_of(&mgr, f, n);
        mgr.reorder_to(&[3, 1, 4, 0, 2]);
        assert_eq!(mgr.order(), vec![3, 1, 4, 0, 2]);
        assert_eq!(truth_of(&mgr, f, n), tf);
        mgr.validate().unwrap();
    }
}
