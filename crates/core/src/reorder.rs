//! Chain variable re-ordering: the [`ddcore::dvo`] engine instantiated for
//! the BBDD manager (paper §IV-A4).
//!
//! The sifting algorithms themselves — classic Rudell, window-bounded and
//! the pair-aware group variant — live in [`ddcore::dvo`], generic over
//! [`ReorderBackend`]. This module implements that backend contract for
//! [`Bbdd`] (adjacent CVO swaps, sift-scoped reference counts with
//! window-local reclamation, per-level widths and the *biconditional chain
//! affinity* that drives pair-aware sifting) and keeps the manager's
//! `sift`/`sift_strategy` entry points as thin wrappers.
//!
//! The affinity signal is what makes pair sifting meaningful here: a
//! biconditional node at chain level `l` branches on `PV ⊕ SV`, coupling
//! the variables at order positions `p = n-1-l` and `p+1`. The fraction of
//! non-Shannon nodes at a level therefore measures how strongly the level
//! is chained to the one below — pairs above the [`PairSift`] threshold
//! move as rigid units, so sifting cannot break the chains that make the
//! BBDD compact on XOR-rich logic.

use crate::manager::Bbdd;
use ddcore::dvo::{DvoStrategy, PairSift, ReorderBackend, ReorderStrategy};
use ddcore::govern::{OpAbort, OpBudget};

impl ReorderBackend for Bbdd {
    fn num_vars(&self) -> usize {
        Bbdd::num_vars(self)
    }

    fn position_of(&self, var: usize) -> usize {
        Bbdd::position_of(self, var)
    }

    fn var_at_position(&self, pos: usize) -> usize {
        let level = Bbdd::num_vars(self) - 1 - pos;
        self.var_at_level[level] as usize
    }

    fn swap_positions(&mut self, pos: usize) {
        self.swap_adjacent(pos);
    }

    fn sweep(&mut self) -> usize {
        self.live_nodes()
    }

    fn begin_reorder(&mut self) {
        self.begin_sift_refs();
    }

    fn end_reorder(&mut self) -> usize {
        self.end_sift_refs()
    }

    fn var_width(&self, var: usize) -> usize {
        self.subtables[self.level_of_var[var] as usize].len()
    }

    /// Fraction of biconditional (non-Shannon) nodes at the level of the
    /// variable at `pos` — each one couples that variable (its PV) with
    /// the variable below (its SV).
    fn pair_affinity(&self, pos: usize) -> f64 {
        let level = Bbdd::num_vars(self) - 1 - pos;
        let table = &self.subtables[level];
        let total = table.len();
        if total == 0 {
            return 0.0;
        }
        let chained = table
            .values()
            .into_iter()
            .filter(|&idx| !self.node(idx).is_shannon())
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
    fn settled_width(&self, top: usize, len: usize, down: bool) -> usize {
        let n = Bbdd::num_vars(self);
        let settled = if down {
            0..top.saturating_sub(1)
        } else {
            top + len..n
        };
        settled.map(|pos| self.subtables[n - 1 - pos].len()).sum()
    }
}

impl Bbdd {
    /// Sift all variables once with default settings; returns the
    /// resulting live node count. Everything a live [`crate::BbddFn`]
    /// handle denotes survives — the handle registry is the root set, so
    /// there is no liveness list to forget.
    ///
    /// ```
    /// use bbdd::prelude::*;
    /// let mgr = BbddManager::with_vars(6);
    /// // Equality of (v0,v1,v2) with (v3,v4,v5): terrible in this order,
    /// // linear once sifting interleaves the operand bits.
    /// let mut f = mgr.constant(true);
    /// for i in 0..3 {
    ///     let (a, b) = (mgr.var(i), mgr.var(i + 3));
    ///     f = &f & &a.xnor(&b);
    /// }
    /// let before = f.node_count();
    /// mgr.reorder();
    /// assert!(f.node_count() <= before);
    /// ```
    pub fn sift(&mut self) -> usize {
        self.sift_strategy(DvoStrategy::Full, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// Run a specific [`DvoStrategy`] (full, window or pair-aware sift)
    /// under a resource budget: the budget is polled before every
    /// adjacent-swap, so a node limit, deadline or cancellation stops
    /// reordering promptly. On abort, the variable currently being sifted
    /// is first parked back at the best position seen (a bounded amount of
    /// un-budgeted work, at most one sweep across the order), so the
    /// manager is left with a consistent variable order, canonical unique
    /// tables and every registered handle semantically intact — the result
    /// is simply a partially improved order.
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

    /// Pair-aware sifting with an explicit chain-affinity threshold (see
    /// [`PairSift`]); `sift_strategy(DvoStrategy::Pair, …)` uses the
    /// default threshold.
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

    /// Re-order the variables to the given order `π` (top first) by
    /// adjacent swaps (insertion-sort style). Mainly used by tests and the
    /// benchmark harness to replay known-good orders.
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
            debug_assert!(pos >= goal_pos);
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
    use crate::edge::Edge;
    use ddcore::dvo::FullSift;
    use std::collections::HashSet;

    fn truth_of(mgr: &Bbdd, f: Edge, n: usize) -> Vec<bool> {
        (0..1u32 << n)
            .map(|m| {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect()
    }

    /// The standard sifting showcase: equality comparator with the worst
    /// order (all A bits above all B bits) is exponential; interleaved it
    /// is linear.
    fn equality_bad_order(mgr: &mut Bbdd, k: usize) -> Edge {
        let mut f = mgr.one();
        for i in 0..k {
            let (a, b) = (mgr.var(i), mgr.var(i + k));
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        f
    }

    #[test]
    fn sifting_shrinks_equality_comparator() {
        let k = 5;
        let mut mgr = Bbdd::new(2 * k);
        let f = equality_bad_order(&mut mgr, k);
        let tf = truth_of(&mgr, f, 2 * k);
        let before = mgr.node_count(f);
        let _fh = mgr.pin(f);
        mgr.sift();
        let after = mgr.node_count(f);
        assert!(after < before, "sift must shrink: {before} -> {after}");
        // Interleaved equality is k XNOR nodes ANDed: exactly 2k-1 … allow
        // a little slack for a near-optimal order.
        assert!(after <= 2 * k, "near-linear size expected, got {after}");
        assert_eq!(truth_of(&mgr, f, 2 * k), tf, "functions preserved");
        mgr.validate().unwrap();
    }

    #[test]
    fn every_strategy_preserves_semantics_and_canonicity() {
        for strategy in [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair] {
            let k = 4;
            let mut mgr = Bbdd::new(2 * k);
            let f = equality_bad_order(&mut mgr, k);
            let tf = truth_of(&mgr, f, 2 * k);
            let before = mgr.node_count(f);
            let _fh = mgr.pin(f);
            let after = mgr
                .sift_strategy(strategy, &mut OpBudget::unlimited())
                .expect("unlimited budget");
            assert!(after <= before + 1, "{strategy}: {before} -> {after}");
            assert_eq!(truth_of(&mgr, f, 2 * k), tf, "{strategy}");
            mgr.validate().unwrap();
            // The order is still a permutation.
            let mut order = mgr.order();
            order.sort_unstable();
            assert_eq!(order, (0..2 * k).collect::<Vec<_>>());
        }
    }

    /// On a pure biconditional chain the levels are chain-coupled, so the
    /// affinity signal must read (close to) 1 and pair sifting must not
    /// grow the diagram.
    #[test]
    fn chain_affinity_is_high_on_xor_ladders() {
        let n = 6;
        let mut mgr = Bbdd::new(n);
        let mut f = mgr.var(0);
        for v in 1..n {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        let _fh = mgr.pin(f);
        mgr.gc();
        // Each biconditional chain node consumes a (PV, SV) *pair*, so the
        // populated levels alternate: boundaries (0,1), (2,3), (4,5) are
        // fully chained, the levels between them hold no nodes at all.
        let hot = (0..n - 1)
            .map(|p| ReorderBackend::pair_affinity(&mgr, p))
            .collect::<Vec<_>>();
        assert_eq!(
            hot,
            vec![1.0, 0.0, 1.0, 0.0, 1.0],
            "parity chain should be chained exactly at the pair boundaries"
        );
        let before = mgr.live_nodes();
        let tf = truth_of(&mgr, f, n);
        let after = mgr
            .sift_pairs(0.5, &mut OpBudget::unlimited())
            .expect("unlimited budget");
        assert!(
            after <= before,
            "pair sift must not grow: {before} -> {after}"
        );
        assert_eq!(truth_of(&mgr, f, n), tf);
        mgr.validate().unwrap();
    }

    #[test]
    fn reorder_to_restores_identity() {
        let n = 5;
        let mut mgr = Bbdd::new(n);
        let f = equality_bad_order(&mut mgr, 2);
        let tf = truth_of(&mgr, f, n);
        mgr.reorder_to(&[4, 2, 0, 3, 1]);
        assert_eq!(mgr.order(), vec![4, 2, 0, 3, 1]);
        assert_eq!(truth_of(&mgr, f, n), tf);
        mgr.reorder_to(&[0, 1, 2, 3, 4]);
        assert_eq!(mgr.order(), vec![0, 1, 2, 3, 4]);
        assert_eq!(truth_of(&mgr, f, n), tf);
        mgr.validate().unwrap();
    }

    /// Regression for the explicit-roots bug class: the old API sifted
    /// against only the caller-passed list, so edges held *elsewhere*
    /// (e.g. a second output vector) could be invalidated mid-sift. With
    /// the registry, two independently held handle sets both survive
    /// semantically intact — there is no list to get wrong.
    #[test]
    fn sift_keeps_two_independent_handle_sets_alive() {
        let n = 6;
        let mut mgr = Bbdd::new(n);
        // Pin set 1: the comparator outputs, held by one "caller".
        let f = equality_bad_order(&mut mgr, 3);
        let set1 = vec![(f, mgr.pin(f))];
        // Pin set 2: an unrelated output vector held by another caller,
        // which the first caller knows nothing about.
        let set2: Vec<(Edge, _)> = (0..3)
            .map(|i| {
                let a = mgr.var(i);
                let b = mgr.var(5 - i);
                let x = mgr.xor(a, b);
                (x, mgr.pin(x))
            })
            .collect();
        let tf: Vec<Vec<bool>> = set1.iter().map(|(e, _)| truth_of(&mgr, *e, n)).collect();
        let tg: Vec<Vec<bool>> = set2.iter().map(|(e, _)| truth_of(&mgr, *e, n)).collect();
        mgr.sift();
        for ((e, _), t) in set1.iter().zip(&tf) {
            assert_eq!(&truth_of(&mgr, *e, n), t, "set 1 must survive");
        }
        for ((e, _), t) in set2.iter().zip(&tg) {
            assert_eq!(&truth_of(&mgr, *e, n), t, "set 2 must survive");
        }
        mgr.validate().unwrap();
        // Dropping one set must not strand the other.
        drop(set1);
        mgr.sift();
        for ((e, _), t) in set2.iter().zip(&tg) {
            assert_eq!(&truth_of(&mgr, *e, n), t);
        }
        mgr.validate().unwrap();
    }

    /// A random function of `n` variables.
    fn random_fn(mgr: &mut Bbdd, n: usize, seed: u64) -> Edge {
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
    fn random_forest(n: usize, seed: u64) -> (Bbdd, Vec<(Edge, ddcore::roots::RootGuard)>) {
        let mut mgr = Bbdd::new(n);
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
    fn full_mark(mgr: &Bbdd) -> HashSet<u32> {
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
                stack.extend([n.neq(), n.eq()]);
            }
        }
        seen
    }

    fn stored(mgr: &Bbdd) -> HashSet<u32> {
        mgr.subtables.iter().flat_map(|t| t.values()).collect()
    }

    /// Runs a strategy on the wrapped manager and, after every swap,
    /// checks the sift-scoped reclamation against a fresh full mark.
    struct Checked<'a> {
        mgr: &'a mut Bbdd,
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

    /// A handle dropped mid-sift keeps its nodes counted until the scope
    /// closes; the closing collection reclaims them.
    #[test]
    fn closing_collection_reclaims_handles_dropped_mid_sift() {
        struct DropAt<'a> {
            mgr: &'a mut Bbdd,
            doomed: Option<ddcore::roots::RootGuard>,
        }
        impl ReorderBackend for DropAt<'_> {
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
                self.doomed = None;
            }
            fn sweep(&mut self) -> usize {
                self.mgr.sweep()
            }
            fn var_width(&self, var: usize) -> usize {
                self.mgr.var_width(var)
            }
            fn begin_reorder(&mut self) {
                self.mgr.begin_reorder();
            }
            fn end_reorder(&mut self) -> usize {
                self.mgr.end_reorder()
            }
        }
        let n = 7;
        let (mut mgr, mut roots) = random_forest(n, 3);
        let (_, doomed) = roots.pop().unwrap();
        let mut b = DropAt {
            mgr: &mut mgr,
            doomed: Some(doomed),
        };
        let live = FullSift::default()
            .reorder(&mut b, &mut OpBudget::unlimited())
            .unwrap();
        assert_eq!(live, full_mark(&mgr).len());
        assert_eq!(stored(&mgr), full_mark(&mgr));
        mgr.validate().unwrap();
    }

    /// Sift-time reclamation recycles node ids; the concurrent cache of
    /// the parallel front-end must not serve entries keyed on them.
    #[test]
    fn par_reorder_then_parallel_apply_reads_no_stale_cache_entry() {
        use crate::par::{ParBbdd, ParConfig};
        use ddcore::api::RawManager;
        use ddcore::boolop::BoolOp;
        let n = 8;
        let cfg = ParConfig {
            threads: 2,
            cutoff: 0,
            split_depth: Some(3),
            cache_ways: 1 << 10,
            shards: 8,
        };
        let mut par = ParBbdd::with_config(n, cfg);
        let mut seq = Bbdd::new(n);
        let ops = [BoolOp::XOR, BoolOp::AND, BoolOp::OR, BoolOp::XNOR];
        // One apply stream on both managers, every step checked against
        // the sequential manager; returns every fourth result.
        let stream = |par: &mut ParBbdd, seq: &mut Bbdd, seed: u64| {
            let mut state = seed;
            let (mut pf, mut sf) = (par.var_edge(0), seq.var(0));
            let mut kept = Vec::new();
            for i in 0..24 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let op = ops[(state >> 33) as usize % ops.len()];
                let v = (state >> 18) as usize % n;
                let (pv, sv) = (par.var_edge(v), seq.var(v));
                pf = par.apply_edge(op, pf, pv);
                sf = seq.apply(op, sf, sv);
                for m in 0..1u32 << n {
                    let a: Vec<bool> = (0..n).map(|b| (m >> b) & 1 == 1).collect();
                    assert_eq!(
                        par.eval_edge(pf, &a),
                        seq.eval(sf, &a),
                        "seed {seed} step {i}"
                    );
                }
                if i % 4 == 3 {
                    kept.push(pf);
                }
            }
            kept
        };
        // Fill the concurrent cache; pin a few results, the rest (and
        // every cache entry keyed on it) becomes garbage.
        let mut pins = Vec::new();
        for seed in 1..=4 {
            pins.extend(
                stream(&mut par, &mut seq, seed)
                    .into_iter()
                    .map(|f| par.pin(f)),
            );
        }
        let generation = par.inner().gc_generation();
        par.reorder_with(DvoStrategy::Full, &mut OpBudget::unlimited())
            .expect("the BBDD backend reorders")
            .expect("unlimited budget");
        assert!(par.inner().gc_generation() > generation);
        // Replaying the streams re-creates nodes in recycled slots; a
        // stale entry keyed on one would surface as a wrong step result.
        for seed in 1..=4 {
            stream(&mut par, &mut seq, seed);
        }
        par.inner().validate().unwrap();
    }

    #[test]
    fn single_variable_manager_sift_is_noop() {
        let mut mgr = Bbdd::new(1);
        let a = mgr.var(0);
        let _pin = mgr.pin(a);
        assert_eq!(mgr.sift(), 1);
        assert!(mgr.eval(a, &[true]));
    }
}
