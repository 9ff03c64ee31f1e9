//! Unit tests of the ROBDD shape through the kernel, moved here from the
//! per-operation modules the kernel replaced.

mod manager {
    use crate::robdd::*;

    #[test]
    fn literals_and_reduction() {
        let mut mgr = Robdd::new(3);
        let a1 = mgr.var(0);
        let a2 = mgr.var(0);
        assert_eq!(a1, a2);
        assert_eq!(mgr.live_nodes(), 1);
        let r = mgr.make_node(1, a1, a1);
        assert_eq!(r, a1, "redundant node reduced");
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn complement_normalization() {
        let mut mgr = Robdd::new(2);
        let b = mgr.var(1);
        let n1 = mgr.make_node(0, b, !b);
        let n2 = mgr.make_node(0, !b, b);
        assert_eq!(n1, !n2, "complement pairs share one node");
        assert_eq!(mgr.live_nodes(), 2);
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn gc_frees_and_reuses() {
        let mut mgr = Robdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.make_node(0, b, !b);
        let _keep = mgr.pin(keep);
        let freed = mgr.gc();
        assert!(freed >= 1, "the bare literal {a:?} should die");
        assert!(mgr.validate().is_ok());
        let a2 = mgr.var(0);
        assert!(!a2.is_constant());
        assert!(mgr.validate().is_ok());
    }
}

mod apply {
    use crate::boolop::BoolOp;
    use crate::robdd::*;

    fn check(mgr: &Robdd, f: Edge, n: usize, reference: impl Fn(&[bool]) -> bool) {
        for m in 0..(1u32 << n) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(f, &a), reference(&a), "assignment {a:?}");
        }
    }

    #[test]
    fn all_sixteen_ops() {
        for op in BoolOp::all() {
            let mut mgr = Robdd::new(2);
            let (a, b) = (mgr.var(0), mgr.var(1));
            let f = mgr.apply(op, a, b);
            check(&mgr, f, 2, |v| op.eval(v[0], v[1]));
            assert!(mgr.validate().is_ok());
        }
    }

    #[test]
    fn composite_functions() {
        let mut mgr = Robdd::new(4);
        let vs: Vec<Edge> = (0..4).map(|i| mgr.var(i)).collect();
        let ab = mgr.and(vs[0], vs[1]);
        let cd = mgr.xor(vs[2], vs[3]);
        for op in BoolOp::all() {
            let f = mgr.apply(op, ab, cd);
            check(&mgr, f, 4, |v| op.eval(v[0] && v[1], v[2] ^ v[3]));
        }
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn canonicity_across_build_paths() {
        let mut mgr = Robdd::new(4);
        let vs: Vec<Edge> = (0..4).map(|i| mgr.var(i)).collect();
        let ab = mgr.and(vs[0], vs[1]);
        let cd = mgr.and(vs[2], vs[3]);
        let f1 = mgr.or(ab, cd);
        let nab = mgr.nand(vs[0], vs[1]);
        let ncd = mgr.nand(vs[2], vs[3]);
        let f2 = mgr.nand(nab, ncd);
        assert_eq!(f1, f2);
    }

    #[test]
    fn ite_mux_semantics() {
        let mut mgr = Robdd::new(3);
        let (s, a, b) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let m = mgr.ite(s, a, b);
        check(&mgr, m, 3, |v| if v[0] { v[1] } else { v[2] });
    }

    #[test]
    fn xor_chain_is_linear() {
        let n = 16;
        let mut mgr = Robdd::new(n);
        let mut f = mgr.var(0);
        for i in 1..n {
            let v = mgr.var(i);
            f = mgr.xor(f, v);
        }
        // With complement edges, n-input parity takes n nodes (one per
        // variable) — twice the BBDD size.
        assert_eq!(mgr.node_count(f), n);
    }
}

mod ops {
    use crate::robdd::*;

    fn majority3(mgr: &mut Robdd) -> Edge {
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let ab = mgr.and(a, b);
        let bc = mgr.and(b, c);
        let ac = mgr.and(a, c);
        let t = mgr.or(ab, bc);
        mgr.or(t, ac)
    }

    #[test]
    fn sat_count_majority() {
        let mut mgr = Robdd::new(3);
        let maj = majority3(&mut mgr);
        assert_eq!(mgr.sat_count(maj), 4);
        assert_eq!(mgr.sat_count(Edge::ONE), 8);
        let a = mgr.var(0);
        assert_eq!(mgr.sat_count(a), 4);
    }

    #[test]
    fn restrict_and_quantify() {
        let mut mgr = Robdd::new(3);
        let maj = majority3(&mut mgr);
        let (b, c) = (mgr.var(1), mgr.var(2));
        let r1 = mgr.restrict(maj, 0, true);
        let or = mgr.or(b, c);
        assert_eq!(r1, or);
        let ex = mgr.exists(maj, &[0]);
        assert_eq!(ex, or);
        let fa = mgr.forall(maj, &[0]);
        let and = mgr.and(b, c);
        assert_eq!(fa, and);
    }

    #[test]
    fn support_is_exact() {
        let mut mgr = Robdd::new(4);
        let (a, c) = (mgr.var(0), mgr.var(2));
        let f = mgr.xor(a, c);
        assert_eq!(mgr.support(f), vec![0, 2]);
        assert!(mgr.depends_on(f, 0));
        assert!(!mgr.depends_on(f, 1));
    }

    #[test]
    fn compose_substitutes() {
        let mut mgr = Robdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let f = mgr.and(a, b);
        let g = mgr.or(b, c);
        let h = mgr.compose(f, 0, g);
        assert_eq!(h, b);
    }

    #[test]
    fn truth_table_of_majority() {
        let mut mgr = Robdd::new(3);
        let maj = majority3(&mut mgr);
        let tt = mgr.truth_table(maj);
        assert_eq!(tt[0] & 0xFF, 0b1110_1000);
    }
}

mod quant {
    use crate::boolop::BoolOp;
    use crate::robdd::*;

    use crate::nary::NaryOp;

    fn check(mgr: &Robdd, f: Edge, n: usize, reference: impl Fn(&[bool]) -> bool) {
        for m in 0..(1u32 << n) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(f, &a), reference(&a), "assignment {a:?}");
        }
    }

    fn random_function(mgr: &mut Robdd, n: usize, seed: u64, ops: usize) -> Edge {
        let vs: Vec<Edge> = (0..n).map(|v| mgr.var(v)).collect();
        let table = [
            BoolOp::XOR,
            BoolOp::AND,
            BoolOp::OR,
            BoolOp::XNOR,
            BoolOp::NAND,
        ];
        let mut state = seed | 1;
        let mut f = vs[0];
        for _ in 0..ops {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = table[(state >> 33) as usize % table.len()];
            let v = vs[(state >> 18) as usize % n];
            f = mgr.apply(op, f, v);
        }
        f
    }

    #[test]
    fn exists_cube_matches_iterated_restrict() {
        let n = 7;
        let mut mgr = Robdd::new(n);
        for seed in 1..6u64 {
            let f = random_function(&mut mgr, n, seed * 7919, 24);
            for cube in [vec![0], vec![2, 4], vec![0, 1, 5], vec![3, 2, 6, 0]] {
                let mut reference = f;
                for &v in &cube {
                    let r0 = mgr.restrict(reference, v, false);
                    let r1 = mgr.restrict(reference, v, true);
                    reference = mgr.or(r0, r1);
                }
                assert_eq!(mgr.exists(f, &cube), reference, "seed {seed} cube {cube:?}");
                let mut reference = f;
                for &v in &cube {
                    let r0 = mgr.restrict(reference, v, false);
                    let r1 = mgr.restrict(reference, v, true);
                    reference = mgr.and(r0, r1);
                }
                assert_eq!(mgr.forall(f, &cube), reference, "seed {seed} cube {cube:?}");
            }
        }
        assert!(mgr.validate().is_ok());
        assert!(mgr.stats().quant_calls > 0);
    }

    #[test]
    fn and_exists_matches_composition() {
        let n = 8;
        let mut mgr = Robdd::new(n);
        for seed in 1..8u64 {
            let f = random_function(&mut mgr, n, seed * 104729, 20);
            let g = random_function(&mut mgr, n, seed * 1299709, 20);
            for cube in [vec![0, 1], vec![2, 5, 7], vec![4]] {
                let conj = mgr.and(f, g);
                let reference = mgr.exists(conj, &cube);
                assert_eq!(
                    mgr.and_exists(f, g, &cube),
                    reference,
                    "seed {seed} cube {cube:?}"
                );
            }
        }
    }

    #[test]
    fn compose_is_cached_and_correct() {
        let n = 6;
        let mut mgr = Robdd::new(n);
        let f = random_function(&mut mgr, n, 0xABCD, 20);
        let g = random_function(&mut mgr, n, 0x1234, 20);
        for var in 0..n {
            let composed = mgr.compose(f, var, g);
            check(&mgr, composed, n, |v| {
                let mut v2 = v.to_vec();
                v2[var] = mgr.eval(g, v);
                mgr.eval(f, &v2)
            });
        }
        assert!(mgr.stats().compose_calls > 0);
    }

    #[test]
    fn vector_compose_swaps_variables() {
        let mut mgr = Robdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let g = mgr.vector_compose(f, &[Some(c), None, Some(a)]);
        check(&mgr, g, 3, |v| (v[2] && v[1]) || v[0]);
    }

    #[test]
    fn apply_n_matches_brute_force() {
        let n = 6;
        let mut mgr = Robdd::new(n);
        let f0 = random_function(&mut mgr, n, 11, 12);
        let f1 = random_function(&mut mgr, n, 22, 12);
        let f2 = random_function(&mut mgr, n, 33, 12);
        for op in [
            NaryOp::majority3(),
            NaryOp::conjunction(3),
            NaryOp::parity(3),
            NaryOp::from_fn(3, |m| m == 0b101 || m == 0b010),
        ] {
            let r = mgr.apply_n(op, &[f0, f1, f2]);
            check(&mgr, r, n, |v| {
                let m = u32::from(mgr.eval(f0, v))
                    | (u32::from(mgr.eval(f1, v)) << 1)
                    | (u32::from(mgr.eval(f2, v)) << 2);
                op.eval(m)
            });
        }
    }

    #[test]
    fn any_sat_and_all_sat() {
        let n = 6;
        let mut mgr = Robdd::new(n);
        for seed in 1..8u64 {
            let f = random_function(&mut mgr, n, seed * 31337, 24);
            match mgr.any_sat(f) {
                Some(m) => assert!(mgr.eval(f, &m)),
                None => assert_eq!(f, Edge::ZERO),
            }
            let models = mgr.all_sat(f, 128);
            assert_eq!(models.len() as u128, mgr.sat_count(f), "seed {seed}");
            let mut seen: std::collections::HashSet<Vec<bool>> = std::collections::HashSet::new();
            for m in &models {
                assert!(mgr.eval(f, m));
                assert!(seen.insert(m.clone()), "duplicate model");
            }
        }
    }

    #[test]
    fn quantification_after_reorder() {
        let n = 6;
        let mut mgr = Robdd::new(n);
        let f = random_function(&mut mgr, n, 0xDEC0DE, 24);
        let before = mgr.exists(f, &[1, 4]);
        let tt_before = mgr.truth_table(before);
        let _pins = [mgr.pin(f), mgr.pin(before)];
        mgr.sift();
        let after = mgr.exists(f, &[1, 4]);
        assert_eq!(mgr.truth_table(after), tt_before);
    }
}

mod reorder {
    use crate::dvo::{DvoStrategy, ReorderBackend};
    use crate::govern::{OpAbort, OpBudget};
    use crate::robdd::*;

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
        use crate::boolop::BoolOp;
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
    fn random_forest(n: usize, seed: u64) -> (Robdd, Vec<(Edge, crate::roots::RootGuard)>) {
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
                stack.extend([n.first(), n.second()]);
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

mod dot {
    use crate::robdd::*;

    #[test]
    fn dot_mentions_every_node() {
        let mut mgr = Robdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let t = mgr.xor(a, b);
        let f = mgr.and(t, c);
        let dot = mgr.to_dot(&[f], &["f"]);
        assert!(dot.starts_with("digraph"));
        let defs = dot.matches(" [label=\"x").count();
        assert_eq!(defs, mgr.node_count(f));
    }

    #[test]
    fn pick_sat_finds_witnesses() {
        let mut mgr = Robdd::new(4);
        let (a, b) = (mgr.var(0), mgr.var(3));
        let nb = !b;
        let f = mgr.and(a, nb);
        let sat = mgr.pick_sat(f).unwrap();
        assert!(mgr.eval(f, &sat));
        assert!(mgr.pick_sat(Edge::ZERO).is_none());
    }
}

mod api {
    use crate::api::{BooleanFunction, FunctionManager};
    use crate::robdd::*;

    #[test]
    fn handles_pin_nodes_across_gc() {
        let mgr = RobddManager::with_vars(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = &a ^ &b;
        drop(a);
        drop(b);
        assert_eq!(mgr.external_roots(), 1);
        mgr.gc();
        assert!(f.eval(&[true, false, false, false]));
        drop(f);
        mgr.gc();
        assert_eq!(mgr.live_nodes(), 0, "sink-only once all handles drop");
    }

    #[test]
    fn auto_gc_reclaims_dead_intermediates() {
        let mgr = RobddManager::with_vars(6);
        mgr.set_gc_threshold(1);
        let vs: Vec<RobddFn> = (0..6).map(|v| mgr.var(v)).collect();
        let mut acc = mgr.constant(true);
        for v in &vs {
            acc = acc.xnor(v);
        }
        assert!(mgr.backend().stats().gc_runs > 0, "auto-GC must have fired");
        for m in 0..64u32 {
            let a: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let parity = a.iter().filter(|&&x| x).count() % 2 == 0;
            assert_eq!(acc.eval(&a), parity);
        }
    }

    #[test]
    fn par_manager_matches_sequential() {
        let seq = RobddManager::with_vars(4);
        let par = ParRobddManager::new(ParRobdd::new(4, 4));
        for mgr_out in [
            seq.var(0).ite(&seq.var(1), &seq.var(2)).edge(),
            par.var(0).ite(&par.var(1), &par.var(2)).edge(),
        ]
        .windows(2)
        {
            assert_eq!(mgr_out[0], mgr_out[1], "bit-identical results");
        }
        assert!(
            par.reorder().is_some(),
            "parallel backend reorders via its inner manager"
        );
        assert_eq!(seq.reorder(), Some(seq.live_nodes()));
        // Both ends accept a policy; explicit reorder then uses it.
        seq.set_reorder_policy(Some("window1:nodes64".parse().unwrap()));
        par.set_reorder_policy(Some("window1:nodes64".parse().unwrap()));
        assert_eq!(seq.reorder_policy(), par.reorder_policy());
        assert!(seq.reorder().is_some());
        assert!(par.reorder().is_some());
    }
}
