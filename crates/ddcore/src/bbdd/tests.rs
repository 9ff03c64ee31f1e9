//! Unit tests of the BBDD shape through the kernel, moved here from the
//! per-operation modules the kernel replaced. They reach the kernel's
//! doc-hidden node helpers (`make_node`, `cofactors`, `node`) like the
//! shape code does.

mod manager {

    use crate::bbdd::*;

    #[test]
    fn fresh_manager_identity_order() {
        let mgr = Bbdd::new(4);
        assert_eq!(mgr.num_vars(), 4);
        assert_eq!(mgr.order(), vec![0, 1, 2, 3]);
        assert_eq!(mgr.position_of(0), 0);
        assert_eq!(mgr.position_of(3), 3);
        assert_eq!(mgr.live_nodes(), 0);
    }

    #[test]
    fn literal_nodes_are_shared() {
        let mut mgr = Bbdd::new(3);
        let a1 = mgr.var(0);
        let a2 = mgr.var(0);
        assert_eq!(a1, a2);
        assert_eq!(mgr.live_nodes(), 1);
        let na = mgr.nvar(0);
        assert_eq!(na, !a1);
        assert_eq!(mgr.live_nodes(), 1, "negative literal shares the node");
    }

    #[test]
    fn make_node_applies_r2() {
        let mut mgr = Bbdd::new(3);
        let b = mgr.var(1);
        let n = mgr.make_node(2, b, b);
        assert_eq!(n, b);
    }

    #[test]
    fn make_node_applies_r4() {
        let mut mgr = Bbdd::new(3);
        // At the top level (2), children (w', w) must degenerate to the
        // literal of the top variable (R4).
        let w = mgr.var(1); // level 1 literal
        let v = mgr.make_node(2, !w, w);
        let expect = mgr.var(0);
        assert_eq!(v, expect);
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn make_node_normalizes_complemented_eq_edge() {
        let mut mgr = Bbdd::new(2);
        // node(level1, neq=1, eq=0) has complemented =-child → must come
        // back as a complemented edge to node(level1, neq=0, eq=1) (which
        // is XNOR(v,w) — here XOR of the two variables).
        let n = mgr.make_node(1, Edge::ONE, Edge::ZERO);
        assert!(n.is_complemented());
        let m = mgr.make_node(1, Edge::ZERO, Edge::ONE);
        assert_eq!(n, !m);
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn xnor_and_literal_do_not_collide() {
        let mut mgr = Bbdd::new(2);
        let lit = mgr.var(0); // Shannon node at level 1
        let xnor = mgr.make_node(1, Edge::ZERO, Edge::ONE); // biconditional
        assert_ne!(lit, xnor);
        assert_eq!(mgr.live_nodes(), 2);
    }

    #[test]
    fn gc_reclaims_unreachable() {
        let mut mgr = Bbdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.make_node(3, !b, b.regular()); // something at top... keep a real node
        let _dead1 = mgr.make_node(2, Edge::ZERO, Edge::ONE);
        let before = mgr.live_nodes();
        // Pin the survivors; the registry is the root set.
        let keep_h = mgr.pin(keep);
        let a_h = mgr.pin(a);
        let freed = mgr.gc();
        assert!(freed > 0);
        assert_eq!(mgr.live_nodes(), before - freed);
        assert!(mgr.validate().is_ok());
        assert!(!keep.is_constant(), "pinned node survived");
        // Freed slots are reused.
        let again = mgr.make_node(2, Edge::ZERO, Edge::ONE);
        assert!(!again.is_constant());
        assert!(mgr.validate().is_ok());
        drop((keep_h, a_h));
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn zero_vars_rejected() {
        let _ = Bbdd::new(0);
    }
}

mod apply {
    use crate::bbdd::*;
    use crate::boolop::BoolOp;

    /// Exhaustively compare a BBDD against a reference function over all
    /// assignments of `n` variables.
    fn check(mgr: &Bbdd, f: Edge, n: usize, reference: impl Fn(&[bool]) -> bool) {
        for m in 0..(1u32 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                mgr.eval(f, &assignment),
                reference(&assignment),
                "assignment {assignment:?}"
            );
        }
    }

    #[test]
    fn all_sixteen_ops_on_two_literals() {
        for op in BoolOp::all() {
            let mut mgr = Bbdd::new(2);
            let (a, b) = (mgr.var(0), mgr.var(1));
            let f = mgr.apply(op, a, b);
            check(&mgr, f, 2, |v| op.eval(v[0], v[1]));
            assert!(mgr.validate().is_ok(), "op {op:?}");
        }
    }

    #[test]
    fn ops_between_composite_functions() {
        let mut mgr = Bbdd::new(4);
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
    fn biconditional_expansion_identity() {
        // Fig. 1 semantics: f = (v⊕w)·f_{v≠w} + (v⊙w)·f_{v=w} for random f.
        let mut mgr = Bbdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let t0 = mgr.and(b, c);
        let f = mgr.xor(a, t0);
        let top = mgr.node(f.node()).top();
        let (fd, fe) = mgr.cofactors(f, top);
        let vw_neq = mgr.xor(a, b);
        let t1 = mgr.and(vw_neq, fd);
        let t2_pre = mgr.xnor(a, b);
        let t2 = mgr.and(t2_pre, fe);
        let rebuilt = mgr.or(t1, t2);
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn xor_chain_is_half_linear_size() {
        // BBDDs absorb one variable pair per node on parity: n-input XOR
        // takes n/2 nodes (a BDD needs n) — the headline expressive-power
        // advantage for XOR-rich logic.
        let n = 16;
        let mut mgr = Bbdd::new(n);
        let mut f = mgr.var(0);
        for i in 1..n {
            let v = mgr.var(i);
            f = mgr.xor(f, v);
        }
        assert_eq!(mgr.node_count(f), n / 2, "parity BBDD must have n/2 nodes");
        // Odd-width parity additionally keeps the dangling literal.
        let mut mgr = Bbdd::new(7);
        let mut g = mgr.var(0);
        for i in 1..7 {
            let v = mgr.var(i);
            g = mgr.xor(g, v);
        }
        assert_eq!(mgr.node_count(g), 4);
    }

    #[test]
    fn apply_is_canonical_across_build_orders() {
        let mut mgr = Bbdd::new(4);
        let vs: Vec<Edge> = (0..4).map(|i| mgr.var(i)).collect();
        // (a∧b) ∨ (c∧d), built two different ways.
        let ab = mgr.and(vs[0], vs[1]);
        let cd = mgr.and(vs[2], vs[3]);
        let f1 = mgr.or(ab, cd);
        let nab = mgr.nand(vs[0], vs[1]);
        let ncd = mgr.nand(vs[2], vs[3]);
        let f2 = mgr.nand(nab, ncd);
        assert_eq!(f1, f2, "canonicity: same function, same edge");
    }

    #[test]
    fn ite_matches_apply_composition() {
        let mut mgr = Bbdd::new(3);
        let (s, a, b) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let direct = mgr.ite(s, a, b);
        let t1 = mgr.and(s, a);
        let t2_pre = !s;
        let t2 = mgr.and(t2_pre, b);
        let composed = mgr.or(t1, t2);
        assert_eq!(direct, composed);
    }

    #[test]
    fn ite_terminal_cases() {
        let mut mgr = Bbdd::new(2);
        let (a, b) = (mgr.var(0), mgr.var(1));
        assert_eq!(mgr.ite(Edge::ONE, a, b), a);
        assert_eq!(mgr.ite(Edge::ZERO, a, b), b);
        assert_eq!(mgr.ite(a, b, b), b);
        assert_eq!(mgr.ite(a, Edge::ONE, Edge::ZERO), a);
        assert_eq!(mgr.ite(a, Edge::ZERO, Edge::ONE), !a);
        let and = mgr.and(a, b);
        assert_eq!(mgr.ite(a, b, Edge::ZERO), and);
        let or = mgr.or(a, b);
        assert_eq!(mgr.ite(a, Edge::ONE, b), or);
    }

    #[test]
    fn demorgan_via_complement_edges() {
        let mut mgr = Bbdd::new(2);
        let (a, b) = (mgr.var(0), mgr.var(1));
        let lhs = mgr.nand(a, b);
        let rhs_pre = (!a, !b);
        let rhs = mgr.or(rhs_pre.0, rhs_pre.1);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn cache_reuses_results() {
        let mut mgr = Bbdd::new(8);
        let vs: Vec<Edge> = (0..8).map(|i| mgr.var(i)).collect();
        let mut f = vs[0];
        for &v in &vs[1..] {
            f = mgr.xor(f, v);
        }
        let calls_before = mgr.stats().apply_calls;
        let mut g = vs[0];
        for &v in &vs[1..] {
            g = mgr.xor(g, v);
        }
        let second_pass = mgr.stats().apply_calls - calls_before;
        assert_eq!(f, g);
        // Rebuilt from cached subresults: far fewer recursive entries.
        assert!(second_pass < 60, "cache ineffective: {second_pass} calls");
    }
}

mod ops {

    use crate::bbdd::*;

    use crate::boolop::BoolOp;

    fn majority3(mgr: &mut Bbdd) -> Edge {
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let ab = mgr.and(a, b);
        let bc = mgr.and(b, c);
        let ac = mgr.and(a, c);
        let t = mgr.or(ab, bc);
        mgr.or(t, ac)
    }

    #[test]
    fn eval_constants() {
        let mgr = Bbdd::new(2);
        assert!(mgr.eval(Edge::ONE, &[false, false]));
        assert!(!mgr.eval(Edge::ZERO, &[true, true]));
    }

    #[test]
    fn sat_count_known_functions() {
        let mut mgr = Bbdd::new(3);
        let maj = majority3(&mut mgr);
        assert_eq!(mgr.sat_count(maj), 4);
        let (a, b) = (mgr.var(0), mgr.var(1));
        let f = mgr.xor(a, b);
        assert_eq!(mgr.sat_count(f), 4); // 2 of 4 over (a,b), ×2 for c
        assert_eq!(mgr.sat_count(Edge::ONE), 8);
        assert_eq!(mgr.sat_count(Edge::ZERO), 0);
        let lit = mgr.var(2);
        assert_eq!(mgr.sat_count(lit), 4);
        assert!((mgr.sat_fraction(maj) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sat_count_matches_brute_force() {
        let mut mgr = Bbdd::new(5);
        let vs: Vec<Edge> = (0..5).map(|v| mgr.var(v)).collect();
        let t0 = mgr.xor(vs[0], vs[2]);
        let t1 = mgr.and(vs[1], t0);
        let t2 = mgr.or(t1, vs[4]);
        let f = mgr.xnor(t2, vs[3]);
        let mut brute = 0u128;
        for m in 0..32u32 {
            let a: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            if mgr.eval(f, &a) {
                brute += 1;
            }
        }
        assert_eq!(mgr.sat_count(f), brute);
    }

    #[test]
    fn restrict_pins_variables() {
        let mut mgr = Bbdd::new(3);
        let maj = majority3(&mut mgr);
        let (b, c) = (mgr.var(1), mgr.var(2));
        // maj(1, b, c) = b ∨ c ; maj(0, b, c) = b ∧ c.
        let r1 = mgr.restrict(maj, 0, true);
        let or = mgr.or(b, c);
        assert_eq!(r1, or);
        let r0 = mgr.restrict(maj, 0, false);
        let and = mgr.and(b, c);
        assert_eq!(r0, and);
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn restrict_every_var_of_random_function_exhaustive() {
        let n = 6;
        let mut mgr = Bbdd::new(n);
        let vs: Vec<Edge> = (0..n).map(|v| mgr.var(v)).collect();
        // A function touching all variables with mixed operators.
        let mut f = vs[0];
        let ops = [
            BoolOp::XOR,
            BoolOp::AND,
            BoolOp::OR,
            BoolOp::XNOR,
            BoolOp::NAND,
        ];
        for i in 1..n {
            f = mgr.apply(ops[(i - 1) % ops.len()], f, vs[i]);
        }
        for var in 0..n {
            for value in [false, true] {
                let r = mgr.restrict(f, var, value);
                for m in 0..(1u32 << n) {
                    let mut a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                    let restricted = mgr.eval(r, &a);
                    a[var] = value;
                    assert_eq!(restricted, mgr.eval(f, &a), "var {var}={value}, m={m}");
                }
                // The restriction must not depend on var any more.
                assert!(!mgr.depends_on(r, var));
            }
        }
    }

    #[test]
    fn support_is_semantic() {
        let mut mgr = Bbdd::new(4);
        let (a, c) = (mgr.var(0), mgr.var(2));
        let f = mgr.xor(a, c); // skips variable 1 entirely
        assert_eq!(mgr.support(f), vec![0, 2]);
        // XNOR node depends on its SV even though only one node exists.
        let b = mgr.var(1);
        let g = mgr.xnor(a, b);
        assert_eq!(mgr.support(g), vec![0, 1]);
    }

    #[test]
    fn quantification() {
        let mut mgr = Bbdd::new(3);
        let maj = majority3(&mut mgr);
        let ex = mgr.exists(maj, &[0]);
        let (b, c) = (mgr.var(1), mgr.var(2));
        let or = mgr.or(b, c);
        assert_eq!(ex, or, "∃a.maj = b ∨ c");
        let fa = mgr.forall(maj, &[0]);
        let and = mgr.and(b, c);
        assert_eq!(fa, and, "∀a.maj = b ∧ c");
        // Quantifying everything yields a constant.
        let all = mgr.exists(maj, &[0, 1, 2]);
        assert_eq!(all, Edge::ONE);
    }

    #[test]
    fn compose_substitutes() {
        let mut mgr = Bbdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let f = mgr.and(a, b);
        let g = mgr.or(b, c);
        let h = mgr.compose(f, 0, g); // (b ∨ c) ∧ b = b
        assert_eq!(h, b);
    }

    #[test]
    fn truth_table_packs_eval() {
        let mut mgr = Bbdd::new(3);
        let maj = majority3(&mut mgr);
        let tt = mgr.truth_table(maj);
        assert_eq!(tt.len(), 1);
        // maj(a,b,c) over bit order (a=bit0, b=bit1, c=bit2):
        // minterms {3,5,6,7} → 0b11101000.
        assert_eq!(tt[0] & 0xFF, 0b1110_1000);
    }

    #[test]
    fn node_count_shared() {
        let mut mgr = Bbdd::new(4);
        let (a, b) = (mgr.var(0), mgr.var(1));
        let f = mgr.xor(a, b);
        let g = mgr.xnor(a, b);
        assert_eq!(f, !g);
        assert_eq!(mgr.shared_node_count(&[f, g]), mgr.node_count(f));
    }
}

#[cfg(test)]
mod edge_case_tests {

    use crate::bbdd::*;

    #[test]
    fn single_variable_manager_full_api() {
        let mut mgr = Bbdd::new(1);
        let a = mgr.var(0);
        assert_eq!(mgr.node_count(a), 1);
        assert_eq!(mgr.sat_count(a), 1);
        assert_eq!(mgr.support(a), vec![0]);
        let na = !a;
        assert_eq!(mgr.sat_count(na), 1);
        let t = mgr.xor(a, na);
        assert_eq!(t, Edge::ONE);
        let r = mgr.restrict(a, 0, true);
        assert_eq!(r, Edge::ONE);
        assert_eq!(mgr.truth_table(a), vec![0b10]);
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn eval_rejects_short_assignments() {
        let mut mgr = Bbdd::new(3);
        let a = mgr.var(0);
        let _ = mgr.eval(a, &[true]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reorder_rejects_non_permutations() {
        let mut mgr = Bbdd::new(3);
        mgr.reorder_to(&[0, 0, 1]);
    }

    #[test]
    fn constants_through_every_query() {
        let mut mgr = Bbdd::new(4);
        assert_eq!(mgr.node_count(Edge::ONE), 0);
        assert_eq!(mgr.sat_count(Edge::ONE), 16);
        assert_eq!(mgr.sat_count(Edge::ZERO), 0);
        assert!(mgr.support(Edge::ONE).is_empty());
        assert_eq!(mgr.restrict(Edge::ZERO, 2, true), Edge::ZERO);
        let ex = mgr.exists(Edge::ONE, &[0, 1, 2, 3]);
        assert_eq!(ex, Edge::ONE);
        assert_eq!(mgr.truth_table(Edge::ZERO), vec![0]);
    }

    #[test]
    fn deep_skip_levels_are_handled() {
        // Function over the top and bottom variables only: edges skip 30
        // intermediate levels; counting must scale by the skipped powers.
        let mut mgr = Bbdd::new(32);
        let top = mgr.var(0);
        let bot = mgr.var(31);
        let f = mgr.and(top, bot);
        assert_eq!(mgr.sat_count(f), 1u128 << 30);
        assert_eq!(mgr.support(f), vec![0, 31]);
        let g = mgr.restrict(f, 31, true);
        assert_eq!(g, top);
    }
}

mod quant {

    use crate::bbdd::*;
    use crate::boolop::BoolOp;

    use crate::nary::NaryOp;

    /// Brute-force reference: evaluate on every assignment.
    fn check(mgr: &Bbdd, f: Edge, n: usize, reference: impl Fn(&[bool]) -> bool) {
        for m in 0..(1u32 << n) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(f, &a), reference(&a), "assignment {a:?}");
        }
    }

    fn random_function(mgr: &mut Bbdd, n: usize, seed: u64, ops: usize) -> Edge {
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
        let mut mgr = Bbdd::new(n);
        for seed in 1..6u64 {
            let f = random_function(&mut mgr, n, seed * 7919, 24);
            for cube in [vec![0], vec![2, 4], vec![0, 1, 5], vec![3, 2, 6, 0]] {
                // Reference: one variable at a time via restrict.
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
    fn exists_is_independent_of_quantified_vars() {
        let mut mgr = Bbdd::new(6);
        let f = random_function(&mut mgr, 6, 0xACE, 30);
        let e = mgr.exists(f, &[1, 3]);
        assert!(!mgr.depends_on(e, 1));
        assert!(!mgr.depends_on(e, 3));
    }

    #[test]
    fn and_exists_matches_composition() {
        let n = 8;
        let mut mgr = Bbdd::new(n);
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
    fn and_exists_empty_cube_is_and() {
        let mut mgr = Bbdd::new(3);
        let (a, b) = (mgr.var(0), mgr.var(1));
        let and = mgr.and(a, b);
        assert_eq!(mgr.and_exists(a, b, &[]), and);
    }

    #[test]
    fn quantify_everything_yields_constant() {
        let mut mgr = Bbdd::new(5);
        let f = random_function(&mut mgr, 5, 0xBEE, 25);
        let all: Vec<usize> = (0..5).collect();
        let e = mgr.exists(f, &all);
        let fa = mgr.forall(f, &all);
        assert!(e.is_constant() && fa.is_constant());
        assert_eq!(e == Edge::ONE, mgr.sat_count(f) > 0);
        assert_eq!(fa == Edge::ONE, mgr.sat_count(f) == 32);
    }

    #[test]
    fn vector_compose_swaps_variables() {
        let mut mgr = Bbdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c); // a∧b ∨ c
        let g = mgr.vector_compose(f, &[Some(c), None, Some(a)]); // a↦c, c↦a
        check(&mgr, g, 3, |v| (v[2] && v[1]) || v[0]);
        // Simultaneity: iterated compose gives a different (wrong) answer
        // for the cyclic swap a↦c, c↦a.
        let h1 = mgr.compose(f, 0, c);
        let h2 = mgr.compose(h1, 2, a);
        assert_ne!(
            g, h2,
            "iterated compose must not equal the simultaneous one here"
        );
    }

    #[test]
    fn vector_compose_identity_is_noop() {
        let mut mgr = Bbdd::new(4);
        let f = random_function(&mut mgr, 4, 0xF00, 16);
        assert_eq!(mgr.vector_compose(f, &[None, None, None, None]), f);
        let subs: Vec<Option<Edge>> = (0..4).map(|v| Some(mgr.var(v))).collect();
        assert_eq!(mgr.vector_compose(f, &subs), f);
    }

    #[test]
    fn apply_n_matches_brute_force() {
        let n = 6;
        let mut mgr = Bbdd::new(n);
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
        assert!(mgr.stats().nary_calls > 0);
    }

    #[test]
    fn apply_n_handles_constants_and_complements() {
        let mut mgr = Bbdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let and3 = mgr.apply_n(NaryOp::conjunction(3), &[a, Edge::ONE, !b]);
        let expect = mgr.and(a, !b);
        assert_eq!(and3, expect);
        let zero = mgr.apply_n(NaryOp::conjunction(3), &[a, Edge::ZERO, b]);
        assert_eq!(zero, Edge::ZERO);
        // Unary residues after folding.
        let or3 = mgr.apply_n(NaryOp::disjunction(3), &[Edge::ZERO, !a, Edge::ZERO]);
        assert_eq!(or3, !a);
    }

    #[test]
    fn any_sat_finds_models() {
        let n = 9;
        let mut mgr = Bbdd::new(n);
        for seed in 1..10u64 {
            let f = random_function(&mut mgr, n, seed * 31337, 30);
            match mgr.any_sat(f) {
                Some(m) => assert!(mgr.eval(f, &m), "seed {seed}: model must satisfy"),
                None => assert_eq!(f, Edge::ZERO, "only ⊥ has no model"),
            }
            match mgr.any_sat(!f) {
                Some(m) => assert!(!mgr.eval(f, &m)),
                None => assert_eq!(f, Edge::ONE),
            }
        }
    }

    #[test]
    fn all_sat_enumerates_exactly_the_models() {
        let n = 5;
        let mut mgr = Bbdd::new(n);
        for seed in 1..8u64 {
            let f = random_function(&mut mgr, n, seed * 271, 18);
            let models = mgr.all_sat(f, 64);
            assert_eq!(models.len() as u128, mgr.sat_count(f), "seed {seed}");
            let mut seen: std::collections::HashSet<Vec<bool>> = std::collections::HashSet::new();
            for m in &models {
                assert!(mgr.eval(f, m), "seed {seed}: enumerated non-model {m:?}");
                assert!(seen.insert(m.clone()), "seed {seed}: duplicate model");
            }
        }
    }

    #[test]
    fn all_sat_respects_limit() {
        let mgr = Bbdd::new(10);
        let models = mgr.all_sat(Edge::ONE, 17);
        assert_eq!(models.len(), 17);
        assert!(mgr.all_sat(Edge::ZERO, 5).is_empty());
    }

    #[test]
    fn quantification_after_reorder() {
        // Levels move under reordering; the ops layer must keep working.
        let n = 6;
        let mut mgr = Bbdd::new(n);
        let f = random_function(&mut mgr, n, 0xDEC0DE, 24);
        let before = mgr.exists(f, &[1, 4]);
        let tt_before = mgr.truth_table(before);
        mgr.reorder_to(&[5, 3, 1, 0, 2, 4]);
        let after = mgr.exists(f, &[1, 4]);
        assert_eq!(mgr.truth_table(after), tt_before);
    }
}

mod analysis {

    use crate::bbdd::*;

    #[test]
    fn pick_sat_finds_witnesses() {
        let mut mgr = Bbdd::new(6);
        // An equality constraint with a single solution per (a, b) pair.
        let mut f = mgr.one();
        for i in 0..3 {
            let a = mgr.var(2 * i);
            let b = mgr.var(2 * i + 1);
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        let sat = mgr.pick_sat(f).unwrap();
        assert!(mgr.eval(f, &sat));
        assert_eq!(sat[0], sat[1]);
        assert_eq!(sat[2], sat[3]);
        assert_eq!(sat[4], sat[5]);
        assert!(mgr.pick_sat(Edge::ZERO).is_none());
        let everything = mgr.pick_sat(Edge::ONE).unwrap();
        assert!(mgr.eval(Edge::ONE, &everything));
    }

    #[test]
    fn from_truth_table_roundtrips() {
        let mut mgr = Bbdd::new(4);
        // maj(a, b, c) ⊕ d as a 16-bit table.
        let mut table = 0u64;
        for m in 0..16u64 {
            let (a, b, c, d) = (
                m & 1 == 1,
                m >> 1 & 1 == 1,
                m >> 2 & 1 == 1,
                m >> 3 & 1 == 1,
            );
            #[allow(clippy::nonminimal_bool)]
            let maj = (a && b) || (b && c) || (a && c);
            if maj ^ d {
                table |= 1 << m;
            }
        }
        let f = mgr.from_truth_table(&[table]);
        assert_eq!(mgr.truth_table(f), vec![table]);
        // Round-trip again through the other direction.
        let g = {
            let tt = mgr.truth_table(f);
            mgr.from_truth_table(&tt)
        };
        assert_eq!(f, g, "canonicity through table round-trip");
    }

    #[test]
    fn cube_builds_minterms() {
        let mut mgr = Bbdd::new(4);
        let c = mgr.cube(&[Some(true), None, Some(false), None]);
        assert_eq!(mgr.sat_count(c), 4);
        assert!(mgr.eval(c, &[true, false, false, true]));
        assert!(!mgr.eval(c, &[true, false, true, true]));
        let full = mgr.cube(&[None, None, None, None]);
        assert_eq!(full, Edge::ONE);
    }

    #[test]
    fn level_profile_counts_nodes() {
        let mut mgr = Bbdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let profile = crate::api::RawManager::level_profile_edges(&mgr, &[f]).unwrap();
        assert_eq!(profile.iter().sum::<usize>(), mgr.node_count(f));
        // The XNOR node sits at the top level (bottom-based index n-1).
        assert_eq!(profile[3], 1);
    }
}

#[cfg(test)]
mod auto_reorder_tests {
    use crate::bbdd::*;
    use crate::dvo::{DvoPolicy, DvoStrategy, ReorderSchedule};

    #[test]
    fn auto_reorder_fires_and_rearms() {
        // Equality with a hostile order grows fast; arm the trigger low.
        let k = 6;
        let mut mgr = Bbdd::new(2 * k);
        mgr.set_reorder_policy(Some(DvoPolicy {
            strategy: DvoStrategy::Full,
            schedule: ReorderSchedule::NodeThreshold(64),
        }));
        let mut f = mgr.one();
        for i in 0..k {
            let a = mgr.var(i);
            let b = mgr.var(i + k);
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        let before = mgr.live_nodes();
        let _pin = mgr.pin(f); // the registry, not a list, keeps f alive
        let fired = mgr.reorder_if_needed();
        assert!(fired, "threshold was crossed: {before} nodes");
        assert!(mgr.live_nodes() < before);
        assert!(mgr.validate().is_ok());
        // Re-armed above the new size: an immediate second call is a no-op.
        assert!(!mgr.reorder_if_needed());
        // Function intact.
        assert!(mgr.eval(
            f,
            &[true, false, true, false, true, false, true, false, true, false, true, false]
        ));
    }

    #[test]
    fn disarmed_managers_never_reorder() {
        let mut mgr = Bbdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(3);
        let f = mgr.xor(a, b);
        let _f = mgr.pin(f);
        assert!(!mgr.reorder_if_needed());
        assert_eq!(mgr.order(), vec![0, 1, 2, 3]);
    }
}

pub(super) mod reorder {
    use crate::bbdd::*;
    use crate::dvo::FullSift;
    use crate::dvo::{DvoStrategy, ReorderBackend, ReorderStrategy};
    use crate::govern::{OpAbort, OpBudget};

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
    fn random_forest(n: usize, seed: u64) -> (Bbdd, Vec<(Edge, crate::roots::RootGuard)>) {
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
    pub(crate) fn full_mark(mgr: &Bbdd) -> HashSet<u32> {
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

    pub(crate) fn stored(mgr: &Bbdd) -> HashSet<u32> {
        mgr.subtables.iter().flat_map(|t| t.ids()).collect()
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
            doomed: Option<crate::roots::RootGuard>,
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
        use crate::api::RawManager;
        use crate::bbdd::{ParBbdd, ParConfig};
        use crate::boolop::BoolOp;
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

mod dot {

    use crate::bbdd::*;

    #[test]
    fn dot_output_mentions_all_nodes() {
        let mut mgr = Bbdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let t = mgr.xor(a, b);
        let f = mgr.and(t, c);
        let dot = mgr.to_dot(&[f], &["f"]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"f\""));
        assert!(dot.contains("⊕"), "biconditional label expected");
        assert!(dot.ends_with("}\n"));
        // Every reachable node appears exactly once as a definition.
        let defs = dot.matches(" [label=\"x").count();
        assert_eq!(defs, mgr.node_count(f));
    }

    #[test]
    fn dot_handles_constant_roots() {
        let mgr = Bbdd::new(1);
        let dot = mgr.to_dot(&[Edge::ONE, Edge::ZERO], &["t", "f"]);
        assert!(dot.contains("root0 -> one"));
        assert!(dot.contains("root1 -> one"));
    }
}

mod api {

    use crate::api::{BooleanFunction, FunctionManager};
    use crate::bbdd::*;

    #[test]
    fn handles_pin_nodes_across_gc() {
        let mgr = BbddManager::with_vars(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = &a ^ &b;
        drop(a);
        drop(b);
        assert_eq!(mgr.external_roots(), 1);
        mgr.gc();
        assert!(f.eval(&[true, false, false, false]));
        assert!(mgr.backend().validate().is_ok());
        drop(f);
        assert_eq!(mgr.external_roots(), 0);
        mgr.gc();
        assert_eq!(mgr.live_nodes(), 0, "sink-only once all handles drop");
    }

    #[test]
    fn auto_gc_reclaims_dead_intermediates() {
        let mgr = BbddManager::with_vars(6);
        mgr.set_gc_threshold(1); // latch on every node creation
        let vs: Vec<BbddFn> = (0..6).map(|v| mgr.var(v)).collect();
        let mut acc = mgr.constant(true);
        for v in &vs {
            acc = acc.xnor(v); // old acc handle drops each round
        }
        assert!(mgr.backend().stats().gc_runs > 0, "auto-GC must have fired");
        for m in 0..64u32 {
            let a: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
            let parity = a.iter().filter(|&&x| x).count() % 2 == 0;
            assert_eq!(acc.eval(&a), parity);
        }
        assert!(mgr.backend().validate().is_ok());
    }

    #[test]
    fn trait_ops_match_edge_ops() {
        let mgr = BbddManager::with_vars(4);
        let vs: Vec<BbddFn> = (0..4).map(|v| mgr.var(v)).collect();
        let f = &vs[0] & &vs[1];
        let g = &vs[2] | &vs[3];
        let h = vs[0].ite(&f, &g);
        let ex = h.exists(&[1]);
        let fa = h.forall(&[1]);
        let ae = f.and_exists(&g, &[2]);
        let r = h.restrict(0, true);
        let c = f.compose(0, &g);
        let nf = !&f;
        mgr.gc();
        // Mirror with raw edges (no GC in between, so raw is safe here).
        let mut b = mgr.backend_mut();
        let (a0, a1, a2, a3) = (b.var(0), b.var(1), b.var(2), b.var(3));
        let fe = b.and(a0, a1);
        let ge = b.or(a2, a3);
        let he = b.ite(a0, fe, ge);
        assert_eq!(f.edge(), fe);
        assert_eq!(g.edge(), ge);
        assert_eq!(h.edge(), he);
        assert_eq!(ex.edge(), b.exists(he, &[1]));
        assert_eq!(fa.edge(), b.forall(he, &[1]));
        assert_eq!(ae.edge(), b.and_exists(fe, ge, &[2]));
        assert_eq!(r.edge(), b.restrict(he, 0, true));
        assert_eq!(c.edge(), b.compose(fe, 0, ge));
        assert_eq!(nf.edge(), !fe);
    }

    #[test]
    fn par_manager_drives_the_same_suite() {
        let mgr = ParBbddManager::new(ParBbdd::new(4, 4));
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = &a ^ &b;
        assert!(f.eval(&[true, false, false, false]));
        assert_eq!(f.sat_count(), 8);
        mgr.gc();
        assert!(f.eval(&[false, true, false, false]));
        assert!(
            mgr.reorder().is_some(),
            "parallel backend reorders via its inner manager"
        );
        assert!(
            f.eval(&[true, false, false, false]),
            "order change is semantic-free"
        );
        mgr.set_reorder_policy(Some("pair:growth2".parse().unwrap()));
        assert_eq!(
            mgr.reorder_policy().map(|p| p.strategy),
            Some(crate::dvo::DvoStrategy::Pair)
        );
    }
}
