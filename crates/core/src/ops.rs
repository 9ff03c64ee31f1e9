//! Queries and structural operations on BBDD functions: evaluation,
//! counting, satisfiability counting, cofactoring by a single variable
//! (`restrict`), single-variable composition and semantic support.
//!
//! The cube quantification / simultaneous-composition / model-enumeration
//! suite lives in `quant.rs` (the verification ops layer).

use crate::edge::Edge;
use crate::manager::Bbdd;
use ddcore::api::RawManager;
use ddcore::fxhash::FxHashMap as HashMap;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::walk::{self, NodeGraph, WalkScratch};

impl Bbdd {
    /// Evaluate `f` under a complete variable assignment
    /// (`assignment[v]` = value of variable `v`).
    ///
    /// # Panics
    /// Panics if `assignment.len() < num_vars()`.
    #[must_use]
    pub fn eval(&self, f: Edge, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_vars(),
            "assignment must cover all {} variables",
            self.num_vars()
        );
        let mut e = f;
        loop {
            if e.is_constant() {
                return e == Edge::ONE;
            }
            let n = self.node(e.node());
            let level = n.level();
            let v = assignment[self.var_at_level[level as usize] as usize];
            let w = if n.is_shannon() {
                true // fictitious SV = 1
            } else {
                debug_assert!(level > 0, "level-0 nodes are Shannon by construction");
                assignment[self.var_at_level[level as usize - 1] as usize]
            };
            let child = if v != w { n.neq() } else { n.eq() };
            e = child.complement_if(e.is_complemented());
        }
    }

    /// Number of internal nodes reachable from `f` (the sink is not
    /// counted). This is the paper's "node count" for a single function.
    #[must_use]
    pub fn node_count(&self, f: Edge) -> usize {
        self.shared_node_count(&[f])
    }

    /// Number of distinct internal nodes reachable from any of `roots` —
    /// the size of a shared multi-output BBDD (Table I's metric).
    #[must_use]
    pub fn shared_node_count(&self, roots: &[Edge]) -> usize {
        walk::shared_node_count(self, roots)
    }

    /// Number of satisfying assignments of `f` over all `num_vars()`
    /// variables.
    ///
    /// Each biconditional branch fixes the PV relative to the SV, so a node
    /// at level `ℓ` satisfies `|f| = |f_{v≠w}| + |f_{v=w}|` over `ℓ+1`
    /// variables, with powers of two for skipped levels.
    ///
    /// # Panics
    /// Panics if `num_vars() > 127` (count would overflow `u128`). The
    /// budgeted and checked forms are the `RawManager` counting methods.
    #[must_use]
    pub fn sat_count(&self, f: Edge) -> u128 {
        self.sat_count_edge(f)
    }

    /// `sat_count / 2^n` as a float (usable for any variable count).
    #[must_use]
    pub fn sat_fraction(&self, f: Edge) -> f64 {
        walk::sat_fraction(self, f)
    }

    /// The cofactor `f|_{var = value}` (single-variable restriction).
    ///
    /// In a BBDD a variable appears both as the PV of its own level and as
    /// the SV of the level above, so restriction rebuilds both levels by
    /// Shannon-recombining with the neighbouring literal.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn restrict(&mut self, f: Edge, var: usize, value: bool) -> Edge {
        self.try_restrict(f, var, value, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::restrict`] under a resource budget; polled at every
    /// memo-miss. On `Err` the manager stays fully usable and any partial
    /// results are reclaimed by the next GC.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn try_restrict(
        &mut self,
        f: Edge,
        var: usize,
        value: bool,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        let lv = self.level_of_var[var] as u16;
        let mut memo: HashMap<u32, Edge> = HashMap::default();
        self.restrict_rec(f, lv, value, &mut memo, budget)
    }

    fn restrict_rec(
        &mut self,
        f: Edge,
        lv: u16,
        value: bool,
        memo: &mut HashMap<u32, Edge>,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if f.is_constant() {
            return Ok(f);
        }
        let id = f.node();
        let c = f.is_complemented();
        let n = *self.node(id);
        if n.level() < lv {
            return Ok(f); // entirely below var: independent of it
        }
        if let Some(&r) = memo.get(&id) {
            return Ok(r.complement_if(c));
        }
        budget.checkpoint()?;
        let r = if n.level() == lv {
            if n.is_shannon() {
                // The literal itself.
                if value {
                    Edge::ONE
                } else {
                    Edge::ZERO
                }
            } else {
                // Node tests (v, w): f|_{v=1} = ite(w, f_eq, f_neq),
                //                    f|_{v=0} = ite(w, f_neq, f_eq).
                let w = self.lit_below(lv);
                if value {
                    self.ite_rec(w, n.eq(), n.neq(), budget)?
                } else {
                    self.ite_rec(w, n.neq(), n.eq(), budget)?
                }
            }
        } else if n.is_shannon() {
            // A literal of a higher variable: independent of var.
            Edge::new(id, false)
        } else {
            let rd = self.restrict_rec(n.neq(), lv, value, memo, budget)?;
            let re = self.restrict_rec(n.eq(), lv, value, memo, budget)?;
            if n.level() == lv + 1 {
                // Branching condition (u, v) mentions var as SV:
                // f|_{v=1} = ite(u, E', D'),  f|_{v=0} = ite(u, D', E').
                let u = self.shannon_node(n.level());
                if value {
                    self.ite_rec(u, re, rd, budget)?
                } else {
                    self.ite_rec(u, rd, re, budget)?
                }
            } else {
                self.make_node(n.level(), rd, re)
            }
        };
        memo.insert(id, r);
        Ok(r.complement_if(c))
    }

    /// Does `f` semantically depend on `var`?
    pub fn depends_on(&mut self, f: Edge, var: usize) -> bool {
        let f0 = self.restrict(f, var, false);
        let f1 = self.restrict(f, var, true);
        f0 != f1
    }

    /// The semantic support of `f`: every variable it depends on.
    ///
    /// Note that unlike BDDs, the set of PVs of reachable nodes is *not*
    /// the support (an XNOR node depends on its SV too), hence the
    /// restriction-based definition.
    pub fn support(&mut self, f: Edge) -> Vec<usize> {
        (0..self.num_vars())
            .filter(|&v| self.depends_on(f, v))
            .collect()
    }

    /// Substitute `var := g` in `f` (Boolean composition), computed as
    /// `(g ∧ f|_{var=1}) ∨ (¬g ∧ f|_{var=0})`. For simultaneous
    /// substitution of several variables see [`Bbdd::vector_compose`].
    pub fn compose(&mut self, f: Edge, var: usize, g: Edge) -> Edge {
        self.try_compose(f, var, g, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::compose`] under a resource budget; polled at every
    /// cache/memo-miss of the underlying restrictions and `ite`. On `Err`
    /// the manager stays fully usable.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_compose(
        &mut self,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.stats.compose_calls += 1;
        let f1 = self.try_restrict(f, var, true, budget)?;
        let f0 = self.try_restrict(f, var, false, budget)?;
        self.ite_rec(g, f1, f0, budget)
    }

    /// The complete truth table of `f` as packed 64-bit words; bit `m` of
    /// the table is `f` evaluated on the assignment whose bit `i` gives
    /// variable `i`.
    ///
    /// Intended for testing and cross-package equivalence checks.
    ///
    /// # Panics
    /// Panics if `num_vars() > 24` (table would exceed 2 MiB).
    #[must_use]
    pub fn truth_table(&self, f: Edge) -> Vec<u64> {
        let n = self.num_vars();
        assert!(n <= 24, "truth tables limited to 24 variables");
        let bits = 1usize << n;
        let words = bits.div_ceil(64);
        let mut out = vec![0u64; words];
        let mut assignment = vec![false; n];
        for m in 0..bits {
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = (m >> i) & 1 == 1;
            }
            if self.eval(f, &assignment) {
                out[m / 64] |= 1 << (m % 64);
            }
        }
        out
    }
}

/// The walks' view of the arena: words `(neq, eq, meta)`, the level in
/// the meta word's low 16 bits; a level-`ℓ` node ranges over `ℓ + 1` vars.
impl NodeGraph for Bbdd {
    #[inline]
    fn node_slots(&self) -> u32 {
        u32::try_from(self.nodes.len()).expect("arena fits u32")
    }

    #[inline]
    fn node_words(&self, id: u32) -> (u32, u32, u32) {
        self.nodes[id as usize].words()
    }

    #[inline]
    fn universe(&self, meta: u32) -> u32 {
        u32::from(meta as u16) + 1
    }

    fn walk_scratch(&self) -> &WalkScratch {
        &self.walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcore::boolop::BoolOp;

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
    use super::*;
    use crate::manager::Bbdd;

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
