//! The kernel's operations: the public entries of Algorithm 1 `apply`
//! and `ite`, cube quantification and the fused and-exists (whose
//! recursions, shared with the parallel workers, are in `manager::rec`),
//! simultaneous composition, the n-ary `apply`, evaluation, counting,
//! support, DOT, reordering entry points and the BBDD-only surface.

use super::rec;
use super::{ChainShape, Manager, Shape};
use crate::api::{Function, ManagerRef, RawManager};
use crate::boolop::BoolOp;
use crate::dvo::{DvoStrategy, PairSift, ReorderStrategy};
use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::govern::{OpAbort, OpBudget};
use crate::nary::NaryOp;
use crate::optag;
use crate::walk::{self, NodeGraph};

const UNLIMITED: &str = "unlimited budget never aborts";

impl<S: Shape> Manager<S> {
    /// Compute `f ⊗ g` for an arbitrary two-operand Boolean operator.
    ///
    /// ```
    /// use bbdd::{Bbdd, BoolOp};
    /// let mut mgr = Bbdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.apply(BoolOp::NAND, a, b);
    /// let g = mgr.apply(BoolOp::AND, a, b);
    /// assert_eq!(f, !g);
    /// ```
    pub fn apply(&mut self, op: BoolOp, f: Edge, g: Edge) -> Edge {
        self.try_apply(op, f, g, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::apply`] under a resource budget, polled at every
    /// computed-table miss (each poll precedes at most one `make_node`).
    /// On `Err` the manager stays fully usable; partial results are
    /// unreachable and die at the next GC.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_apply(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        rec::apply(self, budget, op, f, g)
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::AND, f, g)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::OR, f, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::XOR, f, g)
    }

    /// `f ⊙ g` (biconditional / equivalence).
    pub fn xnor(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::XNOR, f, g)
    }

    /// `¬(f ∧ g)`.
    pub fn nand(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::NAND, f, g)
    }

    /// `¬(f ∨ g)`.
    pub fn nor(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::NOR, f, g)
    }

    /// `f → g` (`¬f ∨ g`).
    pub fn implies(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::IMPLIES, f, g)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`, computed with its own
    /// recursion and computed-table entries.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (s, a, b) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let mux = mgr.ite(s, a, b);
    /// assert!(mgr.eval(mux, &[true, true, false]));
    /// assert!(!mgr.eval(mux, &[false, true, false]));
    /// ```
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Edge {
        self.try_ite(f, g, h, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::ite`] under a resource budget (see
    /// [`Manager::try_apply`] for the checkpoint contract).
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_ite(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        rec::ite(self, budget, f, g, h)
    }

    /// Existential quantification `∃ vars . f`: the whole cube is
    /// eliminated in one cached recursion. Duplicates in `vars` are
    /// ignored.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let ab = mgr.and(a, b);
    /// let f = mgr.or(ab, c);
    /// let e = mgr.exists(f, &[0, 1]); // ∃a∃b.(a∧b ∨ c) = 1
    /// assert_eq!(e, mgr.one());
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let ab = mgr.and(a, b);
    /// let f = mgr.or(ab, c);
    /// assert_eq!(mgr.exists(f, &[0, 1]), mgr.one());
    /// ```
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn exists(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.try_exists(f, vars, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::exists`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn try_exists(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        match self.quant_cube(vars, BoolOp::OR, optag::EXISTS) {
            Some(q) => rec::quant(self, budget, f, &q),
            None => Ok(f),
        }
    }

    /// Universal quantification `∀ vars . f`.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.or(a, b);
    /// let fa = mgr.forall(f, &[0]); // ∀a.(a ∨ b) = b
    /// assert_eq!(fa, b);
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.or(a, b);
    /// assert_eq!(mgr.forall(f, &[0]), b);
    /// ```
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn forall(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.try_forall(f, vars, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::forall`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn try_forall(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        match self.quant_cube(vars, BoolOp::AND, optag::FORALL) {
            Some(q) => rec::quant(self, budget, f, &q),
            None => Ok(f),
        }
    }

    /// The fused relational product `∃ vars . (f ∧ g)`, computed in one
    /// recursion without materializing `f ∧ g`.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let f = mgr.xnor(a, b); // a = b
    /// let g = mgr.xnor(b, c); // b = c
    /// let r = mgr.and_exists(f, g, &[1]); // ∃b.(a=b ∧ b=c) = (a=c)
    /// let ac = mgr.xnor(a, c);
    /// assert_eq!(r, ac);
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let f = mgr.xnor(a, b);
    /// let g = mgr.xnor(b, c);
    /// let r = mgr.and_exists(f, g, &[1]);
    /// let ac = mgr.xnor(a, c);
    /// assert_eq!(r, ac);
    /// ```
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn and_exists(&mut self, f: Edge, g: Edge, vars: &[usize]) -> Edge {
        self.try_and_exists(f, g, vars, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::and_exists`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn try_and_exists(
        &mut self,
        f: Edge,
        g: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        match self.quant_cube(vars, BoolOp::OR, optag::EXISTS) {
            Some(q) => rec::and_exists(self, budget, f, g, &q),
            None => self.try_apply(BoolOp::AND, f, g, budget),
        }
    }

    /// The cofactor `f|_{var = value}` (single-variable restriction).
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn restrict(&mut self, f: Edge, var: usize, value: bool) -> Edge {
        self.try_restrict(f, var, value, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::restrict`] under a resource budget, polled at every
    /// memo miss. On `Err` the manager stays fully usable.
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
        S::try_restrict(self, f, var, value, budget)
    }

    /// Substitute `var := g` in `f` (Boolean composition). For
    /// simultaneous substitution see [`Manager::vector_compose`].
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let f = mgr.and(a, b);
    /// let g = mgr.or(b, c);
    /// assert_eq!(mgr.compose(f, 0, g), b); // (b∨c)∧b = b
    /// ```
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn compose(&mut self, f: Edge, var: usize, g: Edge) -> Edge {
        self.try_compose(f, var, g, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::compose`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn try_compose(
        &mut self,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        S::try_compose(self, f, var, g, budget)
    }

    /// Simultaneous composition: substitute `subs[v]` for every variable
    /// `v` with a `Some` entry, all at once (`subs` may be shorter than
    /// `num_vars()`; missing entries are the identity). Each replacement
    /// sees the original variables, so cyclic substitutions work:
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.and(a, !b); // a ∧ ¬b
    /// let swapped = mgr.vector_compose(f, &[Some(b), Some(a)]);
    /// let expect = mgr.and(b, !a);
    /// assert_eq!(swapped, expect);
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.and(a, !b);
    /// let swapped = mgr.vector_compose(f, &[Some(b), Some(a)]);
    /// let expect = mgr.and(b, !a);
    /// assert_eq!(swapped, expect);
    /// ```
    pub fn vector_compose(&mut self, f: Edge, subs: &[Option<Edge>]) -> Edge {
        self.try_vector_compose(f, subs, &mut OpBudget::unlimited())
            .expect(UNLIMITED)
    }

    /// [`Manager::vector_compose`] under a resource budget, polled by the
    /// `ite` recursions it runs. On `Err` the manager stays fully usable.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_vector_compose(
        &mut self,
        f: Edge,
        subs: &[Option<Edge>],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        let mut memo: FxHashMap<u32, Edge> = FxHashMap::default();
        self.vector_compose_rec(f, subs, &mut memo, budget)
    }

    fn vector_compose_rec(
        &mut self,
        f: Edge,
        subs: &[Option<Edge>],
        memo: &mut FxHashMap<u32, Edge>,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if f.is_constant() {
            return Ok(f);
        }
        let c = f.is_complemented();
        let fr = f.regular();
        if let Some(&r) = memo.get(&fr.bits()) {
            return Ok(r.complement_if(c));
        }
        self.stats.compose_calls += 1;
        let (v, f1, f0) = S::shannon_split(self, fr, budget)?;
        let r1 = self.vector_compose_rec(f1, subs, memo, budget)?;
        let r0 = self.vector_compose_rec(f0, subs, memo, budget)?;
        let gv = match subs.get(v).copied().flatten() {
            Some(g) => g,
            None => self.var(v),
        };
        let r = self.try_ite(gv, r1, r0, budget)?;
        memo.insert(fr.bits(), r);
        Ok(r.complement_if(c))
    }

    /// Generic n-ary `apply`: `op(f₀, …, f_{k-1})` in one recursion over
    /// the simultaneous expansion of all operands. Constant operands
    /// restrict the operator table, complemented ones permute it, and a
    /// table that degenerates to a constant ends the branch early.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// use ddcore::NaryOp;
    /// let mut mgr = Bbdd::new(3);
    /// let vs = [mgr.var(0), mgr.var(1), mgr.var(2)];
    /// let maj = mgr.apply_n(NaryOp::majority3(), &vs);
    /// assert_eq!(mgr.sat_count(maj), 4);
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// use ddcore::NaryOp;
    /// let mut mgr = Robdd::new(3);
    /// let vs = [mgr.var(0), mgr.var(1), mgr.var(2)];
    /// let maj = mgr.apply_n(NaryOp::majority3(), &vs);
    /// assert_eq!(mgr.sat_count(maj), 4);
    /// ```
    ///
    /// # Panics
    /// Panics if `operands.len() != op.arity()`.
    pub fn apply_n(&mut self, op: NaryOp, operands: &[Edge]) -> Edge {
        assert_eq!(
            operands.len(),
            op.arity(),
            "operand count must match the operator arity"
        );
        let mut memo: FxHashMap<(u64, Vec<u32>), Edge> = FxHashMap::default();
        self.apply_n_rec(op, operands.to_vec(), &mut memo)
    }

    fn apply_n_rec(
        &mut self,
        mut op: NaryOp,
        mut fs: Vec<Edge>,
        memo: &mut FxHashMap<(u64, Vec<u32>), Edge>,
    ) -> Edge {
        self.stats.nary_calls += 1;
        // Normalize: fold constants (restricting the table) and operand
        // complements (permuting it) until every operand is a regular,
        // non-constant edge.
        let mut i = 0;
        while i < fs.len() {
            if fs[i].is_constant() && fs.len() > 1 {
                op = op.restrict(i, fs[i] == Edge::ONE);
                fs.remove(i);
            } else {
                if fs[i].is_complemented() {
                    op = op.complement_operand(i);
                    fs[i] = !fs[i];
                }
                i += 1;
            }
        }
        if let Some(b) = op.as_constant() {
            return Edge::ONE.complement_if(!b);
        }
        if fs.len() == 1 {
            if fs[0].is_constant() {
                return Edge::ONE.complement_if(!op.eval(u32::from(fs[0] == Edge::ONE)));
            }
            // Non-constant unary residue: identity or complement.
            return fs[0].complement_if(!op.eval(1));
        }
        let key = (op.table(), fs.iter().map(|e| e.bits()).collect::<Vec<_>>());
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let top = fs
            .iter()
            .map(|&e| self.top(e))
            .reduce(|a, b| self.upper(a, b))
            .expect("at least two operands");
        let cof: Vec<(Edge, Edge)> = fs.iter().map(|&e| self.cofactors(e, top)).collect();
        let firsts = cof.iter().map(|&(a, _)| a).collect();
        let seconds = cof.iter().map(|&(_, b)| b).collect();
        let (a, b) = if S::APPLY_SECOND_FIRST {
            let b = self.apply_n_rec(op, seconds, memo);
            (self.apply_n_rec(op, firsts, memo), b)
        } else {
            let a = self.apply_n_rec(op, firsts, memo);
            (a, self.apply_n_rec(op, seconds, memo))
        };
        let r = self.make_node(top, a, b);
        memo.insert(key, r);
        r
    }

    /// Evaluate `f` under a complete assignment (`assignment[v]` = value
    /// of variable `v`).
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
        while !e.is_constant() {
            let n = self.node(e.node());
            let child = if S::takes_first(self, n.words(), assignment) {
                n.first()
            } else {
                n.second()
            };
            e = child.complement_if(e.is_complemented());
        }
        e == Edge::ONE
    }

    /// Number of internal nodes reachable from `f` (the sink is not
    /// counted).
    #[must_use]
    pub fn node_count(&self, f: Edge) -> usize {
        self.shared_node_count(&[f])
    }

    /// Number of distinct internal nodes reachable from any of `roots` —
    /// the size of a shared multi-output diagram (Table I's metric).
    #[must_use]
    pub fn shared_node_count(&self, roots: &[Edge]) -> usize {
        walk::shared_node_count(self, roots)
    }

    /// Number of satisfying assignments of `f` over all `num_vars()`
    /// variables.
    ///
    /// # Panics
    /// Panics if `num_vars() > 127` (the count would overflow `u128`). The
    /// budgeted and checked forms are the `RawManager` counting methods.
    #[must_use]
    pub fn sat_count(&self, f: Edge) -> u128 {
        self.sat_count_edge(f)
    }

    /// The complete truth table of `f` as packed 64-bit words; bit `m` is
    /// `f` on the assignment whose bit `i` gives variable `i`.
    ///
    /// # Panics
    /// Panics if `num_vars() > 24` (the table would exceed 2 MiB).
    #[must_use]
    pub fn truth_table(&self, f: Edge) -> Vec<u64> {
        let n = self.num_vars();
        assert!(n <= 24, "truth tables limited to 24 variables");
        let bits = 1usize << n;
        let mut out = vec![0u64; bits.div_ceil(64)];
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

    /// One satisfying assignment of `f` found by restriction, variable by
    /// variable, preferring `true`; `None` for the constant false.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.and(a, !b);
    /// let sat = mgr.pick_sat(f).expect("satisfiable");
    /// assert!(mgr.eval(f, &sat));
    /// assert!(mgr.pick_sat(mgr.zero()).is_none());
    /// ```
    pub fn pick_sat(&mut self, f: Edge) -> Option<Vec<bool>> {
        if f == Edge::ZERO {
            return None;
        }
        let mut assignment = vec![false; self.num_vars()];
        let mut g = f;
        for (v, slot) in assignment.iter_mut().enumerate() {
            let g1 = self.restrict(g, v, true);
            if g1 == Edge::ZERO {
                g = self.restrict(g, v, false);
            } else {
                *slot = true;
                g = g1;
            }
        }
        debug_assert_eq!(g, Edge::ONE);
        Some(assignment)
    }

    /// One satisfying assignment of `f` read off a single root-to-sink
    /// path (unconstrained variables are `false`), or `None` for the
    /// constant false.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.xor(a, b);
    /// let m = mgr.any_sat(f).unwrap();
    /// assert!(mgr.eval(f, &m));
    /// assert_eq!(mgr.any_sat(mgr.zero()), None);
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(3);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.xor(a, b);
    /// let m = mgr.any_sat(f).unwrap();
    /// assert!(mgr.eval(f, &m));
    /// assert_eq!(mgr.any_sat(mgr.zero()), None);
    /// ```
    #[must_use]
    pub fn any_sat(&self, f: Edge) -> Option<Vec<bool>> {
        S::any_sat(self, f)
    }

    /// Up to `limit` satisfying assignments of `f` (model enumeration),
    /// each complete and listed once, in unspecified order.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let ab = mgr.and(a, b);
    /// let f = mgr.and(ab, c);
    /// assert_eq!(mgr.all_sat(f, 16), vec![vec![true, true, true]]);
    /// ```
    /// On the ROBDD shape:
    ///
    /// ```
    /// use robdd::Robdd;
    /// let mut mgr = Robdd::new(3);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.and(a, b);
    /// assert_eq!(mgr.all_sat(f, 16).len(), 2); // c free: two completions
    /// ```
    #[must_use]
    pub fn all_sat(&self, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        S::all_sat(self, f, limit)
    }

    /// Does `f` semantically depend on `var`?
    pub fn depends_on(&mut self, f: Edge, var: usize) -> bool {
        if S::STRUCTURAL_SUPPORT {
            self.support(f).contains(&var)
        } else {
            let f0 = self.restrict(f, var, false);
            let f1 = self.restrict(f, var, true);
            f0 != f1
        }
    }

    /// The semantic support of `f`: every variable it depends on, in
    /// increasing order. Where the tested variables over-approximate it
    /// (a BBDD node may test an SV the function ignores), the support is
    /// found by restriction on a private copy of `f`'s cone, leaving this
    /// manager untouched.
    #[must_use]
    pub fn support(&self, f: Edge) -> Vec<usize> {
        if !S::STRUCTURAL_SUPPORT {
            let mut scratch = Manager::new(self.num_vars());
            scratch.var_at_pos.clone_from(&self.var_at_pos);
            scratch.pos_of_var.clone_from(&self.pos_of_var);
            let g = self.copy_cone(&mut scratch, f, &mut FxHashMap::default());
            return scratch.support_edge(g);
        }
        let mut used = vec![false; self.num_vars()];
        walk::visit(self, &[f], usize::MAX, |_, (_, _, meta)| {
            used[self.var_of_top(meta as u16)] = true;
        });
        (0..used.len()).filter(|&v| used[v]).collect()
    }

    /// Rebuild the cone of `e` in `into` (same variable order).
    fn copy_cone(&self, into: &mut Self, e: Edge, memo: &mut FxHashMap<u32, Edge>) -> Edge {
        if e.is_constant() {
            return e;
        }
        let c = e.is_complemented();
        if let Some(&r) = memo.get(&e.node()) {
            return r.complement_if(c);
        }
        let (a, b, meta) = self.node_words(e.node());
        let first = self.copy_cone(into, Edge::from_bits(a), memo);
        let second = self.copy_cone(into, Edge::from_bits(b), memo);
        let r = into.import_node(meta, first, second);
        memo.insert(e.node(), r);
        r.complement_if(c)
    }

    /// Render the diagrams rooted at `roots` as a Graphviz DOT digraph;
    /// `names` labels the roots (`f{i}` by default). Dashed arrows are
    /// BBDD `≠`-edges / ROBDD *else*-edges; red marks complement
    /// attributes.
    #[must_use]
    pub fn to_dot(&self, roots: &[Edge], names: &[&str]) -> String {
        walk::to_dot(self, S::NAME, roots, names, S::DOT_SOLID_SECOND, |id| {
            S::dot_label(self, id)
        })
    }

    /// Swap the variables at top-based positions `pos` and `pos + 1`,
    /// rewriting the affected nodes in place. Every function keeps its
    /// edge.
    ///
    /// # Panics
    /// Panics if `pos + 1 >= num_vars()`.
    pub fn swap_adjacent(&mut self, pos: usize) {
        assert!(pos + 1 < self.num_vars(), "swap position out of range");
        let timer = crate::obs::prof_timer();
        S::swap_adjacent(self, pos);
        crate::obs::prof_record(crate::obs::Op::Swap, timer);
    }

    /// Rudell sifting over the handle registry; returns the live node
    /// count after the final collection.
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
            .expect(UNLIMITED)
    }

    /// Run one [`DvoStrategy`] under a budget. On abort the order is
    /// consistent (the strategy parks the moving variable back at its best
    /// position) and the manager stays usable.
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

    /// Move to the variable order `target` (top first) by adjacent swaps.
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
            for pos in (goal_pos..self.position_of(v)).rev() {
                self.swap_adjacent(pos);
            }
        }
    }
}

/// The BBDD-only surface: written once here, available on the shapes that
/// implement [`ChainShape`].
impl<S: ChainShape> Manager<S> {
    /// Serialize the forest rooted at `roots` to the text format.
    ///
    /// # Panics
    /// Panics if a root is stale; [`Manager::try_save`] reports it.
    #[must_use]
    pub fn save(&self, roots: &[Edge], names: &[&str]) -> String {
        match self.try_save(roots, names) {
            Ok(text) => text,
            Err(e) => panic!("{e}"),
        }
    }

    /// Serialize the forest rooted at `roots`, rejecting stale edges.
    ///
    /// # Errors
    /// Names the first stale root.
    pub fn try_save(&self, roots: &[Edge], names: &[&str]) -> Result<String, S::SaveError> {
        S::try_save(self, roots, names)
    }

    /// [`Manager::save`] over owned handles.
    #[must_use]
    pub fn save_fns(&self, roots: &[Function<Self>], names: &[&str]) -> String {
        let edges: Vec<Edge> = roots.iter().map(Function::edge).collect();
        self.save(&edges, names)
    }

    /// Load a saved forest into a fresh manager.
    ///
    /// # Errors
    /// The first malformed or inconsistent line.
    #[allow(clippy::type_complexity)]
    pub fn load(text: &str) -> Result<(Self, Vec<(String, Edge)>), S::LoadError> {
        S::load(text)
    }

    /// [`Manager::load`] into a handle-level manager with owned roots.
    ///
    /// # Errors
    /// The first malformed or inconsistent line.
    #[allow(clippy::type_complexity)]
    pub fn load_fns(
        text: &str,
    ) -> Result<(ManagerRef<Self>, Vec<(String, Function<Self>)>), S::LoadError> {
        let (mgr, roots) = Self::load(text)?;
        let mgr = ManagerRef::new(mgr);
        let handles = roots
            .into_iter()
            .map(|(name, e)| (name, mgr.lift(e)))
            .collect();
        Ok((mgr, handles))
    }

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
