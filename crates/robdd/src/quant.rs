//! The verification ops layer for the ROBDD baseline: cube quantification,
//! fused and-exists, cached composition, the generic n-ary `apply` and
//! model enumeration.
//!
//! The API mirrors the BBDD package's (`bbdd::Bbdd` has the same methods),
//! so the same verification driver — e.g. `logicnet`'s combinational
//! equivalence checker — runs on either manager. All recursive operations
//! go through the shared computed table under the tags of
//! [`ddcore::optag`]. The recursions here are the classic
//! Shannon-expansion forms (CUDD-style); the BBDD package documents the
//! chain-specific differences.

use crate::edge::Edge;
use crate::manager::Robdd;
use ddcore::boolop::BoolOp;
use ddcore::fxhash::FxHashMap;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::nary::NaryOp;
use ddcore::optag;

/// Immutable context shared by one cube-quantification run.
struct QuantCtx {
    /// `in_cube[v]` — is variable `v` quantified?
    in_cube: Vec<bool>,
    /// Largest top-based order position among quantified variables; nodes
    /// strictly below (larger position means deeper) cannot change.
    max_pos: usize,
    /// Cache key word: packed edge of the cube's literal conjunction.
    cube_bits: u64,
    /// `OR` for `∃`, `AND` for `∀`.
    combine: BoolOp,
    /// [`optag::EXISTS`] or [`optag::FORALL`].
    tag: u32,
}

impl Robdd {
    /// Existential quantification `∃ vars . f` (cube-based, cached).
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
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::exists`] under a resource budget; see [`Robdd::try_apply`]
    /// for the polling and abort-safety contract.
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
        match self.quant_ctx(vars, BoolOp::OR, optag::EXISTS) {
            Some(ctx) => self.quant_rec(f, &ctx, budget),
            None => Ok(f),
        }
    }

    /// Universal quantification `∀ vars . f`.
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
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::forall`] under a resource budget.
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
        match self.quant_ctx(vars, BoolOp::AND, optag::FORALL) {
            Some(ctx) => self.quant_rec(f, &ctx, budget),
            None => Ok(f),
        }
    }

    /// The fused relational product `∃ vars . (f ∧ g)`, computed without
    /// materializing the conjunction.
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
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::and_exists`] under a resource budget.
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
        match self.quant_ctx(vars, BoolOp::OR, optag::EXISTS) {
            Some(ctx) => self.and_exists_rec(f, g, &ctx, budget),
            None => self.apply_rec(BoolOp::AND, f, g, budget),
        }
    }

    fn quant_ctx(&mut self, vars: &[usize], combine: BoolOp, tag: u32) -> Option<QuantCtx> {
        let n = self.num_vars();
        let mut in_cube = vec![false; n];
        let mut any = false;
        for &v in vars {
            assert!(v < n, "quantified variable {v} out of range");
            in_cube[v] = true;
            any = true;
        }
        if !any {
            return None;
        }
        let max_pos = (0..n)
            .filter(|&v| in_cube[v])
            .map(|v| self.pos_of_var[v] as usize)
            .max()
            .expect("cube is non-empty");
        let mut cube = Edge::ONE;
        for v in (0..n).filter(|&v| in_cube[v]) {
            let lit = self.var(v);
            cube = self.and(cube, lit);
        }
        Some(QuantCtx {
            in_cube,
            max_pos,
            cube_bits: cube.bits() as u64,
            combine,
            tag,
        })
    }

    fn quant_rec(
        &mut self,
        f: Edge,
        ctx: &QuantCtx,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if f.is_constant() || self.edge_pos(f) > ctx.max_pos {
            return Ok(f); // below every quantified variable
        }
        self.stats.quant_calls += 1;
        let (k1, k2) = (f.bits() as u64, ctx.cube_bits);
        if let Some(r) = self.cache.get(k1, k2, ctx.tag) {
            return Ok(Edge::from_bits(r as u32));
        }
        // Poll on the miss, before materializing (see apply_rec).
        budget.checkpoint()?;
        let var = self.node(f.node()).var();
        let (f1, f0) = self.cofactors(f, var);
        let r = if ctx.in_cube[var as usize] {
            let a = self.quant_rec(f1, ctx, budget)?;
            let absorbing = if ctx.tag == optag::EXISTS {
                Edge::ONE
            } else {
                Edge::ZERO
            };
            if a == absorbing {
                absorbing
            } else {
                let b = self.quant_rec(f0, ctx, budget)?;
                self.apply_rec(ctx.combine, a, b, budget)?
            }
        } else {
            let a = self.quant_rec(f1, ctx, budget)?;
            let b = self.quant_rec(f0, ctx, budget)?;
            self.make_node(var, a, b)
        };
        self.cache.insert(k1, k2, ctx.tag, r.bits() as u64);
        Ok(r)
    }

    fn and_exists_rec(
        &mut self,
        f: Edge,
        g: Edge,
        ctx: &QuantCtx,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if f == Edge::ZERO || g == Edge::ZERO || f == !g {
            return Ok(Edge::ZERO);
        }
        if f == Edge::ONE {
            return self.quant_rec(g, ctx, budget);
        }
        if g == Edge::ONE || f == g {
            return self.quant_rec(f, ctx, budget);
        }
        let (f, g) = if f.bits() <= g.bits() { (f, g) } else { (g, f) };
        let (pf, pg) = (self.edge_pos(f), self.edge_pos(g));
        let pos = pf.min(pg);
        if pos > ctx.max_pos {
            return self.apply_rec(BoolOp::AND, f, g, budget);
        }
        self.stats.quant_calls += 1;
        let k1 = f.bits() as u64;
        let k2 = ((g.bits() as u64) << 32) | ctx.cube_bits;
        if let Some(r) = self.cache.get(k1, k2, optag::AND_EXISTS) {
            return Ok(Edge::from_bits(r as u32));
        }
        // Poll on the miss, before materializing (see apply_rec).
        budget.checkpoint()?;
        let var = self.var_at_pos[pos] as u16;
        let (f1, f0) = self.cofactors(f, var);
        let (g1, g0) = self.cofactors(g, var);
        let r = if ctx.in_cube[var as usize] {
            let a = self.and_exists_rec(f1, g1, ctx, budget)?;
            if a == Edge::ONE {
                Edge::ONE
            } else {
                let b = self.and_exists_rec(f0, g0, ctx, budget)?;
                self.apply_rec(BoolOp::OR, a, b, budget)?
            }
        } else {
            let a = self.and_exists_rec(f1, g1, ctx, budget)?;
            let b = self.and_exists_rec(f0, g0, ctx, budget)?;
            self.make_node(var, a, b)
        };
        self.cache
            .insert(k1, k2, optag::AND_EXISTS, r.bits() as u64);
        Ok(r)
    }

    /// Substitute `var := g` in `f` (Boolean composition), computed by the
    /// classic cached recursion (`ite` recombination keeps the order
    /// intact whatever variables `g` mentions).
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
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::compose`] under a resource budget.
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
        assert!(var < self.num_vars(), "compose variable out of range");
        self.compose_rec(f, var as u16, g, budget)
    }

    fn compose_rec(
        &mut self,
        f: Edge,
        var: u16,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        // f independent of var once its top sits below var in the order.
        if f.is_constant() || self.edge_pos(f) > self.pos_of_var[var as usize] as usize {
            return Ok(f);
        }
        self.stats.compose_calls += 1;
        let k1 = f.bits() as u64;
        let k2 = ((g.bits() as u64) << 32) | u64::from(var);
        if let Some(r) = self.cache.get(k1, k2, optag::COMPOSE) {
            return Ok(Edge::from_bits(r as u32));
        }
        // Poll on the miss, before materializing (see apply_rec).
        budget.checkpoint()?;
        let n = *self.node(f.node());
        let c = f.is_complemented();
        let (f1, f0) = (n.then_().complement_if(c), n.else_().complement_if(c));
        let r = if n.var() == var {
            self.ite_rec(g, f1, f0, budget)?
        } else {
            let t = self.compose_rec(f1, var, g, budget)?;
            let e = self.compose_rec(f0, var, g, budget)?;
            let lit = self.var(n.var() as usize);
            self.ite_rec(lit, t, e, budget)?
        };
        self.cache.insert(k1, k2, optag::COMPOSE, r.bits() as u64);
        Ok(r)
    }

    /// Simultaneous composition: substitute `subs[v]` for every variable
    /// `v` with a `Some` entry, all at once (missing entries are the
    /// identity). See `bbdd::Bbdd::vector_compose` for why this is not the
    /// same as iterated [`Robdd::compose`].
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
        let mut memo: FxHashMap<u32, Edge> = FxHashMap::default();
        self.vector_compose_rec(f, subs, &mut memo)
    }

    fn vector_compose_rec(
        &mut self,
        f: Edge,
        subs: &[Option<Edge>],
        memo: &mut FxHashMap<u32, Edge>,
    ) -> Edge {
        if f.is_constant() {
            return f;
        }
        let c = f.is_complemented();
        let fr = f.regular();
        if let Some(&r) = memo.get(&fr.bits()) {
            return r.complement_if(c);
        }
        self.stats.compose_calls += 1;
        let n = *self.node(fr.node());
        let t = self.vector_compose_rec(n.then_(), subs, memo);
        let e = self.vector_compose_rec(n.else_(), subs, memo);
        let v = n.var() as usize;
        let gv = match subs.get(v).copied().flatten() {
            Some(g) => g,
            None => self.var(v),
        };
        let r = self.ite(gv, t, e);
        memo.insert(fr.bits(), r);
        r.complement_if(c)
    }

    /// Generic n-ary `apply`: `op(f₀, …, f_{k-1})` over the simultaneous
    /// Shannon expansion of all operands, with constants restricting and
    /// complements permuting the operator table.
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
            return if b { Edge::ONE } else { Edge::ZERO };
        }
        if fs.len() == 1 {
            if fs[0].is_constant() {
                return if op.eval(u32::from(fs[0] == Edge::ONE)) {
                    Edge::ONE
                } else {
                    Edge::ZERO
                };
            }
            return if op.eval(1) { fs[0] } else { !fs[0] };
        }
        let key = (op.table(), fs.iter().map(|e| e.bits()).collect::<Vec<_>>());
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let pos = fs
            .iter()
            .map(|&e| self.edge_pos(e))
            .min()
            .expect("at least two operands");
        let var = self.var_at_pos[pos] as u16;
        let cof: Vec<(Edge, Edge)> = fs.iter().map(|&e| self.cofactors(e, var)).collect();
        let hi: Vec<Edge> = cof.iter().map(|&(t, _)| t).collect();
        let lo: Vec<Edge> = cof.iter().map(|&(_, e)| e).collect();
        let t = self.apply_n_rec(op, hi, memo);
        let e = self.apply_n_rec(op, lo, memo);
        let r = self.make_node(var, t, e);
        memo.insert(key, r);
        r
    }

    /// One satisfying assignment of `f`, or `None` for the constant false.
    /// Unconstrained variables default to `false`.
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
        if f == Edge::ZERO {
            return None;
        }
        let mut out = vec![false; self.num_vars()];
        let mut e = f;
        while !e.is_constant() {
            let n = self.node(e.node());
            let c = e.is_complemented();
            let t = n.then_().complement_if(c);
            let el = n.else_().complement_if(c);
            // At least one branch is satisfiable (reduction + canonicity).
            if t != Edge::ZERO {
                out[n.var() as usize] = true;
                e = t;
            } else {
                e = el;
            }
        }
        Some(out)
    }

    /// Enumerate up to `limit` satisfying assignments of `f` (model
    /// enumeration). Each model appears exactly once; order unspecified.
    ///
    /// With 127 or more *free* (unconstrained) variables on a path the
    /// completion count saturates to `u128::MAX` instead of overflowing;
    /// enumeration is still bounded by `limit`, only the internal total is
    /// clamped. See `RawManager::sat_count_checked_edge` for the counting analogue.
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
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let mut partial: Vec<Option<bool>> = vec![None; self.num_vars()];
        self.all_sat_rec(f, &mut partial, limit, &mut out);
        out
    }

    fn all_sat_rec(
        &self,
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
            let total: u128 = if free.len() >= 127 {
                u128::MAX
            } else {
                1u128 << free.len()
            };
            let mut m: u128 = 0;
            while m < total && out.len() < limit {
                let mut a: Vec<bool> = partial.iter().map(|v| v.unwrap_or(false)).collect();
                for (k, &v) in free.iter().enumerate() {
                    a[v] = k < 128 && (m >> k) & 1 == 1;
                }
                out.push(a);
                m += 1;
            }
            return;
        }
        let n = *self.node(e.node());
        let c = e.is_complemented();
        let v = n.var() as usize;
        partial[v] = Some(true);
        self.all_sat_rec(n.then_().complement_if(c), partial, limit, out);
        partial[v] = Some(false);
        self.all_sat_rec(n.else_().complement_if(c), partial, limit, out);
        partial[v] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
