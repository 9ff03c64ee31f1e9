//! The verification ops layer: cube quantification, fused and-exists,
//! simultaneous composition, the generic n-ary `apply` and model
//! enumeration.
//!
//! These are the operations that turn the structural core into a
//! verification engine (equivalence checking, image computation, model
//! counting). All recursive operations go through the manager's shared
//! computed table under the tags of [`ddcore::optag`], so repeated
//! quantifications over one function reuse each other's subresults exactly
//! like repeated `apply` calls do.
//!
//! ## Quantification over the biconditional expansion
//!
//! In a BBDD a variable `x` appears twice in the chain: as the **primary
//! variable** (PV) of its own level and as the **secondary variable** (SV)
//! of the level above. Quantifying a cube `C` therefore needs three
//! recursion cases at a node `(v, w)` of level `i` (expansion
//! `f = (v⊕w)·f_≠ + (v⊙w)·f_=`):
//!
//! 1. **`v ∈ C`** — for every fixed `w`, the two branches partition on `v`,
//!    so `∃v.f = f_≠ ∨ f_=` (and `∀v.f = f_≠ ∧ f_=`); recurse on the
//!    combined child.
//! 2. **`v ∉ C`, `w ∈ C`** — the branch condition itself mentions the
//!    quantified `w`, so the node cannot be rebuilt. Shannon-decompose on
//!    the *unquantified* `v` instead: `f|v=1 = ite(w, f_=, f_≠)` and
//!    `f|v=0 = ite(w, f_≠, f_=)`, recurse on both, and recombine with
//!    `ite(v, ·, ·)` — quantification commutes with a case split on an
//!    unquantified variable.
//! 3. **neither in `C`** — the branch condition is untouched; rebuild the
//!    node over the quantified children.
//!
//! Case 2 is the BBDD-specific cost of the chain structure; an ROBDD never
//! needs it.

use crate::edge::Edge;
use crate::manager::Bbdd;
use ddcore::boolop::BoolOp;
use ddcore::fxhash::FxHashMap;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::nary::NaryOp;
use ddcore::optag;

/// Immutable context shared by one cube-quantification run.
struct QuantCtx {
    /// `in_cube[l]` — is the variable whose PV sits at bottom-based level
    /// `l` quantified?
    in_cube: Vec<bool>,
    /// Lowest quantified level; nodes strictly below are untouched.
    min_level: u16,
    /// Computed-table key word naming the cube: the packed edge of the
    /// conjunction of the quantified variables' positive literals
    /// (canonical, so equal cubes share cache entries).
    cube_bits: u64,
    /// `OR` for `∃`, `AND` for `∀`.
    combine: BoolOp,
    /// [`optag::EXISTS`] or [`optag::FORALL`].
    tag: u32,
}

impl Bbdd {
    /// Existential quantification `∃ vars . f`.
    ///
    /// Cube-based: the whole variable set is eliminated in one cached
    /// recursion rather than one restrict pass per variable. Duplicates in
    /// `vars` are ignored.
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
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn exists(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.try_exists(f, vars, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::exists`] under a resource budget (see [`Bbdd::try_apply`]
    /// for the checkpoint and abort-safety contract).
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
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.or(a, b);
    /// let fa = mgr.forall(f, &[0]); // ∀a.(a ∨ b) = b
    /// assert_eq!(fa, b);
    /// ```
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn forall(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.try_forall(f, vars, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::forall`] under a resource budget.
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

    /// The fused relational product `∃ vars . (f ∧ g)`, computed in one
    /// recursion without materializing `f ∧ g` — the workhorse of image
    /// computation, where the conjunction is routinely far larger than the
    /// quantified result.
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
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn and_exists(&mut self, f: Edge, g: Edge, vars: &[usize]) -> Edge {
        self.try_and_exists(f, g, vars, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::and_exists`] under a resource budget.
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

    /// Build the quantification context, or `None` for an empty cube.
    fn quant_ctx(&mut self, vars: &[usize], combine: BoolOp, tag: u32) -> Option<QuantCtx> {
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
        // Canonical cube handle for the cache key (built once per call;
        // the conjunction of positive literals is linear in the cube).
        let mut cube = Edge::ONE;
        for l in (0..n).rev() {
            if in_cube[l] {
                let lit = self.shannon_node(l as u16);
                cube = self.and(cube, lit);
            }
        }
        Some(QuantCtx {
            in_cube,
            min_level,
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
        if f.is_constant() {
            return Ok(f);
        }
        let i = self.node(f.node()).level();
        if i < ctx.min_level {
            return Ok(f); // no quantified variable at or below this node
        }
        self.stats.quant_calls += 1;
        let (k1, k2) = (f.bits() as u64, ctx.cube_bits);
        if let Some(r) = self.cache.get(k1, k2, ctx.tag) {
            return Ok(Edge::from_bits(r as u32));
        }
        budget.checkpoint()?;
        let (fd, fe) = self.cofactors(f, i);
        let r = if ctx.in_cube[i as usize] {
            // Case 1: the PV is quantified away.
            let a = self.quant_rec(fd, ctx, budget)?;
            let absorbing = if ctx.tag == optag::EXISTS {
                Edge::ONE
            } else {
                Edge::ZERO
            };
            if a == absorbing {
                absorbing
            } else {
                let b = self.quant_rec(fe, ctx, budget)?;
                self.apply_rec(ctx.combine, a, b, budget)?
            }
        } else if i > 0 && ctx.in_cube[i as usize - 1] {
            // Case 2: the SV is quantified but the PV is not.
            let w = self.shannon_node(i - 1);
            let f1 = self.ite_rec(w, fe, fd, budget)?;
            let f0 = self.ite_rec(w, fd, fe, budget)?;
            let r1 = self.quant_rec(f1, ctx, budget)?;
            let r0 = self.quant_rec(f0, ctx, budget)?;
            let v = self.shannon_node(i);
            self.ite_rec(v, r1, r0, budget)?
        } else {
            // Case 3: the branch condition survives untouched.
            let a = self.quant_rec(fd, ctx, budget)?;
            let b = self.quant_rec(fe, ctx, budget)?;
            self.make_node(i, a, b)
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
        // Terminal cases of the conjunction.
        if f == Edge::ZERO || g == Edge::ZERO || f == !g {
            return Ok(Edge::ZERO);
        }
        if f == Edge::ONE {
            return self.quant_rec(g, ctx, budget);
        }
        if g == Edge::ONE || f == g {
            return self.quant_rec(f, ctx, budget);
        }
        // AND is commutative: canonical operand order doubles cache reuse.
        let (f, g) = if f.bits() <= g.bits() { (f, g) } else { (g, f) };
        let lf = self.node(f.node()).level();
        let lg = self.node(g.node()).level();
        let i = lf.max(lg);
        if i < ctx.min_level {
            // Below every quantified variable.
            return self.apply_rec(BoolOp::AND, f, g, budget);
        }
        self.stats.quant_calls += 1;
        let k1 = f.bits() as u64;
        let k2 = ((g.bits() as u64) << 32) | ctx.cube_bits;
        if let Some(r) = self.cache.get(k1, k2, optag::AND_EXISTS) {
            return Ok(Edge::from_bits(r as u32));
        }
        budget.checkpoint()?;
        let (fd, fe) = self.cofactors(f, i);
        let (gd, ge) = self.cofactors(g, i);
        let r = if ctx.in_cube[i as usize] {
            let a = self.and_exists_rec(fd, gd, ctx, budget)?;
            if a == Edge::ONE {
                Edge::ONE
            } else {
                let b = self.and_exists_rec(fe, ge, ctx, budget)?;
                self.apply_rec(BoolOp::OR, a, b, budget)?
            }
        } else if i > 0 && ctx.in_cube[i as usize - 1] {
            let w = self.shannon_node(i - 1);
            let f1 = self.ite_rec(w, fe, fd, budget)?;
            let f0 = self.ite_rec(w, fd, fe, budget)?;
            let g1 = self.ite_rec(w, ge, gd, budget)?;
            let g0 = self.ite_rec(w, gd, ge, budget)?;
            let r1 = self.and_exists_rec(f1, g1, ctx, budget)?;
            let r0 = self.and_exists_rec(f0, g0, ctx, budget)?;
            let v = self.shannon_node(i);
            self.ite_rec(v, r1, r0, budget)?
        } else {
            let a = self.and_exists_rec(fd, gd, ctx, budget)?;
            let b = self.and_exists_rec(fe, ge, ctx, budget)?;
            self.make_node(i, a, b)
        };
        self.cache
            .insert(k1, k2, optag::AND_EXISTS, r.bits() as u64);
        Ok(r)
    }

    /// Simultaneous composition: substitute `subs[v]` for every variable
    /// `v` with a `Some` entry, all at once (`subs` may be shorter than
    /// `num_vars()`; missing entries are the identity).
    ///
    /// Unlike iterated [`Bbdd::compose`], simultaneous substitution is
    /// *not* a sequence of single substitutions — each replacement sees the
    /// original variables, so cyclic substitutions (swaps) work:
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
        let i = self.node(fr.node()).level();
        let v = self.var_at_level[i as usize] as usize;
        // Shannon-decompose on the PV: both the node's own test and the
        // level-above SV role of `v` are rebuilt through `ite`, so the
        // substitution functions may mention any variable.
        let (fd, fe) = self.cofactors(fr, i);
        let w = self.lit_below(i);
        let f1 = self.ite(w, fe, fd);
        let f0 = self.ite(w, fd, fe);
        let r1 = self.vector_compose_rec(f1, subs, memo);
        let r0 = self.vector_compose_rec(f0, subs, memo);
        let gv = match subs.get(v).copied().flatten() {
            Some(g) => g,
            None => self.var(v),
        };
        let r = self.ite(gv, r1, r0);
        memo.insert(fr.bits(), r);
        r.complement_if(c)
    }

    /// Generic n-ary `apply`: compute `op(f₀, …, f_{k-1})` in one recursion
    /// over the simultaneous biconditional expansion of all operands.
    ///
    /// Constant operands restrict the operator table, complemented operands
    /// are folded into it (the n-ary generalization of the paper's
    /// `updateop`), and a table that degenerates to a constant terminates
    /// the branch early.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// use ddcore::NaryOp;
    /// let mut mgr = Bbdd::new(3);
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
            // Non-constant unary residue: identity or complement.
            return if op.eval(1) { fs[0] } else { !fs[0] };
        }
        let key = (op.table(), fs.iter().map(|e| e.bits()).collect::<Vec<_>>());
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let i = fs
            .iter()
            .map(|&e| self.node(e.node()).level())
            .max()
            .expect("at least two operands");
        let cof: Vec<(Edge, Edge)> = fs.iter().map(|&e| self.cofactors(e, i)).collect();
        let eq: Vec<Edge> = cof.iter().map(|&(_, e)| e).collect();
        let neq: Vec<Edge> = cof.iter().map(|&(d, _)| d).collect();
        let b = self.apply_n_rec(op, eq, memo);
        let a = self.apply_n_rec(op, neq, memo);
        let r = self.make_node(i, a, b);
        memo.insert(key, r);
        r
    }

    /// One satisfying assignment of `f`, or `None` for the constant false.
    ///
    /// Walks a single root-to-sink path (every non-constant BBDD edge is
    /// satisfiable by canonicity), collecting the path's biconditional
    /// constraints, then resolves them bottom-up along the variable chain.
    /// Unconstrained variables default to `false`.
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
    #[must_use]
    pub fn any_sat(&self, f: Edge) -> Option<Vec<bool>> {
        if f == Edge::ZERO {
            return None;
        }
        let n = self.num_vars();
        // Per-level path constraints: `val[l]` pins the PV of level `l`
        // absolutely (Shannon nodes compare against the fictitious SV = 1);
        // `rel[l]` relates it to the chain neighbour one level down.
        let mut val: Vec<Option<bool>> = vec![None; n];
        let mut rel: Vec<Option<bool>> = vec![None; n];
        let mut e = f;
        while !e.is_constant() {
            let node = *self.node(e.node());
            let c = e.is_complemented();
            let l = node.level() as usize;
            if node.is_shannon() {
                val[l] = Some(!c);
                break;
            }
            let zn = node.neq().complement_if(c);
            let ze = node.eq().complement_if(c);
            // At least one branch is non-false (R2 + canonicity).
            if zn != Edge::ZERO {
                rel[l] = Some(false);
                e = zn;
            } else {
                rel[l] = Some(true);
                e = ze;
            }
        }
        Some(self.resolve_path(&val, &rel, 0))
    }

    /// Resolve per-level path constraints into a concrete assignment
    /// (indexed by *variable*), giving free levels the bits of `free_bits`
    /// in bottom-up level order.
    fn resolve_path(
        &self,
        val: &[Option<bool>],
        rel: &[Option<bool>],
        free_bits: u128,
    ) -> Vec<bool> {
        let n = self.num_vars();
        let mut by_level = vec![false; n];
        let mut free_idx = 0u32;
        for l in 0..n {
            by_level[l] = if let Some(v) = val[l] {
                v
            } else if let Some(eq) = rel[l] {
                let w = if l == 0 { true } else { by_level[l - 1] };
                if eq {
                    w
                } else {
                    !w
                }
            } else {
                let bit = free_idx < 128 && (free_bits >> free_idx) & 1 == 1;
                free_idx += 1;
                bit
            };
        }
        let mut out = vec![false; n];
        for (l, &v) in by_level.iter().enumerate() {
            out[self.var_at_level[l] as usize] = v;
        }
        out
    }

    /// Enumerate up to `limit` satisfying assignments of `f` (model
    /// enumeration). Models are complete assignments over all variables;
    /// each satisfying assignment appears exactly once (paths of a
    /// canonical diagram are disjoint). The order is unspecified.
    ///
    /// A path with ≥ 127 free (unconstrained) levels has more completions
    /// than `u128` can count; the internal completion counter **saturates**
    /// at `u128::MAX` there. This is harmless for enumeration (`limit` is a
    /// `usize`, far below the saturation point), but it is the same
    /// boundary at which [`Bbdd::sat_count`] refuses to answer — use
    /// `RawManager::sat_count_checked_edge` for a non-panicking count.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let ab = mgr.and(a, b);
    /// let f = mgr.and(ab, c);
    /// assert_eq!(mgr.all_sat(f, 16), vec![vec![true, true, true]]);
    /// ```
    #[must_use]
    pub fn all_sat(&self, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let n = self.num_vars();
        let mut val: Vec<Option<bool>> = vec![None; n];
        let mut rel: Vec<Option<bool>> = vec![None; n];
        self.all_sat_rec(f, &mut val, &mut rel, limit, &mut out);
        out
    }

    fn all_sat_rec(
        &self,
        e: Edge,
        val: &mut Vec<Option<bool>>,
        rel: &mut Vec<Option<bool>>,
        limit: usize,
        out: &mut Vec<Vec<bool>>,
    ) {
        if out.len() >= limit || e == Edge::ZERO {
            return;
        }
        if e == Edge::ONE {
            // Expand the free levels of this path.
            let free = val
                .iter()
                .zip(rel.iter())
                .filter(|(v, r)| v.is_none() && r.is_none())
                .count() as u32;
            let total: u128 = if free >= 127 {
                u128::MAX
            } else {
                1u128 << free
            };
            let mut m: u128 = 0;
            while m < total && out.len() < limit {
                out.push(self.resolve_path(val, rel, m));
                m += 1;
            }
            return;
        }
        let node = *self.node(e.node());
        let c = e.is_complemented();
        let l = node.level() as usize;
        if node.is_shannon() {
            val[l] = Some(!c);
            self.all_sat_rec(Edge::ONE, val, rel, limit, out);
            val[l] = None;
            return;
        }
        let zn = node.neq().complement_if(c);
        let ze = node.eq().complement_if(c);
        rel[l] = Some(false);
        self.all_sat_rec(zn, val, rel, limit, out);
        rel[l] = Some(true);
        self.all_sat_rec(ze, val, rel, limit, out);
        rel[l] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
