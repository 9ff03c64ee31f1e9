//! Algorithm 1 `apply`, `ite`, cube quantification and the fused
//! and-exists, written once for the two places they run: the kernel
//! ([`Manager`], under an [`OpBudget`]) and the parallel pipeline's
//! workers (the frozen base plus overlay, with the lossy concurrent
//! cache). A [`Rec`] context supplies only what differs between them: the
//! node store, the computed cache, the checkpoint and the counters.
//!
//! Each recursion follows one template: terminal cases, the strong
//! canonical operand form (complement attributes and operand order folded
//! into the operator, the paper's `updateop`), the computed table, a
//! checkpoint on the miss — before anything is built, and the cache insert
//! strictly after `make_node`, so an abort leaves only committed nodes —
//! then the expansion at the operands' upper top: both cofactor pairs in
//! the shape's recursion order, joined by `make_node`.
//!
//! Quantifying a cube needs up to three cases at a node's top: the top's
//! variable is quantified (join the halves with ∨/∧), the node must be
//! re-expanded through a quantified partner literal (the BBDD chain's
//! SV-quantified case, [`Shape::chain_partner`]), or the node is rebuilt
//! over the quantified children.
//!
//! The terminal cases are small functions of their own, because the
//! pipeline's split phase, which expands the same recursions a few levels
//! into a combine tree, resolves them too.

use super::{Manager, NodeStore, Shape};
use crate::boolop::{BoolOp, Unary};
use crate::edge::Edge;
use crate::govern::{OpAbort, OpBudget};
use crate::optag;

/// The recursion entry a [`Rec::count`] tallies.
#[derive(Clone, Copy)]
pub(crate) enum Count {
    Apply,
    Ite,
    Quant,
}

/// Where a recursion runs: a node store plus the hooks that differ
/// between the kernel and a parallel worker.
pub(crate) trait Rec: NodeStore {
    /// The node shape.
    type Shape: Shape;
    /// What a checkpoint polls.
    type Budget;
    /// Why a checkpoint stops the recursion.
    type Abort;

    /// The base kernel, whose variable order ranks the tops.
    fn base(&self) -> &Manager<Self::Shape>;

    /// Computed-table lookup.
    fn cache_get(&mut self, k1: u64, k2: u64, tag: u32) -> Option<Edge>;

    /// Computed-table insert.
    fn cache_insert(&mut self, k1: u64, k2: u64, tag: u32, r: Edge);

    /// The poll on every computed-table miss.
    ///
    /// # Errors
    /// Why the recursion must stop.
    fn checkpoint(budget: &mut Self::Budget) -> Result<(), Self::Abort>;

    /// Tally one recursion entry.
    fn count(&mut self, c: Count);

    /// The top of the node `e` points to (`e` non-constant).
    #[inline]
    fn top(&self, e: Edge) -> u16 {
        self.words(e.node()).2 as u16
    }
}

/// The kernel: its own arena, tables and computed cache, under a budget.
impl<S: Shape> Rec for Manager<S> {
    type Shape = S;
    type Budget = OpBudget;
    type Abort = OpAbort;

    #[inline]
    fn base(&self) -> &Self {
        self
    }

    #[inline]
    fn cache_get(&mut self, k1: u64, k2: u64, tag: u32) -> Option<Edge> {
        self.cache
            .get(k1, k2, tag)
            .map(|r| Edge::from_bits(r as u32))
    }

    #[inline]
    fn cache_insert(&mut self, k1: u64, k2: u64, tag: u32, r: Edge) {
        self.cache.insert(k1, k2, tag, u64::from(r.bits()));
    }

    #[inline]
    fn checkpoint(budget: &mut OpBudget) -> Result<(), OpAbort> {
        budget.checkpoint()
    }

    #[inline]
    fn count(&mut self, c: Count) {
        let s = &mut self.stats;
        match c {
            Count::Ite if S::ITE_COUNTER => s.ite_calls += 1,
            Count::Apply | Count::Ite => s.apply_calls += 1,
            Count::Quant => s.quant_calls += 1,
        }
    }
}

/// The quantification context of a variable set, built in the base
/// manager (also before a parallel freeze).
#[derive(Debug, Clone)]
pub(crate) struct QuantCube {
    /// Indexed by top: is that top's variable quantified?
    pub in_cube: Vec<bool>,
    /// The lowest height (distance from the bottom of the order) of a
    /// quantified top; nodes below it are left as they are.
    pub floor: u32,
    /// The conjunction of the quantified literals (a cache key word).
    pub cube: Edge,
    /// The join of a quantified top's halves: ∨ for ∃, ∧ for ∀.
    pub combine: BoolOp,
    /// The computed-table tag of the quantification.
    pub tag: u32,
}

impl<S: Shape> Manager<S> {
    /// Build the quantification context joining with `combine` under
    /// `tag`, or `None` for an empty cube.
    ///
    /// # Panics
    /// Panics if a variable is out of range.
    pub(crate) fn quant_cube(
        &mut self,
        vars: &[usize],
        combine: BoolOp,
        tag: u32,
    ) -> Option<QuantCube> {
        let n = self.num_vars();
        let mut in_cube = vec![false; n];
        let mut floor = u32::MAX;
        for &v in vars {
            assert!(v < n, "quantified variable {v} out of range");
            let top = self.top_of_var(v);
            in_cube[usize::from(top)] = true;
            floor = floor.min(self.height(top));
        }
        if floor == u32::MAX {
            return None;
        }
        // Canonical cube handle for the cache key: the conjunction of the
        // positive literals, in top order (root first for level tops).
        let mut cube = Edge::ONE;
        for i in 0..n {
            let top = if S::TOP_IS_VAR { i } else { n - 1 - i };
            if in_cube[top] {
                let lit = self.literal(top as u16);
                cube = self.and(cube, lit);
            }
        }
        Some(QuantCube {
            in_cube,
            floor,
            cube,
            combine,
            tag,
        })
    }
}

// ───────────────────────────── terminal cases ─────────────────────────────

/// A unary residue of a binary operator.
#[inline]
#[must_use]
fn unary(u: Unary, x: Edge) -> Edge {
    match u {
        Unary::Zero => Edge::ZERO,
        Unary::One => Edge::ONE,
        Unary::Identity => x,
        Unary::Complement => !x,
    }
}

/// Apply's operand-level terminal cases: equal or complementary operands,
/// or a constant one.
#[inline]
pub(crate) fn apply_terminal(op: BoolOp, f: Edge, g: Edge) -> Option<Edge> {
    if f == g {
        return Some(unary(op.on_equal_operands(), f));
    }
    if f == !g {
        return Some(unary(op.on_complement_operands(), f));
    }
    if f.is_constant() {
        return Some(unary(op.on_first_const(f == Edge::ONE), g));
    }
    if g.is_constant() {
        return Some(unary(op.on_second_const(g == Edge::ONE), f));
    }
    None
}

/// What ite's terminal cases make of an `ite`.
pub(crate) enum IteCase {
    /// The result.
    Done(Edge),
    /// The `apply` it equals.
    Apply(BoolOp, Edge, Edge),
}

/// Ite's terminal cases: a constant selector, equal branches, a
/// literal-like pair of constant branches, and the reductions to a
/// two-operand `apply`.
#[inline]
pub(crate) fn ite_terminal(f: Edge, g: Edge, h: Edge) -> Option<IteCase> {
    let (one, zero) = (Edge::ONE, Edge::ZERO);
    if f == one {
        return Some(IteCase::Done(g));
    }
    if f == zero {
        return Some(IteCase::Done(h));
    }
    if g == h {
        return Some(IteCase::Done(g));
    }
    if g == one && h == zero {
        return Some(IteCase::Done(f));
    }
    if g == zero && h == one {
        return Some(IteCase::Done(!f));
    }
    if f == g || g == one {
        return Some(IteCase::Apply(BoolOp::OR, f, h));
    }
    if f == !g || g == zero {
        return Some(IteCase::Apply(BoolOp::NOT_AND, f, h));
    }
    if f == h || h == zero {
        return Some(IteCase::Apply(BoolOp::AND, f, g));
    }
    if f == !h || h == one {
        return Some(IteCase::Apply(BoolOp::IMPLIES, f, g));
    }
    None
}

/// The top an `ite` expands at: the uppermost of its non-constant
/// operands' tops (`f` is non-constant past the terminal cases).
#[inline]
pub(crate) fn ite_top<C: Rec>(c: &C, f: Edge, g: Edge, h: Edge) -> u16 {
    let mut top = c.top(f);
    for e in [g, h] {
        if !e.is_constant() {
            top = c.base().upper(top, c.top(e));
        }
    }
    top
}

/// The top quantification expands `f` at, or `None` when `f` is its own
/// result: a constant, or a node with no quantified variable at or below
/// it.
#[inline]
pub(crate) fn quant_top<C: Rec>(c: &C, f: Edge, q: &QuantCube) -> Option<u16> {
    if f.is_constant() {
        return None;
    }
    let top = c.top(f);
    (c.base().height(top) >= q.floor).then_some(top)
}

/// What and-exists's terminal cases make of `∃ q . (f ∧ g)`.
pub(crate) enum AndExistsCase {
    /// The result is 0.
    Zero,
    /// The quantification of this one operand.
    Quant(Edge),
    /// Both operands lie below the floor: the plain conjunction.
    And(Edge, Edge),
    /// No terminal case: the operands in canonical order and their
    /// upper top.
    Expand(Edge, Edge, u16),
}

/// And-exists's terminal cases.
#[inline]
pub(crate) fn and_exists_case<C: Rec>(c: &C, f: Edge, g: Edge, q: &QuantCube) -> AndExistsCase {
    if f == Edge::ZERO || g == Edge::ZERO || f == !g {
        return AndExistsCase::Zero;
    }
    if f == Edge::ONE {
        return AndExistsCase::Quant(g);
    }
    if g == Edge::ONE || f == g {
        return AndExistsCase::Quant(f);
    }
    // AND is commutative: canonical operand order doubles cache reuse.
    let (f, g) = if f.bits() <= g.bits() { (f, g) } else { (g, f) };
    let top = c.base().upper(c.top(f), c.top(g));
    if c.base().height(top) < q.floor {
        return AndExistsCase::And(f, g);
    }
    AndExistsCase::Expand(f, g, top)
}

// ────────────────────────────── recursions ────────────────────────────────

/// Find-or-create `(top, first, second)` under the shape's rules, in
/// the context's store.
#[inline]
pub(crate) fn make_node<C: Rec>(c: &mut C, top: u16, first: Edge, second: Edge) -> Edge {
    debug_assert!(
        first == second
            || [first, second]
                .iter()
                .all(|e| e.is_constant() || c.base().height(c.top(*e)) < c.base().height(top)),
        "make_node child at or above its parent"
    );
    C::Shape::make_node(c, top, first, second)
}

/// Algorithm 1: `f ⊗ g`.
pub(crate) fn apply<C: Rec>(
    c: &mut C,
    budget: &mut C::Budget,
    mut op: BoolOp,
    mut f: Edge,
    mut g: Edge,
) -> Result<Edge, C::Abort> {
    c.count(Count::Apply);
    if let Some(r) = apply_terminal(op, f, g) {
        return Ok(r);
    }
    if f.is_complemented() {
        f = !f;
        op = op.complement_first();
    }
    if g.is_complemented() {
        g = !g;
        op = op.complement_second();
    }
    if f.node() > g.node() {
        std::mem::swap(&mut f, &mut g);
        op = op.swap_operands();
    }
    let mut out_c = false;
    if op.eval(false, false) {
        op = op.complement_output();
        out_c = true;
    }
    // Operators that degenerated to projections under the rewrites.
    if op == BoolOp::FALSE {
        return Ok(Edge::ZERO.complement_if(out_c));
    }
    if op == BoolOp::FIRST {
        return Ok(f.complement_if(out_c));
    }
    if op == BoolOp::SECOND {
        return Ok(g.complement_if(out_c));
    }
    let (k1, k2, tag) = (
        u64::from(f.bits()),
        u64::from(g.bits()),
        u32::from(op.table()),
    );
    if let Some(r) = c.cache_get(k1, k2, tag) {
        return Ok(r.complement_if(out_c));
    }
    C::checkpoint(budget)?;
    let top = c.base().upper(c.top(f), c.top(g));
    let (fa, fb) = C::Shape::cofactors(c, f, top);
    let (ga, gb) = C::Shape::cofactors(c, g, top);
    // The shape's recursion order, written out: routing the two calls
    // through a closure-taking helper cost ~7 % on apply-bound runs.
    let (a, b) = if C::Shape::APPLY_SECOND_FIRST {
        let b = apply(c, budget, op, fb, gb)?;
        (apply(c, budget, op, fa, ga)?, b)
    } else {
        let a = apply(c, budget, op, fa, ga)?;
        (a, apply(c, budget, op, fb, gb)?)
    };
    let r = make_node(c, top, a, b);
    c.cache_insert(k1, k2, tag, r);
    Ok(r.complement_if(out_c))
}

/// If-then-else `(f ∧ g) ∨ (¬f ∧ h)`, with its own computed-table entries.
pub(crate) fn ite<C: Rec>(
    c: &mut C,
    budget: &mut C::Budget,
    mut f: Edge,
    mut g: Edge,
    mut h: Edge,
) -> Result<Edge, C::Abort> {
    c.count(Count::Ite);
    match ite_terminal(f, g, h) {
        Some(IteCase::Done(r)) => return Ok(r),
        Some(IteCase::Apply(op, x, y)) => return apply(c, budget, op, x, y),
        None => {}
    }
    // Canonical form: regular f (swap branches), regular g (complement
    // the output).
    if f.is_complemented() {
        f = !f;
        std::mem::swap(&mut g, &mut h);
    }
    let mut out_c = false;
    if g.is_complemented() {
        g = !g;
        h = !h;
        out_c = true;
    }
    let k1 = u64::from(f.bits());
    let k2 = (u64::from(g.bits()) << 32) | u64::from(h.bits());
    if let Some(r) = c.cache_get(k1, k2, optag::ITE) {
        return Ok(r.complement_if(out_c));
    }
    C::checkpoint(budget)?;
    let top = ite_top(c, f, g, h);
    let (fa, fb) = C::Shape::cofactors(c, f, top);
    let (ga, gb) = C::Shape::cofactors(c, g, top);
    let (ha, hb) = C::Shape::cofactors(c, h, top);
    let (a, b) = if C::Shape::APPLY_SECOND_FIRST {
        let b = ite(c, budget, fb, gb, hb)?;
        (ite(c, budget, fa, ga, ha)?, b)
    } else {
        let a = ite(c, budget, fa, ga, ha)?;
        (a, ite(c, budget, fb, gb, hb)?)
    };
    let r = make_node(c, top, a, b);
    c.cache_insert(k1, k2, optag::ITE, r);
    Ok(r.complement_if(out_c))
}

/// The chain case: re-expand `pairs` (cofactor pairs at `top`) through
/// the quantified partner literal, recurse on both halves and recombine
/// with `ite` over the literal of `top`.
fn chain<C: Rec>(
    c: &mut C,
    budget: &mut C::Budget,
    top: u16,
    partner: u16,
    pairs: &[(Edge, Edge)],
    mut rec: impl FnMut(&mut C, &mut C::Budget, &[Edge]) -> Result<Edge, C::Abort>,
) -> Result<Edge, C::Abort> {
    let w = C::Shape::literal(c, partner);
    let mut ones = Vec::with_capacity(pairs.len());
    let mut zeros = Vec::with_capacity(pairs.len());
    for &(a, b) in pairs {
        ones.push(ite(c, budget, w, b, a)?);
        zeros.push(ite(c, budget, w, a, b)?);
    }
    let r1 = rec(c, budget, &ones)?;
    let r0 = rec(c, budget, &zeros)?;
    let v = C::Shape::literal(c, top);
    ite(c, budget, v, r1, r0)
}

/// Quantify the cube of `q` out of `f` in one cached recursion.
pub(crate) fn quant<C: Rec>(
    c: &mut C,
    budget: &mut C::Budget,
    f: Edge,
    q: &QuantCube,
) -> Result<Edge, C::Abort> {
    let Some(top) = quant_top(c, f, q) else {
        return Ok(f);
    };
    c.count(Count::Quant);
    let (k1, k2) = (u64::from(f.bits()), u64::from(q.cube.bits()));
    if let Some(r) = c.cache_get(k1, k2, q.tag) {
        return Ok(r);
    }
    C::checkpoint(budget)?;
    let (fa, fb) = C::Shape::cofactors(c, f, top);
    let r = if q.in_cube[usize::from(top)] {
        let a = quant(c, budget, fa, q)?;
        let absorbing = Edge::ONE.complement_if(q.tag != optag::EXISTS);
        if a == absorbing {
            absorbing
        } else {
            let b = quant(c, budget, fb, q)?;
            apply(c, budget, q.combine, a, b)?
        }
    } else if let Some(partner) = C::Shape::chain_partner(top, &q.in_cube) {
        chain(c, budget, top, partner, &[(fa, fb)], |c, budget, x| {
            quant(c, budget, x[0], q)
        })?
    } else {
        let a = quant(c, budget, fa, q)?;
        let b = quant(c, budget, fb, q)?;
        make_node(c, top, a, b)
    };
    c.cache_insert(k1, k2, q.tag, r);
    Ok(r)
}

/// The fused relational product `∃ q . (f ∧ g)`, without materializing
/// `f ∧ g` (`q` is an existential context).
pub(crate) fn and_exists<C: Rec>(
    c: &mut C,
    budget: &mut C::Budget,
    f: Edge,
    g: Edge,
    q: &QuantCube,
) -> Result<Edge, C::Abort> {
    let (f, g, top) = match and_exists_case(c, f, g, q) {
        AndExistsCase::Zero => return Ok(Edge::ZERO),
        AndExistsCase::Quant(e) => return quant(c, budget, e, q),
        AndExistsCase::And(f, g) => return apply(c, budget, BoolOp::AND, f, g),
        AndExistsCase::Expand(f, g, top) => (f, g, top),
    };
    c.count(Count::Quant);
    let k1 = u64::from(f.bits());
    let k2 = (u64::from(g.bits()) << 32) | u64::from(q.cube.bits());
    if let Some(r) = c.cache_get(k1, k2, optag::AND_EXISTS) {
        return Ok(r);
    }
    C::checkpoint(budget)?;
    let (fa, fb) = C::Shape::cofactors(c, f, top);
    let (ga, gb) = C::Shape::cofactors(c, g, top);
    let r = if q.in_cube[usize::from(top)] {
        let a = and_exists(c, budget, fa, ga, q)?;
        if a == Edge::ONE {
            Edge::ONE
        } else {
            let b = and_exists(c, budget, fb, gb, q)?;
            apply(c, budget, BoolOp::OR, a, b)?
        }
    } else if let Some(partner) = C::Shape::chain_partner(top, &q.in_cube) {
        chain(
            c,
            budget,
            top,
            partner,
            &[(fa, fb), (ga, gb)],
            |c, budget, x| and_exists(c, budget, x[0], x[1], q),
        )?
    } else {
        let a = and_exists(c, budget, fa, ga, q)?;
        let b = and_exists(c, budget, fb, gb, q)?;
        make_node(c, top, a, b)
    };
    c.cache_insert(k1, k2, optag::AND_EXISTS, r);
    Ok(r)
}
