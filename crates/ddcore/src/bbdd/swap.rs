//! Adjacent variable swap in the chain variable order — the paper's Fig. 2
//! swap theory (§IV-A4).
//!
//! Swapping the order positions of two adjacent variables `x` (level `i+1`)
//! and `y` (level `i`) involves **three** CVO levels, because the level
//! above (`i+2`, pair `(w, x)`) holds the out-going variable as its SV:
//!
//! ```text
//!   before:  (w ⋆ x) @ i+2,   (x ⋆ y) @ i+1,   (y ⋆ z) @ i
//!   after:   (w ⋆ y) @ i+2,   (y ⋆ x) @ i+1,   (x ⋆ z) @ i
//! ```
//!
//! With path conditions `a=[w⊕x], b=[x⊕y], c=[y⊕z]` before the swap and
//! `a'=[w⊕y], b'=[y⊕x], c'=[x⊕z]` after, transitivity of equality in the
//! binary domain (the paper's Eq. 5) gives the grand-children remap
//!
//! ```text
//!   (a, b, c) = (a' ⊕ b',  b',  b' ⊕ c')
//! ```
//!
//! Every affected node is rebuilt and **overwritten in place** so that all
//! edges from the BBDD above the swap window keep pointing at the same
//! logical function (the paper's locality requirement). The rebuild runs in
//! a *staging area*: new tuples are deduplicated there, surviving old nodes
//! *adopt* their new tuple (keeping their pointer), fresh intermediate
//! nodes receive new slots, and only then is everything re-inserted into
//! the per-level unique tables.
//!
//! Two structural facts make in-place overwriting sound (asserted in
//! debug builds and exercised by the property tests):
//!
//! * a node's function always keeps a root *inside* the window — a node at
//!   level `ℓ` depends on its PV, so the rebuilt representation is rooted at
//!   the level where that variable lands (possibly one level up or down,
//!   trading places with other nodes, never colliding: distinct functions
//!   have distinct canonical tuples);
//! * polarity never flips: the all-`=`-edges spine of a node is regular by
//!   the canonical form, the remap maps the all-equal path to the all-equal
//!   path (`(0,0,0) ↦ (0,0,0)`), and `=`-children of restaged nodes are
//!   rebuilt from that spine, so a claimed tuple always carries a regular
//!   `=`-edge.

use super::shape::edge_level;
use super::Bbdd;
use crate::fxhash::FxHashMap;
use crate::manager::Node;
use crate::Edge;

/// Reference to either a committed arena node or a staged node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SRef {
    Final(u32),
    Staged(u32),
}

/// Edge in staging space, packed into one word: the target's index from
/// bit 2 up, bit 1 set when the target is staged, bit 0 the complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SEdge(u64);

impl SEdge {
    const ONE: SEdge = SEdge(0);
    const ZERO: SEdge = SEdge(1);
    const STAGED: u64 = 2;

    #[inline]
    fn staged(k: u32) -> SEdge {
        SEdge(u64::from(k) << 2 | Self::STAGED)
    }

    #[inline]
    fn from_edge(e: Edge) -> SEdge {
        SEdge(u64::from(e.node()) << 2 | u64::from(e.is_complemented()))
    }

    #[inline]
    fn r(self) -> SRef {
        let i = (self.0 >> 2) as u32;
        if self.0 & Self::STAGED == 0 {
            SRef::Final(i)
        } else {
            SRef::Staged(i)
        }
    }

    #[inline]
    fn c(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn flip(self) -> SEdge {
        SEdge(self.0 ^ 1)
    }

    #[inline]
    fn complement_if(self, c: bool) -> SEdge {
        SEdge(self.0 ^ u64::from(c))
    }
}

/// A node being rebuilt or freshly created during a swap.
#[derive(Debug, Clone, Copy)]
struct StagedNode {
    level: u16,
    shannon: bool,
    neq: SEdge,
    eq: SEdge,
    /// `Some(id)`: this tuple is the new content of existing arena node
    /// `id` (pointer-preserving overwrite).
    owner: Option<u32>,
}

impl StagedNode {
    /// The tuple packed into one `u128`: level from bit 69, the Shannon
    /// flag at bit 68, then the two 34-bit edges.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.level) << 69
            | u128::from(self.shannon) << 68
            | u128::from(self.neq.0) << 34
            | u128::from(self.eq.0)
    }
}

/// Cofactor value in *old* semantics: either a real edge (stable region) or
/// the virtual positive literal of an old PV inside the swap window.
#[derive(Debug, Clone, Copy)]
enum VEdge {
    Real(Edge),
    OldLit { level: u16, c: bool },
}

/// Per-swap scratch, kept on the manager between swaps so no swap
/// allocates once the buffers have grown.
#[derive(Debug, Default)]
pub struct SwapCtx {
    staged: Vec<StagedNode>,
    tab: FxHashMap<u128, u32>,
    /// Bottom level of the swap window (`L0`); final nodes may only be
    /// referenced below it.
    l0: u16,
    /// The window's old node ids: level `L0`'s, then `L1`'s, then `L2`'s.
    window: Vec<u32>,
    /// Commit scratch, indexed by staged id: reachability from the owned
    /// tuples, its DFS stack, and each tuple's arena slot.
    used: Vec<bool>,
    stack: Vec<u32>,
    final_id: Vec<u32>,
}

impl SwapCtx {
    fn reset(&mut self, l0: u16) {
        self.staged.clear();
        self.tab.clear();
        self.window.clear();
        self.l0 = l0;
    }

    /// The staged id of `node`'s tuple, staging it on first sight. An
    /// owned `node` hands its owner to an existing unowned tuple.
    fn intern(&mut self, node: StagedNode) -> u32 {
        let next = self.staged.len() as u32;
        let k = *self.tab.entry(node.key()).or_insert(next);
        if k == next {
            self.staged.push(node);
        } else if let Some(id) = node.owner {
            let s = &mut self.staged[k as usize];
            assert!(
                s.owner.is_none(),
                "BBDD swap: two surviving nodes claim one canonical tuple"
            );
            s.owner = Some(id);
        }
        k
    }
}

/// Swap the PVs of bottom-based levels `lo+1` and `lo`.
pub(crate) fn swap_levels(m: &mut Bbdd, lo: u16) {
    let l0 = lo;
    let l1 = lo + 1;
    assert!((l1 as usize) < m.num_vars());
    let l2 = if (l1 as usize) + 1 < m.num_vars() {
        Some(lo + 2)
    } else {
        None
    };

    let mut ctx = take_swap_scratch(m, l0);
    let mut ids = std::mem::take(&mut ctx.window);
    for l in [l0, l1].into_iter().chain(l2) {
        m.subtables[l as usize].for_each(|id| ids.push(id));
    }
    let n0 = m.subtables[l0 as usize].len();
    let n01 = n0 + m.subtables[l1 as usize].len();
    // Inside a reorder, drop the window's outgoing references now; the
    // commit adds back those of the rebuilt nodes.
    if let Some(refs) = m.sift_refs.as_mut() {
        for &id in &ids {
            let n = &m.nodes[id as usize];
            refs.dec(n.first());
            refs.dec(n.second());
        }
    }

    for &id in &ids[..n0] {
        rebuild_l0(m, &mut ctx, id, l0, l1);
    }
    for &id in &ids[n0..n01] {
        rebuild_l1(m, &mut ctx, id, l0, l1);
    }
    if let Some(l2) = l2 {
        for &id in &ids[n01..] {
            rebuild_l2(m, &mut ctx, id, l0, l1, l2);
        }
    }
    debug_assert_eq!(
        ctx.staged.iter().filter(|s| s.owner.is_some()).count(),
        ids.len(),
        "every old node must adopt exactly one new tuple"
    );
    ctx.window = ids;

    commit(m, &mut ctx, l0, l1, l2);
    put_swap_scratch(m, ctx);
    if let Some(refs) = m.sift_refs.as_mut() {
        // Cofactoring through the window may have materialised the
        // literal of the level below it with no rebuilt node using it.
        if l0 > 0 {
            let lit = Node::new(l0 - 1, true, Edge::ZERO, Edge::ONE).key();
            if let Some(id) = m.subtables[l0 as usize - 1].peek(&lit, &m.nodes) {
                refs.queue_if_dead(id);
            }
        }
        m.reclaim_dead();
    }
    m.swap_order(m.num_vars() - 1 - usize::from(l1));
}

/// Old level-`i` node `p` (pair `(y, z)`): its variable `y` moves up, so
/// `p` re-roots at `L1` over the new pair `(y, x)` with children over
/// `(x, z)` whose branches swap (Fig. 2c):
/// `p(y:=x') = node(L0, ≠: P_E, =: P_D)`,
/// `p(y:=x)  = node(L0, ≠: P_D, =: P_E)`.
fn rebuild_l0(m: &mut Bbdd, ctx: &mut SwapCtx, id: u32, l0: u16, l1: u16) {
    let nd = m.node(id);
    if nd.is_shannon() {
        claim(m, ctx, id, l1, true, SEdge::ZERO, SEdge::ONE);
        return;
    }
    let pd = SEdge::from_edge(nd.first());
    let pe = SEdge::from_edge(nd.second());
    let c_neq = stage(m, ctx, l0, pe, pd);
    let c_eq = stage(m, ctx, l0, pd, pe);
    claim(m, ctx, id, l1, false, c_neq, c_eq);
}

/// Old level-`i+1` node `m` (pair `(x, y)`): expand to the four
/// grand-cofactors `m_{b,c}` and reassemble under the remap
/// `m'_{b',c'} = m_{b', b'⊕c'}` (Fig. 2b). If the two new children
/// coincide, `m` does not depend on `y` and migrates down to `L0`.
fn rebuild_l1(m: &mut Bbdd, ctx: &mut SwapCtx, id: u32, l0: u16, l1: u16) {
    let nd = m.node(id);
    if nd.is_shannon() {
        claim(m, ctx, id, l0, true, SEdge::ZERO, SEdge::ONE);
        return;
    }
    // Fast path: both children below the window. The node's condition
    // [x ⊕ y] is symmetric in the swapped pair, so the tuple is
    // invariant — re-claim it unchanged.
    if below_window(m, nd.first(), l0) && below_window(m, nd.second(), l0) {
        claim(
            m,
            ctx,
            id,
            l1,
            false,
            SEdge::from_edge(nd.first()),
            SEdge::from_edge(nd.second()),
        );
        return;
    }
    // (m_{b,1}, m_{b,0}) for b = 1 (≠-child) and b = 0 (=-child).
    let (m11, m10) = m.cofactors(nd.first(), l0);
    let (m01, m00) = m.cofactors(nd.second(), l0);
    let child1 = stage(m, ctx, l0, SEdge::from_edge(m10), SEdge::from_edge(m11));
    let child0 = stage(m, ctx, l0, SEdge::from_edge(m01), SEdge::from_edge(m00));
    claim(m, ctx, id, l1, false, child1, child0);
}

/// Old level-`i+2` node `N` (pair `(w, x)`): expand to the eight
/// grand-cofactors `N_{a,b,c}` (Fig. 2a) and reassemble under
/// `N'_{a',b',c'} = N_{a'⊕b', b', b'⊕c'}`. Uses virtual literals so
/// that cofactoring through the window never materializes nodes with
/// stale (pre-swap) semantics.
fn rebuild_l2(m: &mut Bbdd, ctx: &mut SwapCtx, id: u32, l0: u16, l1: u16, l2: u16) {
    let nd = m.node(id);
    if nd.is_shannon() {
        claim(m, ctx, id, l2, true, SEdge::ZERO, SEdge::ONE);
        return;
    }
    // Fast path: both children below the window. Only the SV of the
    // node's condition changes (x → y), which re-roots the children
    // one level down with swapped branches and no grand-cofactoring:
    //   f_{w≠y} = node(L1, ≠: E, =: D),  f_{w=y} = node(L1, ≠: D, =: E).
    if below_window(m, nd.first(), l0) && below_window(m, nd.second(), l0) {
        let d = SEdge::from_edge(nd.first());
        let e = SEdge::from_edge(nd.second());
        let mid1 = stage(m, ctx, l1, e, d);
        let mid0 = stage(m, ctx, l1, d, e);
        claim(m, ctx, id, l2, false, mid1, mid0);
        return;
    }
    // First expansion: condition b over the old pair (x, y) at L1.
    let (n1_1, n1_0) = vcof(m, ctx, VEdge::Real(nd.first()), l1);
    let (n0_1, n0_0) = vcof(m, ctx, VEdge::Real(nd.second()), l1);
    // Second expansion: condition c over the old pair (y, z) at L0.
    let mut nabc = [[[SEdge::ZERO; 2]; 2]; 2];
    for (a, b, v) in [
        (1usize, 1usize, n1_1),
        (1, 0, n1_0),
        (0, 1, n0_1),
        (0, 0, n0_0),
    ] {
        let (c1, c0) = vcof(m, ctx, v, l0);
        nabc[a][b][1] = SEdge::from_edge(as_real(c1));
        nabc[a][b][0] = SEdge::from_edge(as_real(c0));
    }
    // Remap and reassemble bottom-up.
    let inner = |mgr: &mut Bbdd, ctx: &mut SwapCtx, ap: usize, bp: usize| {
        let neq = nabc[ap ^ bp][bp][bp ^ 1];
        let eq = nabc[ap ^ bp][bp][bp];
        stage(mgr, ctx, l0, neq, eq)
    };
    let i11 = inner(m, ctx, 1, 1);
    let i10 = inner(m, ctx, 1, 0);
    let i01 = inner(m, ctx, 0, 1);
    let i00 = inner(m, ctx, 0, 0);
    let mid1 = stage(m, ctx, l1, i11, i10);
    let mid0 = stage(m, ctx, l1, i01, i00);
    claim(m, ctx, id, l2, false, mid1, mid0);
}

fn as_real(v: VEdge) -> Edge {
    match v {
        VEdge::Real(e) => e,
        VEdge::OldLit { .. } => {
            unreachable!("BBDD swap: virtual literal survived below the window")
        }
    }
}

/// Old-semantics biconditional cofactors of a possibly-virtual edge at
/// `level`.
fn vcof(m: &mut Bbdd, ctx: &SwapCtx, v: VEdge, level: u16) -> (VEdge, VEdge) {
    match v {
        VEdge::Real(e) => {
            if e.is_constant() {
                return (v, v);
            }
            let n = m.node(e.node());
            if n.top() < level {
                return (v, v);
            }
            debug_assert_eq!(n.top(), level);
            let c = e.is_complemented();
            if n.is_shannon() {
                old_lit_pair(m, ctx, level, c)
            } else {
                (
                    VEdge::Real(n.first().complement_if(c)),
                    VEdge::Real(n.second().complement_if(c)),
                )
            }
        }
        VEdge::OldLit { level: k, c } => {
            if k < level {
                (v, v)
            } else {
                debug_assert_eq!(k, level);
                old_lit_pair(m, ctx, level, c)
            }
        }
    }
}

/// Cofactors of the (old) positive literal of `level`'s PV:
/// `(SV', SV)`, where the SV literal is virtual while it lies inside
/// the swap window.
fn old_lit_pair(m: &mut Bbdd, ctx: &SwapCtx, level: u16, c: bool) -> (VEdge, VEdge) {
    if level == 0 {
        return (
            VEdge::Real(Edge::ZERO.complement_if(c)),
            VEdge::Real(Edge::ONE.complement_if(c)),
        );
    }
    let k = level - 1;
    if k < ctx.l0 {
        let lit = m.literal(k); // stable region: safe to create
        (
            VEdge::Real((!lit).complement_if(c)),
            VEdge::Real(lit.complement_if(c)),
        )
    } else {
        (
            VEdge::OldLit { level: k, c: !c },
            VEdge::OldLit { level: k, c },
        )
    }
}

/// Stage the biconditional tuple `(level, neq, eq)` applying R2, the
/// complement normalization and R4 in *new* semantics.
fn stage(m: &mut Bbdd, ctx: &mut SwapCtx, level: u16, mut neq: SEdge, mut eq: SEdge) -> SEdge {
    if neq == eq {
        return eq; // R2
    }
    let out_c = eq.c();
    if out_c {
        neq = neq.flip();
        eq = eq.flip();
    }
    if neq == eq.flip() && is_new_lit_below(m, ctx, eq, level) {
        let lit = stage_shannon(ctx, level);
        return lit.complement_if(out_c); // R4
    }
    let k = ctx.intern(StagedNode {
        level,
        shannon: false,
        neq,
        eq,
        owner: None,
    });
    SEdge::staged(k).complement_if(out_c)
}

fn stage_shannon(ctx: &mut SwapCtx, level: u16) -> SEdge {
    SEdge::staged(ctx.intern(StagedNode {
        level,
        shannon: true,
        neq: SEdge::ZERO,
        eq: SEdge::ONE,
        owner: None,
    }))
}

/// Is `e` the regular positive literal of the level below `level`, in
/// post-swap semantics?
fn is_new_lit_below(m: &Bbdd, ctx: &SwapCtx, e: SEdge, level: u16) -> bool {
    if e.c() {
        return false;
    }
    if level == 0 {
        return e == SEdge::ONE;
    }
    let below = level - 1;
    match e.r() {
        SRef::Final(id) => {
            if id == 0 {
                return false;
            }
            // Final nodes keep their semantics only below the window.
            below < ctx.l0 && {
                let n = m.node(id);
                n.is_shannon() && n.top() == below
            }
        }
        SRef::Staged(k) => {
            let s = &ctx.staged[k as usize];
            s.shannon && s.level == below
        }
    }
}

/// Register the new tuple of surviving old node `id` (pointer-
/// preserving adoption), handling the level-migration (R2) case.
fn claim(
    m: &mut Bbdd,
    ctx: &mut SwapCtx,
    id: u32,
    level: u16,
    shannon: bool,
    neq: SEdge,
    eq: SEdge,
) {
    if neq == eq {
        // The node's function does not depend on the new PV of `level`:
        // it migrates to the root of its (single) child, which is
        // always a regular staged node — see the module docs.
        match (neq.r(), neq.c()) {
            (SRef::Staged(k), false) => {
                assert!(
                    ctx.staged[k as usize].owner.is_none(),
                    "BBDD swap: migrated node collides with an owned tuple"
                );
                ctx.staged[k as usize].owner = Some(id);
            }
            _ => panic!("BBDD swap: migrated node collapsed outside the staging area"),
        }
        return;
    }
    assert!(
        !eq.c(),
        "BBDD swap: claim with complemented =-edge (polarity flip)"
    );
    debug_assert!(
        shannon || !(neq == eq.flip() && is_new_lit_below(m, ctx, eq, level)),
        "BBDD swap: surviving biconditional node degenerated to a literal"
    );
    ctx.intern(StagedNode {
        level,
        shannon,
        neq,
        eq,
        owner: Some(id),
    });
}

/// Is the edge's target strictly below the swap window?
#[inline]
fn below_window(m: &Bbdd, e: Edge, l0: u16) -> bool {
    match edge_level(m, e) {
        None => true,
        Some(l) => l < l0,
    }
}

fn take_swap_scratch(m: &mut Bbdd, l0: u16) -> SwapCtx {
    let mut ctx = m.scratch.take().unwrap_or_default();
    ctx.reset(l0);
    ctx
}

fn put_swap_scratch(m: &mut Bbdd, ctx: SwapCtx) {
    m.scratch = Some(ctx);
}

/// Write the staged forest back: reuse owned slots, allocate fresh ones
/// for reachable unowned nodes, refill the three subtables.
fn commit(m: &mut Bbdd, ctx: &mut SwapCtx, l0: u16, l1: u16, l2: Option<u16>) {
    let SwapCtx {
        staged,
        used,
        stack,
        final_id,
        ..
    } = ctx;
    // Reachability from owned (adopted) nodes; unreferenced fresh
    // intermediates are dropped instead of becoming instant garbage.
    used.clear();
    used.resize(staged.len(), false);
    stack.clear();
    stack.extend((0..staged.len() as u32).filter(|&k| staged[k as usize].owner.is_some()));
    while let Some(k) = stack.pop() {
        if used[k as usize] {
            continue;
        }
        used[k as usize] = true;
        for e in [staged[k as usize].neq, staged[k as usize].eq] {
            if let SRef::Staged(j) = e.r() {
                stack.push(j);
            }
        }
    }

    m.live -= m.subtables[l0 as usize].len() + m.subtables[l1 as usize].len();
    m.subtables[l0 as usize].clear();
    m.subtables[l1 as usize].clear();
    if let Some(l2) = l2 {
        m.live -= m.subtables[l2 as usize].len();
        m.subtables[l2 as usize].clear();
    }

    final_id.clear();
    final_id.resize(staged.len(), u32::MAX);
    for (k, s) in staged.iter().enumerate() {
        if !used[k] {
            continue;
        }
        final_id[k] = match s.owner {
            Some(id) => id,
            None => {
                // Fresh slot for a genuinely new node.
                if let Some(id) = free_slot(m) {
                    id
                } else {
                    m.nodes.push(Node::terminal());
                    (m.nodes.len() - 1) as u32
                }
            }
        };
    }

    let resolve = |e: SEdge| -> Edge {
        match e.r() {
            SRef::Final(id) => Edge::new(id, e.c()),
            SRef::Staged(k) => {
                debug_assert_ne!(final_id[k as usize], u32::MAX);
                Edge::new(final_id[k as usize], e.c())
            }
        }
    };

    for (k, s) in staged.iter().enumerate() {
        if !used[k] {
            continue;
        }
        let id = final_id[k];
        let neq = resolve(s.neq);
        let eq = resolve(s.eq);
        m.nodes[id as usize] = Node::new(s.level, s.shannon, neq, eq);
        debug_assert!(
            m.subtables[s.level as usize]
                .peek(&m.nodes[id as usize].key(), &m.nodes)
                .is_none(),
            "BBDD swap: duplicate canonical tuple after commit"
        );
        m.subtables[s.level as usize].insert(id, &m.nodes);
        m.live += 1;
        m.stats.nodes_created += u64::from(s.owner.is_none());
        if let Some(refs) = m.sift_refs.as_mut() {
            refs.inc(neq);
            refs.inc(eq);
        }
    }
}

fn free_slot(m: &mut Bbdd) -> Option<u32> {
    m.free.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolop::BoolOp;

    /// Build a moderately entangled function over `n` variables.
    fn build_mixed(mgr: &mut Bbdd, n: usize, seed: u64) -> Edge {
        let vs: Vec<Edge> = (0..n).map(|v| mgr.var(v)).collect();
        let ops = [
            BoolOp::XOR,
            BoolOp::AND,
            BoolOp::OR,
            BoolOp::XNOR,
            BoolOp::NAND,
            BoolOp::NOR,
        ];
        let mut f = vs[(seed % n as u64) as usize];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..2 * n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = ops[(state >> 33) as usize % ops.len()];
            let v = vs[(state >> 20) as usize % n];
            let _ = i;
            f = mgr.apply(op, f, v);
        }
        f
    }

    fn truth_of(mgr: &Bbdd, f: Edge, n: usize) -> Vec<bool> {
        (0..1u32 << n)
            .map(|m| {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect()
    }

    #[test]
    fn swap_two_variables_preserves_all_functions() {
        for seed in 0..20u64 {
            let n = 4;
            let mut mgr = Bbdd::new(n);
            let f = build_mixed(&mut mgr, n, seed);
            let g = build_mixed(&mut mgr, n, seed + 100);
            let tf = truth_of(&mgr, f, n);
            let tg = truth_of(&mgr, g, n);
            for pos in 0..n - 1 {
                mgr.swap_adjacent(pos);
                assert_eq!(truth_of(&mgr, f, n), tf, "seed {seed} pos {pos} (f)");
                assert_eq!(truth_of(&mgr, g, n), tg, "seed {seed} pos {pos} (g)");
                mgr.validate().unwrap();
            }
        }
    }

    #[test]
    fn swap_at_top_has_no_level_above() {
        let n = 3;
        let mut mgr = Bbdd::new(n);
        let f = build_mixed(&mut mgr, n, 7);
        let tf = truth_of(&mgr, f, n);
        mgr.swap_adjacent(0); // swaps the two topmost variables
        assert_eq!(truth_of(&mgr, f, n), tf);
        mgr.validate().unwrap();
        assert_eq!(mgr.order(), vec![1, 0, 2]);
    }

    #[test]
    fn swap_twice_restores_order_and_sizes() {
        let n = 6;
        let mut mgr = Bbdd::new(n);
        let f = build_mixed(&mut mgr, n, 3);
        let _f = mgr.pin(f);
        mgr.gc();
        let order0 = mgr.order();
        let size0 = mgr.live_nodes();
        for pos in 0..n - 1 {
            mgr.swap_adjacent(pos);
            mgr.swap_adjacent(pos);
            mgr.gc();
            assert_eq!(mgr.order(), order0, "pos {pos}");
            assert_eq!(
                mgr.live_nodes(),
                size0,
                "pos {pos}: double swap must be identity"
            );
            mgr.validate().unwrap();
        }
    }

    #[test]
    fn xor_pair_trades_places() {
        // f = x ⊕ z over order (w, x, y, z) exercises the level-migration
        // case: the (x,y)-level node and the (y,z)-level XNOR node trade
        // levels under swap(x, y).
        let mut mgr = Bbdd::new(4);
        let (x, z) = (mgr.var(1), mgr.var(3));
        let f = mgr.xor(x, z);
        let y_related = {
            let y = mgr.var(2);
            let zz = mgr.var(3);
            mgr.xor(y, zz)
        };
        let tf = truth_of(&mgr, f, 4);
        let tg = truth_of(&mgr, y_related, 4);
        mgr.swap_adjacent(1); // swap x and y
        assert_eq!(truth_of(&mgr, f, 4), tf);
        assert_eq!(truth_of(&mgr, y_related, 4), tg);
        mgr.validate().unwrap();
        // After the swap f = x⊕z is adjacent (x above z? order w,y,x,z) →
        // single XNOR node (complemented): 1 internal node.
        assert_eq!(mgr.node_count(f), 1);
    }

    #[test]
    fn literal_nodes_swap_levels() {
        let mut mgr = Bbdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let ta = truth_of(&mgr, a, 3);
        let tb = truth_of(&mgr, b, 3);
        mgr.swap_adjacent(0);
        assert_eq!(truth_of(&mgr, a, 3), ta);
        assert_eq!(truth_of(&mgr, b, 3), tb);
        assert_eq!(mgr.order(), vec![1, 0, 2]);
        mgr.validate().unwrap();
    }

    #[test]
    fn random_walks_of_swaps_preserve_semantics() {
        let n = 7;
        for seed in 0..6u64 {
            let mut mgr = Bbdd::new(n);
            let f = build_mixed(&mut mgr, n, seed);
            let tf = truth_of(&mgr, f, n);
            let mut state = seed | 1;
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
}
