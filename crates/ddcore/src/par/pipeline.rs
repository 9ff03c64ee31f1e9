//! [`Par`] — the one parallel pipeline, generic over a [`NodeShape`].
//!
//! Recursive decision-diagram operations parallelize naturally
//! (HermesBDD's observation): split the recursion at the top k levels, run
//! the subproblems on a pool, share subresults through a concurrent unique
//! table and a lossy computed cache. The catch is determinism — node ids
//! handed out by racing threads depend on the interleaving, and a decision
//! diagram package's whole contract is that equal functions are equal
//! edges. `Par` therefore runs every operation in three phases:
//!
//! 1. **Split** (sequential): cofactor the operands down the top k levels
//!    of the recursion, recording the combine tree and a deduplicated list
//!    of leaf subproblems.
//! 2. **Parallel phase**: the base manager is *frozen* (workers only read
//!    its arena and unique tables via lock-free `peek`s) and the leaf
//!    subproblems run fork-join style. Result nodes are materialized in an
//!    overlay: a [`ShardedTable`] dedupes across threads (consulting the
//!    frozen base tables first, so every Boolean function has exactly
//!    **one** edge representation — base or overlay), an [`OverlayArena`]
//!    stores the node words, and an [`AtomicCache`] memoizes subresults
//!    lossily.
//! 3. **Commit** (sequential): leaf results are imported into the base
//!    manager — a depth-first walk over the overlay graph calling the
//!    ordinary `make_node` — and the combine tree joins them.
//!
//! Because the overlay is canonical (one representation per function), the
//! overlay graph reachable from the leaf results is the *same graph* for
//! every interleaving; only the scratch ids differ. The commit walks that
//! graph in a fixed order, so the base manager's state after the operation
//! — including every node id — is **bit-identical for every thread
//! count**. The parallel/sequential decision below the node-count cutoff
//! depends only on operand sizes, never on the thread count.
//!
//! Everything backend-specific — how a node decomposes, how the overlay
//! and the base build one, and the BBDD chain's extra quantification case
//! — sits behind [`NodeShape`]; the phases, the recursions and the budget
//! handling exist once, here. Every operation takes an [`OpBudget`]; the
//! infallible forms pass [`OpBudget::unlimited`].

use super::{
    threads_from_env, try_fork_join_governed, AtomicCache, AtomicCacheStats, OverlayArena,
    ParConfig, ParStats, ShardedTable,
};
use crate::api::RawManager;
use crate::boolop::{BoolOp, Unary};
use crate::dvo::{DvoPolicy, DvoStrategy};
use crate::fxhash::FxHashMap;
use crate::govern::{OpAbort, OpBudget};
use crate::obs::{self, MemBytes, MetricsSnapshot, Op};
use crate::optag;
use crate::roots::{RootGuard, RootSet};
use crate::session::SessionBackend;
use crate::table::{KeyStore, TableKey};
use crate::walk::{self, NodeGraph};
use std::sync::atomic::{AtomicU64, Ordering};

// ───────────────────────────── node shape ─────────────────────────────────

/// A backend edge packed into one `u32`: node id shifted left by one, the
/// low bit the complement attribute, node 0 the 1 sink (so `ONE` packs to
/// 0 and `ZERO` to 1). Both managers' `Edge` types use this packing.
pub trait PackedEdge:
    Copy + Eq + std::fmt::Debug + std::ops::Not<Output = Self> + Send + Sync
{
    /// The constant-true edge.
    const ONE: Self;
    /// The constant-false edge.
    const ZERO: Self;

    /// The packed word.
    fn bits(self) -> u32;

    /// Rebuild an edge from its packed word.
    fn from_bits(bits: u32) -> Self;

    /// Id of the target node.
    #[inline]
    fn node(self) -> u32 {
        self.bits() >> 1
    }

    /// `true` for the two constants.
    #[inline]
    fn is_constant(self) -> bool {
        self.bits() <= 1
    }

    /// Whether the complement attribute is set.
    #[inline]
    fn is_complemented(self) -> bool {
        self.bits() & 1 == 1
    }

    /// The edge with its attribute flipped when `c` holds.
    #[inline]
    #[must_use]
    fn complement_if(self, c: bool) -> Self {
        Self::from_bits(self.bits() ^ u32::from(c))
    }
}

/// What [`Par`] needs from a sequential manager: how its nodes decompose
/// and how the overlay and the base build them.
///
/// A node is the three [`NodeGraph`] words `(first, second, meta)`: the
/// packed child edges in `make_node` argument order and a meta word whose
/// low 16 bits are the node's *top* — the index the manager's per-level
/// unique tables use (the BBDD level, the ROBDD variable). Overlay records
/// use the same words, so the pipeline reads base and overlay nodes alike;
/// node ids at or above [`NodeGraph::node_slots`] live in the overlay.
///
/// Cofactor pairs are returned in `make_node` order too. The quantifying
/// recursions evaluate the first before the second; apply and ite, their
/// split and the combine-tree resolve follow
/// [`NodeShape::APPLY_SECOND_FIRST`]. Keeping each backend's order keeps
/// every node id it produced before the pipeline was shared.
pub trait NodeShape: RawManager<Edge: PackedEdge> + NodeGraph + Sync {
    /// Overlay unique-table key: a node's top plus its per-top table key,
    /// one key space across all tops.
    type Key: TableKey + std::fmt::Debug;
    /// The sequential manager's counters ([`Par::stats`]).
    type Stats;
    /// Backend label of the parallel front-end's metrics and stats line.
    const PAR_NAME: &'static str;
    /// Do apply/ite (and the resolve of their combine tree) recurse into
    /// the second cofactor before the first?
    const APPLY_SECOND_FIRST: bool;

    /// The overlay key of a node, from its words.
    fn overlay_key(words: (u32, u32, u32)) -> Self::Key;

    /// Read-only lookup of an overlay key in the base unique tables.
    fn peek(&self, key: &Self::Key) -> Option<u32>;

    /// Distance of `top` from the bottom of the order: the larger of two
    /// tops is the one nearer the root, where the recursion expands.
    fn height(&self, top: u16) -> u32;

    /// Cofactors of a base edge at `top` (the split phase; may create the
    /// base nodes a lazy expansion needs).
    fn base_cofactors(&mut self, e: Self::Edge, top: u16) -> (Self::Edge, Self::Edge);

    /// `make_node` in the base manager (the combine-tree joins).
    fn base_node(&mut self, top: u16, first: Self::Edge, second: Self::Edge) -> Self::Edge;

    /// Rebuild one overlay node, given its meta word and its already
    /// imported children, through the base `make_node` (the commit).
    fn import_node(&mut self, meta: u32, first: Self::Edge, second: Self::Edge) -> Self::Edge;

    /// The quantification context of a variable set, built in the base
    /// manager before the freeze; `None` for an empty set.
    ///
    /// # Panics
    /// Implementations panic if a variable is out of range.
    fn quant_cube(&mut self, vars: &[usize]) -> Option<QuantCube<Self::Edge>>;

    /// Cofactors of an edge at `top` over the frozen base plus overlay.
    fn overlay_cofactors(
        ov: &Overlay<'_, Self>,
        e: Self::Edge,
        top: u16,
    ) -> (Self::Edge, Self::Edge);

    /// `make_node` in the overlay: the base's reduction rules, with the
    /// node found or created through [`Overlay::find_or_insert`].
    fn overlay_node(
        ov: &Overlay<'_, Self>,
        top: u16,
        first: Self::Edge,
        second: Self::Edge,
    ) -> Self::Edge;

    /// The positive literal of the variable at `top`, in the overlay.
    fn overlay_literal(ov: &Overlay<'_, Self>, top: u16) -> Self::Edge;

    /// The quantification case beyond "top quantified" and "rebuild the
    /// node": when the node at an unquantified `top` must instead be
    /// re-expanded through the literal of a quantified partner top (the
    /// BBDD chain's SV-quantified case), that partner. Default: never.
    fn chain_partner(_top: u16, _in_cube: &[bool]) -> Option<u16> {
        None
    }

    /// The collection counter; a change invalidates the concurrent cache.
    fn gc_generation(&self) -> u64;

    /// The sequential manager's counters.
    fn stats(&self) -> Self::Stats;

    /// Fill `m` with the sequential manager's sections, folding the
    /// concurrent cache's counters into `cache.*` and the overlay's heap
    /// bytes into `mem.*`.
    fn fill_par_metrics(&self, m: &mut MetricsSnapshot, cache: AtomicCacheStats, overlay: MemBytes);
}

/// A quantification context (see [`NodeShape::quant_cube`]).
#[derive(Debug, Clone)]
pub struct QuantCube<E> {
    /// Indexed by top: is that top's variable quantified?
    pub in_cube: Vec<bool>,
    /// The lowest [`NodeShape::height`] of a quantified top; nodes below
    /// it are left as they are.
    pub floor: u32,
    /// The conjunction of the quantified literals (a cache key word).
    pub cube: E,
}

/// The frozen base manager plus the overlay storage, as the node-shape
/// hooks see it during the parallel phase.
pub struct Overlay<'a, M: NodeShape> {
    base: &'a M,
    /// Arena length at freeze time; ids `>= base_len` live in the overlay.
    base_len: u32,
    table: &'a ShardedTable,
    arena: &'a OverlayArena,
}

/// The overlay table's key store: an overlay id's key comes from its
/// record's words.
impl<M: NodeShape> KeyStore<M::Key> for Overlay<'_, M> {
    #[inline]
    fn key_of(&self, id: u32) -> M::Key {
        M::overlay_key(self.words(id))
    }
}

impl<M: NodeShape> Overlay<'_, M> {
    /// The words of node `id`, base or overlay.
    #[inline]
    #[must_use]
    pub fn words(&self, id: u32) -> (u32, u32, u32) {
        if id < self.base_len {
            self.base.node_words(id)
        } else {
            self.arena.get(id - self.base_len)
        }
    }

    /// Find-or-create in the canonical frozen-base + overlay space: the
    /// frozen base tables first (read-only `peek`), then the sharded
    /// overlay table under exactly one shard lock, allocating `words` on a
    /// miss. This is what guarantees one edge representation per Boolean
    /// function — the cornerstone of the determinism argument.
    #[inline]
    pub fn find_or_insert(&self, words: (u32, u32, u32)) -> u32 {
        let key = M::overlay_key(words);
        // A frozen base node has only base children, so a key with an
        // overlay child can never hit the base tables.
        let in_base = |w: u32| M::Edge::from_bits(w).node() < self.base_len;
        if in_base(words.0) && in_base(words.1) {
            if let Some(id) = self.base.peek(&key) {
                return id;
            }
        }
        self.table.get_or_insert_with(key, self, || {
            self.base_len + self.arena.alloc(words.0, words.1, words.2)
        })
    }
}

#[inline]
fn top_of(words: (u32, u32, u32)) -> u16 {
    words.2 as u16
}

/// The one of two tops nearer the root.
#[inline]
fn upper<M: NodeShape>(base: &M, a: u16, b: u16) -> u16 {
    if base.height(b) > base.height(a) {
        b
    } else {
        a
    }
}

/// Run the two cofactor subproblems in the backend's apply order and
/// return their results in `make_node` order.
#[inline]
fn in_apply_order<M: NodeShape, S, T>(
    s: &mut S,
    first: impl FnOnce(&mut S) -> T,
    second: impl FnOnce(&mut S) -> T,
) -> (T, T) {
    if M::APPLY_SECOND_FIRST {
        let b = second(s);
        (first(s), b)
    } else {
        let a = first(s);
        (a, second(s))
    }
}

fn unary<E: PackedEdge>(u: Unary, x: E) -> E {
    match u {
        Unary::Zero => E::ZERO,
        Unary::One => E::ONE,
        Unary::Identity => x,
        Unary::Complement => !x,
    }
}

// ───────────────────────────── overlay frame ──────────────────────────────

/// The overlay scratch of one parallel manager: the sharded unique table,
/// the append-only node arena and the lossy atomic computed cache, plus
/// the base GC generation the cache epoch was last synchronized to.
#[derive(Debug)]
struct OverlayFrame {
    /// Overlay unique table (consulted after the frozen base's tables).
    table: ShardedTable,
    /// Append-only overlay node records.
    arena: OverlayArena,
    /// Lossy concurrent computed cache, invalidated by epoch bump.
    cache: AtomicCache,
    /// Base GC generation at the last cache-epoch sync. A collection
    /// through *any* path is caught by comparing generations before
    /// trusting cached node ids.
    seen_generation: u64,
    /// The commit's import memo, indexed by overlay slot: the packed base
    /// edge a slot imported to, or [`NOT_IMPORTED`].
    memo: Vec<u32>,
}

/// Import-memo entry of an overlay slot the commit has not reached. An
/// import always yields a regular edge, so no result packs to it.
const NOT_IMPORTED: u32 = u32::MAX;

impl OverlayFrame {
    fn new(cfg: &ParConfig) -> Self {
        OverlayFrame {
            table: ShardedTable::new(cfg.shards, 64),
            arena: OverlayArena::new(),
            cache: AtomicCache::new(cfg.cache_ways),
            seen_generation: 0,
            memo: Vec::new(),
        }
    }

    /// Recycle the per-operation scratch (table entries and arena records)
    /// without invalidating the cross-operation computed cache.
    fn recycle(&self) {
        self.table.clear();
        self.arena.reset();
    }

    /// Bump the cache epoch if a collection happened since the last sync;
    /// returns `true` when an invalidation fired.
    fn sync_generation(&mut self, generation: u64) -> bool {
        if self.seen_generation == generation {
            return false;
        }
        self.invalidate(generation);
        true
    }

    /// Unconditionally invalidate the cache and record `generation`.
    fn invalidate(&mut self, generation: u64) {
        self.cache.bump_epoch();
        self.seen_generation = generation;
    }
}

// ──────────────────────────── plans and tasks ─────────────────────────────

/// Cube-quantification context of one parallel `exists`/`forall`/
/// `and_exists` (mirror of the sequential managers' `QuantCtx`).
#[derive(Debug, Clone)]
struct PQuant {
    in_cube: Vec<bool>,
    floor: u32,
    cube_bits: u64,
    combine: BoolOp,
    tag: u32,
}

/// A deduplicated leaf subproblem of the split phase.
#[derive(Debug, Clone, Copy)]
enum Task<E> {
    Apply(BoolOp, E, E),
    Ite(E, E, E),
    Quant(E),
    AndExists(E, E),
}

/// How an inner node of the combine tree joins its children.
#[derive(Debug, Clone, Copy)]
enum Combine {
    /// `make_node(top, first, second)` — the structural join.
    Node(u16),
    /// `apply(op, first, second)` — quantification's join (∨ for ∃, ∧
    /// for ∀).
    Op(BoolOp),
}

/// The combine tree recorded by the split phase.
#[derive(Debug)]
enum Plan<E> {
    /// Resolved during the split (terminal case).
    Done(E),
    /// Index into the task list.
    Leaf(usize),
    /// Join of two subplans, in `make_node` order.
    Join {
        how: Combine,
        first: Box<Plan<E>>,
        second: Box<Plan<E>>,
    },
}

fn join<E>(how: Combine, (first, second): (Plan<E>, Plan<E>)) -> Plan<E> {
    Plan::Join {
        how,
        first: Box::new(first),
        second: Box::new(second),
    }
}

// ──────────────────────────────── split ───────────────────────────────────

/// The split phase: cofactors the operands in the base manager down to
/// `depth`, interning the leaves.
struct Splitter<'a, M: NodeShape> {
    base: &'a mut M,
    tasks: Vec<Task<M::Edge>>,
    dedup: FxHashMap<(u32, u64, u64), usize>,
}

impl<M: NodeShape> Splitter<'_, M> {
    fn top(&self, e: M::Edge) -> u16 {
        top_of(self.base.node_words(e.node()))
    }

    fn leaf(&mut self, key: (u32, u64, u64), task: Task<M::Edge>) -> Plan<M::Edge> {
        let tasks = &mut self.tasks;
        let idx = *self.dedup.entry(key).or_insert_with(|| {
            tasks.push(task);
            tasks.len() - 1
        });
        Plan::Leaf(idx)
    }

    fn apply(&mut self, op: BoolOp, f: M::Edge, g: M::Edge, depth: u16) -> Plan<M::Edge> {
        if f == g {
            return Plan::Done(unary(op.on_equal_operands(), f));
        }
        if f == !g {
            return Plan::Done(unary(op.on_complement_operands(), f));
        }
        if f.is_constant() {
            return Plan::Done(unary(op.on_first_const(f == M::Edge::ONE), g));
        }
        if g.is_constant() {
            return Plan::Done(unary(op.on_second_const(g == M::Edge::ONE), f));
        }
        if depth == 0 {
            let key = (
                u32::from(op.table()),
                u64::from(f.bits()),
                u64::from(g.bits()),
            );
            return self.leaf(key, Task::Apply(op, f, g));
        }
        let top = upper(&*self.base, self.top(f), self.top(g));
        let (fa, fb) = self.base.base_cofactors(f, top);
        let (ga, gb) = self.base.base_cofactors(g, top);
        let children = in_apply_order::<M, _, _>(
            self,
            |s| s.apply(op, fa, ga, depth - 1),
            |s| s.apply(op, fb, gb, depth - 1),
        );
        join(Combine::Node(top), children)
    }

    fn ite(&mut self, f: M::Edge, g: M::Edge, h: M::Edge, depth: u16) -> Plan<M::Edge> {
        let (one, zero) = (M::Edge::ONE, M::Edge::ZERO);
        if f == one {
            return Plan::Done(g);
        }
        if f == zero {
            return Plan::Done(h);
        }
        if g == h {
            return Plan::Done(g);
        }
        if g == one && h == zero {
            return Plan::Done(f);
        }
        if g == zero && h == one {
            return Plan::Done(!f);
        }
        if f == g || g == one {
            return self.apply(BoolOp::OR, f, h, depth);
        }
        if f == !g || g == zero {
            return self.apply(BoolOp::NOT_AND, f, h, depth);
        }
        if f == h || h == zero {
            return self.apply(BoolOp::AND, f, g, depth);
        }
        if f == !h || h == one {
            return self.apply(BoolOp::IMPLIES, f, g, depth);
        }
        if depth == 0 {
            let key = (
                optag::ITE,
                u64::from(f.bits()),
                (u64::from(g.bits()) << 32) | u64::from(h.bits()),
            );
            return self.leaf(key, Task::Ite(f, g, h));
        }
        let mut top = self.top(f);
        for e in [g, h] {
            if !e.is_constant() {
                top = upper(&*self.base, top, self.top(e));
            }
        }
        let (fa, fb) = self.base.base_cofactors(f, top);
        let (ga, gb) = self.base.base_cofactors(g, top);
        let (ha, hb) = self.base.base_cofactors(h, top);
        let children = in_apply_order::<M, _, _>(
            self,
            |s| s.ite(fa, ga, ha, depth - 1),
            |s| s.ite(fb, gb, hb, depth - 1),
        );
        join(Combine::Node(top), children)
    }

    fn quant(&mut self, f: M::Edge, q: &PQuant, depth: u16) -> Plan<M::Edge> {
        if f.is_constant() {
            return Plan::Done(f);
        }
        let top = self.top(f);
        if self.base.height(top) < q.floor {
            return Plan::Done(f);
        }
        let leaf_key = (q.tag, u64::from(f.bits()), q.cube_bits);
        if depth == 0 {
            return self.leaf(leaf_key, Task::Quant(f));
        }
        let how = if q.in_cube[top as usize] {
            // The top is quantified away; children join with the combine
            // operator (a full parallel apply at resolve time).
            Combine::Op(q.combine)
        } else if M::chain_partner(top, &q.in_cube).is_some() {
            // The chain case re-expands through `ite`; splitting through
            // it would need base mutations mid-split, so the whole
            // subproblem becomes a leaf.
            return self.leaf(leaf_key, Task::Quant(f));
        } else {
            Combine::Node(top)
        };
        let (fa, fb) = self.base.base_cofactors(f, top);
        let first = self.quant(fa, q, depth - 1);
        let second = self.quant(fb, q, depth - 1);
        join(how, (first, second))
    }

    fn and_exists(&mut self, f: M::Edge, g: M::Edge, q: &PQuant, depth: u16) -> Plan<M::Edge> {
        if f == M::Edge::ZERO || g == M::Edge::ZERO || f == !g {
            return Plan::Done(M::Edge::ZERO);
        }
        if f == M::Edge::ONE {
            return self.quant(g, q, depth);
        }
        if g == M::Edge::ONE || f == g {
            return self.quant(f, q, depth);
        }
        let (f, g) = if f.bits() <= g.bits() { (f, g) } else { (g, f) };
        let top = upper(&*self.base, self.top(f), self.top(g));
        if self.base.height(top) < q.floor {
            return self.apply(BoolOp::AND, f, g, depth);
        }
        let leaf_key = (
            optag::AND_EXISTS,
            u64::from(f.bits()),
            (u64::from(g.bits()) << 32) ^ q.cube_bits,
        );
        if depth == 0 {
            return self.leaf(leaf_key, Task::AndExists(f, g));
        }
        let how = if q.in_cube[top as usize] {
            Combine::Op(BoolOp::OR)
        } else if M::chain_partner(top, &q.in_cube).is_some() {
            return self.leaf(leaf_key, Task::AndExists(f, g));
        } else {
            Combine::Node(top)
        };
        let (fa, fb) = self.base.base_cofactors(f, top);
        let (ga, gb) = self.base.base_cofactors(g, top);
        let first = self.and_exists(fa, ga, q, depth - 1);
        let second = self.and_exists(fb, gb, q, depth - 1);
        join(how, (first, second))
    }
}

// ─────────────────────────── parallel recursions ──────────────────────────

/// The read-only context workers run in, shared by reference across the
/// fork-join scope.
struct Engine<'a, M: NodeShape> {
    ov: Overlay<'a, M>,
    cache: &'a AtomicCache,
    quant: Option<&'a PQuant>,
}

impl<M: NodeShape> Engine<'_, M> {
    #[inline]
    fn top(&self, e: M::Edge) -> u16 {
        top_of(self.ov.words(e.node()))
    }

    #[inline]
    fn cofactors(&self, e: M::Edge, top: u16) -> (M::Edge, M::Edge) {
        M::overlay_cofactors(&self.ov, e, top)
    }

    /// Algorithm 1 in the overlay space.
    fn apply_rec(
        &self,
        mut op: BoolOp,
        mut f: M::Edge,
        mut g: M::Edge,
        calls: &mut u64,
    ) -> M::Edge {
        *calls += 1;
        if f == g {
            return unary(op.on_equal_operands(), f);
        }
        if f == !g {
            return unary(op.on_complement_operands(), f);
        }
        if f.is_constant() {
            return unary(op.on_first_const(f == M::Edge::ONE), g);
        }
        if g.is_constant() {
            return unary(op.on_second_const(g == M::Edge::ONE), f);
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
        if op == BoolOp::FALSE {
            return M::Edge::ZERO.complement_if(out_c);
        }
        if op == BoolOp::FIRST {
            return f.complement_if(out_c);
        }
        if op == BoolOp::SECOND {
            return g.complement_if(out_c);
        }
        let (k1, k2, tag) = (
            u64::from(f.bits()),
            u64::from(g.bits()),
            u32::from(op.table()),
        );
        if let Some(r) = self.cache.get(k1, k2, tag) {
            return M::Edge::from_bits(r).complement_if(out_c);
        }
        let top = upper(self.ov.base, self.top(f), self.top(g));
        let (fa, fb) = self.cofactors(f, top);
        let (ga, gb) = self.cofactors(g, top);
        let (a, b) = in_apply_order::<M, _, _>(
            calls,
            |c| self.apply_rec(op, fa, ga, c),
            |c| self.apply_rec(op, fb, gb, c),
        );
        let r = M::overlay_node(&self.ov, top, a, b);
        self.cache.insert(k1, k2, tag, r.bits());
        r.complement_if(out_c)
    }

    fn ite_rec(&self, mut f: M::Edge, mut g: M::Edge, mut h: M::Edge, calls: &mut u64) -> M::Edge {
        *calls += 1;
        let (one, zero) = (M::Edge::ONE, M::Edge::ZERO);
        if f == one {
            return g;
        }
        if f == zero {
            return h;
        }
        if g == h {
            return g;
        }
        if g == one && h == zero {
            return f;
        }
        if g == zero && h == one {
            return !f;
        }
        if f == g || g == one {
            return self.apply_rec(BoolOp::OR, f, h, calls);
        }
        if f == !g || g == zero {
            return self.apply_rec(BoolOp::NOT_AND, f, h, calls);
        }
        if f == h || h == zero {
            return self.apply_rec(BoolOp::AND, f, g, calls);
        }
        if f == !h || h == one {
            return self.apply_rec(BoolOp::IMPLIES, f, g, calls);
        }
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
        if let Some(r) = self.cache.get(k1, k2, optag::ITE) {
            return M::Edge::from_bits(r).complement_if(out_c);
        }
        let mut top = self.top(f);
        for e in [g, h] {
            if !e.is_constant() {
                top = upper(self.ov.base, top, self.top(e));
            }
        }
        let (fa, fb) = self.cofactors(f, top);
        let (ga, gb) = self.cofactors(g, top);
        let (ha, hb) = self.cofactors(h, top);
        let (a, b) = in_apply_order::<M, _, _>(
            calls,
            |c| self.ite_rec(fa, ga, ha, c),
            |c| self.ite_rec(fb, gb, hb, c),
        );
        let r = M::overlay_node(&self.ov, top, a, b);
        self.cache.insert(k1, k2, optag::ITE, r.bits());
        r.complement_if(out_c)
    }

    /// The chain case of quantification: re-expand every operand through
    /// the partner literal `w`, recurse on both halves, and recombine with
    /// `ite` over the literal of `top`.
    fn chain_rec(
        &self,
        top: u16,
        partner: u16,
        pairs: &[(M::Edge, M::Edge)],
        calls: &mut u64,
        rec: impl Fn(&[M::Edge], &mut u64) -> M::Edge,
    ) -> M::Edge {
        let w = M::overlay_literal(&self.ov, partner);
        let mut ones = Vec::with_capacity(pairs.len());
        let mut zeros = Vec::with_capacity(pairs.len());
        for &(a, b) in pairs {
            ones.push(self.ite_rec(w, b, a, calls));
            zeros.push(self.ite_rec(w, a, b, calls));
        }
        let r1 = rec(&ones, calls);
        let r0 = rec(&zeros, calls);
        let v = M::overlay_literal(&self.ov, top);
        self.ite_rec(v, r1, r0, calls)
    }

    fn quant_rec(&self, f: M::Edge, q: &PQuant, calls: &mut u64) -> M::Edge {
        if f.is_constant() {
            return f;
        }
        let top = self.top(f);
        if self.ov.base.height(top) < q.floor {
            return f;
        }
        *calls += 1;
        let (k1, k2) = (u64::from(f.bits()), q.cube_bits);
        if let Some(r) = self.cache.get(k1, k2, q.tag) {
            return M::Edge::from_bits(r);
        }
        let (fa, fb) = self.cofactors(f, top);
        let r = if q.in_cube[top as usize] {
            let a = self.quant_rec(fa, q, calls);
            let absorbing = if q.tag == optag::EXISTS {
                M::Edge::ONE
            } else {
                M::Edge::ZERO
            };
            if a == absorbing {
                absorbing
            } else {
                let b = self.quant_rec(fb, q, calls);
                self.apply_rec(q.combine, a, b, calls)
            }
        } else if let Some(partner) = M::chain_partner(top, &q.in_cube) {
            self.chain_rec(top, partner, &[(fa, fb)], calls, |x, c| {
                self.quant_rec(x[0], q, c)
            })
        } else {
            let a = self.quant_rec(fa, q, calls);
            let b = self.quant_rec(fb, q, calls);
            M::overlay_node(&self.ov, top, a, b)
        };
        self.cache.insert(k1, k2, q.tag, r.bits());
        r
    }

    fn and_exists_rec(&self, f: M::Edge, g: M::Edge, q: &PQuant, calls: &mut u64) -> M::Edge {
        if f == M::Edge::ZERO || g == M::Edge::ZERO || f == !g {
            return M::Edge::ZERO;
        }
        if f == M::Edge::ONE {
            return self.quant_rec(g, q, calls);
        }
        if g == M::Edge::ONE || f == g {
            return self.quant_rec(f, q, calls);
        }
        let (f, g) = if f.bits() <= g.bits() { (f, g) } else { (g, f) };
        let top = upper(self.ov.base, self.top(f), self.top(g));
        if self.ov.base.height(top) < q.floor {
            return self.apply_rec(BoolOp::AND, f, g, calls);
        }
        *calls += 1;
        let k1 = u64::from(f.bits());
        let k2 = (u64::from(g.bits()) << 32) | q.cube_bits;
        if let Some(r) = self.cache.get(k1, k2, optag::AND_EXISTS) {
            return M::Edge::from_bits(r);
        }
        let (fa, fb) = self.cofactors(f, top);
        let (ga, gb) = self.cofactors(g, top);
        let r = if q.in_cube[top as usize] {
            let a = self.and_exists_rec(fa, ga, q, calls);
            if a == M::Edge::ONE {
                M::Edge::ONE
            } else {
                let b = self.and_exists_rec(fb, gb, q, calls);
                self.apply_rec(BoolOp::OR, a, b, calls)
            }
        } else if let Some(partner) = M::chain_partner(top, &q.in_cube) {
            self.chain_rec(top, partner, &[(fa, fb), (ga, gb)], calls, |x, c| {
                self.and_exists_rec(x[0], x[1], q, c)
            })
        } else {
            let a = self.and_exists_rec(fa, ga, q, calls);
            let b = self.and_exists_rec(fb, gb, q, calls);
            M::overlay_node(&self.ov, top, a, b)
        };
        self.cache.insert(k1, k2, optag::AND_EXISTS, r.bits());
        r
    }

    fn run_task(&self, t: &Task<M::Edge>) -> (M::Edge, u64) {
        let mut calls = 0u64;
        let r = match *t {
            Task::Apply(op, f, g) => self.apply_rec(op, f, g, &mut calls),
            Task::Ite(f, g, h) => self.ite_rec(f, g, h, &mut calls),
            Task::Quant(f) => {
                let q = self.quant.expect("quant task without quant context");
                self.quant_rec(f, q, &mut calls)
            }
            Task::AndExists(f, g) => {
                let q = self.quant.expect("and-exists task without quant context");
                self.and_exists_rec(f, g, q, &mut calls)
            }
        };
        (r, calls)
    }
}

/// Commit one overlay edge into the base manager (memoized depth-first
/// rebuild, first child before second, through
/// [`NodeShape::import_node`]). `memo` holds one entry per overlay slot;
/// `imported` counts the slots this call filled.
fn import<M: NodeShape>(
    base: &mut M,
    arena: &OverlayArena,
    base_len: u32,
    memo: &mut [u32],
    imported: &mut u64,
    e: M::Edge,
) -> M::Edge {
    if e.is_constant() || e.node() < base_len {
        return e;
    }
    let slot = (e.node() - base_len) as usize;
    if memo[slot] != NOT_IMPORTED {
        return M::Edge::from_bits(memo[slot]).complement_if(e.is_complemented());
    }
    let (a, b, meta) = arena.get(slot as u32);
    let first = import(base, arena, base_len, memo, imported, M::Edge::from_bits(a));
    let second = import(base, arena, base_len, memo, imported, M::Edge::from_bits(b));
    let r = base.import_node(meta, first, second);
    debug_assert!(
        !r.is_complemented(),
        "regular overlay nodes import to regular edges"
    );
    memo[slot] = r.bits();
    *imported += 1;
    r.complement_if(e.is_complemented())
}

// ─────────────────────────────── the manager ──────────────────────────────

/// A multi-core manager over a sequential backend `M`: the same canonical
/// diagrams and the same results as `M`, with
/// `apply`/`ite`/`exists`/`forall`/`and_exists` executed across a
/// fork-join worker pool when the operands are large enough to pay for it.
///
/// Results are **bit-identical regardless of thread count** — see the
/// module docs — so a `Par<M>` can replace an `M` anywhere without
/// changing a single edge a caller observes. The operations are the
/// [`RawManager`] ones; the backends name their instances `bbdd::ParBbdd`
/// and `robdd::ParRobdd`.
#[derive(Debug)]
pub struct Par<M: NodeShape> {
    inner: M,
    cfg: ParConfig,
    frame: OverlayFrame,
    stats: ParStats,
}

impl<M: NodeShape> Par<M> {
    /// Create a manager for `num_vars` variables running on up to
    /// `threads` worker threads.
    ///
    /// # Panics
    /// Panics if the backend rejects `num_vars` (0, or beyond its 16-bit
    /// index space).
    #[must_use]
    pub fn new(num_vars: usize, threads: usize) -> Self {
        Self::with_config(
            num_vars,
            ParConfig {
                threads: threads.max(1),
                ..ParConfig::default()
            },
        )
    }

    /// Create a manager reading the thread count from the `BBDD_THREADS`
    /// environment variable (falling back to `default_threads`).
    ///
    /// # Panics
    /// As [`Par::new`].
    #[must_use]
    pub fn from_env(num_vars: usize, default_threads: usize) -> Self {
        Self::new(num_vars, threads_from_env(default_threads))
    }

    /// Create a manager with explicit [`ParConfig`].
    ///
    /// # Panics
    /// As [`Par::new`].
    #[must_use]
    pub fn with_config(num_vars: usize, cfg: ParConfig) -> Self {
        Self::around(M::with_vars(num_vars), cfg)
    }

    fn around(inner: M, cfg: ParConfig) -> Self {
        Par {
            inner,
            frame: OverlayFrame::new(&cfg),
            stats: ParStats::default(),
            cfg,
        }
    }

    /// Worker threads the manager may use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Change the worker thread count (results are unaffected by
    /// construction).
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads.max(1);
    }

    /// The wrapped sequential manager (read access).
    #[must_use]
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The wrapped sequential manager (mutable access — anything done here
    /// is, of course, part of the deterministic history).
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Unwrap into the sequential manager.
    #[must_use]
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Parallel-execution counters (shard occupancy/contention, lossy
    /// cache behaviour, task distribution).
    #[must_use]
    pub fn par_stats(&self) -> ParStats {
        let mut s = self.stats.clone();
        s.cache = self.frame.cache.stats();
        s.shard_contention = self
            .frame
            .table
            .shard_stats()
            .iter()
            .map(|x| x.contended)
            .sum();
        s
    }

    /// Counters of the wrapped sequential manager.
    #[must_use]
    pub fn stats(&self) -> M::Stats {
        self.inner.stats()
    }

    /// Pin a raw edge as a GC root until the returned guard drops — the
    /// edge-level liveness primitive (handles are registered roots by
    /// construction).
    #[must_use]
    pub fn pin(&self, e: M::Edge) -> RootGuard {
        self.inner.root_registry().guard(M::edge_bits(e))
    }

    /// Garbage-collect, tracing the handle registry, and invalidate the
    /// concurrent cache; returns nodes reclaimed. Everything a live handle
    /// denotes survives.
    pub fn collect(&mut self) -> usize {
        let freed = self.inner.gc();
        self.frame.invalidate(self.inner.gc_generation());
        freed
    }

    /// Invalidate the concurrent cache if the inner manager collected
    /// since we last looked (node ids may have been recycled). Checked
    /// before every parallel phase and at every operation boundary, so
    /// even collections triggered through `inner_mut()` cannot leave
    /// stale id-keyed entries behind.
    fn sync_cache_epoch(&mut self) {
        self.frame.sync_generation(self.inner.gc_generation());
    }

    // ── operations ────────────────────────────────────────────────────
    //
    // One path per operation, under an [`OpBudget`]: below the cutoff the
    // inner manager's governed recursion runs; above it the three-phase
    // pipeline, whose workers consult the budget's stop view between
    // tasks and whose commit charges every imported node. Abort safety is
    // structural — the parallel phase only writes the overlay, which the
    // next operation recycles, and commit nodes orphaned by a mid-commit
    // abort are unreferenced, so the next GC reclaims them.

    fn apply_op(
        &mut self,
        op: BoolOp,
        f: M::Edge,
        g: M::Edge,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_apply_edge(op, f, g, budget);
        }
        self.pipeline(None, budget, |sp, depth| sp.apply(op, f, g, depth))
    }

    fn ite_op(
        &mut self,
        f: M::Edge,
        g: M::Edge,
        h: M::Edge,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        if !self.worth_splitting(&[f, g, h]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_ite_edge(f, g, h, budget);
        }
        self.pipeline(None, budget, |sp, depth| sp.ite(f, g, h, depth))
    }

    fn quant_op(
        &mut self,
        f: M::Edge,
        vars: &[usize],
        combine: BoolOp,
        tag: u32,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        if !self.worth_splitting(&[f]) {
            self.stats.ops_sequential += 1;
            return if tag == optag::EXISTS {
                self.inner.try_exists_edge(f, vars, budget)
            } else {
                self.inner.try_forall_edge(f, vars, budget)
            };
        }
        let Some(q) = self.quant_ctx(vars, combine, tag) else {
            return Ok(f);
        };
        self.pipeline(Some(&q), budget, |sp, depth| sp.quant(f, &q, depth))
    }

    fn and_exists_op(
        &mut self,
        f: M::Edge,
        g: M::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_and_exists_edge(f, g, vars, budget);
        }
        let Some(q) = self.quant_ctx(vars, BoolOp::OR, optag::EXISTS) else {
            return self.apply_op(BoolOp::AND, f, g, budget);
        };
        self.pipeline(Some(&q), budget, |sp, depth| sp.and_exists(f, g, &q, depth))
    }

    // ── pipeline internals ────────────────────────────────────────────

    /// The deterministic go/no-go: combined operand size against the
    /// cutoff. Walks at most `cutoff` nodes (early exit), so the probe
    /// costs a bounded fraction of the operation it gates; crucially it
    /// depends only on the operands, never on the thread count.
    fn worth_splitting(&self, roots: &[M::Edge]) -> bool {
        if self.cfg.cutoff == 0 {
            return true;
        }
        self.inner.live_nodes() >= self.cfg.cutoff
            && walk::visit(&self.inner, roots, self.cfg.cutoff, |_, _| {}) >= self.cfg.cutoff
    }

    fn split_depth(&self) -> u16 {
        match self.cfg.split_depth {
            Some(d) => d.max(1),
            None => {
                let t = self.cfg.threads.max(1).next_power_of_two();
                (t.trailing_zeros() as u16 + 3).min(12)
            }
        }
    }

    /// The quantification context, built in the inner manager *before*
    /// the freeze (a deterministic prologue).
    fn quant_ctx(&mut self, vars: &[usize], combine: BoolOp, tag: u32) -> Option<PQuant> {
        self.inner.quant_cube(vars).map(|c| PQuant {
            in_cube: c.in_cube,
            floor: c.floor,
            cube_bits: u64::from(c.cube.bits()),
            combine,
            tag,
        })
    }

    /// Phase 1 (the split), then phases 2 + 3.
    fn pipeline(
        &mut self,
        quant: Option<&PQuant>,
        budget: &mut OpBudget,
        split: impl FnOnce(&mut Splitter<'_, M>, u16) -> Plan<M::Edge>,
    ) -> Result<M::Edge, OpAbort> {
        let depth = self.split_depth();
        let mut sp = Splitter {
            base: &mut self.inner,
            tasks: Vec::new(),
            dedup: FxHashMap::default(),
        };
        let plan = split(&mut sp, depth);
        let tasks = sp.tasks;
        self.execute(&plan, &tasks, quant, budget)
    }

    /// Phases 2 + 3: run the leaf tasks fork-join style over the frozen
    /// base, then commit deterministically (import + combine).
    ///
    /// The fork-join phase stops cooperatively: workers consult the
    /// budget's stop view *between tasks* (overlay growth counts against
    /// the node headroom), so the abort latency of the parallel phase is
    /// bounded by the tasks in flight when the condition turns true. On a
    /// stop the base manager has not been touched, so `Err` here is
    /// trivially abort-safe. The commit charges every imported node
    /// against the budget (per leaf, in bulk).
    fn execute(
        &mut self,
        plan: &Plan<M::Edge>,
        tasks: &[Task<M::Edge>],
        quant: Option<&PQuant>,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        // Catch any inner-manager collection this wrapper did not perform
        // itself before trusting id-keyed cache entries.
        self.sync_cache_epoch();
        let view = budget.stop_view();
        if let Some(reason) = view.should_stop(0) {
            return Err(reason);
        }
        if tasks.is_empty() {
            // Everything resolved during the split; the combine tree may
            // still join Done edges.
            return self.resolve(plan, &[], budget);
        }
        self.stats.ops_parallel += 1;
        // Freeze the base: workers read `inner` only. Recycle the overlay
        // workspace from the previous operation (cached overlay ids die
        // with the arena reset, so the cache epoch must move too).
        self.frame.recycle();
        self.frame.cache.bump_epoch();
        let base_len = self.inner.node_slots();
        let results: Vec<AtomicU64> = tasks.iter().map(|_| AtomicU64::new(0)).collect();
        let recursions = AtomicU64::new(0);
        let limited = view.is_limited();
        let (fj, stopped) = {
            let mut phase = obs::span(Op::ParPhase);
            phase.set_arg("tasks", tasks.len() as u64);
            let engine = Engine {
                ov: Overlay {
                    base: &self.inner,
                    base_len,
                    table: &self.frame.table,
                    arena: &self.frame.arena,
                },
                cache: &self.frame.cache,
                quant,
            };
            let arena = &self.frame.arena;
            match try_fork_join_governed(
                self.cfg.threads,
                tasks.len(),
                || limited && view.should_stop(u64::from(arena.len())).is_some(),
                |i| {
                    let (r, calls) = engine.run_task(&tasks[i]);
                    results[i].store(u64::from(r.bits()), Ordering::Release);
                    recursions.fetch_add(calls, Ordering::Relaxed);
                },
            ) {
                Ok(x) => x,
                Err(p) => panic!("{p}"),
            }
        };
        self.stats.tasks_executed += fj.executed.iter().sum::<u64>();
        self.stats.tasks_stolen += fj.stolen;
        if self.stats.tasks_by_worker.len() < fj.executed.len() {
            self.stats.tasks_by_worker.resize(fj.executed.len(), 0);
        }
        for (slot, n) in self.stats.tasks_by_worker.iter_mut().zip(&fj.executed) {
            *slot += n;
        }
        self.stats.par_recursions += recursions.load(Ordering::Relaxed);
        self.stats.overlay_nodes += u64::from(self.frame.arena.len());
        self.stats.last_shard_occupancy = self
            .frame
            .table
            .shard_stats()
            .iter()
            .map(|s| s.len)
            .collect();
        if stopped {
            // Unclaimed result slots hold garbage; nothing reads them.
            return Err(view
                .should_stop(u64::from(self.frame.arena.len()))
                .unwrap_or(OpAbort::Cancelled));
        }
        // Deterministic commit: import each leaf result (depth-first over
        // the canonical overlay graph, fixed task order), then resolve the
        // combine tree.
        let mut commit = obs::span(Op::ParCommit);
        let memo = &mut self.frame.memo;
        memo.clear();
        memo.resize(self.frame.arena.len() as usize, NOT_IMPORTED);
        let mut imported = 0u64;
        let mut leaf_edges = Vec::with_capacity(results.len());
        let mut abort = None;
        for slot in &results {
            let e = M::Edge::from_bits(slot.load(Ordering::Acquire) as u32);
            let before = imported;
            leaf_edges.push(import(
                &mut self.inner,
                &self.frame.arena,
                base_len,
                memo,
                &mut imported,
                e,
            ));
            if let Err(reason) = budget.charge(imported - before) {
                abort = Some(reason);
                break;
            }
        }
        self.stats.nodes_imported += imported;
        if let Some(reason) = abort {
            return Err(reason);
        }
        commit.set_arg("imported", imported);
        self.resolve(plan, &leaf_edges, budget)
    }

    /// Resolve the combine tree bottom-up in the backend's apply order:
    /// structural joins poll the budget before each `make_node`, operator
    /// joins run the full (possibly parallel) apply.
    fn resolve(
        &mut self,
        plan: &Plan<M::Edge>,
        leaf_edges: &[M::Edge],
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        match plan {
            Plan::Done(e) => Ok(*e),
            Plan::Leaf(i) => Ok(leaf_edges[*i]),
            Plan::Join { how, first, second } => {
                let (a, b) = if M::APPLY_SECOND_FIRST {
                    let b = self.resolve(second, leaf_edges, budget)?;
                    (self.resolve(first, leaf_edges, budget)?, b)
                } else {
                    let a = self.resolve(first, leaf_edges, budget)?;
                    (a, self.resolve(second, leaf_edges, budget)?)
                };
                match how {
                    Combine::Node(top) => {
                        budget.checkpoint()?;
                        Ok(self.inner.base_node(*top, a, b))
                    }
                    Combine::Op(op) => self.apply_op(*op, a, b, budget),
                }
            }
        }
    }
}

// ───────────────────────────── backend traits ─────────────────────────────

impl<M: NodeShape> RawManager for Par<M> {
    type Edge = M::Edge;

    /// Default-configured parallel backend; the thread count comes from
    /// `BBDD_THREADS` (falling back to 4).
    fn with_vars(num_vars: usize) -> Self {
        Par::from_env(num_vars, 4)
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn root_registry(&self) -> &RootSet {
        self.inner.root_registry()
    }

    fn edge_bits(e: M::Edge) -> u64 {
        M::edge_bits(e)
    }

    fn constant_edge(&self, value: bool) -> M::Edge {
        self.inner.constant_edge(value)
    }

    fn var_edge(&mut self, var: usize) -> M::Edge {
        self.inner.var_edge(var)
    }

    fn try_apply_edge(
        &mut self,
        op: BoolOp,
        f: M::Edge,
        g: M::Edge,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        self.apply_op(op, f, g, budget)
    }

    fn try_ite_edge(
        &mut self,
        f: M::Edge,
        g: M::Edge,
        h: M::Edge,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        self.ite_op(f, g, h, budget)
    }

    fn try_exists_edge(
        &mut self,
        f: M::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        self.quant_op(f, vars, BoolOp::OR, optag::EXISTS, budget)
    }

    fn try_forall_edge(
        &mut self,
        f: M::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        self.quant_op(f, vars, BoolOp::AND, optag::FORALL, budget)
    }

    fn try_and_exists_edge(
        &mut self,
        f: M::Edge,
        g: M::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        self.and_exists_op(f, g, vars, budget)
    }

    // The remaining ops have no parallel phase; they run on the wrapped
    // sequential manager and are part of the same deterministic history.

    fn restrict_edge(&mut self, f: M::Edge, var: usize, value: bool) -> M::Edge {
        self.inner.restrict_edge(f, var, value)
    }

    fn try_compose_edge(
        &mut self,
        f: M::Edge,
        var: usize,
        g: M::Edge,
        budget: &mut OpBudget,
    ) -> Result<M::Edge, OpAbort> {
        self.inner.try_compose_edge(f, var, g, budget)
    }

    fn vector_compose_edge(&mut self, f: M::Edge, subs: &[Option<M::Edge>]) -> M::Edge {
        self.inner.vector_compose_edge(f, subs)
    }

    fn eval_edge(&self, f: M::Edge, assignment: &[bool]) -> bool {
        self.inner.eval_edge(f, assignment)
    }

    fn try_sat_count_edge(&self, f: M::Edge, budget: &mut OpBudget) -> Result<u128, OpAbort> {
        self.inner.try_sat_count_edge(f, budget)
    }

    fn any_sat_edge(&self, f: M::Edge) -> Option<Vec<bool>> {
        self.inner.any_sat_edge(f)
    }

    fn all_sat_edge(&self, f: M::Edge, limit: usize) -> Vec<Vec<bool>> {
        self.inner.all_sat_edge(f, limit)
    }

    fn shared_node_count_edges(&self, roots: &[M::Edge]) -> usize {
        self.inner.shared_node_count_edges(roots)
    }

    fn support_edge(&mut self, f: M::Edge) -> Vec<usize> {
        self.inner.support_edge(f)
    }

    fn to_dot_edges(&self, roots: &[M::Edge], names: &[&str]) -> String {
        self.inner.to_dot_edges(roots, names)
    }

    fn level_profile_edges(&self, roots: &[M::Edge]) -> Option<Vec<usize>> {
        self.inner.level_profile_edges(roots)
    }

    /// The handle boundary of the parallel front-end: run the latched
    /// automatic GC (the result was registered first — the merge-GC
    /// pinning rule: an automatic collection latched during the commit
    /// must not fire before the result is registered), then sync the
    /// concurrent-cache epoch so a collection through *any* path
    /// invalidates the id-keyed lossy cache.
    fn after_op(&mut self) {
        self.inner.after_op();
        self.sync_cache_epoch();
    }

    fn gc(&mut self) -> usize {
        self.collect()
    }

    fn set_gc_threshold(&mut self, threshold: usize) {
        self.inner.set_gc_threshold(threshold);
    }

    fn gc_threshold(&self) -> usize {
        self.inner.gc_threshold()
    }

    fn live_nodes(&self) -> usize {
        self.inner.live_nodes()
    }

    /// Reordering on the parallel front-end delegates to the inner
    /// sequential manager. `&mut self` guarantees a quiescent point (no
    /// fork-join op in flight can hold overlay edges), and the sift's own
    /// collections advance the GC generation, so the epoch sync below
    /// invalidates the id-keyed concurrent cache exactly as a collection
    /// through any other path would.
    fn reorder_with(
        &mut self,
        strategy: DvoStrategy,
        budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>> {
        let r = self.inner.reorder_with(strategy, budget);
        self.sync_cache_epoch();
        r
    }

    fn set_reorder_policy(&mut self, policy: Option<DvoPolicy>) {
        self.inner.set_reorder_policy(policy);
    }

    fn reorder_policy(&self) -> Option<DvoPolicy> {
        self.inner.reorder_policy()
    }

    fn reorder_if_needed_bounded(&mut self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        let r = self.inner.reorder_if_needed_bounded(budget);
        self.sync_cache_epoch();
        r
    }

    fn set_order(&mut self, order: &[usize]) -> bool {
        let ok = self.inner.set_order(order);
        // Installing an order swaps without collecting, so the GC
        // generation may not have moved — collect explicitly to force the
        // epoch bump (a cold pre-build path).
        self.collect();
        ok
    }

    fn variable_order(&self) -> Vec<usize> {
        self.inner.variable_order()
    }

    fn stats_line(&self) -> String {
        let s = self.inner.observe();
        let count = |name| s.get(name).unwrap_or(0);
        let p = self.par_stats();
        format!(
            "{}: {} apply calls, {} nodes created, {} GCs, {} parallel ops \
             ({} sequential fallback), {} leaf tasks",
            M::PAR_NAME,
            count("ops.apply"),
            count("nodes.created"),
            count("gc.runs"),
            p.ops_parallel,
            p.ops_sequential,
            p.tasks_executed
        )
    }

    fn observe(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new(M::PAR_NAME);
        let p = self.par_stats();
        // One unified cache.* section: the lock-free concurrent cache's
        // counters are folded into the inner sequential cache's.
        let f = &self.frame;
        let overlay = MemBytes {
            arena: f.arena.heap_bytes() + f.memo.capacity() * std::mem::size_of::<u32>(),
            table: f.table.heap_bytes(),
            cache: f.cache.heap_bytes(),
        };
        self.inner.fill_par_metrics(&mut m, p.cache, overlay);
        m.counter("par.ops_parallel", p.ops_parallel);
        m.counter("par.ops_sequential", p.ops_sequential);
        m.counter("par.tasks_executed", p.tasks_executed);
        m.counter("par.tasks_stolen", p.tasks_stolen);
        m.counter("par.recursions", p.par_recursions);
        m.counter("par.nodes_imported", p.nodes_imported);
        m.counter("par.overlay_nodes", p.overlay_nodes);
        m.counter("par.shard_contention", p.shard_contention);
        m
    }

    fn note_governed(&mut self, checkpoints: u64, abort: Option<OpAbort>) {
        self.inner.note_governed(checkpoints, abort);
    }
}

impl<M: NodeShape + SessionBackend> SessionBackend for Par<M> {
    /// A private copy for the session layer: the sequential manager's node
    /// store is forked, the overlay frame starts fresh (it is per-op
    /// scratch, recycled at every parallel phase anyway).
    fn fork(&self) -> Self {
        Self::around(self.inner.fork(), self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_frame_lifecycle() {
        #[derive(Clone, Copy, PartialEq, Eq)]
        struct K(u64);
        impl TableKey for K {
            fn table_hash(&self, _h: &crate::cantor::CantorHasher) -> u64 {
                self.0
            }
        }
        let cfg = ParConfig {
            shards: 4,
            cache_ways: 1 << 10,
            ..ParConfig::default()
        };
        let mut f = OverlayFrame::new(&cfg);
        assert_eq!(f.arena.len(), 0);
        let i = f.arena.alloc(1, 2, 3);
        f.table.get_or_insert_with(K(7), &vec![K(7)], || i);
        assert_eq!(f.arena.len(), 1);
        f.recycle();
        assert_eq!(f.arena.len(), 0);
        assert_eq!(f.table.len(), 0);
        assert!(!f.sync_generation(0), "generation unchanged → no bump");
        assert!(f.sync_generation(3), "a collection happened → bump");
        assert!(!f.sync_generation(3));
    }
}
