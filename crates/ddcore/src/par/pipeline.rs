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
//! The workers run the kernel's own recursions (apply, ite, quantification
//! and and-exists, written once in the crate-private `manager::rec`) over
//! a context whose node store is the frozen base plus overlay (a
//! node store on which the same shape rules run), whose cache is the
//! lossy [`AtomicCache`], whose checkpoint never stops (workers stop
//! between tasks) and whose counters feed `par.recursions`. The split
//! phase resolves the same terminal cases. What is left here is the
//! phases and the budget handling. Every operation takes an
//! [`OpBudget`]; the infallible forms pass [`OpBudget::unlimited`].

use super::{
    threads_from_env, try_fork_join_governed, AtomicCache, OverlayArena, ParConfig, ParStats,
    ShardedTable,
};
use crate::api::RawManager;
use crate::boolop::BoolOp;
use crate::cantor::CantorHasher;
use crate::dvo::{DvoPolicy, DvoStrategy};
use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::govern::{OpAbort, OpBudget};
use crate::manager::rec::{self, AndExistsCase, Count, IteCase, QuantCube, Rec};
use crate::manager::{Key, Manager, Node, NodeStore, Shape, Stats};
use crate::obs::{self, MemBytes, MetricsSnapshot, Op};
use crate::optag;
use crate::roots::{RootGuard, RootSet};
use crate::session::SessionBackend;
use crate::table::{KeyStore, TableKey};
use crate::walk::{self, NodeGraph};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

// ───────────────────────────── node shape ─────────────────────────────────

/// A sequential manager [`Par`] can wrap: a kernel [`Manager`] of some
/// node shape ([`crate::bbdd::Bbdd`] or [`crate::robdd::Robdd`]).
/// Implemented once, for every `Manager<S>`; everything that differs
/// between the node shapes is a hook of the crate-private shape trait.
/// Apply and ite, their split and the combine-tree resolve follow the
/// shape's `APPLY_SECOND_FIRST`, the quantifying recursions take the
/// first cofactor first — each backend's sequential order. The pipeline
/// still commits node ids of its own: it imports each leaf result first
/// child first, and it computes quantified halves the sequential
/// recursion would skip, so its ids may differ from the sequential
/// manager's (the functions and their sizes do not).
pub trait NodeShape: RawManager<Edge = Edge> + NodeGraph + Sync {
    /// The node shape.
    type Shape: Shape;

    /// This manager as the kernel it is.
    fn kernel(&self) -> &Manager<Self::Shape>;

    /// This manager as the kernel it is (mutable).
    fn kernel_mut(&mut self) -> &mut Manager<Self::Shape>;
}

impl<S: Shape> NodeShape for Manager<S> {
    type Shape = S;

    fn kernel(&self) -> &Self {
        self
    }

    fn kernel_mut(&mut self) -> &mut Self {
        self
    }
}

/// Overlay unique-table key: a node's top plus its per-top key, one key
/// space across all tops.
#[derive(Clone, Copy, PartialEq, Eq)]
struct OverlayKey<S> {
    top: u16,
    key: Key<S>,
}

impl<S> OverlayKey<S> {
    #[inline]
    fn of(words: (u32, u32, u32)) -> Self {
        let node = Node::from_words(words);
        OverlayKey {
            top: node.top(),
            key: node.key(),
        }
    }
}

impl<S: Shape> TableKey for OverlayKey<S> {
    #[inline]
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        S::overlay_hash(self.key.bits(), self.top, h)
    }
}

/// One worker's recursion context in the parallel phase. Its node store
/// is the frozen base manager plus the overlay storage, where the shape's
/// node rules read and create nodes. Its cache is the lossy concurrent
/// one. It has no checkpoint (workers consult the budget between tasks)
/// and one tally of recursion entries (`par.recursions`). Every task runs
/// on a fresh copy.
#[derive(Clone, Copy)]
struct Worker<'a, S: Shape> {
    base: &'a Manager<S>,
    /// Arena length at freeze time; ids `>= base_len` live in the overlay.
    base_len: u32,
    table: &'a ShardedTable,
    arena: &'a OverlayArena,
    cache: &'a AtomicCache,
    quant: Option<&'a QuantCube>,
    calls: u64,
}

/// The overlay table's key store: an overlay id's key comes from its
/// record's words.
impl<S: Shape> KeyStore<OverlayKey<S>> for Worker<'_, S> {
    #[inline]
    fn key_of(&self, id: u32) -> OverlayKey<S> {
        OverlayKey::of(self.words(id))
    }
}

impl<S: Shape> NodeStore for Worker<'_, S> {
    /// The words of node `id`, base or overlay.
    #[inline]
    fn words(&self, id: u32) -> (u32, u32, u32) {
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
    fn find_or_insert(&mut self, words: (u32, u32, u32)) -> u32 {
        let key = OverlayKey::of(words);
        // A frozen base node has only base children, so a key with an
        // overlay child can never hit the base tables.
        let in_base = |w: u32| Edge::from_bits(w).node() < self.base_len;
        if in_base(words.0) && in_base(words.1) {
            if let Some(id) = self.base.peek(key.top, key.key) {
                return id;
            }
        }
        self.table.get_or_insert_with(key, &*self, || {
            self.base_len + self.arena.alloc(words.0, words.1, words.2)
        })
    }
}

impl<S: Shape> Rec for Worker<'_, S> {
    type Shape = S;
    type Budget = ();
    type Abort = Infallible;

    #[inline]
    fn base(&self) -> &Manager<S> {
        self.base
    }

    #[inline]
    fn cache_get(&mut self, k1: u64, k2: u64, tag: u32) -> Option<Edge> {
        self.cache.get(k1, k2, tag).map(Edge::from_bits)
    }

    #[inline]
    fn cache_insert(&mut self, k1: u64, k2: u64, tag: u32, r: Edge) {
        self.cache.insert(k1, k2, tag, r.bits());
    }

    #[inline]
    fn checkpoint((): &mut ()) -> Result<(), Infallible> {
        Ok(())
    }

    #[inline]
    fn count(&mut self, _: Count) {
        self.calls += 1;
    }
}

impl<S: Shape> Worker<'_, S> {
    /// Run one leaf task on a fresh copy; returns its result and recursion
    /// count.
    fn run_task(&self, t: &Task) -> (Edge, u64) {
        let w = &mut Worker { calls: 0, ..*self };
        let quant = || self.quant.expect("quantifying task without a cube");
        let Ok(r) = match *t {
            Task::Apply(op, f, g) => rec::apply(w, &mut (), op, f, g),
            Task::Ite(f, g, h) => rec::ite(w, &mut (), f, g, h),
            Task::Quant(f) => rec::quant(w, &mut (), f, quant()),
            Task::AndExists(f, g) => rec::and_exists(w, &mut (), f, g, quant()),
        };
        (r, w.calls)
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

/// A leaf subproblem of the split phase; equal tasks are interned once
/// (a quantifying operation's cube is the same for all its tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Task {
    Apply(BoolOp, Edge, Edge),
    Ite(Edge, Edge, Edge),
    Quant(Edge),
    AndExists(Edge, Edge),
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
enum Plan {
    /// Resolved during the split (terminal case).
    Done(Edge),
    /// Index into the task list.
    Leaf(usize),
    /// Join of two subplans, in `make_node` order.
    Join {
        how: Combine,
        first: Box<Plan>,
        second: Box<Plan>,
    },
}

fn join(how: Combine, (first, second): (Plan, Plan)) -> Plan {
    Plan::Join {
        how,
        first: Box::new(first),
        second: Box::new(second),
    }
}

// ──────────────────────────────── split ───────────────────────────────────

/// How a quantifying split joins the two halves at `top`, or `None` when
/// the subproblem stays one leaf: at depth 0, and in the chain case, whose
/// `ite` re-expansion would mutate the base mid-split. A quantified top
/// joins with the combine operator (a full parallel apply at resolve
/// time), any other with `make_node`.
fn quant_join<S: Shape>(q: &QuantCube, top: u16, depth: u16) -> Option<Combine> {
    if depth == 0 {
        None
    } else if q.in_cube[usize::from(top)] {
        Some(Combine::Op(q.combine))
    } else if S::chain_partner(top, &q.in_cube).is_some() {
        None
    } else {
        Some(Combine::Node(top))
    }
}

/// The split phase: cofactors the operands in the base manager down to
/// `depth`, interning the leaves.
struct Splitter<'a, S: Shape> {
    base: &'a mut Manager<S>,
    tasks: Vec<Task>,
    dedup: FxHashMap<Task, usize>,
}

impl<S: Shape> Splitter<'_, S> {
    fn leaf(&mut self, task: Task) -> Plan {
        let tasks = &mut self.tasks;
        let idx = *self.dedup.entry(task).or_insert_with(|| {
            tasks.push(task);
            tasks.len() - 1
        });
        Plan::Leaf(idx)
    }

    fn apply(&mut self, op: BoolOp, f: Edge, g: Edge, depth: u16) -> Plan {
        if let Some(r) = rec::apply_terminal(op, f, g) {
            return Plan::Done(r);
        }
        if depth == 0 {
            return self.leaf(Task::Apply(op, f, g));
        }
        let top = self.base.upper(self.base.top(f), self.base.top(g));
        let (fa, fb) = self.base.cofactors(f, top);
        let (ga, gb) = self.base.cofactors(g, top);
        let children = if S::APPLY_SECOND_FIRST {
            let second = self.apply(op, fb, gb, depth - 1);
            (self.apply(op, fa, ga, depth - 1), second)
        } else {
            let first = self.apply(op, fa, ga, depth - 1);
            (first, self.apply(op, fb, gb, depth - 1))
        };
        join(Combine::Node(top), children)
    }

    fn ite(&mut self, f: Edge, g: Edge, h: Edge, depth: u16) -> Plan {
        match rec::ite_terminal(f, g, h) {
            Some(IteCase::Done(r)) => return Plan::Done(r),
            Some(IteCase::Apply(op, x, y)) => return self.apply(op, x, y, depth),
            None => {}
        }
        if depth == 0 {
            return self.leaf(Task::Ite(f, g, h));
        }
        let top = rec::ite_top(&*self.base, f, g, h);
        let (fa, fb) = self.base.cofactors(f, top);
        let (ga, gb) = self.base.cofactors(g, top);
        let (ha, hb) = self.base.cofactors(h, top);
        let children = if S::APPLY_SECOND_FIRST {
            let second = self.ite(fb, gb, hb, depth - 1);
            (self.ite(fa, ga, ha, depth - 1), second)
        } else {
            let first = self.ite(fa, ga, ha, depth - 1);
            (first, self.ite(fb, gb, hb, depth - 1))
        };
        join(Combine::Node(top), children)
    }

    fn quant(&mut self, f: Edge, q: &QuantCube, depth: u16) -> Plan {
        let Some(top) = rec::quant_top(&*self.base, f, q) else {
            return Plan::Done(f);
        };
        let Some(how) = quant_join::<S>(q, top, depth) else {
            return self.leaf(Task::Quant(f));
        };
        let (fa, fb) = self.base.cofactors(f, top);
        let first = self.quant(fa, q, depth - 1);
        let second = self.quant(fb, q, depth - 1);
        join(how, (first, second))
    }

    fn and_exists(&mut self, f: Edge, g: Edge, q: &QuantCube, depth: u16) -> Plan {
        let (f, g, top) = match rec::and_exists_case(&*self.base, f, g, q) {
            AndExistsCase::Zero => return Plan::Done(Edge::ZERO),
            AndExistsCase::Quant(e) => return self.quant(e, q, depth),
            AndExistsCase::And(f, g) => return self.apply(BoolOp::AND, f, g, depth),
            AndExistsCase::Expand(f, g, top) => (f, g, top),
        };
        let Some(how) = quant_join::<S>(q, top, depth) else {
            return self.leaf(Task::AndExists(f, g));
        };
        let (fa, fb) = self.base.cofactors(f, top);
        let (ga, gb) = self.base.cofactors(g, top);
        let first = self.and_exists(fa, ga, q, depth - 1);
        let second = self.and_exists(fb, gb, q, depth - 1);
        join(how, (first, second))
    }
}

/// Commit one overlay edge into the base manager (memoized depth-first
/// rebuild, first child before second, through the base `make_node`).
/// `memo` holds one entry per overlay slot;
/// `imported` counts the slots this call filled.
fn import<S: Shape>(
    base: &mut Manager<S>,
    arena: &OverlayArena,
    base_len: u32,
    memo: &mut [u32],
    imported: &mut u64,
    e: Edge,
) -> Edge {
    if e.is_constant() || e.node() < base_len {
        return e;
    }
    let slot = (e.node() - base_len) as usize;
    if memo[slot] != NOT_IMPORTED {
        return Edge::from_bits(memo[slot]).complement_if(e.is_complemented());
    }
    let (a, b, meta) = arena.get(slot as u32);
    let first = import(base, arena, base_len, memo, imported, Edge::from_bits(a));
    let second = import(base, arena, base_len, memo, imported, Edge::from_bits(b));
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
/// Results are **bit-identical regardless of thread count** (see the
/// module docs). Against `M` itself a `Par<M>` gives the same functions
/// and the same canonical sizes, but node ids, and so raw edge bits, may
/// differ from the ones `M` would hand out. The operations are the
/// [`RawManager`] ones; the backends name their instances
/// `ddcore::bbdd::ParBbdd` and `ddcore::robdd::ParRobdd`.
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
    pub fn stats(&self) -> Stats {
        self.inner.kernel().stats()
    }

    /// Pin a raw edge as a GC root until the returned guard drops — the
    /// edge-level liveness primitive (handles are registered roots by
    /// construction).
    #[must_use]
    pub fn pin(&self, e: Edge) -> RootGuard {
        self.inner.root_registry().guard(M::edge_bits(e))
    }

    /// Garbage-collect, tracing the handle registry, and invalidate the
    /// concurrent cache; returns nodes reclaimed. Everything a live handle
    /// denotes survives.
    pub fn collect(&mut self) -> usize {
        let freed = self.inner.gc();
        self.frame.invalidate(self.inner.kernel().gc_generation());
        freed
    }

    /// Invalidate the concurrent cache if the inner manager collected
    /// since we last looked (node ids may have been recycled). Checked
    /// before every parallel phase and at every operation boundary, so
    /// even collections triggered through `inner_mut()` cannot leave
    /// stale id-keyed entries behind.
    fn sync_cache_epoch(&mut self) {
        self.frame
            .sync_generation(self.inner.kernel().gc_generation());
    }

    // ── operations ────────────────────────────────────────────────────
    //
    // `quant_op` and the parallel `RawManager` operations below take one
    // path each, under an [`OpBudget`]: below the cutoff the inner
    // manager's governed recursion runs; above it the three-phase pipeline, whose workers consult the budget's stop view
    // between tasks and whose commit charges every imported node. Abort
    // safety is structural — the parallel phase only writes the overlay,
    // which the next operation recycles, and commit nodes orphaned by a
    // mid-commit abort are unreferenced, so the next GC reclaims them.

    fn quant_op(
        &mut self,
        f: Edge,
        vars: &[usize],
        combine: BoolOp,
        tag: u32,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !self.worth_splitting(&[f]) {
            self.stats.ops_sequential += 1;
            return if tag == optag::EXISTS {
                self.inner.try_exists_edge(f, vars, budget)
            } else {
                self.inner.try_forall_edge(f, vars, budget)
            };
        }
        let Some(q) = self.inner.kernel_mut().quant_cube(vars, combine, tag) else {
            return Ok(f);
        };
        self.pipeline(Some(&q), budget, |sp, depth| sp.quant(f, &q, depth))
    }

    // ── pipeline internals ────────────────────────────────────────────

    /// The deterministic go/no-go: combined operand size against the
    /// cutoff. Walks at most `cutoff` nodes (early exit), so the probe
    /// costs a bounded fraction of the operation it gates; crucially it
    /// depends only on the operands, never on the thread count.
    fn worth_splitting(&self, roots: &[Edge]) -> bool {
        let _split = obs::span(Op::ParSplit);
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

    /// Phase 1 (the split), then phases 2 + 3.
    fn pipeline(
        &mut self,
        quant: Option<&QuantCube>,
        budget: &mut OpBudget,
        split: impl FnOnce(&mut Splitter<'_, M::Shape>, u16) -> Plan,
    ) -> Result<Edge, OpAbort> {
        let depth = self.split_depth();
        let span = obs::span(Op::ParSplit);
        let mut sp = Splitter {
            base: self.inner.kernel_mut(),
            tasks: Vec::new(),
            dedup: FxHashMap::default(),
        };
        let plan = split(&mut sp, depth);
        let tasks = sp.tasks;
        drop(span);
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
        plan: &Plan,
        tasks: &[Task],
        quant: Option<&QuantCube>,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
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
            let worker = Worker {
                base: self.inner.kernel(),
                base_len,
                table: &self.frame.table,
                arena: &self.frame.arena,
                cache: &self.frame.cache,
                quant,
                calls: 0,
            };
            let arena = &self.frame.arena;
            match try_fork_join_governed(
                self.cfg.threads,
                tasks.len(),
                || limited && view.should_stop(u64::from(arena.len())).is_some(),
                |i| {
                    let (r, calls) = worker.run_task(&tasks[i]);
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
            let e = Edge::from_bits(slot.load(Ordering::Acquire) as u32);
            let before = imported;
            leaf_edges.push(import(
                self.inner.kernel_mut(),
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
        plan: &Plan,
        leaf_edges: &[Edge],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        match plan {
            Plan::Done(e) => Ok(*e),
            Plan::Leaf(i) => Ok(leaf_edges[*i]),
            Plan::Join { how, first, second } => {
                let (a, b) = if M::Shape::APPLY_SECOND_FIRST {
                    let b = self.resolve(second, leaf_edges, budget)?;
                    (self.resolve(first, leaf_edges, budget)?, b)
                } else {
                    let a = self.resolve(first, leaf_edges, budget)?;
                    (a, self.resolve(second, leaf_edges, budget)?)
                };
                match how {
                    Combine::Node(top) => {
                        budget.checkpoint()?;
                        Ok(self.inner.kernel_mut().make_node(*top, a, b))
                    }
                    Combine::Op(op) => self.try_apply_edge(*op, a, b, budget),
                }
            }
        }
    }
}

// ───────────────────────────── backend traits ─────────────────────────────

impl<M: NodeShape> RawManager for Par<M> {
    type Edge = Edge;

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

    fn edge_bits(e: Edge) -> u64 {
        M::edge_bits(e)
    }

    fn constant_edge(&self, value: bool) -> Edge {
        self.inner.constant_edge(value)
    }

    fn var_edge(&mut self, var: usize) -> Edge {
        self.inner.var_edge(var)
    }

    fn try_apply_edge(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_apply_edge(op, f, g, budget);
        }
        self.pipeline(None, budget, |sp, depth| sp.apply(op, f, g, depth))
    }

    fn try_ite_edge(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !self.worth_splitting(&[f, g, h]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_ite_edge(f, g, h, budget);
        }
        self.pipeline(None, budget, |sp, depth| sp.ite(f, g, h, depth))
    }

    fn try_exists_edge(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.quant_op(f, vars, BoolOp::OR, optag::EXISTS, budget)
    }

    fn try_forall_edge(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.quant_op(f, vars, BoolOp::AND, optag::FORALL, budget)
    }

    fn try_and_exists_edge(
        &mut self,
        f: Edge,
        g: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_and_exists_edge(f, g, vars, budget);
        }
        let Some(q) = self
            .inner
            .kernel_mut()
            .quant_cube(vars, BoolOp::OR, optag::EXISTS)
        else {
            return self.try_apply_edge(BoolOp::AND, f, g, budget);
        };
        self.pipeline(Some(&q), budget, |sp, depth| sp.and_exists(f, g, &q, depth))
    }

    // The remaining ops have no parallel phase; they run on the wrapped
    // sequential manager and are part of the same deterministic history.

    fn try_restrict_edge(
        &mut self,
        f: Edge,
        var: usize,
        value: bool,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.inner.try_restrict_edge(f, var, value, budget)
    }

    fn try_compose_edge(
        &mut self,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.inner.try_compose_edge(f, var, g, budget)
    }

    fn try_vector_compose_edge(
        &mut self,
        f: Edge,
        subs: &[Option<Edge>],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.inner.try_vector_compose_edge(f, subs, budget)
    }

    fn eval_edge(&self, f: Edge, assignment: &[bool]) -> bool {
        self.inner.eval_edge(f, assignment)
    }

    fn try_sat_count_edge(&self, f: Edge, budget: &mut OpBudget) -> Result<u128, OpAbort> {
        self.inner.try_sat_count_edge(f, budget)
    }

    fn any_sat_edge(&self, f: Edge) -> Option<Vec<bool>> {
        self.inner.any_sat_edge(f)
    }

    fn all_sat_edge(&self, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        self.inner.all_sat_edge(f, limit)
    }

    fn shared_node_count_edges(&self, roots: &[Edge]) -> usize {
        self.inner.shared_node_count_edges(roots)
    }

    fn support_edge(&mut self, f: Edge) -> Vec<usize> {
        self.inner.support_edge(f)
    }

    fn to_dot_edges(&self, roots: &[Edge], names: &[&str]) -> String {
        self.inner.to_dot_edges(roots, names)
    }

    fn level_profile_edges(&self, roots: &[Edge]) -> Option<Vec<usize>> {
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
            M::Shape::PAR_NAME,
            count("ops.apply"),
            count("nodes.created"),
            count("gc.runs"),
            p.ops_parallel,
            p.ops_sequential,
            p.tasks_executed
        )
    }

    fn observe(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new(M::Shape::PAR_NAME);
        let p = self.par_stats();
        // One unified cache.* section: the lock-free concurrent cache's
        // counters are folded into the inner sequential cache's.
        let f = &self.frame;
        let overlay = MemBytes {
            arena: f.arena.heap_bytes() + f.memo.capacity() * std::mem::size_of::<u32>(),
            table: f.table.heap_bytes(),
            cache: f.cache.heap_bytes(),
        };
        self.inner
            .kernel()
            .fill_metrics(&mut m, Some(p.cache), overlay);
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
