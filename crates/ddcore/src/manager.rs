//! The sequential manager kernel: [`Manager<S>`], one CUDD-style package
//! for every node shape.
//!
//! The BBDD package and its ROBDD baseline differ only in node semantics —
//! the reduction rules inside `make_node`, the cofactors at a node's top,
//! the apply/ite recursion order and the variable swap. Everything else is
//! one design and lives here, written once: the node arena and free list,
//! the per-top unique subtables (a *top* is a BBDD level or a ROBDD
//! variable), the live count and the variable order, the computed cache,
//! mark/sweep GC over the handle registry, the sift-scoped reference
//! counts, metrics, the DVO schedule, validation, the recursive operations
//! ([`ops`]; apply, ite and quantification recur in `rec`, shared with the
//! parallel workers) and the `RawManager`, `ReorderBackend`, `NodeGraph`,
//! `SessionBackend` and `NodeShape` impls. A [`Shape`] supplies the rest;
//! [`crate::bbdd::Bbdd`] and [`crate::robdd::Robdd`] are
//! `Manager<BbddShape>` and `Manager<RobddShape>`.
//!
//! The module is private: the shapes live in this crate, so the arena,
//! the node layout and the kernel helpers are crate-private, and
//! [`Shape`] cannot be named, implemented or called outside it.

use crate::api::RawManager;
use crate::boolop::BoolOp;
use crate::cache::ComputedCache;
use crate::cantor::CantorHasher;
use crate::dvo::{DvoPolicy, DvoState, DvoStrategy, ReorderBackend, SiftRefs};
use crate::edge::Edge;
use crate::govern::{OpAbort, OpBudget};
use crate::obs::{self, GovernCounters, MemBytes, MetricsSnapshot};
use crate::par::AtomicCacheStats;
use crate::roots::{GcLatch, RootGuard, RootSet};
use crate::session::SessionBackend;
use crate::table::{KeyStore, TableKey, UniqueTable};
use crate::walk::{self, NodeGraph, WalkScratch};
use std::marker::PhantomData;

pub mod ops;
pub(crate) mod rec;

/// Top value reserved for the 1 sink.
pub(crate) const TERMINAL_TOP: u16 = u16::MAX;

// Every variable index below the limit is distinct from the sink marker.
const _: () = assert!(crate::MAX_VARS < TERMINAL_TOP as usize);

/// The meta bit the BBDD shape sets on its Shannon (reduction rule R4)
/// nodes; it is part of the unique-table key.
pub(crate) const META_SHANNON: u32 = 1 << 16;
const META_MARK: u32 = 1 << 17;
const META_FREE: u32 = 1 << 18;

// ─────────────────────────────── nodes ────────────────────────────────────

/// One arena slot: 12 bytes, three packed `u32` words — the two child
/// edges in `make_node` order (BBDD `(≠, =)`, ROBDD `(then, else)`) and a
/// meta word with the 16-bit top in bits 0..16, then the Shannon, mark
/// and free flags. Overlay records and the walks use the same words.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    first: u32,
    second: u32,
    meta: u32,
}

impl Node {
    /// The 1 sink (arena slot 0).
    #[must_use]
    pub fn terminal() -> Self {
        Node::from_words((Edge::ONE.bits(), Edge::ONE.bits(), u32::from(TERMINAL_TOP)))
    }

    /// A node at `top` with the given children; `shannon` sets
    /// [`META_SHANNON`].
    #[must_use]
    pub fn new(top: u16, shannon: bool, first: Edge, second: Edge) -> Self {
        let flag = if shannon { META_SHANNON } else { 0 };
        Node::from_words((first.bits(), second.bits(), u32::from(top) | flag))
    }

    /// A node from its three words.
    #[inline]
    #[must_use]
    pub fn from_words((first, second, meta): (u32, u32, u32)) -> Self {
        Node {
            first,
            second,
            meta,
        }
    }

    /// The three packed words `(first, second, meta)`.
    #[inline]
    #[must_use]
    pub fn words(&self) -> (u32, u32, u32) {
        (self.first, self.second, self.meta)
    }

    /// The first child (BBDD `≠`, ROBDD *then*).
    #[inline]
    #[must_use]
    pub fn first(&self) -> Edge {
        Edge::from_bits(self.first)
    }

    /// The second child (BBDD `=`, ROBDD *else*).
    #[inline]
    #[must_use]
    pub fn second(&self) -> Edge {
        Edge::from_bits(self.second)
    }

    /// The node's top: its BBDD level or its ROBDD variable.
    #[inline]
    #[must_use]
    pub fn top(&self) -> u16 {
        self.meta as u16
    }

    /// Is [`META_SHANNON`] set?
    #[inline]
    #[must_use]
    pub fn is_shannon(&self) -> bool {
        self.meta & META_SHANNON != 0
    }

    #[inline]
    fn is_marked(&self) -> bool {
        self.meta & META_MARK != 0
    }

    #[inline]
    fn set_mark(&mut self, on: bool) {
        self.set_flag(META_MARK, on);
    }

    /// Is the slot on the free list?
    #[inline]
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.meta & META_FREE != 0
    }

    /// Set or clear the free flag.
    #[inline]
    pub fn set_free(&mut self, on: bool) {
        self.set_flag(META_FREE, on);
    }

    #[inline]
    fn set_flag(&mut self, flag: u32, on: bool) {
        if on {
            self.meta |= flag;
        } else {
            self.meta &= !flag;
        }
    }

    /// The unique-table key (the top is implied by the subtable): the
    /// first child word high, the second low, the Shannon flag in bit 0 —
    /// free there, because a BBDD `=`-edge is regular and a ROBDD node is
    /// never Shannon.
    #[inline]
    #[must_use]
    pub(crate) fn key<S>(&self) -> Key<S> {
        Key::new(
            (u64::from(self.first) << 32) | u64::from(self.second) | u64::from(self.is_shannon()),
        )
    }
}

/// A unique-table key: the packed child words of [`Node::key`], hashed
/// by the shape ([`Shape::key_hash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key<S>(u64, PhantomData<S>);

impl<S> Key<S> {
    /// Wrap a packed key.
    #[inline]
    #[must_use]
    pub fn new(bits: u64) -> Self {
        Key(bits, PhantomData)
    }

    /// The packed key.
    #[inline]
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl<S: Shape> TableKey for Key<S> {
    #[inline]
    fn table_hash(&self, hasher: &CantorHasher) -> u64 {
        S::key_hash(self.0, hasher)
    }
}

/// The node arena, typed by shape so it is the unique tables' key store.
#[derive(Debug, Clone)]
pub(crate) struct Arena<S> {
    nodes: Vec<Node>,
    shape: PhantomData<S>,
}

impl<S> std::ops::Deref for Arena<S> {
    type Target = Vec<Node>;
    fn deref(&self) -> &Vec<Node> {
        &self.nodes
    }
}

impl<S> std::ops::DerefMut for Arena<S> {
    fn deref_mut(&mut self) -> &mut Vec<Node> {
        &mut self.nodes
    }
}

/// A stored id's key is its node's key.
impl<S: Shape> KeyStore<Key<S>> for Arena<S> {
    #[inline]
    fn key_of(&self, id: u32) -> Key<S> {
        self.nodes[id as usize].key()
    }
}

/// Counters of one manager, for the benchmark harness and `stats()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Recursive `apply` invocations (on ROBDD also the `ite` ones).
    pub apply_calls: u64,
    /// Recursive `ite` invocations (BBDD; ROBDD counts them as apply).
    pub ite_calls: u64,
    /// Recursive quantification entries (`exists`/`forall`/`and_exists`).
    pub quant_calls: u64,
    /// Composition operations (`compose` calls and `vector_compose`
    /// recursion entries).
    pub compose_calls: u64,
    /// Recursive n-ary `apply` entries.
    pub nary_calls: u64,
    /// Nodes created (unique-table inserts).
    pub nodes_created: u64,
    /// Garbage-collection runs.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection.
    pub nodes_freed: u64,
    /// Adjacent variable swaps performed.
    pub swaps: u64,
    /// Peak number of live nodes observed.
    pub peak_live_nodes: usize,
    /// Computed-table lookups (filled from the cache by
    /// [`Manager::stats`]).
    pub cache_lookups: u64,
    /// Computed-table hits.
    pub cache_hits: u64,
    /// Computed-table evictions (inserts that overwrote a live entry).
    pub cache_evictions: u64,
}

impl Stats {
    /// Computed-table misses.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache_lookups - self.cache_hits
    }
}

// ────────────────────────────── the shape ─────────────────────────────────

/// Where a shape's node rules read and create nodes: the kernel's arena
/// and unique tables, or the parallel pipeline's frozen base plus overlay.
pub trait NodeStore {
    /// The three words of node `id`.
    fn words(&self, id: u32) -> (u32, u32, u32);

    /// The id of the node with these words, created on a miss.
    fn find_or_insert(&mut self, words: (u32, u32, u32)) -> u32;
}

/// What one decision-diagram kind supplies to the kernel: its node rules,
/// its cofactors, its recursion order and its variable swap. Each hook
/// gets the kernel (or a [`NodeStore`]) and nothing else varies per shape.
pub trait Shape: Copy + Eq + Send + Sync + std::fmt::Debug + 'static {
    /// The public structural view of one node ([`Manager::node_info`]).
    type NodeInfo;
    /// The shape's private reorder scratch.
    type Scratch: std::fmt::Debug + Send + Sync;
    /// Backend label of the metrics snapshot and the stats line.
    const NAME: &'static str;
    /// Backend label of the parallel front-end.
    const PAR_NAME: &'static str;
    /// Is a node's top its variable (else a bottom-based level, position
    /// `n-1-top` of the order)?
    const TOP_IS_VAR: bool;
    /// Do apply, ite and n-ary apply recurse into the second cofactor
    /// before the first?
    const APPLY_SECOND_FIRST: bool;
    /// Does `ite` count its recursions separately (`ops.ite`) rather than
    /// as apply recursions?
    const ITE_COUNTER: bool;
    /// Is the semantic support exactly the set of variables the nodes
    /// test? (Otherwise it is found through restriction.)
    const STRUCTURAL_SUPPORT: bool;
    /// Do solid DOT arrows go to the second child?
    const DOT_SOLID_SECOND: bool;

    /// The unique-table hash of a packed [`Key`].
    fn key_hash(key: u64, h: &CantorHasher) -> u64;

    /// The overlay-table hash of a packed key at `top` (one key space over
    /// all tops).
    fn overlay_hash(key: u64, top: u16, h: &CantorHasher) -> u64;

    /// Find-or-create the node `(top, first, second)` under the shape's
    /// reduction and complement-normalization rules.
    fn make_node(st: &mut impl NodeStore, top: u16, first: Edge, second: Edge) -> Edge;

    /// The cofactor pair of `e` at `top` (at or above `e`'s own top), in
    /// `make_node` order.
    fn cofactors(st: &mut impl NodeStore, e: Edge, top: u16) -> (Edge, Edge);

    /// The positive literal of the variable at `top`.
    fn literal(st: &mut impl NodeStore, top: u16) -> Edge;

    /// The quantification case beyond "top quantified" and "rebuild the
    /// node": when the node at an unquantified `top` must be re-expanded
    /// through the literal of a quantified partner top, that partner.
    fn chain_partner(_top: u16, _in_cube: &[bool]) -> Option<u16> {
        None
    }

    /// Does `assignment` follow the first child out of the node with
    /// these words?
    fn takes_first(m: &Manager<Self>, words: (u32, u32, u32), assignment: &[bool]) -> bool;

    /// The budgeted restriction `f|_{var = value}`.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_restrict(
        m: &mut Manager<Self>,
        f: Edge,
        var: usize,
        value: bool,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort>;

    /// The budgeted substitution `f[var := g]`.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_compose(
        m: &mut Manager<Self>,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort>;

    /// The Shannon split of a regular non-constant `f` on the variable
    /// `v` of its top: `(v, f|_{v=1}, f|_{v=0})`.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn shannon_split(
        m: &mut Manager<Self>,
        f: Edge,
        budget: &mut OpBudget,
    ) -> Result<(usize, Edge, Edge), OpAbort>;

    /// One satisfying assignment (see [`Manager::any_sat`]).
    fn any_sat(m: &Manager<Self>, f: Edge) -> Option<Vec<bool>>;

    /// Up to `limit` satisfying assignments (see [`Manager::all_sat`]).
    fn all_sat(m: &Manager<Self>, f: Edge, limit: usize) -> Vec<Vec<bool>>;

    /// The structural view of the node `e` points to.
    fn node_info(m: &Manager<Self>, e: Edge) -> Option<Self::NodeInfo>;

    /// The DOT label of node `id`.
    fn dot_label(m: &Manager<Self>, id: u32) -> String;

    /// The shape's canonical-form checks of one stored node.
    ///
    /// # Errors
    /// A description of the violated invariant.
    fn check_node(m: &Manager<Self>, id: u32, n: Node) -> Result<(), String>;

    /// Swap the variables at top-based positions `pos` and `pos + 1`.
    fn swap_adjacent(m: &mut Manager<Self>, pos: usize);

    /// Set up shape state when a reorder scope opens (after the kernel's
    /// sift refs exist).
    fn begin_reorder(_m: &mut Manager<Self>) {}

    /// Drop shape state when a reorder scope closes.
    fn end_reorder(_m: &mut Manager<Self>) {}

    /// See [`ReorderBackend::pair_affinity`].
    fn pair_affinity(m: &Manager<Self>, pos: usize) -> f64;

    /// See [`ReorderBackend::settled_width`].
    fn settled_width(m: &Manager<Self>, top: usize, len: usize, down: bool) -> usize;
}

// ───────────────────────────── the manager ────────────────────────────────

/// A decision-diagram manager over a fixed set of variables `0..n`, whose
/// node semantics are those of the shape `S`.
#[derive(Debug)]
pub struct Manager<S: Shape> {
    /// The node arena; slot 0 is the 1 sink.
    pub(crate) nodes: Arena<S>,
    /// Freed slots, reused last-freed first.
    pub(crate) free: Vec<u32>,
    /// One unique subtable per top.
    pub(crate) subtables: Vec<UniqueTable>,
    /// Stored nodes over all subtables, kept current by creation, GC,
    /// sift-time reclamation and swap commits.
    pub(crate) live: usize,
    /// `var_at_pos[p]` = variable at top-based order position `p`.
    pub(crate) var_at_pos: Vec<u32>,
    /// The inverse permutation.
    pub(crate) pos_of_var: Vec<u32>,
    /// The computed table.
    pub(crate) cache: ComputedCache,
    /// Operation counters.
    pub(crate) stats: Stats,
    /// The shape's private reorder scratch.
    pub(crate) scratch: Option<S::Scratch>,
    /// Reference counts kept while a reorder runs (`None` outside one);
    /// swaps then reclaim their dead nodes locally.
    pub(crate) sift_refs: Option<SiftRefs>,
    /// Reusable snapshot buffer for the registry trace; after a collection
    /// it holds the snapshot that collection marked from.
    pub(crate) root_scratch: Vec<u64>,
    /// Dynamic-reordering policy and schedule baselines.
    dvo: DvoState,
    /// External-root registry behind the owned function handles.
    roots: RootSet,
    /// The automatic-GC latch and collection generation.
    gc_latch: GcLatch,
    /// Governed-operation accounting (the `govern.*` metrics section).
    govern: GovernCounters,
    /// Visit scratch of the read-only walks; a fork starts with a new one.
    walk: WalkScratch,
}

impl<S: Shape> Manager<S> {
    /// Create a manager for `num_vars` variables with the identity order
    /// (variable 0 on top).
    ///
    /// # Panics
    /// Panics if `num_vars` is 0 or exceeds [`crate::MAX_VARS`].
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars > 0, "a manager needs at least one variable");
        assert!(
            num_vars <= crate::MAX_VARS,
            "too many variables for 16-bit tops"
        );
        Manager {
            nodes: Arena {
                nodes: vec![Node::terminal()],
                shape: PhantomData,
            },
            free: Vec::new(),
            subtables: (0..num_vars).map(|_| UniqueTable::new(64)).collect(),
            live: 0,
            var_at_pos: (0..num_vars as u32).collect(),
            pos_of_var: (0..num_vars as u32).collect(),
            cache: ComputedCache::default(),
            stats: Stats::default(),
            scratch: None,
            sift_refs: None,
            root_scratch: Vec::new(),
            dvo: DvoState::default(),
            roots: RootSet::new(),
            gc_latch: GcLatch::default(),
            govern: GovernCounters::default(),
            walk: WalkScratch::default(),
        }
    }

    /// A private flat copy of the node store for an MVCC session fork
    /// (`ddcore::session`): nodes, free list, unique tables, the variable
    /// order and the computed cache are cloned, so every edge minted by
    /// the original stays bit-valid and denotes the same function in the
    /// fork. Roots, GC latch, DVO state and statistics start fresh.
    #[must_use]
    pub fn fork_state(&self) -> Self {
        Manager {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            subtables: self.subtables.clone(),
            live: self.live,
            var_at_pos: self.var_at_pos.clone(),
            pos_of_var: self.pos_of_var.clone(),
            cache: self.cache.clone(),
            stats: Stats::default(),
            scratch: None,
            sift_refs: None,
            root_scratch: Vec::new(),
            dvo: DvoState::default(),
            roots: RootSet::new(),
            gc_latch: GcLatch::default(),
            govern: GovernCounters::default(),
            walk: WalkScratch::default(),
        }
    }

    /// Number of variables managed.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.var_at_pos.len()
    }

    /// The current variable order, top of the diagram first.
    #[must_use]
    pub fn order(&self) -> Vec<usize> {
        self.var_at_pos.iter().map(|&v| v as usize).collect()
    }

    /// Top-based position of `var` in the current order (0 = root).
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    #[must_use]
    pub fn position_of(&self, var: usize) -> usize {
        self.pos_of_var[var] as usize
    }

    /// The constant-true function.
    #[must_use]
    pub fn one(&self) -> Edge {
        Edge::ONE
    }

    /// The constant-false function.
    #[must_use]
    pub fn zero(&self) -> Edge {
        Edge::ZERO
    }

    /// The positive literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn var(&mut self, var: usize) -> Edge {
        let top = self.top_of_var(var);
        S::literal(self, top)
    }

    /// The negative literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn nvar(&mut self, var: usize) -> Edge {
        !self.var(var)
    }

    /// Current number of live (stored) nodes, excluding the sink.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// Aggregate unique-table statistics over all subtables.
    #[must_use]
    pub fn table_stats(&self) -> crate::TableStats {
        let mut agg = crate::TableStats::default();
        for t in &self.subtables {
            agg.absorb(t.stats());
        }
        agg
    }

    /// Counters accumulated since the manager was created, including a
    /// snapshot of the computed-table hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        let c = self.cache.stats();
        s.cache_lookups = c.lookups;
        s.cache_hits = c.hits;
        s.cache_evictions = c.evictions;
        s
    }

    /// One uniform [`MetricsSnapshot`] over every counter the manager
    /// maintains, under the registry's stable dotted names (`ops.ite`
    /// only where `ite` counts separately). This is what
    /// `RawManager::observe` returns.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new(S::NAME);
        self.fill_metrics(&mut m, None, MemBytes::default());
        m
    }

    /// Fill `m` with this manager's sections. The parallel front-end
    /// passes its lock-free cache counters as `par_cache` (summed into
    /// `cache.*`, with tear misses) and its overlay's heap bytes.
    pub(crate) fn fill_metrics(
        &self,
        m: &mut MetricsSnapshot,
        par_cache: Option<AtomicCacheStats>,
        overlay: MemBytes,
    ) {
        let s = self.stats();
        let c = self.cache.stats();
        let t = self.table_stats();
        m.gauge("nodes.live", self.live as u64);
        m.gauge("nodes.peak", s.peak_live_nodes as u64);
        m.counter("nodes.created", s.nodes_created);
        m.counter("ops.apply", s.apply_calls);
        if S::ITE_COUNTER {
            m.counter("ops.ite", s.ite_calls);
        }
        m.counter("ops.quant", s.quant_calls);
        m.counter("ops.compose", s.compose_calls);
        m.counter("ops.nary", s.nary_calls);
        m.counter("ops.swaps", s.swaps);
        let pc = par_cache.unwrap_or_default();
        m.counter("cache.lookups", c.lookups + pc.lookups);
        m.counter("cache.hits", c.hits + pc.hits);
        m.counter("cache.misses", c.misses() + pc.misses());
        m.counter("cache.inserts", c.inserts + pc.inserts);
        m.counter("cache.evictions", c.evictions);
        m.counter("cache.invalidations", c.invalidations + pc.invalidations);
        if par_cache.is_some() {
            m.counter("cache.tear_misses", pc.tear_misses);
        }
        m.counter("table.lookups", t.lookups);
        m.counter("table.probes", t.probes);
        m.counter("table.hits", t.hits);
        m.counter("table.resizes", t.resizes);
        m.counter("table.rearrangements", t.rearrangements);
        m.counter("table.tombstone_repairs", t.batched_repairs);
        m.counter("gc.runs", s.gc_runs);
        m.counter("gc.nodes_freed", s.nodes_freed);
        m.counter("gc.latch_firings", self.gc_latch.firings());
        let (registered, retained, released) = self.roots.traffic();
        m.gauge("roots.live", self.roots.len() as u64);
        m.counter("roots.registered", registered);
        m.counter("roots.retained", retained);
        m.counter("roots.released", released);
        m.counter("dvo.reorders", self.dvo.reorders());
        self.govern.fill(m);
        (self.mem_bytes() + overlay).fill(m);
    }

    /// Heap bytes of the node arena, the unique tables and the computed
    /// cache (the `mem.*` gauges).
    fn mem_bytes(&self) -> MemBytes {
        MemBytes {
            arena: self.nodes.capacity() * std::mem::size_of::<Node>()
                + self.free.capacity() * std::mem::size_of::<u32>(),
            table: self.subtables.iter().map(UniqueTable::heap_bytes).sum(),
            cache: self.cache.heap_bytes(),
        }
    }

    /// A stable identifier of the node an edge points to (`None` for the
    /// constants), usable as a map key by exporters.
    #[must_use]
    pub fn edge_id(&self, e: Edge) -> Option<u32> {
        (!e.is_constant()).then(|| e.node())
    }

    /// Structural view of the node `e` points to (`None` for constants).
    #[must_use]
    pub fn node_info(&self, e: Edge) -> Option<S::NodeInfo> {
        S::node_info(self, e)
    }

    /// The node in arena slot `id`.
    #[inline]
    #[must_use]
    pub(crate) fn node(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    /// Is `e` a constant or an edge to a currently stored node? Fallible
    /// exporters reject stale edges with it.
    #[must_use]
    pub(crate) fn edge_is_stored(&self, e: Edge) -> bool {
        let id = e.node() as usize;
        e.is_constant() || (id < self.nodes.len() && !self.nodes[id].is_free())
    }

    /// The top of `var`'s node level.
    #[inline]
    #[must_use]
    pub(crate) fn top_of_var(&self, var: usize) -> u16 {
        if S::TOP_IS_VAR {
            assert!(var < self.num_vars(), "variable {var} out of range");
            var as u16
        } else {
            (self.num_vars() - 1 - self.pos_of_var[var] as usize) as u16
        }
    }

    /// The variable tested at `top`.
    #[inline]
    #[must_use]
    pub(crate) fn var_of_top(&self, top: u16) -> usize {
        if S::TOP_IS_VAR {
            usize::from(top)
        } else {
            self.var_at_pos[self.num_vars() - 1 - usize::from(top)] as usize
        }
    }

    /// Distance of `top` from the bottom of the order: the larger of two
    /// tops is the one nearer the root, where a recursion expands.
    #[inline]
    #[must_use]
    pub(crate) fn height(&self, top: u16) -> u32 {
        if S::TOP_IS_VAR {
            (self.num_vars() - 1 - self.pos_of_var[usize::from(top)] as usize) as u32
        } else {
            u32::from(top)
        }
    }

    /// The top of the node `e` points to (`e` non-constant).
    #[inline]
    #[must_use]
    pub(crate) fn top(&self, e: Edge) -> u16 {
        self.nodes[e.node() as usize].top()
    }

    /// The one of two tops nearer the root.
    #[inline]
    #[must_use]
    pub(crate) fn upper(&self, a: u16, b: u16) -> u16 {
        if self.height(b) > self.height(a) {
            b
        } else {
            a
        }
    }

    /// Trade the variables at positions `pos` and `pos + 1` in the order
    /// maps (the bookkeeping half of a swap).
    pub(crate) fn swap_order(&mut self, pos: usize) {
        self.var_at_pos.swap(pos, pos + 1);
        self.pos_of_var[self.var_at_pos[pos] as usize] = pos as u32;
        self.pos_of_var[self.var_at_pos[pos + 1] as usize] = (pos + 1) as u32;
        self.stats.swaps += 1;
    }

    /// Find-or-create `(top, first, second)` under the shape's reduction
    /// rules.
    #[inline]
    pub(crate) fn make_node(&mut self, top: u16, first: Edge, second: Edge) -> Edge {
        rec::make_node(self, top, first, second)
    }

    /// The positive literal of the variable at `top`.
    #[inline]
    pub(crate) fn literal(&mut self, top: u16) -> Edge {
        S::literal(self, top)
    }

    /// The cofactor pair of `e` at `top`, in `make_node` order.
    #[inline]
    pub(crate) fn cofactors(&mut self, e: Edge, top: u16) -> (Edge, Edge) {
        S::cofactors(self, e, top)
    }

    /// Rebuild a node from another store's meta word and already
    /// imported children (parallel commits, cone copies).
    pub(crate) fn import_node(&mut self, meta: u32, first: Edge, second: Edge) -> Edge {
        if meta & META_SHANNON != 0 {
            self.literal(meta as u16)
        } else {
            self.make_node(meta as u16, first, second)
        }
    }

    /// Read-only lookup of a key in the unique subtable of `top`.
    #[inline]
    #[must_use]
    pub(crate) fn peek(&self, top: u16, key: Key<S>) -> Option<u32> {
        self.subtables[usize::from(top)].peek(&key, &self.nodes)
    }

    /// Pin `e` in the root registry for as long as the guard lives.
    #[must_use]
    pub fn pin(&self, e: Edge) -> RootGuard {
        self.roots.guard(u64::from(e.bits()))
    }

    /// Install (or clear, with `None`) the dynamic-reordering policy:
    /// which [`DvoStrategy`] runs and when its schedule fires. Scheduled
    /// firings happen at handle boundaries (piggybacking on the
    /// automatic-GC latch) and at the network builders' collection gates;
    /// the schedule's baselines reset to the current counters.
    pub fn set_reorder_policy(&mut self, policy: Option<DvoPolicy>) {
        let (live, created) = (self.live, self.stats.nodes_created);
        self.dvo.set_policy(policy, live, created);
    }

    /// The installed dynamic-reordering policy, if any.
    #[must_use]
    pub fn reorder_policy(&self) -> Option<DvoPolicy> {
        self.dvo.policy()
    }

    /// Scheduled reorders run so far.
    #[must_use]
    pub fn scheduled_reorders(&self) -> u64 {
        self.dvo.reorders()
    }

    /// Collect (tracing the handle registry) and, if the installed
    /// policy's schedule is due, run its strategy. Returns `true` when a
    /// reorder ran.
    pub fn reorder_if_needed(&mut self) -> bool {
        self.reorder_if_needed_bounded(&mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Manager::reorder_if_needed`] under a resource budget. On abort
    /// the variable order is consistent (the sift park-back contract) and
    /// the schedule has re-armed.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn reorder_if_needed_bounded(&mut self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        if !self.dvo.due(self.live, self.stats.nodes_created) {
            return Ok(false);
        }
        // A collection may already dissolve the pressure (dead nodes, not
        // a bad order) — re-check before paying for a sift.
        self.gc();
        if !self.dvo.due(self.live, self.stats.nodes_created) {
            return Ok(false);
        }
        let strategy = self.dvo.strategy().expect("due implies a policy");
        // Scheduled-sift firing marker; the strategy's own Reorder span
        // carries the duration and result.
        obs::event(
            obs::Op::Reorder,
            Some(("scheduled", self.dvo.reorders() + 1)),
        );
        let res = self.sift_strategy(strategy, budget);
        let (live, created) = (self.live, self.stats.nodes_created);
        self.dvo.note_reorder(live, created);
        res.map(|_| true)
    }

    /// Arm the automatic GC: once node creation observes the live count
    /// at or above `threshold`, a collection is latched and runs at the
    /// next handle boundary, re-arming at twice the surviving size (never
    /// below `threshold`). `0` disables (the default). Raw edges not
    /// covered by a handle are only safe within a single operation.
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_latch.set_threshold(threshold);
    }

    /// The automatic-GC threshold (`0` = disabled).
    #[must_use]
    pub fn gc_threshold(&self) -> usize {
        self.gc_latch.threshold()
    }

    /// Monotonic count of collections run through any entry point; node
    /// ids may have been recycled whenever it changes.
    #[must_use]
    pub(crate) fn gc_generation(&self) -> u64 {
        self.gc_latch.generation()
    }

    /// Run the latched automatic collection, if armed, then the reorder
    /// schedule; `true` when a collection ran (the handle boundary).
    fn maybe_auto_gc(&mut self) -> bool {
        if !self.gc_latch.take_pending() {
            return false;
        }
        self.gc();
        self.gc_latch.rearm(self.live);
        self.reorder_if_needed();
        true
    }

    /// Garbage-collect every node not reachable from a registered handle;
    /// returns the number of nodes reclaimed. The computed table is
    /// invalidated because freed ids may be reused. There is no root list
    /// to supply — the registry behind the handles is the root set.
    pub fn gc(&mut self) -> usize {
        debug_assert!(
            self.sift_refs.is_none(),
            "a full collection inside a reorder scope would strand the sift refcounts"
        );
        let mut span = obs::span(obs::Op::Gc);
        self.stats.gc_runs += 1;
        self.gc_latch.note_collection();
        // Mark from the registry snapshot. The registry lock is not held
        // across the trace (see the reentrancy rule in `ddcore::roots`).
        let mut snap = std::mem::take(&mut self.root_scratch);
        snap.clear();
        self.roots.snapshot_into(&mut snap);
        let mut stack: Vec<u32> = snap
            .iter()
            .map(|&bits| Edge::from_bits(bits as u32))
            .filter(|e| !e.is_constant())
            .map(Edge::node)
            .collect();
        self.root_scratch = snap;
        while let Some(id) = stack.pop() {
            let n = &mut self.nodes[id as usize];
            if n.is_marked() {
                continue;
            }
            n.set_mark(true);
            for child in [n.first(), n.second()] {
                if !child.is_constant() {
                    stack.push(child.node());
                }
            }
        }
        // Sweep; survivors drop their mark bit in the same pass.
        let free = &mut self.free;
        let mut freed = 0usize;
        for table in &mut self.subtables {
            table.retain(&mut self.nodes, |nodes, id| {
                let n = &mut nodes[id as usize];
                if n.is_marked() {
                    n.set_mark(false);
                    true
                } else {
                    n.set_free(true);
                    free.push(id);
                    freed += 1;
                    false
                }
            });
        }
        self.cache.invalidate();
        self.live -= freed;
        self.stats.nodes_freed += freed as u64;
        span.set_arg("freed", freed as u64);
        freed
    }

    /// Open a reorder scope: one full collection, then sift-scoped
    /// reference counts over what survived — every stored node's parents
    /// plus the registry snapshot that collection marked from.
    fn begin_sift_refs(&mut self) {
        self.gc();
        let mut refs = SiftRefs::new(self.nodes.len());
        for table in &self.subtables {
            table.for_each(|id| {
                let n = self.nodes[id as usize];
                refs.inc(n.first());
                refs.inc(n.second());
            });
        }
        for &bits in &self.root_scratch {
            refs.inc(Edge::from_bits(bits as u32));
        }
        self.sift_refs = Some(refs);
    }

    /// Free every node whose sift-scoped count has dropped to zero,
    /// cascading through their children. Called at the end of each swap
    /// inside a reorder scope; a no-op outside one.
    pub(crate) fn reclaim_dead(&mut self) {
        let Some(refs) = self.sift_refs.as_mut() else {
            return;
        };
        let mut freed = 0usize;
        while let Some(id) = refs.pop_dead() {
            let n = self.nodes[id as usize];
            if n.is_free() {
                continue;
            }
            let removed = self.subtables[usize::from(n.top())].remove(id, &self.nodes);
            debug_assert!(removed, "dead node missing from its subtable");
            self.nodes[id as usize].set_free(true);
            self.free.push(id);
            freed += 1;
            refs.dec(n.first());
            refs.dec(n.second());
        }
        if freed > 0 {
            // Freed ids get reused: cached results and the parallel
            // front-end's id-keyed cache must not outlive them.
            self.cache.invalidate();
            self.gc_latch.note_collection();
            self.live -= freed;
            self.stats.nodes_freed += freed as u64;
        }
    }

    /// Validate every canonical-form invariant of the stored forest.
    /// Intended for tests and debugging; linear in the stored nodes.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let stored: usize = self.subtables.iter().map(UniqueTable::len).sum();
        if stored != self.live {
            return Err(format!(
                "live-node counter {} disagrees with the {stored} stored nodes",
                self.live
            ));
        }
        let mut present = vec![false; self.nodes.len()];
        let mut ids = Vec::with_capacity(stored);
        for (top, table) in self.subtables.iter().enumerate() {
            for id in table.ids() {
                if std::mem::replace(&mut present[id as usize], true) {
                    return Err(format!("node {id} stored in two subtables"));
                }
                let n = self.node(id);
                if n.is_free() {
                    return Err(format!("free node {id} still in subtable {top}"));
                }
                if usize::from(n.top()) != top {
                    return Err(format!("node {id} at subtable {top} has top {}", n.top()));
                }
                if self.peek(n.top(), n.key()) != Some(id) {
                    return Err(format!("node {id} not found under its own key"));
                }
                if n.first() == n.second() {
                    return Err(format!("node {id} violates R2 (identical children)"));
                }
                for child in [n.first(), n.second()] {
                    if !child.is_constant() && self.height(self.top(child)) >= self.height(n.top())
                    {
                        return Err(format!("node {id} has a child at or above its top"));
                    }
                }
                S::check_node(self, id, n)?;
                ids.push(id);
            }
        }
        // Every child of a stored node must itself be stored.
        for id in ids {
            let n = self.node(id);
            for child in [n.first(), n.second()] {
                if !child.is_constant() && !present[child.node() as usize] {
                    return Err(format!(
                        "node {id} references unstored node {}",
                        child.node()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The kernel's arena and unique tables as a shape's node store.
impl<S: Shape> NodeStore for Manager<S> {
    #[inline]
    fn words(&self, id: u32) -> (u32, u32, u32) {
        self.nodes[id as usize].words()
    }

    #[inline]
    fn find_or_insert(&mut self, words: (u32, u32, u32)) -> u32 {
        let node = Node::from_words(words);
        let free = &mut self.free;
        let mut created = false;
        let table = &mut self.subtables[usize::from(node.top())];
        let id = table.get_or_insert_with(node.key::<S>(), &mut self.nodes, |nodes| {
            created = true;
            match free.pop() {
                Some(id) => {
                    nodes[id as usize] = node;
                    id
                }
                None => {
                    nodes.push(node);
                    (nodes.len() - 1) as u32
                }
            }
        });
        if created {
            self.stats.nodes_created += 1;
            self.live += 1;
            let live = self.live;
            if live > self.stats.peak_live_nodes {
                self.stats.peak_live_nodes = live;
            }
            // Collection itself waits for a handle boundary, so
            // mid-recursion edges are never swept away.
            self.gc_latch.note_growth(live);
        }
        id
    }
}

// ───────────────────────────── trait impls ────────────────────────────────

impl<S: Shape> RawManager for Manager<S> {
    type Edge = Edge;

    fn with_vars(num_vars: usize) -> Self {
        Manager::new(num_vars)
    }

    fn num_vars(&self) -> usize {
        Manager::num_vars(self)
    }

    fn root_registry(&self) -> &RootSet {
        &self.roots
    }

    fn edge_bits(e: Edge) -> u64 {
        u64::from(e.bits())
    }

    fn constant_edge(&self, value: bool) -> Edge {
        Edge::ONE.complement_if(!value)
    }

    fn var_edge(&mut self, var: usize) -> Edge {
        self.var(var)
    }

    fn try_apply_edge(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_apply(op, f, g, budget)
    }

    fn try_ite_edge(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_ite(f, g, h, budget)
    }

    fn try_exists_edge(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_exists(f, vars, budget)
    }

    fn try_forall_edge(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_forall(f, vars, budget)
    }

    fn try_and_exists_edge(
        &mut self,
        f: Edge,
        g: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_and_exists(f, g, vars, budget)
    }

    fn try_compose_edge(
        &mut self,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_compose(f, var, g, budget)
    }

    fn try_restrict_edge(
        &mut self,
        f: Edge,
        var: usize,
        value: bool,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_restrict(f, var, value, budget)
    }

    fn try_vector_compose_edge(
        &mut self,
        f: Edge,
        subs: &[Option<Edge>],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_vector_compose(f, subs, budget)
    }

    fn eval_edge(&self, f: Edge, assignment: &[bool]) -> bool {
        self.eval(f, assignment)
    }

    fn try_sat_count_edge(&self, f: Edge, budget: &mut OpBudget) -> Result<u128, OpAbort> {
        walk::try_sat_count(self, f, self.num_vars(), budget)
    }

    fn any_sat_edge(&self, f: Edge) -> Option<Vec<bool>> {
        self.any_sat(f)
    }

    fn all_sat_edge(&self, f: Edge, limit: usize) -> Vec<Vec<bool>> {
        self.all_sat(f, limit)
    }

    fn shared_node_count_edges(&self, roots: &[Edge]) -> usize {
        self.shared_node_count(roots)
    }

    fn support_edge(&mut self, f: Edge) -> Vec<usize> {
        if S::STRUCTURAL_SUPPORT {
            self.support(f)
        } else {
            (0..self.num_vars())
                .filter(|&v| self.depends_on(f, v))
                .collect()
        }
    }

    fn to_dot_edges(&self, roots: &[Edge], names: &[&str]) -> String {
        self.to_dot(roots, names)
    }

    fn level_profile_edges(&self, roots: &[Edge]) -> Option<Vec<usize>> {
        let mut profile = vec![0; self.num_vars()];
        walk::visit(self, roots, usize::MAX, |_, (_, _, meta)| {
            let top = meta as u16;
            // BBDD profiles are bottom-based levels, ROBDD ones positions.
            let slot = if S::TOP_IS_VAR {
                self.position_of(usize::from(top))
            } else {
                usize::from(top)
            };
            profile[slot] += 1;
        });
        Some(profile)
    }

    fn after_op(&mut self) {
        self.maybe_auto_gc();
    }

    fn gc(&mut self) -> usize {
        Manager::gc(self)
    }

    fn set_gc_threshold(&mut self, threshold: usize) {
        Manager::set_gc_threshold(self, threshold);
    }

    fn gc_threshold(&self) -> usize {
        Manager::gc_threshold(self)
    }

    fn live_nodes(&self) -> usize {
        self.live
    }

    fn reorder_with(
        &mut self,
        strategy: DvoStrategy,
        budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>> {
        Some(self.sift_strategy(strategy, budget))
    }

    fn set_reorder_policy(&mut self, policy: Option<DvoPolicy>) {
        Manager::set_reorder_policy(self, policy);
    }

    fn reorder_policy(&self) -> Option<DvoPolicy> {
        Manager::reorder_policy(self)
    }

    fn reorder_if_needed_bounded(&mut self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        Manager::reorder_if_needed_bounded(self, budget)
    }

    fn set_order(&mut self, order: &[usize]) -> bool {
        self.reorder_to(order);
        true
    }

    fn variable_order(&self) -> Vec<usize> {
        self.order()
    }

    fn stats_line(&self) -> String {
        let s = self.stats();
        let (kind, calls) = if S::ITE_COUNTER {
            ("ite", s.ite_calls)
        } else {
            ("quant", s.quant_calls)
        };
        format!(
            "{}: {} apply calls, {calls} {kind} calls, {} nodes created, {} GCs ({} freed), \
             {} swaps, peak {}",
            S::NAME,
            s.apply_calls,
            s.nodes_created,
            s.gc_runs,
            s.nodes_freed,
            s.swaps,
            s.peak_live_nodes
        )
    }

    fn observe(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }

    fn note_governed(&mut self, checkpoints: u64, abort: Option<OpAbort>) {
        self.govern.note(checkpoints, abort);
    }
}

impl<S: Shape> ReorderBackend for Manager<S> {
    fn num_vars(&self) -> usize {
        Manager::num_vars(self)
    }

    fn position_of(&self, var: usize) -> usize {
        Manager::position_of(self, var)
    }

    fn var_at_position(&self, pos: usize) -> usize {
        self.var_at_pos[pos] as usize
    }

    fn swap_positions(&mut self, pos: usize) {
        self.swap_adjacent(pos);
    }

    fn sweep(&mut self) -> usize {
        self.live
    }

    fn begin_reorder(&mut self) {
        self.begin_sift_refs();
        S::begin_reorder(self);
    }

    fn end_reorder(&mut self) -> usize {
        S::end_reorder(self);
        // Drop the counts and run the closing full collection (it also
        // reclaims what handles dropped mid-sift held).
        self.sift_refs = None;
        self.gc();
        self.live
    }

    fn var_width(&self, var: usize) -> usize {
        self.subtables[usize::from(self.top_of_var(var))].len()
    }

    fn pair_affinity(&self, pos: usize) -> f64 {
        S::pair_affinity(self, pos)
    }

    fn settled_width(&self, top: usize, len: usize, down: bool) -> usize {
        S::settled_width(self, top, len, down)
    }
}

impl<S: Shape> NodeGraph for Manager<S> {
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
        self.height(meta as u16) + 1
    }

    fn walk_scratch(&self) -> &WalkScratch {
        &self.walk
    }
}

impl<S: Shape> SessionBackend for Manager<S> {
    fn fork(&self) -> Self {
        self.fork_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<S: Shape> Manager<S> {
        /// The external-root registry behind every handle of this
        /// manager (the unit tests of both shapes read it).
        pub(crate) fn root_set(&self) -> &RootSet {
            &self.roots
        }
    }

    #[test]
    fn node_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 12);
    }

    #[test]
    fn key_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Key<()>>(), 8);
    }

    #[test]
    fn flags_are_independent() {
        let mut n = Node::new(3, true, Edge::ZERO, Edge::ONE);
        assert!(n.is_shannon() && !n.is_marked() && !n.is_free());
        n.set_mark(true);
        assert!(n.is_marked() && n.is_shannon());
        n.set_free(true);
        assert!(n.is_free() && n.is_marked() && n.is_shannon());
        n.set_mark(false);
        assert!(!n.is_marked() && n.is_free() && n.is_shannon());
        n.set_free(false);
        assert!(!n.is_free());
        assert_eq!(n.top(), 3);
        assert_eq!(n.first(), Edge::ZERO);
        assert_eq!(n.second(), Edge::ONE);
    }

    #[test]
    fn mark_and_free_flags_leave_the_words_alone() {
        let mut n = Node::new(2, false, Edge::ONE, Edge::ZERO);
        n.set_mark(true);
        n.set_free(true);
        assert!(n.is_marked() && n.is_free() && !n.is_shannon());
        n.set_mark(false);
        assert!(!n.is_marked() && n.is_free());
        assert_eq!(n.top(), 2);
        assert_eq!((n.first(), n.second()), (Edge::ONE, Edge::ZERO));
    }

    #[test]
    fn key_distinguishes_modes() {
        let bicond = Node::new(3, false, Edge::ZERO, Edge::ONE);
        let shannon = Node::new(3, true, Edge::ZERO, Edge::ONE);
        assert_ne!(bicond.key::<()>(), shannon.key::<()>());
    }

    #[test]
    fn key_packs_first_high_second_low_mode_in_bit_0() {
        let (first, second) = (Edge::new(77, true), Edge::new(12, false));
        for mode in [false, true] {
            let k = Node::new(5, mode, first, second).key::<()>().bits();
            assert_eq!((k >> 32) as u32, first.bits());
            assert_eq!(k as u32 & !1, second.bits());
            assert_eq!(k & 1 == 1, mode);
        }
    }

    #[test]
    fn key_keeps_a_complemented_second_child() {
        // A ROBDD else-edge may be complemented; its key is the raw words.
        let (then_, else_) = (Edge::new(9, false), Edge::new(4, true));
        let k = Node::new(1, false, then_, else_).key::<()>().bits();
        assert_eq!(k, (u64::from(then_.bits()) << 32) | u64::from(else_.bits()));
    }

    #[test]
    fn words_roundtrip() {
        let n = Node::new(7, true, Edge::new(3, true), Edge::new(8, false));
        assert_eq!(Node::from_words(n.words()).words(), n.words());
        assert_eq!(Node::terminal().top(), TERMINAL_TOP);
    }
}
