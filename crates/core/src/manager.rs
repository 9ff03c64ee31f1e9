//! The BBDD manager: node arena, per-level unique tables, the chain
//! variable order, node construction with reduction rules, and garbage
//! collection.

use crate::edge::Edge;
use crate::node::{Node, NodeKey, TERMINAL_LEVEL};
use ddcore::cache::ComputedCache;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::roots::RootSet;
use ddcore::table::UniqueTable;

// Every variable index below the limit is distinct from the sink marker.
const _: () = assert!(ddcore::MAX_VARS < TERMINAL_LEVEL as usize);

/// Statistics counters exposed for the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct BbddStats {
    /// Recursive `apply` invocations (Algorithm 1 entries).
    pub apply_calls: u64,
    /// Recursive `ite` invocations.
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
    /// Adjacent CVO swaps performed.
    pub swaps: u64,
    /// Peak number of live nodes observed.
    pub peak_live_nodes: usize,
    /// Computed-table lookups (filled from the cache when the snapshot is
    /// taken by [`Bbdd::stats`]).
    pub cache_lookups: u64,
    /// Computed-table hits.
    pub cache_hits: u64,
    /// Computed-table evictions (inserts that overwrote a live entry).
    pub cache_evictions: u64,
}

impl BbddStats {
    /// Computed-table misses.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache_lookups - self.cache_hits
    }
}

/// Public structural view of one BBDD node (see [`Bbdd::node_info`]).
///
/// `sv` is `None` for Shannon (R4) nodes and for the bottom level, whose
/// secondary variable is the fictitious constant 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Bottom-based CVO level.
    pub level: usize,
    /// `true` for a Shannon (reduction rule R4) node.
    pub shannon: bool,
    /// The `PV ≠ SV` child edge.
    pub neq: Edge,
    /// The `PV = SV` child edge (always regular).
    pub eq: Edge,
    /// Primary variable of the node's level.
    pub pv: usize,
    /// Secondary variable (chain neighbour), when it exists.
    pub sv: Option<usize>,
}

/// A manager for Biconditional Binary Decision Diagrams over a fixed set of
/// variables.
///
/// Variables are identified by indices `0..num_vars`. The *chain variable
/// order* (CVO, paper Eq. 2) is derived from the current variable order
/// `π`: the node level holding `PV = π_t` has `SV = π_{t+1}`, and the
/// bottom level has the fictitious `SV = 1`. Levels are stored bottom-based
/// (level `n-1` is the root level), matching Algorithm 1's
/// `i = maxlevel{f, g}`.
///
/// ```
/// use bbdd::{Bbdd, BoolOp};
/// let mut mgr = Bbdd::new(3);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.apply(BoolOp::XOR, a, b);
/// assert!(mgr.eval(f, &[true, false, false]));
/// assert!(!mgr.eval(f, &[true, true, false]));
/// ```
#[derive(Debug)]
pub struct Bbdd {
    pub(crate) nodes: Vec<Node>,
    free: Vec<u32>,
    /// One unique subtable per bottom-based level.
    pub(crate) subtables: Vec<UniqueTable>,
    /// Stored nodes over all subtables, kept current by creation, GC,
    /// sift-time reclamation and the swap commit.
    pub(crate) live: usize,
    /// `var_at_level[l]` = variable whose PV sits at level `l`.
    pub(crate) var_at_level: Vec<u32>,
    /// Inverse map: `level_of_var[v]` = bottom-based level of variable `v`.
    pub(crate) level_of_var: Vec<u32>,
    pub(crate) cache: ComputedCache,
    pub(crate) stats: BbddStats,
    /// Reusable staging buffers for the CVO swap (allocation-churn
    /// avoidance; see `swap.rs`).
    pub(crate) swap_scratch: Option<crate::swap::SwapCtx>,
    /// Reference counts kept while a reorder runs (`None` outside one);
    /// swaps then reclaim their dead nodes locally.
    pub(crate) sift_refs: Option<ddcore::dvo::SiftRefs>,
    /// Dynamic-reordering policy and schedule baselines (see
    /// [`ddcore::dvo`]); `None` policy = no scheduled reordering.
    dvo: ddcore::dvo::DvoState,
    /// External-root registry behind the [`crate::BbddFn`] handles; GC and
    /// sifting trace from here instead of caller-supplied root lists.
    roots: RootSet,
    /// Reusable snapshot buffer for the registry trace; after a
    /// collection it holds the snapshot that collection marked from.
    root_scratch: Vec<u64>,
    /// The automatic-GC latch + collection generation (shared shape with
    /// the ROBDD manager; see [`ddcore::roots::GcLatch`]).
    gc_latch: ddcore::roots::GcLatch,
    /// Governed-operation accounting (the `govern.*` metrics section),
    /// fed by the generic handle layer via `RawManager::note_governed`.
    pub(crate) govern: ddcore::obs::GovernCounters,
    /// Visit scratch of the read-only walks; a fork starts with a new one.
    pub(crate) walk: ddcore::walk::WalkScratch,
}

impl Bbdd {
    /// Create a manager for `num_vars` variables with the identity order
    /// `π = (0, 1, …, n-1)` (variable 0 on top).
    ///
    /// # Panics
    /// Panics if `num_vars` is 0 or exceeds [`ddcore::MAX_VARS`].
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars > 0, "a BBDD manager needs at least one variable");
        assert!(
            num_vars <= ddcore::MAX_VARS,
            "too many variables for 16-bit levels"
        );
        let n = num_vars;
        // Variable t (top-based position t) sits at bottom-based level n-1-t.
        let var_at_level: Vec<u32> = (0..n).map(|l| (n - 1 - l) as u32).collect();
        let mut level_of_var = vec![0u32; n];
        for (l, &v) in var_at_level.iter().enumerate() {
            level_of_var[v as usize] = l as u32;
        }
        Bbdd {
            nodes: vec![Node::terminal()],
            free: Vec::new(),
            subtables: (0..n).map(|_| UniqueTable::new(64)).collect(),
            live: 0,
            var_at_level,
            level_of_var,
            cache: ComputedCache::default(),
            stats: BbddStats::default(),
            swap_scratch: None,
            sift_refs: None,
            dvo: ddcore::dvo::DvoState::default(),
            roots: RootSet::new(),
            root_scratch: Vec::new(),
            gc_latch: ddcore::roots::GcLatch::default(),
            govern: ddcore::obs::GovernCounters::default(),
            walk: ddcore::walk::WalkScratch::default(),
        }
    }

    /// A private flat copy of the node store for an MVCC session fork
    /// (`ddcore::session`): nodes, free list, unique tables, the variable
    /// order and the computed cache are cloned, so every edge minted by
    /// the original manager stays bit-valid and denotes the same function
    /// in the fork. The external-root registry, GC latch, DVO state and
    /// all statistics start fresh — they are semantics-free bookkeeping
    /// that must not be shared between a base snapshot and its sessions.
    #[must_use]
    pub fn fork_state(&self) -> Self {
        Bbdd {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            subtables: self.subtables.clone(),
            live: self.live,
            var_at_level: self.var_at_level.clone(),
            level_of_var: self.level_of_var.clone(),
            cache: self.cache.clone(),
            stats: BbddStats::default(),
            swap_scratch: None,
            sift_refs: None,
            dvo: ddcore::dvo::DvoState::default(),
            roots: RootSet::new(),
            root_scratch: Vec::new(),
            gc_latch: ddcore::roots::GcLatch::default(),
            govern: ddcore::obs::GovernCounters::default(),
            walk: ddcore::walk::WalkScratch::default(),
        }
    }

    /// Number of variables managed.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.var_at_level.len()
    }

    /// The current variable order `π`, top of the diagram first.
    #[must_use]
    pub fn order(&self) -> Vec<usize> {
        self.var_at_level
            .iter()
            .rev()
            .map(|&v| v as usize)
            .collect()
    }

    /// Top-based position of `var` in the current order (0 = root level).
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    #[must_use]
    pub fn position_of(&self, var: usize) -> usize {
        self.num_vars() - 1 - self.level_of_var[var] as usize
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

    /// The positive literal of `var` (reduction rule R4: a single node with
    /// `SV = 1`).
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn var(&mut self, var: usize) -> Edge {
        let level = self.level_of_var[var] as u16;
        self.shannon_node(level)
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

    /// Nodes stored at each level, bottom level first (used by sifting).
    #[must_use]
    pub fn level_sizes(&self) -> Vec<usize> {
        self.subtables.iter().map(UniqueTable::len).collect()
    }

    /// Aggregate unique-table statistics summed over all level subtables.
    #[must_use]
    pub fn table_stats(&self) -> ddcore::TableStats {
        let mut agg = ddcore::TableStats::default();
        for t in &self.subtables {
            agg.absorb(t.stats());
        }
        agg
    }

    /// Counters accumulated since the manager was created, including a
    /// snapshot of the computed-table hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> BbddStats {
        let mut s = self.stats;
        let c = self.cache.stats();
        s.cache_lookups = c.lookups;
        s.cache_hits = c.hits;
        s.cache_evictions = c.evictions;
        s
    }

    /// One uniform [`ddcore::MetricsSnapshot`] over every counter the
    /// manager maintains: node/op/cache/table/GC/roots/DVO/govern
    /// sections under the registry's stable dotted names. This is what
    /// `RawManager::observe` (and therefore the handle layer's
    /// `metrics()`) returns for this backend.
    #[must_use]
    pub fn metrics_snapshot(&self) -> ddcore::MetricsSnapshot {
        let mut m = ddcore::MetricsSnapshot::new("bbdd");
        self.fill_metrics(&mut m, None, ddcore::MemBytes::default());
        m
    }

    /// Fill `m` with this manager's sections. The Par front-end passes its
    /// lock-free cache counters as `par_cache` so the `cache.*` section
    /// stays one unified tree (sequential + concurrent lookups summed,
    /// tear misses appearing only when a concurrent cache exists), and its
    /// overlay's heap bytes as `overlay`, summed into `mem.*`.
    pub(crate) fn fill_metrics(
        &self,
        m: &mut ddcore::MetricsSnapshot,
        par_cache: Option<ddcore::AtomicCacheStats>,
        overlay: ddcore::MemBytes,
    ) {
        let s = self.stats();
        let c = self.cache.stats();
        let t = self.table_stats();
        m.gauge("nodes.live", self.live_nodes() as u64);
        m.gauge("nodes.peak", s.peak_live_nodes as u64);
        m.counter("nodes.created", s.nodes_created);
        m.counter("ops.apply", s.apply_calls);
        m.counter("ops.ite", s.ite_calls);
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
    fn mem_bytes(&self) -> ddcore::MemBytes {
        ddcore::MemBytes {
            arena: self.nodes.capacity() * std::mem::size_of::<Node>()
                + self.free.capacity() * std::mem::size_of::<u32>(),
            table: self.subtables.iter().map(UniqueTable::heap_bytes).sum(),
            cache: self.cache.heap_bytes(),
        }
    }

    /// A stable identifier of the node an edge points to (`None` for the
    /// constants). Two edges with equal ids point at the same stored node;
    /// the id is usable as a map key by exporters.
    #[must_use]
    pub fn edge_id(&self, e: Edge) -> Option<u32> {
        if e.is_constant() {
            None
        } else {
            Some(e.node())
        }
    }

    /// Structural view of the node `e` points to (`None` for constants) —
    /// the public introspection hook used by the DOT exporter and the
    /// BBDD-to-netlist rewriter.
    #[must_use]
    pub fn node_info(&self, e: Edge) -> Option<NodeInfo> {
        if e.is_constant() {
            return None;
        }
        let n = self.node(e.node());
        let level = n.level() as usize;
        let pv = self.var_at_level[level] as usize;
        let sv = if n.is_shannon() || level == 0 {
            None
        } else {
            Some(self.var_at_level[level - 1] as usize)
        };
        Some(NodeInfo {
            level,
            shannon: n.is_shannon(),
            neq: n.neq(),
            eq: n.eq(),
            pv,
            sv,
        })
    }

    #[inline]
    pub(crate) fn node(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    /// Is `e` a constant or an edge to a currently stored (never freed or
    /// out-of-range) node? Used by fallible exporters to reject stale
    /// edges instead of silently serializing garbage.
    pub(crate) fn edge_is_stored(&self, e: Edge) -> bool {
        if e.is_constant() {
            return true;
        }
        let id = e.node() as usize;
        id < self.nodes.len() && !self.nodes[id].is_free()
    }

    /// Take a reusable slot from the free list (used by swap commits).
    pub(crate) fn pop_free(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// Install (or clear, with `None`) the dynamic-reordering policy:
    /// which [`ddcore::dvo::DvoStrategy`] to run and when its
    /// [`ddcore::dvo::ReorderSchedule`] fires. Scheduled firings happen at
    /// handle boundaries (piggybacking on the automatic-GC latch) and at
    /// the network builders' collection gates; the schedule's baselines
    /// reset to the manager's current counters on installation.
    pub fn set_reorder_policy(&mut self, policy: Option<ddcore::dvo::DvoPolicy>) {
        let (live, created) = (self.live_nodes(), self.stats.nodes_created);
        self.dvo.set_policy(policy, live, created);
    }

    /// The installed dynamic-reordering policy, if any.
    #[must_use]
    pub fn reorder_policy(&self) -> Option<ddcore::dvo::DvoPolicy> {
        self.dvo.policy()
    }

    /// Scheduled reorders run so far (via [`Bbdd::reorder_if_needed`] and
    /// its bounded variant).
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

    /// [`Bbdd::reorder_if_needed`] under a resource budget. On abort the
    /// variable order is consistent (the [`Bbdd::sift_strategy`] park-back
    /// contract) and the schedule has re-armed — the trigger was consumed,
    /// so the caller can simply continue with a partially improved order.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn reorder_if_needed_bounded(&mut self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        if !self.dvo.due(self.live_nodes(), self.stats.nodes_created) {
            return Ok(false);
        }
        // A collection may already dissolve the pressure (dead nodes, not
        // a bad order) — re-check before paying for a sift.
        self.gc_keeping(&[]);
        if !self.dvo.due(self.live_nodes(), self.stats.nodes_created) {
            return Ok(false);
        }
        let strategy = self.dvo.strategy().expect("due implies a policy");
        // Scheduled-sift firing marker; the strategy's own Reorder span
        // (opened in `ddcore::dvo`) carries the duration and result.
        ddcore::obs::event(
            ddcore::obs::Op::Reorder,
            Some(("scheduled", self.dvo.reorders() + 1)),
        );
        let res = self.sift_strategy(strategy, budget);
        let (live, created) = (self.live_nodes(), self.stats.nodes_created);
        self.dvo.note_reorder(live, created);
        res.map(|_| true)
    }

    /// Bottom-based level of the node an edge points to (`-1`-like sentinel
    /// `i32::MIN` is avoided by returning `None` for constants).
    #[inline]
    pub(crate) fn edge_level(&self, e: Edge) -> Option<u16> {
        if e.is_constant() {
            None
        } else {
            Some(self.node(e.node()).level())
        }
    }

    /// The Shannon (R4) node of the given level — the positive literal of
    /// that level's PV.
    pub(crate) fn shannon_node(&mut self, level: u16) -> Edge {
        let key = NodeKey::new(true, Edge::ZERO, Edge::ONE);
        Edge::new(self.find_or_insert(level, key), false)
    }

    /// The positive literal of the level *below* `level` — `Edge::ONE` for
    /// the fictitious `SV = 1` of the bottom level.
    pub(crate) fn lit_below(&mut self, level: u16) -> Edge {
        if level == 0 {
            Edge::ONE
        } else {
            self.shannon_node(level - 1)
        }
    }

    /// Is `e` exactly the regular positive literal of the level below
    /// `level`? (The R4 detection pattern; no node is created.)
    fn is_lit_below(&self, e: Edge, level: u16) -> bool {
        if e.is_complemented() {
            return false;
        }
        if level == 0 {
            return e == Edge::ONE;
        }
        if e.is_constant() {
            return false;
        }
        let n = self.node(e.node());
        n.is_shannon() && n.level() == level - 1
    }

    /// Find-or-create the biconditional node `(level, neq, eq)` applying
    /// reduction rules R2 (identical children) and R4 (single-variable
    /// degeneration) and the complement-attribute normalization (regular
    /// =-edge).
    pub(crate) fn make_node(&mut self, level: u16, mut neq: Edge, mut eq: Edge) -> Edge {
        if neq == eq {
            return eq; // R2
        }
        let mut out_c = false;
        if eq.is_complemented() {
            neq = !neq;
            eq = !eq;
            out_c = true;
        }
        // R4: (v ⊕ w)·w' + (v ⊙ w)·w  ≡  the literal v.
        if neq == !eq && self.is_lit_below(eq, level) {
            return self.shannon_node(level).complement_if(out_c);
        }
        debug_assert!(self.child_level_ok(neq, level) && self.child_level_ok(eq, level));
        let key = NodeKey::new(false, neq, eq);
        Edge::new(self.find_or_insert(level, key), out_c)
    }

    fn child_level_ok(&self, child: Edge, level: u16) -> bool {
        match self.edge_level(child) {
            None => true,
            Some(l) => l < level,
        }
    }

    fn find_or_insert(&mut self, level: u16, key: NodeKey) -> u32 {
        let free = &mut self.free;
        let mut created = false;
        let table = &mut self.subtables[level as usize];
        let id = table.get_or_insert_with(key, &mut self.nodes, |nodes| {
            created = true;
            let node = Node::new(level, key.shannon(), key.neq(), key.eq());
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
            self.note_growth(live);
        }
        id
    }

    /// Biconditional cofactors `(f_{v≠w}, f_{v=w})` of `e` with respect to
    /// the (PV, SV) pair of `level`. `level` must be at or above the edge's
    /// top node. Single-variable (Shannon) operands are expanded on the fly
    /// — the lazy equivalent of Algorithm 1's `chain-transform`.
    pub(crate) fn cofactors(&mut self, e: Edge, level: u16) -> (Edge, Edge) {
        if e.is_constant() {
            return (e, e);
        }
        let n = *self.node(e.node());
        if n.level() < level {
            return (e, e);
        }
        debug_assert_eq!(n.level(), level, "cofactor below the node's own level");
        let c = e.is_complemented();
        if n.is_shannon() {
            // f = v:  f_{v≠w} = w',  f_{v=w} = w.
            let lw = self.lit_below(level);
            ((!lw).complement_if(c), lw.complement_if(c))
        } else {
            (n.neq().complement_if(c), n.eq().complement_if(c))
        }
    }

    /// The external-root registry shared with every [`crate::BbddFn`]
    /// handle this manager hands out.
    pub(crate) fn root_set(&self) -> &RootSet {
        &self.roots
    }

    /// Arm the automatic GC: once `make_node` observes the live node count
    /// at or above `threshold`, a collection is *latched* and runs at the
    /// next handle boundary (any `*_fn` operation). After each automatic
    /// collection the trigger re-arms at twice the surviving size (never
    /// below `threshold`), so steady-state traffic is not collection-bound.
    /// `0` disables (the default).
    ///
    /// Collections trace the handle registry — nothing a live [`crate::BbddFn`]
    /// (or clone) denotes is ever reclaimed; raw [`Edge`]s not covered by a
    /// handle are only safe within a single operation.
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_latch.set_threshold(threshold);
    }

    /// The automatic-GC threshold (`0` = disabled).
    #[must_use]
    pub fn gc_threshold(&self) -> usize {
        self.gc_latch.threshold()
    }

    /// Arm the latch when a growth point crosses the trigger (called from
    /// `find_or_insert`; collection itself is deferred to a handle
    /// boundary so mid-recursion edges are never swept away).
    #[inline]
    fn note_growth(&mut self, live: usize) {
        self.gc_latch.note_growth(live);
    }

    /// Monotonic count of collections run through *any* entry point.
    /// Node ids may have been recycled whenever this changes — the Par
    /// front-end compares it to decide when its concurrent cache must be
    /// epoch-invalidated, whatever path triggered the GC.
    pub(crate) fn gc_generation(&self) -> u64 {
        self.gc_latch.generation()
    }

    /// Run the latched automatic collection, if armed. Returns `true` when
    /// a collection ran. This is the handle-boundary collection point used
    /// by every `*_fn` operation.
    pub(crate) fn maybe_auto_gc(&mut self) -> bool {
        if !self.gc_latch.take_pending() {
            return false;
        }
        self.gc_keeping(&[]);
        self.gc_latch.rearm(self.live_nodes());
        // The latch boundary doubles as the reorder schedule's firing
        // point: with a policy installed, long handle-level construction
        // runs reorder adaptively here, not just at explicit collect()
        // gates. (The sift's own collections go through gc_keeping, so the
        // generation counter the Par front-ends watch still advances.)
        self.reorder_if_needed();
        true
    }

    /// Garbage-collect every node not reachable from a registered handle
    /// ([`crate::BbddFn`]); returns the number of nodes reclaimed. The
    /// computed table is invalidated because freed ids may be re-used.
    ///
    /// There is no root list to supply — and therefore none to forget: the
    /// registry behind the handles *is* the root set.
    pub fn gc(&mut self) -> usize {
        self.gc_keeping(&[])
    }

    /// The mark/sweep shared by every GC entry point: roots are the handle
    /// registry snapshot plus `extra` (internal callers such as the sift
    /// shims). The registry lock is *not* held across the trace — see the
    /// reentrancy rule in [`ddcore::roots`].
    pub(crate) fn gc_keeping(&mut self, extra: &[Edge]) -> usize {
        debug_assert!(
            self.sift_refs.is_none(),
            "a full collection inside a reorder scope would strand the sift refcounts"
        );
        let mut span = ddcore::obs::span(ddcore::obs::Op::Gc);
        self.stats.gc_runs += 1;
        self.gc_latch.note_collection();
        // Mark, starting from the registry snapshot + extra roots.
        let mut snap = std::mem::take(&mut self.root_scratch);
        snap.clear();
        self.roots.snapshot_into(&mut snap);
        let mut stack: Vec<u32> = snap
            .iter()
            .map(|&bits| Edge::from_bits(bits as u32))
            .chain(extra.iter().copied())
            .filter(|e| !e.is_constant())
            .map(|e| e.node())
            .collect();
        self.root_scratch = snap;
        while let Some(id) = stack.pop() {
            let n = &mut self.nodes[id as usize];
            if n.is_marked() {
                continue;
            }
            n.set_mark(true);
            let (neq, eq) = (n.neq(), n.eq());
            if !neq.is_constant() {
                stack.push(neq.node());
            }
            if !eq.is_constant() {
                stack.push(eq.node());
            }
        }
        // Sweep; survivors drop their mark bit in the same pass (the
        // tables call the closure exactly once per stored entry).
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
    pub(crate) fn begin_sift_refs(&mut self) {
        self.gc_keeping(&[]);
        let mut refs = ddcore::dvo::SiftRefs::new(self.nodes.len());
        for table in &self.subtables {
            table.for_each(|id| {
                let n = &self.nodes[id as usize];
                refs.inc(n.neq());
                refs.inc(n.eq());
            });
        }
        for &bits in &self.root_scratch {
            refs.inc(Edge::from_bits(bits as u32));
        }
        self.sift_refs = Some(refs);
    }

    /// Close the reorder scope: drop the counts and run the closing full
    /// collection (it also reclaims what handles dropped mid-sift held).
    pub(crate) fn end_sift_refs(&mut self) -> usize {
        self.sift_refs = None;
        self.gc_keeping(&[]);
        self.live
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
            let removed = self.subtables[n.level() as usize].remove(id, &self.nodes);
            debug_assert!(removed, "dead node missing from its subtable");
            self.nodes[id as usize].set_free(true);
            self.free.push(id);
            freed += 1;
            refs.dec(n.neq());
            refs.dec(n.eq());
        }
        if freed > 0 {
            // Freed ids get reused: cached results and the Par front-end's
            // id-keyed cache must not outlive them.
            self.cache.invalidate();
            self.gc_latch.note_collection();
            self.live -= freed;
            self.stats.nodes_freed += freed as u64;
        }
    }

    /// Validate every canonical-form invariant of the stored forest.
    ///
    /// Intended for tests and debugging; cost is linear in the number of
    /// stored nodes.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let stored: usize = self.subtables.iter().map(UniqueTable::len).sum();
        if stored != self.live {
            return Err(format!(
                "live-node counter {} disagrees with the {stored} stored nodes",
                self.live
            ));
        }
        let mut present: HashSet<u32> = HashSet::new();
        for (lvl, table) in self.subtables.iter().enumerate() {
            let mut err: Option<String> = None;
            table.for_each(|id| {
                if err.is_some() {
                    return;
                }
                if !present.insert(id) {
                    err = Some(format!("node {id} stored in two subtables"));
                    return;
                }
                let n = self.node(id);
                if n.is_free() {
                    err = Some(format!("free node {id} still in subtable {lvl}"));
                    return;
                }
                if n.level() as usize != lvl {
                    err = Some(format!(
                        "node {id} at subtable {lvl} has level {}",
                        n.level()
                    ));
                    return;
                }
                if table.peek(&n.key(), &self.nodes) != Some(id) {
                    err = Some(format!("node {id} not found under its own key"));
                    return;
                }
                if n.eq().is_complemented() {
                    err = Some(format!("node {id} has complemented =-edge"));
                    return;
                }
                if n.neq() == n.eq() {
                    err = Some(format!("node {id} violates R2"));
                    return;
                }
                if n.is_shannon() {
                    if n.neq() != Edge::ZERO || n.eq() != Edge::ONE {
                        err = Some(format!("shannon node {id} with non-literal children"));
                    }
                } else {
                    if n.neq() == !n.eq() && self.is_lit_below(n.eq(), n.level()) {
                        err = Some(format!("node {id} violates R4"));
                        return;
                    }
                    for child in [n.neq(), n.eq()] {
                        if let Some(cl) = self.edge_level(child) {
                            if cl >= n.level() {
                                err = Some(format!(
                                    "node {id} child level {cl} >= own level {}",
                                    n.level()
                                ));
                                return;
                            }
                        }
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        // Every child of a stored node must itself be stored.
        for (lvl, table) in self.subtables.iter().enumerate() {
            let mut err: Option<String> = None;
            table.for_each(|id| {
                if err.is_some() {
                    return;
                }
                let n = self.node(id);
                for child in [n.neq(), n.eq()] {
                    if !child.is_constant() && !present.contains(&child.node()) {
                        err = Some(format!(
                            "node {id} at level {lvl} references unstored node {}",
                            child.node()
                        ));
                        return;
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
