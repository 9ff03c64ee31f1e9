//! The ROBDD manager: arena, per-variable unique tables, the variable
//! order, node construction and garbage collection.

use crate::edge::Edge;
use crate::node::{BddKey, Node, TERMINAL_VAR};
use ddcore::cache::ComputedCache;
use ddcore::roots::RootSet;
use ddcore::table::UniqueTable;

// Every variable index below the limit is distinct from the sink marker.
const _: () = assert!(ddcore::MAX_VARS < TERMINAL_VAR as usize);

/// Counters exposed for the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobddStats {
    /// Recursive apply/ite invocations.
    pub apply_calls: u64,
    /// Recursive quantification entries (`exists`/`forall`/`and_exists`).
    pub quant_calls: u64,
    /// Composition operations (`compose` and `vector_compose` recursion
    /// entries).
    pub compose_calls: u64,
    /// Recursive n-ary `apply` entries.
    pub nary_calls: u64,
    /// Nodes created (unique-table inserts).
    pub nodes_created: u64,
    /// Garbage-collection runs.
    pub gc_runs: u64,
    /// Nodes reclaimed.
    pub nodes_freed: u64,
    /// Adjacent swaps performed.
    pub swaps: u64,
    /// Peak live node count.
    pub peak_live_nodes: usize,
    /// Computed-table lookups (snapshot taken by [`Robdd::stats`]).
    pub cache_lookups: u64,
    /// Computed-table hits.
    pub cache_hits: u64,
    /// Computed-table evictions (inserts that overwrote a live entry).
    pub cache_evictions: u64,
}

impl RobddStats {
    /// Computed-table misses.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache_lookups - self.cache_hits
    }
}

/// Public structural view of one ROBDD node (see [`Robdd::node_info`]):
/// the Shannon triple `ite(var, then, else)`. The *then*-edge is always
/// regular (complement attributes are normalized onto *else*/result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobddNodeInfo {
    /// Variable index tested by the node.
    pub var: usize,
    /// The `var = 1` child edge (always regular).
    pub then_: Edge,
    /// The `var = 0` child edge.
    pub else_: Edge,
}

/// A manager for Reduced Ordered BDDs with complement edges over a fixed
/// variable set, CUDD-style.
///
/// ```
/// use robdd::Robdd;
/// let mut mgr = Robdd::new(2);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.xor(a, b);
/// assert!(mgr.eval(f, &[true, false]));
/// assert_eq!(mgr.node_count(f), 2, "XOR takes two BDD nodes");
/// ```
#[derive(Debug)]
pub struct Robdd {
    pub(crate) nodes: Vec<Node>,
    free: Vec<u32>,
    /// One subtable per *variable* (indices never move during reordering).
    pub(crate) subtables: Vec<UniqueTable>,
    /// Stored nodes over all subtables, kept current by creation, GC and
    /// sift-time reclamation.
    live: usize,
    /// `var_at_pos[p]` = variable at top-based order position `p`.
    pub(crate) var_at_pos: Vec<u32>,
    /// Inverse permutation.
    pub(crate) pos_of_var: Vec<u32>,
    pub(crate) cache: ComputedCache,
    pub(crate) stats: RobddStats,
    /// Reference counts kept while a reorder runs (`None` outside one);
    /// swaps then reclaim their dead nodes locally.
    pub(crate) sift_refs: Option<ddcore::dvo::SiftRefs>,
    /// Level widths and the interaction matrix the sift bound reads,
    /// built when a reorder opens (`None` outside one).
    pub(crate) sift_bound: Option<crate::reorder::SiftBound>,
    /// External-root registry behind the [`crate::RobddFn`] handles; GC
    /// and sifting trace from here instead of caller-supplied root lists.
    roots: RootSet,
    /// Reusable snapshot buffer for the registry trace; after a
    /// collection it holds the snapshot that collection marked from.
    pub(crate) root_scratch: Vec<u64>,
    /// The automatic-GC latch + collection generation (shared shape with
    /// the BBDD manager; see [`ddcore::roots::GcLatch`]).
    gc_latch: ddcore::roots::GcLatch,
    /// Dynamic-reordering policy and schedule baselines (see
    /// [`ddcore::dvo`]); `None` policy = no scheduled reordering.
    dvo: ddcore::dvo::DvoState,
    /// Governed-operation accounting (the `govern.*` metrics section),
    /// fed by the generic handle layer via `RawManager::note_governed`.
    pub(crate) govern: ddcore::obs::GovernCounters,
    /// Visit scratch of the read-only walks; a fork starts with a new one.
    pub(crate) walk: ddcore::walk::WalkScratch,
}

impl Robdd {
    /// Create a manager for `num_vars` variables with the identity order.
    ///
    /// # Panics
    /// Panics if `num_vars` is 0 or exceeds [`ddcore::MAX_VARS`].
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars > 0, "a BDD manager needs at least one variable");
        assert!(
            num_vars <= ddcore::MAX_VARS,
            "too many variables for 16-bit indices"
        );
        Robdd {
            nodes: vec![Node::terminal()],
            free: Vec::new(),
            subtables: (0..num_vars).map(|_| UniqueTable::new(64)).collect(),
            live: 0,
            var_at_pos: (0..num_vars as u32).collect(),
            pos_of_var: (0..num_vars as u32).collect(),
            cache: ComputedCache::default(),
            stats: RobddStats::default(),
            sift_refs: None,
            sift_bound: None,
            roots: RootSet::new(),
            root_scratch: Vec::new(),
            gc_latch: ddcore::roots::GcLatch::default(),
            dvo: ddcore::dvo::DvoState::default(),
            govern: ddcore::obs::GovernCounters::default(),
            walk: ddcore::walk::WalkScratch::default(),
        }
    }

    /// A private flat copy of the node store for an MVCC session fork
    /// (`ddcore::session`), mirroring the BBDD manager's `fork_state`:
    /// the node slab, free list, unique tables, variable order and
    /// computed cache are cloned so every base edge stays bit-valid in
    /// the fork; roots, GC latch, DVO state and statistics start fresh.
    #[must_use]
    pub fn fork_state(&self) -> Self {
        Robdd {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            subtables: self.subtables.clone(),
            live: self.live,
            var_at_pos: self.var_at_pos.clone(),
            pos_of_var: self.pos_of_var.clone(),
            cache: self.cache.clone(),
            stats: RobddStats::default(),
            sift_refs: None,
            sift_bound: None,
            roots: RootSet::new(),
            root_scratch: Vec::new(),
            gc_latch: ddcore::roots::GcLatch::default(),
            dvo: ddcore::dvo::DvoState::default(),
            govern: ddcore::obs::GovernCounters::default(),
            walk: ddcore::walk::WalkScratch::default(),
        }
    }

    /// Number of variables managed.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.var_at_pos.len()
    }

    /// The current variable order, top first.
    #[must_use]
    pub fn order(&self) -> Vec<usize> {
        self.var_at_pos.iter().map(|&v| v as usize).collect()
    }

    /// Top-based position of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    #[must_use]
    pub fn position_of(&self, var: usize) -> usize {
        self.pos_of_var[var] as usize
    }

    /// Constant true.
    #[must_use]
    pub fn one(&self) -> Edge {
        Edge::ONE
    }

    /// Constant false.
    #[must_use]
    pub fn zero(&self) -> Edge {
        Edge::ZERO
    }

    /// The positive literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn var(&mut self, var: usize) -> Edge {
        self.make_node(var as u16, Edge::ONE, Edge::ZERO)
    }

    /// The negative literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn nvar(&mut self, var: usize) -> Edge {
        !self.var(var)
    }

    /// Total stored nodes (excluding the sink).
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// Aggregate unique-table statistics summed over all variable
    /// subtables.
    #[must_use]
    pub fn table_stats(&self) -> ddcore::TableStats {
        let mut agg = ddcore::TableStats::default();
        for t in &self.subtables {
            agg.absorb(t.stats());
        }
        agg
    }

    /// Counters accumulated since creation, including a snapshot of the
    /// computed-table hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> RobddStats {
        let mut s = self.stats;
        let c = self.cache.stats();
        s.cache_lookups = c.lookups;
        s.cache_hits = c.hits;
        s.cache_evictions = c.evictions;
        s
    }

    /// One uniform [`ddcore::MetricsSnapshot`] over every counter the
    /// manager maintains, under the registry's stable dotted names
    /// (`apply` and `ite` share one recursion counter here, so `ops.ite`
    /// is absent). This is what `RawManager::observe` returns for this
    /// backend.
    #[must_use]
    pub fn metrics_snapshot(&self) -> ddcore::MetricsSnapshot {
        let mut m = ddcore::MetricsSnapshot::new("robdd");
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
    /// the public introspection hook used by the DOT exporter's callers
    /// and the BDD-to-netlist rewriter.
    #[must_use]
    pub fn node_info(&self, e: Edge) -> Option<RobddNodeInfo> {
        if e.is_constant() {
            return None;
        }
        let n = self.node(e.node());
        Some(RobddNodeInfo {
            var: n.var() as usize,
            then_: n.then_(),
            else_: n.else_(),
        })
    }

    #[inline]
    pub(crate) fn node(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    /// Top-based position of the node an edge points to (`usize::MAX` for
    /// constants, i.e. "below everything").
    #[inline]
    pub(crate) fn edge_pos(&self, e: Edge) -> usize {
        if e.is_constant() {
            usize::MAX
        } else {
            self.pos_of_var[self.node(e.node()).var() as usize] as usize
        }
    }

    /// Find-or-create `ite(var, then, else)` with the reduction rule and
    /// the regular-*then* normalization.
    pub(crate) fn make_node(&mut self, var: u16, mut then_: Edge, mut else_: Edge) -> Edge {
        if then_ == else_ {
            return then_;
        }
        let mut out_c = false;
        if then_.is_complemented() {
            then_ = !then_;
            else_ = !else_;
            out_c = true;
        }
        debug_assert!(self.child_below(then_, var) && self.child_below(else_, var));
        let key = BddKey::new(then_, else_);
        let free = &mut self.free;
        let mut created = false;
        let table = &mut self.subtables[var as usize];
        let id = table.get_or_insert_with(key, &mut self.nodes, |nodes| {
            created = true;
            let node = Node::new(var, then_, else_);
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
        Edge::new(id, out_c)
    }

    fn child_below(&self, child: Edge, var: u16) -> bool {
        child.is_constant()
            || self.pos_of_var[self.node(child.node()).var() as usize]
                > self.pos_of_var[var as usize]
    }

    /// Shannon cofactors of `e` with respect to `var` (which must be at or
    /// above `e`'s top variable in the order).
    pub(crate) fn cofactors(&self, e: Edge, var: u16) -> (Edge, Edge) {
        if e.is_constant() {
            return (e, e);
        }
        let n = self.node(e.node());
        if n.var() != var {
            return (e, e);
        }
        let c = e.is_complemented();
        (n.then_().complement_if(c), n.else_().complement_if(c))
    }

    /// The external-root registry shared with every [`crate::RobddFn`]
    /// handle this manager hands out.
    pub(crate) fn root_set(&self) -> &RootSet {
        &self.roots
    }

    /// Arm the automatic GC latch (mirror of `bbdd`'s
    /// `Bbdd::set_gc_threshold`): once `make_node` observes the live node
    /// count at or above `threshold`, a collection is latched and runs at
    /// the next handle boundary (any `*_fn` operation), re-arming at twice
    /// the surviving size. `0` disables (the default).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_latch.set_threshold(threshold);
    }

    /// The automatic-GC threshold (`0` = disabled).
    #[must_use]
    pub fn gc_threshold(&self) -> usize {
        self.gc_latch.threshold()
    }

    #[inline]
    fn note_growth(&mut self, live: usize) {
        self.gc_latch.note_growth(live);
    }

    /// Monotonic count of collections run through *any* entry point (see
    /// the BBDD manager's twin — the Par front-end keys its concurrent
    /// cache invalidation off this).
    pub(crate) fn gc_generation(&self) -> u64 {
        self.gc_latch.generation()
    }

    /// Run the latched automatic collection, if armed; returns `true`
    /// when a collection ran (the handle-boundary collection point).
    pub(crate) fn maybe_auto_gc(&mut self) -> bool {
        if !self.gc_latch.take_pending() {
            return false;
        }
        self.gc_keeping(&[]);
        self.gc_latch.rearm(self.live_nodes());
        // The latch boundary doubles as the reorder schedule's firing
        // point (see the BBDD manager's twin).
        self.reorder_if_needed();
        true
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

    /// Scheduled reorders run so far (via [`Robdd::reorder_if_needed`] and
    /// its bounded variant).
    #[must_use]
    pub fn scheduled_reorders(&self) -> u64 {
        self.dvo.reorders()
    }

    /// Collect (tracing the handle registry) and, if the installed
    /// policy's schedule is due, run its strategy. Returns `true` when a
    /// reorder ran.
    pub fn reorder_if_needed(&mut self) -> bool {
        self.reorder_if_needed_bounded(&mut ddcore::govern::OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::reorder_if_needed`] under a resource budget. On abort the
    /// variable order is consistent (the [`Robdd::sift_strategy`] park-back
    /// contract) and the schedule has re-armed — the trigger was consumed,
    /// so the caller can simply continue with a partially improved order.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn reorder_if_needed_bounded(
        &mut self,
        budget: &mut ddcore::govern::OpBudget,
    ) -> Result<bool, ddcore::govern::OpAbort> {
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

    /// Garbage-collect every node not reachable from a registered handle
    /// ([`crate::RobddFn`]). There is no root list to supply — and
    /// therefore none to forget: the registry behind the handles *is* the
    /// root set.
    pub fn gc(&mut self) -> usize {
        self.gc_keeping(&[])
    }

    /// The mark/sweep shared by every GC entry point: roots are the
    /// handle-registry snapshot plus `extra` (internal callers such as the
    /// sift shims). The registry lock is *not* held across the trace.
    pub(crate) fn gc_keeping(&mut self, extra: &[Edge]) -> usize {
        debug_assert!(
            self.sift_refs.is_none(),
            "a full collection inside a reorder scope would strand the sift refcounts"
        );
        let mut span = ddcore::obs::span(ddcore::obs::Op::Gc);
        self.stats.gc_runs += 1;
        self.gc_latch.note_collection();
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
            let (t, e) = (n.then_(), n.else_());
            if !t.is_constant() {
                stack.push(t.node());
            }
            if !e.is_constant() {
                stack.push(e.node());
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
                refs.inc(n.then_());
                refs.inc(n.else_());
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
            let removed = self.subtables[n.var() as usize].remove(id, &self.nodes);
            debug_assert!(removed, "dead node missing from its subtable");
            self.nodes[id as usize].set_free(true);
            self.free.push(id);
            freed += 1;
            refs.dec(n.then_());
            refs.dec(n.else_());
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

    /// Validate the canonical-form invariants (tests/debugging).
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
        for (var, table) in self.subtables.iter().enumerate() {
            let mut err: Option<String> = None;
            table.for_each(|id| {
                if err.is_some() {
                    return;
                }
                if !present.insert(id) {
                    err = Some(format!("node {id} stored twice"));
                    return;
                }
                let n = self.node(id);
                if n.is_free() {
                    err = Some(format!("free node {id} still stored"));
                    return;
                }
                if n.var() as usize != var {
                    err = Some(format!("node {id} in wrong subtable"));
                    return;
                }
                if table.peek(&n.key(), &self.nodes) != Some(id) {
                    err = Some(format!("node {id} not found under its own key"));
                    return;
                }
                if n.then_().is_complemented() {
                    err = Some(format!("node {id} has complemented then-edge"));
                    return;
                }
                if n.then_() == n.else_() {
                    err = Some(format!("node {id} is redundant"));
                    return;
                }
                for child in [n.then_(), n.else_()] {
                    if !self.child_below(child, n.var()) {
                        err = Some(format!("node {id} breaks the order"));
                        return;
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        for table in &self.subtables {
            let mut err: Option<String> = None;
            table.for_each(|id| {
                if err.is_some() {
                    return;
                }
                let n = self.node(id);
                for child in [n.then_(), n.else_()] {
                    if !child.is_constant() && !present.contains(&child.node()) {
                        err = Some(format!("node {id} references unstored node"));
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
    fn literals_and_reduction() {
        let mut mgr = Robdd::new(3);
        let a1 = mgr.var(0);
        let a2 = mgr.var(0);
        assert_eq!(a1, a2);
        assert_eq!(mgr.live_nodes(), 1);
        let r = mgr.make_node(1, a1, a1);
        assert_eq!(r, a1, "redundant node reduced");
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn complement_normalization() {
        let mut mgr = Robdd::new(2);
        let b = mgr.var(1);
        let n1 = mgr.make_node(0, b, !b);
        let n2 = mgr.make_node(0, !b, b);
        assert_eq!(n1, !n2, "complement pairs share one node");
        assert_eq!(mgr.live_nodes(), 2);
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn gc_frees_and_reuses() {
        let mut mgr = Robdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let keep = mgr.make_node(0, b, !b);
        let _keep = mgr.pin(keep);
        let freed = mgr.gc();
        assert!(freed >= 1, "the bare literal {a:?} should die");
        assert!(mgr.validate().is_ok());
        let a2 = mgr.var(0);
        assert!(!a2.is_constant());
        assert!(mgr.validate().is_ok());
    }
}
