//! The MVCC session layer: immutable shared base snapshots, per-client
//! overlay sessions, and epoch-based reclamation — BDD-as-a-service.
//!
//! The parallel managers' frozen-base / append-only-overlay /
//! deterministic-commit pipeline is an MVCC primitive: readers never see a
//! write in progress because writes land in private scratch space and are
//! committed at a quiescent point. This module promotes that design from a
//! per-operation trick into a serving architecture:
//!
//! * [`SharedBase`] — an immutable, `Arc`-shared snapshot of any
//!   [`RawManager`] backend holding a published function [`Library`].
//!   Nothing hands out `&mut` access to a published backend, so the
//!   snapshot is frozen by construction and can be read from any number
//!   of threads without a lock.
//! * [`Session`] — a per-client overlay forked off a base snapshot
//!   ([`SessionBackend::fork`]: a flat copy of the node store sharing no
//!   mutable state with the base). All session operations run in the
//!   fork, so concurrent sessions never contend and results are
//!   *bit-identical* to running the same operations sequentially on a
//!   private manager. Admission control is a per-session
//!   [`Admission`] minting one [`OpBudget`] per request, all carrying the
//!   session's [`CancelToken`](crate::govern::CancelToken).
//! * **Epoch reclamation** — every snapshot belongs to an epoch tracked by
//!   an [`EpochTracker`] shared along the publish lineage. Dropping a
//!   session reclaims its overlay nodes immediately (the fork is freed,
//!   and the `session.*` gauges fall back); [`Session::publish`] runs the
//!   deterministic commit (collect dead intermediates, merge the session's
//!   stored functions into the library) and mints the next-epoch snapshot.
//!   A retired snapshot is freed exactly when its epoch drains — the last
//!   `Arc` (held by its remaining sessions) drops — and never earlier.
//!
//! ```
//! use ddcore::session::{Library, SessionBackend, SharedBase};
//! # // The doctest runs on the truth-table test backend compiled into
//! # // ddcore's test build only; real backends live in the manager crates.
//! ```
//!
//! The serving front door (newline-delimited JSON over stdio or TCP) is
//! built on this module by the CLI; see `DESIGN.md` § Serving.

use crate::api::RawManager;
use crate::boolop::BoolOp;
use crate::govern::{Admission, OpAbort, OpBudget};
use crate::obs::{span, MetricsSnapshot, Op};
use crate::roots::RootGuard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ───────────────────────── function library ──────────────────────────────

/// A published, named function library: the content of a [`SharedBase`].
///
/// Entries are name → edge in insertion order (publish order is part of
/// the deterministic-commit contract); `inputs` names the variable space
/// (`inputs[i]` is manager variable `i`).
#[derive(Debug, Clone)]
pub struct Library<E> {
    inputs: Vec<String>,
    names: Vec<String>,
    edges: Vec<E>,
    index: HashMap<String, usize>,
}

impl<E: Copy> Library<E> {
    /// An empty library over the named variable space.
    #[must_use]
    pub fn new(inputs: Vec<String>) -> Self {
        Library {
            inputs,
            names: Vec::new(),
            edges: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Insert (or overwrite) `name` → `edge`; returns `true` when the name
    /// was new.
    pub fn insert(&mut self, name: &str, edge: E) -> bool {
        if let Some(&i) = self.index.get(name) {
            self.edges[i] = edge;
            false
        } else {
            self.index.insert(name.to_string(), self.names.len());
            self.names.push(name.to_string());
            self.edges.push(edge);
            true
        }
    }

    /// Look up a published function.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<E> {
        self.index.get(name).map(|&i| self.edges[i])
    }

    /// Published names in insertion order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Published edges, parallel to [`Library::names`].
    #[must_use]
    pub fn edges(&self) -> &[E] {
        &self.edges
    }

    /// Variable names; `inputs()[i]` is manager variable `i`.
    #[must_use]
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Index of a named input variable.
    #[must_use]
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|n| n == name)
    }

    /// Number of published functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing is published.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// `(name, edge)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, E)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.edges.iter().copied())
    }
}

// ───────────────────────── epoch tracking ────────────────────────────────

/// Shared bookkeeping of one publish lineage: epochs, live/retired
/// snapshots, live sessions and their overlay-node footprint. All counters
/// are atomics — sessions on different threads update them without a lock
/// — and surface as the `session.*` / `epoch.*` metrics sections.
#[derive(Debug, Default)]
pub struct EpochTracker {
    epoch: AtomicU64,
    snapshots_live: AtomicU64,
    snapshots_retired: AtomicU64,
    published: AtomicU64,
    sessions_created: AtomicU64,
    sessions_live: AtomicU64,
    sessions_dropped: AtomicU64,
    overlay_nodes: AtomicU64,
    nodes_reclaimed: AtomicU64,
    ops: AtomicU64,
    ops_aborted: AtomicU64,
}

impl EpochTracker {
    fn next_epoch(&self) -> u64 {
        self.snapshots_live.fetch_add(1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn note_snapshot_retired(&self) {
        self.snapshots_live.fetch_sub(1, Ordering::Relaxed);
        self.snapshots_retired.fetch_add(1, Ordering::Relaxed);
    }

    fn note_session_created(&self) {
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
        self.sessions_live.fetch_add(1, Ordering::Relaxed);
    }

    fn note_session_dropped(&self, overlay_nodes: u64, ops: u64, aborted: u64) {
        self.sessions_live.fetch_sub(1, Ordering::Relaxed);
        self.sessions_dropped.fetch_add(1, Ordering::Relaxed);
        self.overlay_nodes
            .fetch_sub(overlay_nodes, Ordering::Relaxed);
        self.nodes_reclaimed
            .fetch_add(overlay_nodes, Ordering::Relaxed);
        self.ops.fetch_add(ops, Ordering::Relaxed);
        self.ops_aborted.fetch_add(aborted, Ordering::Relaxed);
    }

    fn note_published(&self) {
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    fn adjust_overlay_nodes(&self, old: u64, new: u64) {
        if new >= old {
            self.overlay_nodes.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.overlay_nodes.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Current (highest published) epoch.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Snapshots not yet retired (their epochs have not drained).
    #[must_use]
    pub fn snapshots_live(&self) -> u64 {
        self.snapshots_live.load(Ordering::Relaxed)
    }

    /// Snapshots whose epoch drained (every `Arc`, i.e. every session on
    /// them, released).
    #[must_use]
    pub fn snapshots_retired(&self) -> u64 {
        self.snapshots_retired.load(Ordering::Relaxed)
    }

    /// Live sessions across all snapshots of this lineage.
    #[must_use]
    pub fn sessions_live(&self) -> u64 {
        self.sessions_live.load(Ordering::Relaxed)
    }

    /// Current overlay-node footprint of all live sessions.
    #[must_use]
    pub fn overlay_nodes(&self) -> u64 {
        self.overlay_nodes.load(Ordering::Relaxed)
    }

    /// Overlay nodes reclaimed by dropped (or published) sessions.
    #[must_use]
    pub fn nodes_reclaimed(&self) -> u64 {
        self.nodes_reclaimed.load(Ordering::Relaxed)
    }

    /// `publish()` commits in this lineage.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Fill the `session.*` and `epoch.*` metrics sections.
    pub fn fill(&self, m: &mut MetricsSnapshot) {
        m.gauge("epoch.current", self.current_epoch());
        m.gauge("epoch.snapshots_live", self.snapshots_live());
        m.counter("epoch.snapshots_retired", self.snapshots_retired());
        m.counter("epoch.published", self.published());
        m.counter(
            "session.created",
            self.sessions_created.load(Ordering::Relaxed),
        );
        m.gauge("session.live", self.sessions_live());
        m.counter(
            "session.dropped",
            self.sessions_dropped.load(Ordering::Relaxed),
        );
        m.gauge("session.nodes", self.overlay_nodes());
        m.counter("session.nodes_reclaimed", self.nodes_reclaimed());
        m.counter("session.ops", self.ops.load(Ordering::Relaxed));
        m.counter(
            "session.ops_aborted",
            self.ops_aborted.load(Ordering::Relaxed),
        );
    }
}

// ───────────────────────── backend seam ──────────────────────────────────

/// The one extra capability a [`RawManager`] needs to participate in the
/// session layer: forking a private copy whose edges are bit-identical to
/// the original's.
///
/// A fork shares **no mutable state** with its source — mutating the fork
/// can never be observed through the base, which is what lets any number
/// of sessions run without locking the shared snapshot. Transient caches,
/// statistics and the external-root registry start fresh in the fork
/// (none of them affect function semantics or node identity); the node
/// store and variable order are copied, so every edge of the base denotes
/// the same function in the fork.
pub trait SessionBackend: RawManager<Edge: Send + Sync> + Send + Sync + Sized + 'static {
    /// A private copy of this manager; see the trait docs for the
    /// edge-validity and isolation contract.
    fn fork(&self) -> Self;
}

// ───────────────────────── shared base ───────────────────────────────────

/// An immutable, `Arc`-shared snapshot of a backend holding a published
/// [`Library`] — the MVCC base version sessions fork from.
///
/// No `&mut` access exists once published, so reads (session forks,
/// lock-free [`SharedBase::eval`] probes) need no synchronization. The
/// snapshot is retired — its [`EpochTracker`] counters move — exactly when
/// the last `Arc` drops, i.e. when its epoch has drained.
#[derive(Debug)]
pub struct SharedBase<M: RawManager> {
    backend: M,
    library: Library<M::Edge>,
    epoch: u64,
    tracker: Arc<EpochTracker>,
}

impl<M: SessionBackend> SharedBase<M> {
    /// Publish `backend` + `library` as the first snapshot of a new
    /// lineage (epoch 1).
    pub fn publish(backend: M, library: Library<M::Edge>) -> Arc<Self> {
        Self::publish_with(backend, library, Arc::new(EpochTracker::default()))
    }

    /// Publish into an existing lineage (the [`Session::publish`] path).
    pub fn publish_with(
        backend: M,
        library: Library<M::Edge>,
        tracker: Arc<EpochTracker>,
    ) -> Arc<Self> {
        let _sp = span(Op::Publish);
        let epoch = tracker.next_epoch();
        Arc::new(SharedBase {
            backend,
            library,
            epoch,
            tracker,
        })
    }

    /// Fork a session with no default request limits.
    #[must_use]
    pub fn session(self: &Arc<Self>) -> Session<M> {
        self.session_with(Admission::unlimited())
    }

    /// Fork a session under the given admission-control policy.
    #[must_use]
    pub fn session_with(self: &Arc<Self>, admission: Admission) -> Session<M> {
        Session::fork(Arc::clone(self), admission)
    }

    /// The published library.
    #[must_use]
    pub fn library(&self) -> &Library<M::Edge> {
        &self.library
    }

    /// Read access to the frozen backend.
    #[must_use]
    pub fn backend(&self) -> &M {
        &self.backend
    }

    /// This snapshot's epoch (1-based within its lineage).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The lineage's shared epoch/session bookkeeping.
    #[must_use]
    pub fn tracker(&self) -> &Arc<EpochTracker> {
        &self.tracker
    }

    /// Lock-free point query against the frozen base — no session needed
    /// for pure reads that allocate nothing.
    #[must_use]
    pub fn eval(&self, name: &str, assignment: &[bool]) -> Option<bool> {
        let f = self.library.get(name)?;
        Some(self.backend.eval_edge(f, assignment))
    }
}

impl<M: RawManager> Drop for SharedBase<M> {
    fn drop(&mut self) {
        self.tracker.note_snapshot_retired();
    }
}

// ───────────────────────── session errors ────────────────────────────────

/// A session request that could not produce a full result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The named function is neither published nor session-local.
    UnknownFunction(String),
    /// Structurally invalid request (bad variable index, short
    /// assignment, …).
    InvalidRequest(String),
    /// The request's [`OpBudget`] stopped the operation — a partial
    /// verdict, the session and base both remain fully usable.
    Aborted(OpAbort),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            SessionError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            SessionError::Aborted(a) => write!(f, "aborted: {a}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<OpAbort> for SessionError {
    fn from(a: OpAbort) -> Self {
        SessionError::Aborted(a)
    }
}

/// Outcome of an in-session combinational equivalence check between two
/// published (or session-local) functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecOutcome {
    /// `true` when the functions agree on every assignment.
    pub equivalent: bool,
    /// A distinguishing assignment when inequivalent.
    pub counterexample: Option<Vec<bool>>,
    /// Number of distinguishing assignments (`None` when equivalent or
    /// uncountable in 128 bits).
    pub distinguishing: Option<u128>,
}

// ───────────────────────── session ───────────────────────────────────────

/// A per-client overlay over a [`SharedBase`] snapshot.
///
/// The session owns a private fork of the frozen backend: every operation
/// runs against base functions without locking the base, new nodes land
/// in the fork only, and results computed here are bit-identical to the
/// same operations run sequentially on a private manager (determinism is
/// the backends' contract; the fork starts from the identical node
/// store). Results can be stored under session-local names, queried, and
/// finally committed with [`Session::publish`] — or discarded wholesale
/// by dropping the session, which reclaims every overlay node at once.
#[derive(Debug)]
pub struct Session<M: SessionBackend> {
    base: Arc<SharedBase<M>>,
    /// `None` only after `publish` consumed the fork.
    overlay: Option<M>,
    admission: Admission,
    locals: HashMap<String, M::Edge>,
    /// Root pins keeping the library and the session-local definitions
    /// alive across session-initiated collections.
    pins: Vec<RootGuard>,
    /// Live nodes in the fork at creation — the base's share, excluded
    /// from this session's overlay accounting.
    base_live: usize,
    /// Overlay-node count last reported to the tracker gauge.
    reported_nodes: u64,
    ops: u64,
    aborted: u64,
}

impl<M: SessionBackend> Session<M> {
    fn fork(base: Arc<SharedBase<M>>, admission: Admission) -> Self {
        let mut sp = span(Op::SessionFork);
        sp.set_arg("epoch", base.epoch);
        let overlay = base.backend.fork();
        let pins = overlay
            .root_registry()
            .guard_many(base.library.edges().iter().map(|&e| M::edge_bits(e)));
        let base_live = overlay.live_nodes();
        base.tracker.note_session_created();
        Session {
            base,
            overlay: Some(overlay),
            admission,
            locals: HashMap::new(),
            pins,
            base_live,
            reported_nodes: 0,
            ops: 0,
            aborted: 0,
        }
    }

    fn overlay(&self) -> &M {
        self.overlay.as_ref().expect("session fork is live")
    }

    fn overlay_mut(&mut self) -> &mut M {
        self.overlay.as_mut().expect("session fork is live")
    }

    /// The snapshot this session reads from.
    #[must_use]
    pub fn base(&self) -> &Arc<SharedBase<M>> {
        &self.base
    }

    /// The session's admission-control policy (cancel it to abort the
    /// in-flight and all future requests).
    #[must_use]
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Nodes this session has materialized beyond the base snapshot.
    #[must_use]
    pub fn overlay_nodes(&self) -> usize {
        self.overlay().live_nodes().saturating_sub(self.base_live)
    }

    /// Resolve a name: session-local definitions shadow the library.
    pub fn edge(&self, name: &str) -> Result<M::Edge, SessionError> {
        self.locals
            .get(name)
            .copied()
            .or_else(|| self.base.library.get(name))
            .ok_or_else(|| SessionError::UnknownFunction(name.to_string()))
    }

    /// Names visible to this session: the library's, then the locals'.
    #[must_use]
    pub fn visible_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.base.library.names().to_vec();
        let mut locals: Vec<&String> = self
            .locals
            .keys()
            .filter(|n| self.base.library.get(n).is_none())
            .collect();
        locals.sort();
        names.extend(locals.into_iter().cloned());
        names
    }

    /// Bind `name` to an edge of this session's fork (pinning it across
    /// session collections). Local names shadow the library and are the
    /// candidates [`Session::publish`] commits.
    pub fn store(&mut self, name: &str, edge: M::Edge) {
        self.pins
            .push(self.overlay().root_registry().guard(M::edge_bits(edge)));
        self.locals.insert(name.to_string(), edge);
    }

    /// Book-keep one finished request: op/abort counters plus the shared
    /// overlay-node gauge.
    fn finish_op<T>(&mut self, r: Result<T, OpAbort>) -> Result<T, SessionError> {
        self.ops += 1;
        if r.is_err() {
            self.aborted += 1;
        }
        let now = self.overlay_nodes() as u64;
        self.base
            .tracker
            .adjust_overlay_nodes(self.reported_nodes, now);
        self.reported_nodes = now;
        r.map_err(SessionError::from)
    }

    fn check_vars(&self, vars: &[usize]) -> Result<(), SessionError> {
        let n = self.overlay().num_vars();
        match vars.iter().find(|&&v| v >= n) {
            Some(&v) => Err(SessionError::InvalidRequest(format!(
                "variable {v} out of range (manager has {n})"
            ))),
            None => Ok(()),
        }
    }

    /// Evaluate a function on a full assignment (`assignment[i]` =
    /// variable `i`). Pure read; never allocates overlay nodes.
    pub fn eval(&mut self, name: &str, assignment: &[bool]) -> Result<bool, SessionError> {
        let f = self.edge(name)?;
        let n = self.overlay().num_vars();
        if assignment.len() < n {
            return Err(SessionError::InvalidRequest(format!(
                "assignment has {} values, manager has {n} variables",
                assignment.len()
            )));
        }
        let r = self.overlay().eval_edge(f, assignment);
        self.finish_op(Ok(r))
    }

    /// Model-count a function under the request budget.
    pub fn sat_count(&mut self, name: &str, budget: &mut OpBudget) -> Result<u128, SessionError> {
        let f = self.edge(name)?;
        let r = self.overlay().try_sat_count_edge(f, budget);
        self.finish_op(r)
    }

    /// Model-count a function over a caller-declared variable universe
    /// `0..n_vars` (the normalization CNF counting needs — see
    /// [`RawManager::sat_count_over_edge`]) under the request budget.
    ///
    /// # Errors
    /// [`SessionError::InvalidRequest`] when the count is not exactly
    /// representable (more than 127 declared or manager variables, or the
    /// function depends on a variable outside `0..n_vars`).
    pub fn sat_count_over(
        &mut self,
        name: &str,
        n_vars: usize,
        budget: &mut OpBudget,
    ) -> Result<u128, SessionError> {
        let f = self.edge(name)?;
        let r = self
            .overlay_mut()
            .try_sat_count_over_edge(f, n_vars, budget);
        match self.finish_op(r)? {
            Some(c) => Ok(c),
            None => Err(SessionError::InvalidRequest(format!(
                "count over {n_vars} vars is not exactly representable"
            ))),
        }
    }

    /// Variables a visible function depends on, ascending. Pure read.
    pub fn support(&mut self, name: &str) -> Result<Vec<usize>, SessionError> {
        let f = self.edge(name)?;
        let r = self.overlay_mut().support_edge(f);
        self.finish_op(Ok(r))
    }

    /// Number of variables in the session's fork.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.overlay().num_vars()
    }

    /// Run a caller-supplied construction directly against the session's
    /// fork under the request budget — the seam the CNF front door uses
    /// to build a DIMACS instance inside a session (`load_cnf`) and to
    /// count cofactor slices. The closure gets the fork and the budget;
    /// nodes it allocates land in the overlay like any other session op
    /// and are reclaimed on drop unless the result is [`Session::store`]d
    /// and published.
    ///
    /// # Errors
    /// The closure's abort, converted to [`SessionError::Aborted`].
    pub fn build_raw<R>(
        &mut self,
        budget: &mut OpBudget,
        build: impl FnOnce(&mut M, &mut OpBudget) -> Result<R, OpAbort>,
    ) -> Result<R, SessionError> {
        let r = build(self.overlay_mut(), budget);
        self.finish_op(r)
    }

    /// Canonical node count of a function (diagram size, not manager
    /// size).
    pub fn node_count(&mut self, name: &str) -> Result<usize, SessionError> {
        let f = self.edge(name)?;
        let r = self.overlay().node_count_edge(f);
        self.finish_op(Ok(r))
    }

    /// Binary apply of two visible functions; the result is stored under
    /// `store` when given. Returns the result's canonical node count.
    pub fn apply(
        &mut self,
        op: BoolOp,
        f: &str,
        g: &str,
        store: Option<&str>,
        budget: &mut OpBudget,
    ) -> Result<usize, SessionError> {
        let fe = self.edge(f)?;
        let ge = self.edge(g)?;
        let r = self.overlay_mut().try_apply_edge(op, fe, ge, budget);
        let e = self.finish_op(r)?;
        if let Some(n) = store {
            self.store(n, e);
        }
        Ok(self.overlay().node_count_edge(e))
    }

    /// Existential (`exists = true`) or universal quantification of a
    /// visible function over `vars`; stored under `store` when given.
    /// Returns the result's canonical node count.
    pub fn quantify(
        &mut self,
        exists: bool,
        f: &str,
        vars: &[usize],
        store: Option<&str>,
        budget: &mut OpBudget,
    ) -> Result<usize, SessionError> {
        let fe = self.edge(f)?;
        self.check_vars(vars)?;
        let r = if exists {
            self.overlay_mut().try_exists_edge(fe, vars, budget)
        } else {
            self.overlay_mut().try_forall_edge(fe, vars, budget)
        };
        let e = self.finish_op(r)?;
        if let Some(n) = store {
            self.store(n, e);
        }
        Ok(self.overlay().node_count_edge(e))
    }

    /// Substitute `g` for variable `var` in `f`; stored under `store`
    /// when given. Returns the result's canonical node count.
    pub fn compose(
        &mut self,
        f: &str,
        var: usize,
        g: &str,
        store: Option<&str>,
        budget: &mut OpBudget,
    ) -> Result<usize, SessionError> {
        let fe = self.edge(f)?;
        let ge = self.edge(g)?;
        self.check_vars(&[var])?;
        let r = self.overlay_mut().try_compose_edge(fe, var, ge, budget);
        let e = self.finish_op(r)?;
        if let Some(n) = store {
            self.store(n, e);
        }
        Ok(self.overlay().node_count_edge(e))
    }

    /// In-session combinational equivalence check of two visible
    /// functions: XOR miter + existential quantification over every
    /// variable, under the request budget. On refutation the miter yields
    /// a concrete counterexample and the distinguishing-assignment count.
    pub fn cec(
        &mut self,
        f: &str,
        g: &str,
        budget: &mut OpBudget,
    ) -> Result<CecOutcome, SessionError> {
        let fe = self.edge(f)?;
        let ge = self.edge(g)?;
        let _sp = span(Op::Cec);
        let n = self.overlay().num_vars();
        let miter = {
            let r = self
                .overlay_mut()
                .try_apply_edge(BoolOp::XOR, fe, ge, budget);
            self.finish_op(r)?
        };
        let all: Vec<usize> = (0..n).collect();
        let quantified = {
            let r = self.overlay_mut().try_exists_edge(miter, &all, budget);
            self.finish_op(r)?
        };
        if quantified == self.overlay().constant_edge(false) {
            Ok(CecOutcome {
                equivalent: true,
                counterexample: None,
                distinguishing: None,
            })
        } else {
            Ok(CecOutcome {
                equivalent: false,
                counterexample: self.overlay().any_sat_edge(miter).map(|m| m[..n].to_vec()),
                distinguishing: self.overlay().sat_count_checked_edge(miter),
            })
        }
    }

    /// Collect dead overlay nodes (everything not reachable from the
    /// library or a session-local definition). The base snapshot is
    /// untouched — the fork owns its node store.
    pub fn collect(&mut self) -> usize {
        let freed = self.overlay_mut().gc();
        let now = self.overlay_nodes() as u64;
        self.base
            .tracker
            .adjust_overlay_nodes(self.reported_nodes, now);
        self.reported_nodes = now;
        freed
    }

    /// The deterministic commit: collect dead intermediates, merge the
    /// session-local definitions into the library (sorted by name, so the
    /// committed library is independent of definition order), and mint
    /// the next-epoch [`SharedBase`] of this lineage.
    ///
    /// The session is consumed; its overlay accounting is released
    /// exactly as on drop (the nodes now live in the new snapshot, not in
    /// any session).
    pub fn publish(mut self) -> Arc<SharedBase<M>> {
        let _sp = span(Op::Publish);
        // Compact: pins keep the library and locals alive, everything
        // else in the fork is dead scratch.
        self.overlay_mut().gc();
        let mut library = Library::new(self.base.library.inputs().to_vec());
        for (name, e) in self.base.library.iter() {
            library.insert(name, e);
        }
        let mut names: Vec<&String> = self.locals.keys().collect();
        names.sort();
        for name in names {
            let e = self.locals[name];
            library.insert(name, e);
        }
        let backend = self.overlay.take().expect("session fork is live");
        let tracker = Arc::clone(&self.base.tracker);
        tracker.note_published();
        // Dropping `self` (pins included) releases the fork's root slots;
        // the new snapshot is frozen, so nothing collects from it again.
        SharedBase::publish_with(backend, library, tracker)
    }
}

impl<M: SessionBackend> Drop for Session<M> {
    fn drop(&mut self) {
        self.base
            .tracker
            .note_session_dropped(self.reported_nodes, self.ops, self.aborted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_insert_shadow_lookup() {
        let mut lib: Library<u32> = Library::new(vec!["a".into(), "b".into()]);
        assert!(lib.insert("f", 1));
        assert!(lib.insert("g", 2));
        assert!(!lib.insert("f", 3), "overwrite is not a new name");
        assert_eq!(lib.get("f"), Some(3));
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.input_index("b"), Some(1));
        assert_eq!(lib.names(), ["f".to_string(), "g".to_string()]);
    }

    #[test]
    fn epoch_tracker_accounting() {
        let t = EpochTracker::default();
        assert_eq!(t.next_epoch(), 1);
        assert_eq!(t.next_epoch(), 2);
        assert_eq!(t.snapshots_live(), 2);
        t.note_snapshot_retired();
        assert_eq!(t.snapshots_live(), 1);
        assert_eq!(t.snapshots_retired(), 1);
        t.note_session_created();
        t.adjust_overlay_nodes(0, 40);
        t.adjust_overlay_nodes(40, 25);
        assert_eq!(t.overlay_nodes(), 25);
        t.note_session_dropped(25, 7, 1);
        assert_eq!(t.overlay_nodes(), 0);
        assert_eq!(t.nodes_reclaimed(), 25);
        assert_eq!(t.sessions_live(), 0);
        let mut m = MetricsSnapshot::new("test");
        t.fill(&mut m);
        assert_eq!(m.get("session.nodes_reclaimed"), Some(25));
        assert_eq!(m.get("epoch.snapshots_retired"), Some(1));
    }
}
