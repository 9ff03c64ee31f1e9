//! The unified Boolean-function API over every decision-diagram backend.
//!
//! This workspace ships four managers — `bbdd::Bbdd`, `robdd::Robdd` and
//! their fork-join front-ends `bbdd::ParBbdd` / `robdd::ParRobdd` — and
//! before this module existed each of them re-declared the same owned-handle
//! operation suite by hand, and every manager-agnostic consumer (the network
//! builder, the equivalence checker, the synthesis flow, the CLI) was either
//! specialized per manager or funneled through ad-hoc traits. `ddcore::api`
//! replaces all of that with one trait family, in the shape multi-backend
//! BDD packages converge on (OxiDD's `Manager`/`BooleanFunction`,
//! Sølvsten & van de Pol's backend-hiding `bdd` value type):
//!
//! * [`RawManager`] — the *backend* contract: edge-level operations plus the
//!   root registry and the handle-boundary hook. This is the one trait a new
//!   backend implements; everything below is derived from it.
//! * [`ManagerRef`] — the shared front-end over any backend: a cheaply
//!   cloneable reference handing out owned [`Function`] handles.
//! * [`FunctionManager`] / [`BooleanFunction`] — the trait pair generic
//!   drivers are written against, implemented once for
//!   `ManagerRef<B>` / `Function<B>` and therefore automatically by every
//!   backend. Dispatch is fully static: a driver generic over
//!   `M: FunctionManager` monomorphizes per backend, with no vtables and no
//!   allocation added on the operation hot path.
//!
//! # Handles and garbage collection
//!
//! A [`Function`] owns a slot in the backend's external-root registry
//! ([`crate::roots::RootSet`]): clone bumps the slot's refcount, drop
//! releases it, and every collection or reordering the backend runs traces
//! the registry — the "forgot a root" bug class stays unrepresentable, as
//! established by the owned-handle redesign this module generalizes. Each
//! operation ends at a *handle boundary* ([`RawManager::after_op`]) where a
//! latched automatic GC may run, strictly after the result was registered.
//!
//! # Example
//!
//! ```
//! use ddcore::api::{BooleanFunction, FunctionManager};
//!
//! /// Works identically on every backend in the workspace.
//! fn majority<M: FunctionManager>(mgr: &M) -> M::Function {
//!     let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//!     let ab = a.and(&b);
//!     let bc = b.and(&c);
//!     let ac = a.and(&c);
//!     ab.or(&bc).or(&ac)
//! }
//! ```
//!
//! On a *concrete* handle type (`bbdd::BbddFn`, `robdd::RobddFn`, …) the
//! `std::ops` sugar applies on references: `&a & &b`, `&a | &b`, `&a ^ &b`,
//! `!&a`.
//!
//! (See `tests/api_conformance.rs` at the workspace root for the suite that
//! drives every operation below against shadow truth tables on all four
//! managers.)

use crate::boolop::BoolOp;
use crate::dvo::{DvoPolicy, DvoStrategy};
use crate::govern::{OpAbort, OpBudget};
use crate::obs::{self, MetricsSnapshot};
use crate::roots::RootSet;
use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// The backend contract: edge-level Boolean-function operations plus root
/// registration and the handle-boundary hook.
///
/// Implement this one trait for a manager type and the whole
/// [`FunctionManager`] / [`BooleanFunction`] pair comes for free through
/// [`ManagerRef`] / [`Function`]. Implementations delegate to the backend's
/// inherent edge API; the `*_edge` names keep the trait methods from
/// shadowing those inherent methods.
///
/// The edge type is the backend's raw, unprotected function currency
/// (`Copy`, valid only until the next collection point unless covered by a
/// registered handle) — exactly the role `bbdd::Edge` / `robdd::Edge`
/// already play.
pub trait RawManager: Sized {
    /// The backend's raw edge type.
    type Edge: Copy + Eq + std::fmt::Debug + std::ops::Not<Output = Self::Edge>;

    /// A fresh backend over `num_vars` variables with default configuration
    /// (parallel backends read their thread count from the environment).
    fn with_vars(num_vars: usize) -> Self;

    /// Number of variables managed.
    fn num_vars(&self) -> usize;

    /// The external-root registry handles register themselves with.
    fn root_registry(&self) -> &RootSet;

    /// The packed-bits form of an edge stored in the root registry.
    fn edge_bits(e: Self::Edge) -> u64;

    /// The constant function as an edge.
    fn constant_edge(&self, value: bool) -> Self::Edge;

    /// The positive literal of `var`.
    fn var_edge(&mut self, var: usize) -> Self::Edge;

    /// `f ⊗ g` for an arbitrary binary operator.
    fn apply_edge(&mut self, op: BoolOp, f: Self::Edge, g: Self::Edge) -> Self::Edge;

    /// [`RawManager::apply_edge`] under a resource budget (see
    /// [`crate::govern::OpBudget`]). The backend polls the budget at its
    /// recursion checkpoints; on `Err` the manager must remain fully
    /// usable, with any partially built nodes reclaimed by the next GC.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_apply_edge(
        &mut self,
        op: BoolOp,
        f: Self::Edge,
        g: Self::Edge,
        budget: &mut OpBudget,
    ) -> Result<Self::Edge, OpAbort>;

    /// If-then-else `f ? g : h`.
    fn ite_edge(&mut self, f: Self::Edge, g: Self::Edge, h: Self::Edge) -> Self::Edge;

    /// [`RawManager::ite_edge`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_ite_edge(
        &mut self,
        f: Self::Edge,
        g: Self::Edge,
        h: Self::Edge,
        budget: &mut OpBudget,
    ) -> Result<Self::Edge, OpAbort>;

    /// Existential cube quantification `∃ vars . f`.
    fn exists_edge(&mut self, f: Self::Edge, vars: &[usize]) -> Self::Edge;

    /// [`RawManager::exists_edge`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_exists_edge(
        &mut self,
        f: Self::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Self::Edge, OpAbort>;

    /// Universal cube quantification `∀ vars . f`.
    fn forall_edge(&mut self, f: Self::Edge, vars: &[usize]) -> Self::Edge;

    /// [`RawManager::forall_edge`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_forall_edge(
        &mut self,
        f: Self::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Self::Edge, OpAbort>;

    /// Fused relational product `∃ vars . (f ∧ g)`.
    fn and_exists_edge(&mut self, f: Self::Edge, g: Self::Edge, vars: &[usize]) -> Self::Edge;

    /// [`RawManager::and_exists_edge`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_and_exists_edge(
        &mut self,
        f: Self::Edge,
        g: Self::Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Self::Edge, OpAbort>;

    /// Restriction `f|_{var = value}`.
    fn restrict_edge(&mut self, f: Self::Edge, var: usize, value: bool) -> Self::Edge;

    /// Substitution `f[var := g]`.
    fn compose_edge(&mut self, f: Self::Edge, var: usize, g: Self::Edge) -> Self::Edge;

    /// [`RawManager::compose_edge`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_compose_edge(
        &mut self,
        f: Self::Edge,
        var: usize,
        g: Self::Edge,
        budget: &mut OpBudget,
    ) -> Result<Self::Edge, OpAbort>;

    /// Simultaneous substitution (`subs[v]` replaces variable `v`).
    fn vector_compose_edge(&mut self, f: Self::Edge, subs: &[Option<Self::Edge>]) -> Self::Edge;

    /// Evaluate `f` under a full assignment.
    fn eval_edge(&self, f: Self::Edge, assignment: &[bool]) -> bool;

    /// Exact number of satisfying assignments over all variables under a
    /// budget — the one counting primitive the other forms derive from.
    /// Counting allocates no nodes, so an abort leaves no trace.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Implementations panic beyond 127 variables (the count could
    /// overflow `u128`).
    fn try_sat_count_edge(&self, f: Self::Edge, budget: &mut OpBudget) -> Result<u128, OpAbort>;

    /// [`RawManager::try_sat_count_edge`] without a budget (same panics).
    fn sat_count_edge(&self, f: Self::Edge) -> u128 {
        self.try_sat_count_edge(f, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`RawManager::sat_count_edge`], or `None` when the count could
    /// overflow `u128` (more than 127 variables). `Some` values are exact.
    fn sat_count_checked_edge(&self, f: Self::Edge) -> Option<u128> {
        (self.num_vars() <= 127).then(|| self.sat_count_edge(f))
    }

    /// [`RawManager::sat_count_edge`] taken over a caller-declared
    /// variable universe `0..n_vars` instead of the manager's own
    /// `0..num_vars()` — the normalization CNF model counting needs when
    /// the DIMACS header declares more (or fewer) variables than the
    /// manager materialized.
    ///
    /// Writing `m = num_vars()` and `c` for the count over `0..m`:
    /// the count over `0..n_vars` is `c · 2^(n_vars − m)` when
    /// `n_vars ≥ m` (each model extends freely over the extra
    /// variables), and exactly `c / 2^(m − n_vars)` when `n_vars < m`
    /// *provided* the function does not depend on any variable
    /// `≥ n_vars` (each declared-universe model then extends to exactly
    /// `2^(m − n_vars)` manager-universe models).
    ///
    /// Returns `None` when the result is not exactly representable:
    /// `n_vars > 127`, `num_vars() > 127`, or the function depends on a
    /// variable outside `0..n_vars`. `Some` values are always exact.
    fn sat_count_over_edge(&mut self, f: Self::Edge, n_vars: usize) -> Option<u128> {
        self.try_sat_count_over_edge(f, n_vars, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`RawManager::sat_count_over_edge`] under a resource budget.
    /// `Ok(None)` means the count is not exactly representable (see the
    /// unbudgeted variant); budget exhaustion is the `Err` arm.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_sat_count_over_edge(
        &mut self,
        f: Self::Edge,
        n_vars: usize,
        budget: &mut OpBudget,
    ) -> Result<Option<u128>, OpAbort> {
        let m = self.num_vars();
        if n_vars > 127
            || m > 127
            || (n_vars < m && self.support_edge(f).iter().any(|&v| v >= n_vars))
        {
            return Ok(None);
        }
        let c = self.try_sat_count_edge(f, budget)?;
        // `c ≤ 2^m` and `n_vars ≤ 127`, so the left shift cannot overflow.
        Ok(Some(if n_vars >= m {
            c << (n_vars - m)
        } else {
            c >> (m - n_vars)
        }))
    }

    /// One satisfying assignment, or `None` for constant false.
    fn any_sat_edge(&self, f: Self::Edge) -> Option<Vec<bool>>;

    /// Up to `limit` satisfying assignments.
    fn all_sat_edge(&self, f: Self::Edge, limit: usize) -> Vec<Vec<bool>>;

    /// Nodes reachable from `f`.
    fn node_count_edge(&self, f: Self::Edge) -> usize {
        self.shared_node_count_edges(&[f])
    }

    /// Nodes reachable from any of `roots` (shared nodes counted once).
    fn shared_node_count_edges(&self, roots: &[Self::Edge]) -> usize;

    /// Variables `f` depends on, ascending.
    fn support_edge(&mut self, f: Self::Edge) -> Vec<usize>;

    /// Graphviz DOT rendering of the diagrams rooted at `roots`.
    fn to_dot_edges(&self, roots: &[Self::Edge], names: &[&str]) -> String;

    /// Internal nodes per diagram level (top of the order first is not
    /// required — the convention is the backend's own log convention) for
    /// the diagrams rooted at `roots`; `None` when the backend has no
    /// meaningful per-level view.
    fn level_profile_edges(&self, _roots: &[Self::Edge]) -> Option<Vec<usize>> {
        None
    }

    /// The handle-boundary hook, run after an operation's result has been
    /// registered: the latched automatic GC (and, for parallel front-ends,
    /// the concurrent-cache epoch sync) goes here. Registration-first is the
    /// pinning rule that makes the latched collection safe.
    fn after_op(&mut self);

    /// Collect every node not reachable from the root registry; returns the
    /// number of nodes reclaimed.
    fn gc(&mut self) -> usize;

    /// Arm the automatic-GC latch (`0` disables).
    fn set_gc_threshold(&mut self, threshold: usize);

    /// The automatic-GC threshold (`0` = disabled).
    fn gc_threshold(&self) -> usize;

    /// Currently stored nodes.
    fn live_nodes(&self) -> usize;

    /// Run Rudell sifting, returning the post-sift live node count, or
    /// `None` when the backend does not support reordering at all (e.g.
    /// table-less test backends; the parallel front-ends delegate to their
    /// inner sequential manager at a handle boundary).
    fn try_sift(&mut self) -> Option<usize>;

    /// Bounded sifting under a resource budget: `None` when the backend
    /// does not support reordering; otherwise the post-sift live node
    /// count, or the budget's abort reason. On abort the variable order is
    /// left consistent (the variable being sifted is parked back at its
    /// best position first) and every registered handle stays valid — the
    /// result is a partially improved order, not a corrupted one.
    fn sift_bounded(&mut self, budget: &mut OpBudget) -> Option<Result<usize, OpAbort>>;

    /// Run a specific [`DvoStrategy`] under a resource budget, with the
    /// same contract as [`RawManager::sift_bounded`] (which is simply this
    /// method with the installed policy's strategy, defaulting to full
    /// sift). `None` when the backend does not support reordering.
    fn reorder_with(
        &mut self,
        _strategy: DvoStrategy,
        _budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>> {
        None
    }

    /// Install (or clear, with `None`) the dynamic-reordering policy:
    /// which strategy to run and when the schedule fires. Scheduled
    /// reorders run at operation boundaries (the GC-latch hook) and at the
    /// drivers' collection gates. No-op on backends without reordering.
    fn set_reorder_policy(&mut self, _policy: Option<DvoPolicy>) {}

    /// The installed dynamic-reordering policy, if any.
    fn reorder_policy(&self) -> Option<DvoPolicy> {
        None
    }

    /// Arm automatic reordering at a live-node threshold (no-op on backends
    /// without dynamic reordering). Sugar for installing a
    /// full-sift/node-threshold [`DvoPolicy`]; `0` clears the policy.
    fn set_auto_reorder(&mut self, _threshold: usize) {}

    /// Collect and, when the installed policy's schedule is due, reorder.
    /// Returns `true` when a reorder ran. Defaults to `false` (nothing
    /// armed).
    fn reorder_if_needed(&mut self) -> bool {
        false
    }

    /// [`RawManager::reorder_if_needed`] under a resource budget: `Ok`
    /// whether a reorder ran, or the abort reason when a scheduled reorder
    /// was cut short. On abort the order is consistent, every handle stays
    /// valid, and the schedule re-arms (the trigger is consumed), so the
    /// caller may simply continue.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn reorder_if_needed_bounded(&mut self, _budget: &mut OpBudget) -> Result<bool, OpAbort> {
        Ok(false)
    }

    /// Install a specific variable order (a permutation of `0..num_vars`,
    /// top of the diagram first), e.g. one computed by a static-ordering
    /// heuristic. Returns `false` on backends without reordering.
    fn set_order(&mut self, _order: &[usize]) -> bool {
        false
    }

    /// The current variable order, top of the diagram first.
    fn variable_order(&self) -> Vec<usize>;

    /// A one-line human-readable summary of the backend's counters.
    fn stats_line(&self) -> String;

    /// Fill the unified metrics registry: a [`MetricsSnapshot`] with the
    /// backend's counters under the stable section names (`nodes.*`,
    /// `cache.*`, `table.*`, `gc.*`, `roots.*`, `dvo.*`, `govern.*`, and
    /// `par.*` on parallel front-ends). This is the observability seam
    /// every formatter, JSON export and metrics test goes through.
    ///
    /// The default returns an empty snapshot so minimal test backends
    /// compile; real backends override it.
    fn observe(&self) -> MetricsSnapshot {
        MetricsSnapshot::new("unobserved")
    }

    /// Accounting hook for governed operations: the generic layer reports
    /// each `try_*` call's budget-checkpoint spend and outcome here, and
    /// backends accumulate it into their `govern.*` metrics (see
    /// [`crate::obs::GovernCounters`]). Default: no accounting.
    fn note_governed(&mut self, _checkpoints: u64, _abort: Option<OpAbort>) {}
}

/// A shared reference to a decision-diagram backend — the generic
/// implementation of [`FunctionManager`].
///
/// Cloning a `ManagerRef` clones the *reference*; all clones (including the
/// one inside every [`Function`] it hands out) address the same backend.
/// The backend sits behind a `RefCell`, so operations take `&self`; the
/// borrow is checked, not locked — a `ManagerRef` (like the handles it
/// produces) stays on one thread.
pub struct ManagerRef<B: RawManager> {
    inner: Rc<RefCell<B>>,
}

impl<B: RawManager> Clone for ManagerRef<B> {
    fn clone(&self) -> Self {
        ManagerRef {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<B: RawManager> std::fmt::Debug for ManagerRef<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagerRef").finish_non_exhaustive()
    }
}

impl<B: RawManager> ManagerRef<B> {
    /// Wrap an existing backend (use this to pick a non-default
    /// configuration, e.g. an explicit thread count).
    #[must_use]
    pub fn new(backend: B) -> Self {
        ManagerRef {
            inner: Rc::new(RefCell::new(backend)),
        }
    }

    /// A fresh default-configured backend over `num_vars` variables.
    #[must_use]
    pub fn with_vars(num_vars: usize) -> Self {
        Self::new(B::with_vars(num_vars))
    }

    /// Read access to the raw backend, for backend-specific features
    /// (structural introspection, statistics, serialization).
    ///
    /// # Panics
    /// Panics if called while an operation is in flight (the backend is a
    /// checked single borrow).
    #[must_use]
    pub fn backend(&self) -> Ref<'_, B> {
        self.inner.borrow()
    }

    /// Mutable access to the raw backend (edge-level API, sifting knobs,
    /// …). Dropping the guard before the next trait-level operation is the
    /// caller's responsibility — the borrow is checked at runtime.
    ///
    /// # Panics
    /// Panics if called while an operation is in flight.
    #[must_use]
    pub fn backend_mut(&self) -> RefMut<'_, B> {
        self.inner.borrow_mut()
    }

    /// Pin a raw edge of this backend as an owned [`Function`] handle — the
    /// bridge from the edge-level API into the protected handle world. The
    /// edge must belong to this manager.
    #[must_use]
    pub fn lift(&self, edge: B::Edge) -> Function<B> {
        let b = self.inner.borrow();
        Function::register(b.root_registry(), edge, Rc::clone(&self.inner))
    }

    /// Unwrap the backend, consuming this reference — the bridge *out* of
    /// the handle world, used by the session layer to freeze a built
    /// function library into an immutable shared snapshot
    /// (`ddcore::session::SharedBase`).
    ///
    /// Returns `None` (self is dropped) while any [`Function`] handle or
    /// `ManagerRef` clone is still alive: handles hold the backend cell,
    /// so extraction is only sound once the caller has released them all.
    #[must_use]
    pub fn into_backend(self) -> Option<B> {
        Rc::try_unwrap(self.inner).ok().map(RefCell::into_inner)
    }

    /// Register `e` as a handle, then run the handle-boundary hook (the
    /// result is pinned before any latched collection can fire).
    fn finish(&self, b: &mut B, e: B::Edge) -> Function<B> {
        let f = Function::register(b.root_registry(), e, Rc::clone(&self.inner));
        b.after_op();
        f
    }

    /// [`ManagerRef::finish`] for fallible operations. An abort is an
    /// operation boundary too: the handle-boundary hook still runs, so a
    /// latched GC can reclaim the aborted operation's partial results
    /// before the error even reaches the caller.
    fn finish_try(&self, b: &mut B, r: Result<B::Edge, OpAbort>) -> Result<Function<B>, OpAbort> {
        match r {
            Ok(e) => Ok(self.finish(b, e)),
            Err(reason) => {
                b.after_op();
                Err(reason)
            }
        }
    }
}

/// An owned, reference-counted handle to a Boolean function of one backend
/// — the generic implementation of [`BooleanFunction`].
///
/// The handle registers its edge in the backend's root registry on
/// creation; `Clone` bumps the slot's refcount and `Drop` releases it, so
/// everything a caller holds is visible to the collector by construction.
/// `Drop`/`Clone` touch only the registry (never the backend cell), so
/// handles may be dropped or cloned freely while an operation borrow is
/// live.
///
/// Equality requires the same manager and compares the underlying edges,
/// which — by canonicity — is function equality; handles of different
/// managers always compare unequal.
pub struct Function<B: RawManager> {
    edge: B::Edge,
    slot: u32,
    roots: RootSet,
    mgr: Rc<RefCell<B>>,
}

impl<B: RawManager> Function<B> {
    fn register(roots: &RootSet, edge: B::Edge, mgr: Rc<RefCell<B>>) -> Self {
        Function {
            edge,
            slot: roots.register(B::edge_bits(edge)),
            roots: roots.clone(),
            mgr,
        }
    }

    /// The underlying raw edge (valid as long as this handle lives).
    #[must_use]
    pub fn edge(&self) -> B::Edge {
        self.edge
    }

    /// Start a mutable operation on the owning backend: asserts that
    /// `others` share the manager, then borrows it.
    ///
    /// The check is a real assert (one pointer compare per operand,
    /// negligible next to any diagram operation): an edge interpreted
    /// against the wrong backend's node table would silently denote a
    /// different function, and the operator sugar makes mixing managers
    /// an easy mistake to write.
    fn op_ctx(&self, others: &[&Self]) -> (ManagerRef<B>, RefMut<'_, B>) {
        assert!(
            others.iter().all(|o| Rc::ptr_eq(&self.mgr, &o.mgr)),
            "operands must come from the same manager"
        );
        let m = ManagerRef {
            inner: Rc::clone(&self.mgr),
        };
        (m, self.mgr.borrow_mut())
    }

    /// Run one governed edge operation with full observability: an op
    /// span around the edge call, the backend's govern-accounting hook
    /// fed with this operation's checkpoint spend, and an abort instant
    /// event on `Err`. Free (two relaxed loads) when tracing and
    /// profiling are off.
    fn governed<E>(
        b: &mut B,
        op: obs::Op,
        budget: &mut OpBudget,
        run: impl FnOnce(&mut B, &mut OpBudget) -> Result<E, OpAbort>,
    ) -> Result<E, OpAbort> {
        let _span = obs::span(op);
        let spent = budget.used();
        let r = run(b, budget);
        let abort = r.as_ref().err().copied();
        b.note_governed(budget.used().saturating_sub(spent), abort);
        if let Some(reason) = abort {
            obs::abort_event(reason);
        }
        r
    }
}

impl<B: RawManager> Clone for Function<B> {
    fn clone(&self) -> Self {
        self.roots.retain(self.slot);
        Function {
            edge: self.edge,
            slot: self.slot,
            roots: self.roots.clone(),
            mgr: Rc::clone(&self.mgr),
        }
    }
}

impl<B: RawManager> Drop for Function<B> {
    fn drop(&mut self) {
        self.roots.release(self.slot);
    }
}

impl<B: RawManager> PartialEq for Function<B> {
    /// Handles are equal iff they belong to the **same manager** and
    /// denote the same canonical edge (which, by canonicity, is function
    /// equality). Two managers hand out overlapping edge bit patterns for
    /// unrelated functions, so the manager identity is part of the
    /// comparison — without it, `m1.var(0) == m2.var(1)` could silently
    /// hold.
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.mgr, &other.mgr) && self.edge == other.edge
    }
}

impl<B: RawManager> Eq for Function<B> {}

impl<B: RawManager> std::fmt::Debug for Function<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Function")
            .field("edge", &self.edge)
            .finish()
    }
}

/// The manager half of the unified API: variable/constant creation plus
/// GC and reordering control, generic over every backend.
///
/// Implemented once, for [`ManagerRef<B>`]; drivers written against this
/// trait (`fn f<M: FunctionManager>(mgr: &M, …)`) monomorphize per backend
/// — static dispatch, no trait objects.
pub trait FunctionManager: Clone {
    /// The owned function-handle type of this manager.
    type Function: BooleanFunction<Manager = Self>;

    /// Number of variables managed.
    fn num_vars(&self) -> usize;

    /// The constant function.
    fn constant(&self, value: bool) -> Self::Function;

    /// The positive literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    fn var(&self, var: usize) -> Self::Function;

    /// The negative literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    fn nvar(&self, var: usize) -> Self::Function {
        self.var(var).not()
    }

    /// Collect every node not reachable from a live handle; returns nodes
    /// reclaimed.
    fn gc(&self) -> usize;

    /// Arm the automatic-GC latch (`0` disables); collections run at
    /// operation boundaries, strictly after the result handle is
    /// registered.
    fn set_gc_threshold(&self, threshold: usize);

    /// The automatic-GC threshold (`0` = disabled).
    fn gc_threshold(&self) -> usize;

    /// Currently stored nodes.
    fn live_nodes(&self) -> usize;

    /// Live handle slots registered with this manager.
    fn external_roots(&self) -> usize;

    /// Reorder with the installed policy's strategy (full sift when no
    /// policy is installed), tracing the handle registry; returns the
    /// post-sift live node count — or `None` when the backend does not
    /// support dynamic reordering.
    fn reorder(&self) -> Option<usize>;

    /// [`FunctionManager::reorder`] under a resource budget: `None` when
    /// the backend does not support reordering, otherwise the post-sift
    /// live node count or the budget's abort reason. On abort the order is
    /// consistent and every handle stays valid.
    fn try_reorder(&self, budget: &mut OpBudget) -> Option<Result<usize, OpAbort>>;

    /// Reorder with a specific [`DvoStrategy`], regardless of the
    /// installed policy; `None` when the backend does not support
    /// reordering.
    fn reorder_with(&self, strategy: DvoStrategy) -> Option<usize>;

    /// [`FunctionManager::reorder_with`] under a resource budget, with the
    /// [`FunctionManager::try_reorder`] abort contract.
    fn try_reorder_with(
        &self,
        strategy: DvoStrategy,
        budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>>;

    /// Install (or clear) the dynamic-reordering policy. Scheduled firings
    /// happen at operation boundaries and collection gates; explicit
    /// [`FunctionManager::reorder`] calls use the policy's strategy.
    fn set_reorder_policy(&self, policy: Option<DvoPolicy>);

    /// The installed dynamic-reordering policy, if any.
    fn reorder_policy(&self) -> Option<DvoPolicy>;

    /// Arm automatic reordering at a live-node threshold (no-op on
    /// backends without dynamic reordering). Sugar for a
    /// full-sift/node-threshold policy; `0` clears it.
    fn set_auto_reorder(&self, threshold: usize);

    /// Collect and, when the installed policy's schedule is due, reorder;
    /// `true` when a reorder ran.
    fn reorder_if_needed(&self) -> bool;

    /// The garbage-collection opportunity generic drivers offer between
    /// construction batches: scheduled reorder if one is due, otherwise
    /// plain GC.
    fn collect(&self) {
        if !self.reorder_if_needed() {
            self.gc();
        }
    }

    /// [`FunctionManager::collect`] under a resource budget — the gate
    /// governed drivers (`try_build_network`) use, so a scheduled reorder
    /// firing mid-build stays abort-safe. Returns whether a reorder ran;
    /// on abort the order is consistent, the schedule has re-armed, and
    /// the manager stays fully usable.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_collect(&self, budget: &mut OpBudget) -> Result<bool, OpAbort>;

    /// Install a specific variable order (a permutation of `0..num_vars`,
    /// top first), e.g. from a static-ordering heuristic; `false` on
    /// backends without reordering.
    fn set_order(&self, order: &[usize]) -> bool;

    /// Nodes reachable from any of `fns`, shared nodes counted once.
    fn shared_node_count(&self, fns: &[Self::Function]) -> usize;

    /// Graphviz DOT rendering of the diagrams rooted at `fns`.
    fn to_dot(&self, fns: &[Self::Function], names: &[&str]) -> String;

    /// Internal nodes per diagram level for the diagrams rooted at `fns`
    /// (the log-output histogram); `None` when the backend has no
    /// per-level view.
    fn level_profile(&self, fns: &[Self::Function]) -> Option<Vec<usize>>;

    /// The current variable order, top of the diagram first.
    fn variable_order(&self) -> Vec<usize>;

    /// One-line human-readable backend counter summary.
    fn stats_line(&self) -> String;

    /// A [`MetricsSnapshot`] of the backend's unified metrics registry —
    /// the backend-agnostic counters behind [`MetricsSnapshot::format`],
    /// [`MetricsSnapshot::to_json`] and [`MetricsSnapshot::delta`].
    fn metrics(&self) -> MetricsSnapshot;
}

/// The function half of the unified API: an owned handle with the full
/// operation suite, generic over every backend.
///
/// All operations take `&self` — the handle knows its manager. On the
/// concrete handle type [`Function<B>`] the usual `std::ops` sugar is
/// available on handle *references*: `&f & &g`, `&f | &g`, `&f ^ &g` and
/// `!&f`. (Code generic over `M: FunctionManager` uses the named methods —
/// Rust does not propagate operator bounds through a trait.)
pub trait BooleanFunction: Clone + PartialEq + std::fmt::Debug + Sized {
    /// The manager type this handle belongs to.
    type Manager: FunctionManager<Function = Self>;

    /// A clone of the owning manager reference.
    fn manager(&self) -> Self::Manager;

    /// `self ⊗ g` for an arbitrary binary operator.
    fn apply(&self, op: BoolOp, g: &Self) -> Self;

    /// [`BooleanFunction::apply`] under a resource budget — the fallible
    /// entry point of the governed operation suite. The budget is caller
    /// owned and spans as many operations as the caller threads it
    /// through; on `Err` the manager stays fully usable and any partial
    /// results are reclaimed at the abort's own operation boundary.
    ///
    /// # Errors
    /// The budget's abort reason ([`OpAbort`]).
    fn try_apply(&self, op: BoolOp, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort>;

    /// Budgeted conjunction.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_and(&self, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort> {
        self.try_apply(BoolOp::AND, g, budget)
    }

    /// Budgeted disjunction.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_or(&self, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort> {
        self.try_apply(BoolOp::OR, g, budget)
    }

    /// Budgeted exclusive or.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_xor(&self, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort> {
        self.try_apply(BoolOp::XOR, g, budget)
    }

    /// Complement (free — complement edges — and no collection point).
    #[must_use]
    fn not(&self) -> Self;

    /// Conjunction.
    fn and(&self, g: &Self) -> Self {
        self.apply(BoolOp::AND, g)
    }

    /// Disjunction.
    fn or(&self, g: &Self) -> Self {
        self.apply(BoolOp::OR, g)
    }

    /// Exclusive or.
    fn xor(&self, g: &Self) -> Self {
        self.apply(BoolOp::XOR, g)
    }

    /// Biconditional.
    fn xnor(&self, g: &Self) -> Self {
        self.apply(BoolOp::XNOR, g)
    }

    /// Negated conjunction.
    fn nand(&self, g: &Self) -> Self {
        self.apply(BoolOp::NAND, g)
    }

    /// Negated disjunction.
    fn nor(&self, g: &Self) -> Self {
        self.apply(BoolOp::NOR, g)
    }

    /// Implication `¬self ∨ g`.
    fn imp(&self, g: &Self) -> Self {
        self.apply(BoolOp::IMPLIES, g)
    }

    /// If-then-else `self ? g : h`.
    fn ite(&self, g: &Self, h: &Self) -> Self;

    /// Budgeted if-then-else.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_ite(&self, g: &Self, h: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort>;

    /// Existential cube quantification `∃ vars . self`.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    fn exists(&self, vars: &[usize]) -> Self;

    /// Budgeted existential quantification.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    fn try_exists(&self, vars: &[usize], budget: &mut OpBudget) -> Result<Self, OpAbort>;

    /// Universal cube quantification `∀ vars . self`.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    fn forall(&self, vars: &[usize]) -> Self;

    /// Budgeted universal quantification.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    fn try_forall(&self, vars: &[usize], budget: &mut OpBudget) -> Result<Self, OpAbort>;

    /// Fused relational product `∃ vars . (self ∧ g)` — never materializes
    /// the conjunction.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    fn and_exists(&self, g: &Self, vars: &[usize]) -> Self;

    /// Budgeted fused relational product.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    fn try_and_exists(
        &self,
        g: &Self,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Self, OpAbort>;

    /// Restriction `self|_{var = value}`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    fn restrict(&self, var: usize, value: bool) -> Self;

    /// Substitution `self[var := g]`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    fn compose(&self, var: usize, g: &Self) -> Self;

    /// Budgeted substitution.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    fn try_compose(&self, var: usize, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort>;

    /// Simultaneous substitution: `subs[v]` replaces variable `v`, `None`
    /// entries stay untouched.
    ///
    /// # Panics
    /// Panics if `subs` is longer than `num_vars()`.
    fn vector_compose(&self, subs: &[Option<Self>]) -> Self;

    /// The Shannon cofactor pair `(self|_{var=1}, self|_{var=0})`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    fn cofactors(&self, var: usize) -> (Self, Self);

    /// Evaluate under a full assignment (`assignment[v]` = value of
    /// variable `v`).
    fn eval(&self, assignment: &[bool]) -> bool;

    /// Exact number of satisfying assignments over all manager variables.
    fn sat_count(&self) -> u128;

    /// [`BooleanFunction::sat_count`], or `None` when the count could
    /// overflow `u128` (more than 127 manager variables). `Some` values
    /// are always exact — the saturating/panicking behavior of the
    /// unchecked variant cannot be observed through this method.
    fn sat_count_checked(&self) -> Option<u128>;

    /// Budgeted model counting. Counting allocates no nodes, so an abort
    /// leaves no trace in the manager.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_sat_count(&self, budget: &mut OpBudget) -> Result<u128, OpAbort>;

    /// Model count over a caller-declared variable universe `0..n_vars`
    /// instead of the manager's `0..num_vars()` — e.g. the variable count
    /// a DIMACS header declares. `None` when the result is not exactly
    /// representable: `n_vars > 127`, more than 127 manager variables, or
    /// the function depends on a variable outside `0..n_vars`. `Some`
    /// values are always exact (see [`RawManager::sat_count_over_edge`]
    /// for the normalization argument).
    fn sat_count_over(&self, n_vars: usize) -> Option<u128>;

    /// Budgeted [`BooleanFunction::sat_count_over`]; `Ok(None)` means not
    /// exactly representable, budget exhaustion is the `Err` arm.
    ///
    /// # Errors
    /// The budget's abort reason.
    fn try_sat_count_over(
        &self,
        n_vars: usize,
        budget: &mut OpBudget,
    ) -> Result<Option<u128>, OpAbort>;

    /// One satisfying assignment, or `None` for constant false.
    fn any_sat(&self) -> Option<Vec<bool>>;

    /// Up to `limit` satisfying assignments.
    fn all_sat(&self, limit: usize) -> Vec<Vec<bool>>;

    /// Nodes reachable from this function.
    fn node_count(&self) -> usize;

    /// Variables this function depends on, ascending.
    fn support(&self) -> Vec<usize>;

    /// Is this the constant-true function?
    fn is_true(&self) -> bool;

    /// Is this the constant-false function?
    fn is_false(&self) -> bool;

    /// Is this a constant function?
    fn is_constant(&self) -> bool {
        self.is_true() || self.is_false()
    }
}

impl<B: RawManager> FunctionManager for ManagerRef<B> {
    type Function = Function<B>;

    fn num_vars(&self) -> usize {
        self.inner.borrow().num_vars()
    }

    fn constant(&self, value: bool) -> Function<B> {
        let e = self.inner.borrow().constant_edge(value);
        self.lift(e)
    }

    fn var(&self, var: usize) -> Function<B> {
        let mut b = self.inner.borrow_mut();
        let e = b.var_edge(var);
        self.finish(&mut b, e)
    }

    fn gc(&self) -> usize {
        self.inner.borrow_mut().gc()
    }

    fn set_gc_threshold(&self, threshold: usize) {
        self.inner.borrow_mut().set_gc_threshold(threshold);
    }

    fn gc_threshold(&self) -> usize {
        self.inner.borrow().gc_threshold()
    }

    fn live_nodes(&self) -> usize {
        self.inner.borrow().live_nodes()
    }

    fn external_roots(&self) -> usize {
        self.inner.borrow().root_registry().len()
    }

    fn reorder(&self) -> Option<usize> {
        self.inner.borrow_mut().try_sift()
    }

    fn try_reorder(&self, budget: &mut OpBudget) -> Option<Result<usize, OpAbort>> {
        self.inner.borrow_mut().sift_bounded(budget)
    }

    fn reorder_with(&self, strategy: DvoStrategy) -> Option<usize> {
        self.inner
            .borrow_mut()
            .reorder_with(strategy, &mut OpBudget::unlimited())
            .map(|r| r.unwrap_or_else(|_| unreachable!("unlimited budget cannot abort")))
    }

    fn try_reorder_with(
        &self,
        strategy: DvoStrategy,
        budget: &mut OpBudget,
    ) -> Option<Result<usize, OpAbort>> {
        self.inner.borrow_mut().reorder_with(strategy, budget)
    }

    fn set_reorder_policy(&self, policy: Option<DvoPolicy>) {
        self.inner.borrow_mut().set_reorder_policy(policy);
    }

    fn reorder_policy(&self) -> Option<DvoPolicy> {
        self.inner.borrow().reorder_policy()
    }

    fn set_auto_reorder(&self, threshold: usize) {
        self.inner.borrow_mut().set_auto_reorder(threshold);
    }

    fn reorder_if_needed(&self) -> bool {
        self.inner.borrow_mut().reorder_if_needed()
    }

    fn try_collect(&self, budget: &mut OpBudget) -> Result<bool, OpAbort> {
        let reordered = self.inner.borrow_mut().reorder_if_needed_bounded(budget)?;
        if !reordered {
            self.gc();
        }
        Ok(reordered)
    }

    fn set_order(&self, order: &[usize]) -> bool {
        self.inner.borrow_mut().set_order(order)
    }

    fn shared_node_count(&self, fns: &[Function<B>]) -> usize {
        let edges: Vec<B::Edge> = fns.iter().map(Function::edge).collect();
        self.inner.borrow().shared_node_count_edges(&edges)
    }

    fn to_dot(&self, fns: &[Function<B>], names: &[&str]) -> String {
        let edges: Vec<B::Edge> = fns.iter().map(Function::edge).collect();
        self.inner.borrow().to_dot_edges(&edges, names)
    }

    fn level_profile(&self, fns: &[Function<B>]) -> Option<Vec<usize>> {
        let edges: Vec<B::Edge> = fns.iter().map(Function::edge).collect();
        self.inner.borrow().level_profile_edges(&edges)
    }

    fn variable_order(&self) -> Vec<usize> {
        self.inner.borrow().variable_order()
    }

    fn stats_line(&self) -> String {
        self.inner.borrow().stats_line()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.borrow().observe()
    }
}

impl<B: RawManager> BooleanFunction for Function<B> {
    type Manager = ManagerRef<B>;

    fn manager(&self) -> ManagerRef<B> {
        ManagerRef {
            inner: Rc::clone(&self.mgr),
        }
    }

    fn apply(&self, op: BoolOp, g: &Self) -> Self {
        let (m, mut b) = self.op_ctx(&[g]);
        let e = {
            let _span = obs::span(obs::Op::Apply);
            b.apply_edge(op, self.edge, g.edge)
        };
        m.finish(&mut b, e)
    }

    fn try_apply(&self, op: BoolOp, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort> {
        let (m, mut b) = self.op_ctx(&[g]);
        let r = Self::governed(&mut b, obs::Op::Apply, budget, |b, budget| {
            b.try_apply_edge(op, self.edge, g.edge, budget)
        });
        m.finish_try(&mut b, r)
    }

    fn not(&self) -> Self {
        // Complement edges make negation free; no op boundary needed.
        Function {
            edge: !self.edge,
            slot: self.roots.register(B::edge_bits(!self.edge)),
            roots: self.roots.clone(),
            mgr: Rc::clone(&self.mgr),
        }
    }

    fn ite(&self, g: &Self, h: &Self) -> Self {
        let (m, mut b) = self.op_ctx(&[g, h]);
        let e = {
            let _span = obs::span(obs::Op::Ite);
            b.ite_edge(self.edge, g.edge, h.edge)
        };
        m.finish(&mut b, e)
    }

    fn try_ite(&self, g: &Self, h: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort> {
        let (m, mut b) = self.op_ctx(&[g, h]);
        let r = Self::governed(&mut b, obs::Op::Ite, budget, |b, budget| {
            b.try_ite_edge(self.edge, g.edge, h.edge, budget)
        });
        m.finish_try(&mut b, r)
    }

    fn exists(&self, vars: &[usize]) -> Self {
        let (m, mut b) = self.op_ctx(&[]);
        let e = {
            let _span = obs::span(obs::Op::Exists);
            b.exists_edge(self.edge, vars)
        };
        m.finish(&mut b, e)
    }

    fn try_exists(&self, vars: &[usize], budget: &mut OpBudget) -> Result<Self, OpAbort> {
        let (m, mut b) = self.op_ctx(&[]);
        let r = Self::governed(&mut b, obs::Op::Exists, budget, |b, budget| {
            b.try_exists_edge(self.edge, vars, budget)
        });
        m.finish_try(&mut b, r)
    }

    fn forall(&self, vars: &[usize]) -> Self {
        let (m, mut b) = self.op_ctx(&[]);
        let e = {
            let _span = obs::span(obs::Op::Forall);
            b.forall_edge(self.edge, vars)
        };
        m.finish(&mut b, e)
    }

    fn try_forall(&self, vars: &[usize], budget: &mut OpBudget) -> Result<Self, OpAbort> {
        let (m, mut b) = self.op_ctx(&[]);
        let r = Self::governed(&mut b, obs::Op::Forall, budget, |b, budget| {
            b.try_forall_edge(self.edge, vars, budget)
        });
        m.finish_try(&mut b, r)
    }

    fn and_exists(&self, g: &Self, vars: &[usize]) -> Self {
        let (m, mut b) = self.op_ctx(&[g]);
        let e = {
            let _span = obs::span(obs::Op::AndExists);
            b.and_exists_edge(self.edge, g.edge, vars)
        };
        m.finish(&mut b, e)
    }

    fn try_and_exists(
        &self,
        g: &Self,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Self, OpAbort> {
        let (m, mut b) = self.op_ctx(&[g]);
        let r = Self::governed(&mut b, obs::Op::AndExists, budget, |b, budget| {
            b.try_and_exists_edge(self.edge, g.edge, vars, budget)
        });
        m.finish_try(&mut b, r)
    }

    fn restrict(&self, var: usize, value: bool) -> Self {
        let (m, mut b) = self.op_ctx(&[]);
        let e = {
            let _span = obs::span(obs::Op::Restrict);
            b.restrict_edge(self.edge, var, value)
        };
        m.finish(&mut b, e)
    }

    fn compose(&self, var: usize, g: &Self) -> Self {
        let (m, mut b) = self.op_ctx(&[g]);
        let e = {
            let _span = obs::span(obs::Op::Compose);
            b.compose_edge(self.edge, var, g.edge)
        };
        m.finish(&mut b, e)
    }

    fn try_compose(&self, var: usize, g: &Self, budget: &mut OpBudget) -> Result<Self, OpAbort> {
        let (m, mut b) = self.op_ctx(&[g]);
        let r = Self::governed(&mut b, obs::Op::Compose, budget, |b, budget| {
            b.try_compose_edge(self.edge, var, g.edge, budget)
        });
        m.finish_try(&mut b, r)
    }

    fn vector_compose(&self, subs: &[Option<Self>]) -> Self {
        let edges: Vec<Option<B::Edge>> = subs
            .iter()
            .map(|s| s.as_ref().map(Function::edge))
            .collect();
        let (m, mut b) = self.op_ctx(&[]);
        let e = {
            let _span = obs::span(obs::Op::VectorCompose);
            b.vector_compose_edge(self.edge, &edges)
        };
        m.finish(&mut b, e)
    }

    fn cofactors(&self, var: usize) -> (Self, Self) {
        let (m, mut b) = self.op_ctx(&[]);
        // Both restrictions complete before the shared op boundary: no
        // collection can run between them, so the first raw edge stays
        // valid while the second is computed.
        let hi = b.restrict_edge(self.edge, var, true);
        let lo = b.restrict_edge(self.edge, var, false);
        let hi = Function::register(b.root_registry(), hi, Rc::clone(&self.mgr));
        let lo = m.finish(&mut b, lo);
        (hi, lo)
    }

    fn eval(&self, assignment: &[bool]) -> bool {
        self.mgr.borrow().eval_edge(self.edge, assignment)
    }

    fn sat_count(&self) -> u128 {
        let _span = obs::span(obs::Op::SatCount);
        self.mgr.borrow().sat_count_edge(self.edge)
    }

    fn sat_count_checked(&self) -> Option<u128> {
        self.mgr.borrow().sat_count_checked_edge(self.edge)
    }

    fn try_sat_count(&self, budget: &mut OpBudget) -> Result<u128, OpAbort> {
        // Counting is read-only (shared borrow), so the govern-accounting
        // hook — which needs the backend mutably — is skipped here; the
        // span and abort event still fire.
        let _span = obs::span(obs::Op::SatCount);
        let r = self.mgr.borrow().try_sat_count_edge(self.edge, budget);
        if let Some(reason) = r.as_ref().err().copied() {
            obs::abort_event(reason);
        }
        r
    }

    fn sat_count_over(&self, n_vars: usize) -> Option<u128> {
        self.mgr.borrow_mut().sat_count_over_edge(self.edge, n_vars)
    }

    fn try_sat_count_over(
        &self,
        n_vars: usize,
        budget: &mut OpBudget,
    ) -> Result<Option<u128>, OpAbort> {
        let _span = obs::span(obs::Op::SatCount);
        let r = self
            .mgr
            .borrow_mut()
            .try_sat_count_over_edge(self.edge, n_vars, budget);
        if let Some(reason) = r.as_ref().err().copied() {
            obs::abort_event(reason);
        }
        r
    }

    fn any_sat(&self) -> Option<Vec<bool>> {
        self.mgr.borrow().any_sat_edge(self.edge)
    }

    fn all_sat(&self, limit: usize) -> Vec<Vec<bool>> {
        self.mgr.borrow().all_sat_edge(self.edge, limit)
    }

    fn node_count(&self) -> usize {
        self.mgr.borrow().node_count_edge(self.edge)
    }

    fn support(&self) -> Vec<usize> {
        self.mgr.borrow_mut().support_edge(self.edge)
    }

    fn is_true(&self) -> bool {
        self.edge == self.mgr.borrow().constant_edge(true)
    }

    fn is_false(&self) -> bool {
        self.edge == self.mgr.borrow().constant_edge(false)
    }
}

impl<B: RawManager> std::ops::Not for &Function<B> {
    type Output = Function<B>;

    fn not(self) -> Function<B> {
        BooleanFunction::not(self)
    }
}

impl<B: RawManager> std::ops::BitAnd for &Function<B> {
    type Output = Function<B>;

    fn bitand(self, rhs: Self) -> Function<B> {
        self.and(rhs)
    }
}

impl<B: RawManager> std::ops::BitOr for &Function<B> {
    type Output = Function<B>;

    fn bitor(self, rhs: Self) -> Function<B> {
        self.or(rhs)
    }
}

impl<B: RawManager> std::ops::BitXor for &Function<B> {
    type Output = Function<B>;

    fn bitxor(self, rhs: Self) -> Function<B> {
        self.xor(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 6-variable truth-table backend: the minimal [`RawManager`]
    /// implementation, doubling as the in-crate test double for the whole
    /// generic layer (the real backends are exercised by the workspace
    /// conformance suite).
    #[derive(Debug, Default)]
    struct TtBackend {
        roots: RootSet,
        gc_threshold: usize,
    }

    const N: usize = 6;

    /// An edge is the function's 64-row truth table; row `m` holds the
    /// value under the assignment with variable `v` = bit `v` of `m`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tt(u64);

    impl std::ops::Not for Tt {
        type Output = Tt;
        fn not(self) -> Tt {
            Tt(!self.0)
        }
    }

    fn var_table(v: usize) -> u64 {
        let mut w = 0u64;
        for m in 0..64u64 {
            if (m >> v) & 1 == 1 {
                w |= 1 << m;
            }
        }
        w
    }

    fn restrict_table(t: u64, var: usize, value: bool) -> u64 {
        let vt = var_table(var);
        let keep = if value { t & vt } else { t & !vt };
        // Mirror the kept half onto the other polarity of `var`.
        let stride = 1u64 << var;
        if value {
            keep | (keep >> stride)
        } else {
            keep | (keep << stride)
        }
    }

    impl RawManager for TtBackend {
        type Edge = Tt;

        fn with_vars(num_vars: usize) -> Self {
            assert_eq!(num_vars, N, "test backend is fixed at 6 variables");
            TtBackend::default()
        }

        fn num_vars(&self) -> usize {
            N
        }

        fn root_registry(&self) -> &RootSet {
            &self.roots
        }

        fn edge_bits(e: Tt) -> u64 {
            e.0
        }

        fn constant_edge(&self, value: bool) -> Tt {
            Tt(if value { !0 } else { 0 })
        }

        fn var_edge(&mut self, var: usize) -> Tt {
            assert!(var < N);
            Tt(var_table(var))
        }

        fn apply_edge(&mut self, op: BoolOp, f: Tt, g: Tt) -> Tt {
            let mut out = 0u64;
            for m in 0..64 {
                if op.eval((f.0 >> m) & 1 == 1, (g.0 >> m) & 1 == 1) {
                    out |= 1 << m;
                }
            }
            Tt(out)
        }

        fn ite_edge(&mut self, f: Tt, g: Tt, h: Tt) -> Tt {
            Tt((f.0 & g.0) | (!f.0 & h.0))
        }

        fn exists_edge(&mut self, f: Tt, vars: &[usize]) -> Tt {
            let mut t = f.0;
            for &v in vars {
                t = restrict_table(t, v, true) | restrict_table(t, v, false);
            }
            Tt(t)
        }

        fn forall_edge(&mut self, f: Tt, vars: &[usize]) -> Tt {
            let mut t = f.0;
            for &v in vars {
                t = restrict_table(t, v, true) & restrict_table(t, v, false);
            }
            Tt(t)
        }

        fn and_exists_edge(&mut self, f: Tt, g: Tt, vars: &[usize]) -> Tt {
            self.exists_edge(Tt(f.0 & g.0), vars)
        }

        // The governed variants poll the budget once up front: truth-table
        // ops are O(1)-ish, so a single checkpoint per call is both the
        // natural granularity and enough for the generic-layer tests.
        fn try_apply_edge(
            &mut self,
            op: BoolOp,
            f: Tt,
            g: Tt,
            budget: &mut OpBudget,
        ) -> Result<Tt, OpAbort> {
            budget.checkpoint()?;
            Ok(self.apply_edge(op, f, g))
        }

        fn try_ite_edge(
            &mut self,
            f: Tt,
            g: Tt,
            h: Tt,
            budget: &mut OpBudget,
        ) -> Result<Tt, OpAbort> {
            budget.checkpoint()?;
            Ok(self.ite_edge(f, g, h))
        }

        fn try_exists_edge(
            &mut self,
            f: Tt,
            vars: &[usize],
            budget: &mut OpBudget,
        ) -> Result<Tt, OpAbort> {
            budget.checkpoint()?;
            Ok(self.exists_edge(f, vars))
        }

        fn try_forall_edge(
            &mut self,
            f: Tt,
            vars: &[usize],
            budget: &mut OpBudget,
        ) -> Result<Tt, OpAbort> {
            budget.checkpoint()?;
            Ok(self.forall_edge(f, vars))
        }

        fn try_and_exists_edge(
            &mut self,
            f: Tt,
            g: Tt,
            vars: &[usize],
            budget: &mut OpBudget,
        ) -> Result<Tt, OpAbort> {
            budget.checkpoint()?;
            Ok(self.and_exists_edge(f, g, vars))
        }

        fn try_compose_edge(
            &mut self,
            f: Tt,
            var: usize,
            g: Tt,
            budget: &mut OpBudget,
        ) -> Result<Tt, OpAbort> {
            budget.checkpoint()?;
            Ok(self.compose_edge(f, var, g))
        }

        fn restrict_edge(&mut self, f: Tt, var: usize, value: bool) -> Tt {
            Tt(restrict_table(f.0, var, value))
        }

        fn compose_edge(&mut self, f: Tt, var: usize, g: Tt) -> Tt {
            let hi = restrict_table(f.0, var, true);
            let lo = restrict_table(f.0, var, false);
            Tt((g.0 & hi) | (!g.0 & lo))
        }

        fn vector_compose_edge(&mut self, f: Tt, subs: &[Option<Tt>]) -> Tt {
            // Simultaneous: evaluate row-by-row against the substituted
            // inputs.
            let mut out = 0u64;
            for m in 0..64u64 {
                let mut row = 0usize;
                for v in 0..N {
                    let bit = match subs.get(v).copied().flatten() {
                        Some(g) => (g.0 >> m) & 1 == 1,
                        None => (m >> v) & 1 == 1,
                    };
                    if bit {
                        row |= 1 << v;
                    }
                }
                if (f.0 >> row) & 1 == 1 {
                    out |= 1 << m;
                }
            }
            Tt(out)
        }

        fn eval_edge(&self, f: Tt, assignment: &[bool]) -> bool {
            let mut m = 0usize;
            for (v, &bit) in assignment.iter().enumerate().take(N) {
                if bit {
                    m |= 1 << v;
                }
            }
            (f.0 >> m) & 1 == 1
        }

        fn sat_count_edge(&self, f: Tt) -> u128 {
            u128::from(f.0.count_ones())
        }

        fn sat_count_checked_edge(&self, f: Tt) -> Option<u128> {
            Some(self.sat_count_edge(f))
        }

        fn try_sat_count_edge(&self, f: Tt, budget: &mut OpBudget) -> Result<u128, OpAbort> {
            budget.checkpoint()?;
            Ok(self.sat_count_edge(f))
        }

        fn any_sat_edge(&self, f: Tt) -> Option<Vec<bool>> {
            if f.0 == 0 {
                return None;
            }
            let m = f.0.trailing_zeros() as usize;
            Some((0..N).map(|v| (m >> v) & 1 == 1).collect())
        }

        fn all_sat_edge(&self, f: Tt, limit: usize) -> Vec<Vec<bool>> {
            (0..64usize)
                .filter(|m| (f.0 >> m) & 1 == 1)
                .take(limit)
                .map(|m| (0..N).map(|v| (m >> v) & 1 == 1).collect())
                .collect()
        }

        fn node_count_edge(&self, f: Tt) -> usize {
            usize::from(f.0 != 0 && f.0 != !0)
        }

        fn shared_node_count_edges(&self, roots: &[Tt]) -> usize {
            roots.iter().map(|&e| self.node_count_edge(e)).sum()
        }

        fn support_edge(&mut self, f: Tt) -> Vec<usize> {
            (0..N)
                .filter(|&v| restrict_table(f.0, v, true) != restrict_table(f.0, v, false))
                .collect()
        }

        fn to_dot_edges(&self, _roots: &[Tt], _names: &[&str]) -> String {
            String::new()
        }

        fn after_op(&mut self) {}

        fn gc(&mut self) -> usize {
            0
        }

        fn set_gc_threshold(&mut self, threshold: usize) {
            self.gc_threshold = threshold;
        }

        fn gc_threshold(&self) -> usize {
            self.gc_threshold
        }

        fn live_nodes(&self) -> usize {
            0
        }

        fn try_sift(&mut self) -> Option<usize> {
            None
        }

        fn sift_bounded(&mut self, _budget: &mut OpBudget) -> Option<Result<usize, OpAbort>> {
            None
        }

        fn variable_order(&self) -> Vec<usize> {
            (0..N).collect()
        }

        fn stats_line(&self) -> String {
            "tt backend".to_string()
        }
    }

    type M = ManagerRef<TtBackend>;

    #[test]
    fn operators_and_named_ops_agree_with_tables() {
        let mgr = M::with_vars(N);
        let a = mgr.var(0);
        let b = mgr.var(1);
        assert_eq!((&a & &b).edge().0, var_table(0) & var_table(1));
        assert_eq!((&a | &b).edge().0, var_table(0) | var_table(1));
        assert_eq!((&a ^ &b).edge().0, var_table(0) ^ var_table(1));
        assert_eq!((!&a).edge().0, !var_table(0));
        assert_eq!(a.xnor(&b).edge().0, !(var_table(0) ^ var_table(1)));
        assert_eq!(a.imp(&b).edge().0, !var_table(0) | var_table(1));
        assert_eq!(a.nand(&b), !&(&a & &b));
        assert_eq!(a.nor(&b), !&(&a | &b));
    }

    #[test]
    fn quantification_composition_and_queries() {
        let mgr = M::with_vars(N);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let f = &(&a & &b) | &c;
        assert_eq!(f.exists(&[0]).edge().0, var_table(1) | var_table(2));
        assert_eq!(f.forall(&[2]).edge().0, var_table(0) & var_table(1));
        assert_eq!(
            a.and_exists(&b, &[1]),
            (&a & &b).exists(&[1]),
            "fused = materialized"
        );
        let (hi, lo) = f.cofactors(0);
        assert_eq!(hi.edge().0, var_table(1) | var_table(2));
        assert_eq!(lo, c);
        assert_eq!(f.compose(0, &c), f.vector_compose(&[Some(c.clone())]));
        assert_eq!(f.support(), vec![0, 1, 2]);
        assert_eq!(
            f.sat_count(),
            (var_table(0) & var_table(1) | var_table(2))
                .count_ones()
                .into()
        );
        let m = f.any_sat().expect("satisfiable");
        assert!(f.eval(&m));
        assert_eq!(f.all_sat(7).len(), 7);
        assert!(mgr.constant(true).is_true());
        assert!(mgr.constant(false).is_false());
        assert!(!f.is_constant());
        assert_eq!(mgr.nvar(3), !&mgr.var(3));
    }

    #[test]
    fn handles_track_the_root_registry() {
        let mgr = M::with_vars(N);
        assert_eq!(mgr.external_roots(), 0);
        let a = mgr.var(0);
        let b = a.clone();
        assert_eq!(mgr.external_roots(), 1, "clones share one slot");
        let c = !&a;
        assert_eq!(mgr.external_roots(), 2);
        drop(a);
        assert_eq!(mgr.external_roots(), 2, "clone keeps the slot");
        drop(b);
        drop(c);
        assert_eq!(mgr.external_roots(), 0);
    }

    #[test]
    fn handles_of_different_managers_never_compare_equal() {
        let m1 = M::with_vars(N);
        let m2 = M::with_vars(N);
        // Identical functions, identical edge bits — but distinct
        // backends, so equality must not hold.
        assert_ne!(m1.var(0), m2.var(0));
        assert_ne!(m1.constant(true), m2.constant(true));
        assert_eq!(m1.var(0), m1.var(0), "same manager still compares");
    }

    #[test]
    fn manager_round_trips_through_handles() {
        let mgr = M::with_vars(N);
        let f = mgr.var(4);
        let m2 = f.manager();
        assert_eq!(m2.num_vars(), N);
        let g = m2.var(4);
        assert_eq!(f, g, "same backend behind both references");
        assert!(mgr.reorder().is_none());
        assert!(!mgr.reorder_if_needed());
        // The DVO defaults on a reorder-less backend: everything is a
        // polite no-op.
        assert!(mgr.reorder_with(DvoStrategy::Full).is_none());
        assert!(mgr
            .try_reorder_with(DvoStrategy::Pair, &mut OpBudget::unlimited())
            .is_none());
        mgr.set_reorder_policy(Some("full:growth2".parse().unwrap()));
        assert!(mgr.reorder_policy().is_none(), "backend ignores policies");
        assert!(!mgr.set_order(&[5, 4, 3, 2, 1, 0]));
        assert_eq!(
            mgr.try_collect(&mut OpBudget::unlimited()),
            Ok(false),
            "no reorder support: try_collect degrades to plain gc"
        );
        mgr.collect();
        mgr.set_gc_threshold(7);
        assert_eq!(mgr.gc_threshold(), 7);
        assert_eq!(mgr.variable_order(), (0..N).collect::<Vec<_>>());
        let e = f.edge();
        let lifted = mgr.lift(e);
        assert_eq!(lifted, f);
    }
}
