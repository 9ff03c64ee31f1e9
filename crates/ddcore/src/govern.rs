//! Resource governance for long-running diagram operations: node-count
//! budgets, wall-clock deadlines and cooperative cancellation.
//!
//! Every recursive hot path in the managers (`apply`, `ite`,
//! quantification, composition, `sat_count`, sifting) polls an
//! [`OpBudget`] at its *cache-miss boundaries* — the points where the
//! recursion is about to materialize work that was not already memoized.
//! Each poll is a [`OpBudget::checkpoint`]: on the fast path it is one
//! counter increment, one decrement and one never-taken branch; only every
//! `poll_stride` checkpoints does the slow path run, which is where the
//! deadline syscall (`Instant::now`) and the [`CancelToken`] load happen.
//! A budget therefore bounds *abort latency* as well as cost: once a token
//! is raised or a deadline passes, the operation aborts within at most one
//! poll stride of further checkpoints (see `tests/abort_safety.rs` for the
//! deterministic test of that bound).
//!
//! The contract the managers uphold — **abort safety** — is that an
//! [`Err(OpAbort)`](OpAbort) returned from any `try_*` operation leaves
//! the manager fully usable: unique tables canonical, computed caches free
//! of entries referencing never-committed nodes, the root registry
//! balanced, and any orphaned partial results reclaimed by the next GC.
//! The deterministic fault-injection hook ([`OpBudget::inject_cancel_at`])
//! exists so tests can force an abort at *exactly* the K-th checkpoint and
//! sweep K exhaustively over a workload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed operation aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpAbort {
    /// The budget's node-creation ceiling was reached.
    NodeBudget,
    /// The wall-clock deadline passed.
    Deadline,
    /// The operation's [`CancelToken`] was raised (or a fault-injection
    /// hook fired — injection reuses the cancellation path).
    Cancelled,
}

impl std::fmt::Display for OpAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpAbort::NodeBudget => write!(f, "operation aborted: node budget exhausted"),
            OpAbort::Deadline => write!(f, "operation aborted: deadline exceeded"),
            OpAbort::Cancelled => write!(f, "operation aborted: cancelled"),
        }
    }
}

impl std::error::Error for OpAbort {}

/// A shareable cancellation flag: clone it, hand one copy to the thread
/// running a governed operation (inside an [`OpBudget`]) and keep the
/// other; [`CancelToken::cancel`] from anywhere makes the operation return
/// [`OpAbort::Cancelled`] within one poll stride of checkpoints.
///
/// ```
/// use ddcore::govern::CancelToken;
/// let t = CancelToken::new();
/// let t2 = t.clone();
/// assert!(!t.is_cancelled());
/// t2.cancel();
/// assert!(t.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-raised token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the token. Idempotent; there is no way to lower it again.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has the token been raised?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The resource envelope of one governed request: a node-creation ceiling,
/// an optional wall-clock deadline and an optional [`CancelToken`], polled
/// via an amortized counter.
///
/// A budget is *caller-owned* and passed as `&mut` into each `try_*`
/// operation, so one budget can span a whole multi-operation request: the
/// node count depletes across calls. [`OpBudget::unlimited`] never aborts
/// (the infallible operations are thin wrappers over the `try_*` forms
/// with an unlimited budget).
///
/// ```
/// use ddcore::govern::{OpAbort, OpBudget};
/// let mut b = OpBudget::unlimited().with_node_limit(2);
/// assert_eq!(b.checkpoint(), Ok(()));
/// assert_eq!(b.checkpoint(), Ok(()));
/// assert_eq!(b.checkpoint(), Err(OpAbort::NodeBudget));
/// assert_eq!(b.used(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct OpBudget {
    /// Checkpoints until the next slow-path poll (counts down to 0).
    ticks_left: u64,
    /// Total checkpoints passed so far.
    used: u64,
    /// Checkpoint ceiling (`u64::MAX` = unlimited). Checkpoints sit at
    /// node-materialization boundaries, so this is the node budget.
    node_limit: u64,
    /// Checkpoints between slow-path polls (deadline/token checks).
    stride: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Fault-injection hook: abort (as `Cancelled`) once `used` reaches
    /// this value. `u64::MAX` = disabled.
    inject_at: u64,
}

/// Default checkpoints between deadline/token polls. At typical
/// node-materialization rates this keeps abort latency well under a
/// millisecond while making the poll cost unmeasurable.
pub const DEFAULT_POLL_STRIDE: u64 = 1024;

impl Default for OpBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl OpBudget {
    /// A budget with no limits: `checkpoint` never fails. This is what the
    /// infallible operation wrappers use.
    #[must_use]
    pub fn unlimited() -> Self {
        OpBudget {
            ticks_left: 0, // re-armed by the first slow-path visit
            used: 0,
            node_limit: u64::MAX,
            stride: DEFAULT_POLL_STRIDE,
            deadline: None,
            cancel: None,
            inject_at: u64::MAX,
        }
    }

    /// Cap the budget at `n` checkpoints (≈ nodes materialized across all
    /// operations charged to this budget). `u64::MAX` disables the cap.
    #[must_use]
    pub fn with_node_limit(mut self, n: u64) -> Self {
        self.node_limit = n;
        self.ticks_left = 0;
        self
    }

    /// Abort with [`OpAbort::Deadline`] once `Instant::now()` passes
    /// `deadline` (observed at the next slow-path poll).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self.ticks_left = 0;
        self
    }

    /// [`OpBudget::with_deadline`] at `now + limit`.
    #[must_use]
    pub fn with_deadline_in(self, limit: Duration) -> Self {
        // A limit past the clock's range is no deadline at all.
        match Instant::now().checked_add(limit) {
            Some(deadline) => self.with_deadline(deadline),
            None => self,
        }
    }

    /// Attach a cancellation token (cloned; the caller keeps the original
    /// to raise from another thread).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self.ticks_left = 0;
        self
    }

    /// Checkpoints between deadline/token polls (the abort-latency bound).
    /// Must be at least 1; smaller = more responsive, more poll overhead.
    ///
    /// # Panics
    /// Panics if `stride` is 0.
    #[must_use]
    pub fn with_poll_stride(mut self, stride: u64) -> Self {
        assert!(stride >= 1, "poll stride must be at least 1");
        self.stride = stride;
        self.ticks_left = 0;
        self
    }

    /// Deterministic fault injection (tests): force an
    /// [`OpAbort::Cancelled`] at exactly the `k`-th checkpoint (1-based:
    /// `k = 1` aborts the very first checkpoint). The abort-safety harness
    /// sweeps `k` exhaustively over small workloads.
    #[must_use]
    pub fn inject_cancel_at(mut self, k: u64) -> Self {
        self.inject_at = k;
        self.ticks_left = 0;
        self
    }

    /// Total checkpoints passed (≈ nodes materialized under this budget).
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Checkpoint headroom before [`OpAbort::NodeBudget`]
    /// (`u64::MAX` when unlimited).
    #[must_use]
    pub fn nodes_remaining(&self) -> u64 {
        if self.node_limit == u64::MAX {
            u64::MAX
        } else {
            self.node_limit.saturating_sub(self.used)
        }
    }

    /// The budget poll, called by the recursion cores at every cache-miss
    /// boundary. Fast path: increment, decrement, one rarely-taken branch.
    ///
    /// # Errors
    /// Returns the abort reason once a limit is hit; once it has returned
    /// an error it keeps returning one (callers must not retry a depleted
    /// budget, but propagating `?` through a recursion may poll again).
    #[inline]
    pub fn checkpoint(&mut self) -> Result<(), OpAbort> {
        self.used += 1;
        if self.ticks_left == 0 {
            self.poll_slow()
        } else {
            self.ticks_left -= 1;
            Ok(())
        }
    }

    /// The slow path: fault injection, ceiling, token, clock — then re-arm
    /// the countdown to the next *event* (stride, ceiling or injection
    /// point, whichever is nearest).
    #[cold]
    fn poll_slow(&mut self) -> Result<(), OpAbort> {
        if self.used >= self.inject_at {
            return Err(OpAbort::Cancelled);
        }
        if self.used > self.node_limit {
            return Err(OpAbort::NodeBudget);
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(OpAbort::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(OpAbort::Deadline);
            }
        }
        let mut next = self.stride;
        if self.node_limit != u64::MAX {
            next = next.min(self.node_limit - self.used + 1);
        }
        if self.inject_at != u64::MAX {
            next = next.min(self.inject_at - self.used);
        }
        self.ticks_left = next.max(1) - 1;
        Ok(())
    }

    /// A thread-shareable snapshot for the parallel managers' fork-join
    /// phases: workers check it *between tasks* (the overlay recursions
    /// themselves stay poll-free; the commit back into the base manager is
    /// charged through [`OpBudget::checkpoint`] as usual).
    #[must_use]
    pub fn stop_view(&self) -> StopView {
        StopView {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            inject: self.inject_at != u64::MAX,
            node_headroom: self.nodes_remaining(),
        }
    }

    /// Charge `n` checkpoints at once (used by the parallel commit path to
    /// account imported overlay nodes in bulk).
    ///
    /// # Errors
    /// Same contract as [`OpBudget::checkpoint`].
    pub fn charge(&mut self, n: u64) -> Result<(), OpAbort> {
        for _ in 0..n {
            self.checkpoint()?;
        }
        Ok(())
    }
}

/// A `Sync` snapshot of an [`OpBudget`]'s stop conditions, checked by
/// fork-join workers between tasks (see [`OpBudget::stop_view`]).
#[derive(Debug, Clone)]
pub struct StopView {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    /// A fault-injection budget must take the governed (stoppable) path
    /// even though the view itself cannot count checkpoints.
    inject: bool,
    node_headroom: u64,
}

impl StopView {
    /// Should the parallel phase stop? `overlay_nodes` is the number of
    /// overlay nodes materialized so far (counted against the budget's
    /// node headroom at snapshot time).
    #[must_use]
    pub fn should_stop(&self, overlay_nodes: u64) -> Option<OpAbort> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(OpAbort::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(OpAbort::Deadline);
            }
        }
        if overlay_nodes > self.node_headroom {
            return Some(OpAbort::NodeBudget);
        }
        None
    }

    /// Does this view carry any stop condition at all? Unlimited budgets
    /// answer `false`, letting the parallel phase skip the governed path
    /// entirely.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.cancel.is_some()
            || self.deadline.is_some()
            || self.inject
            || self.node_headroom != u64::MAX
    }
}

/// Per-session admission control: the default resource envelope a serving
/// session grants each request, plus the session-wide [`CancelToken`].
///
/// An `Admission` is the *policy*; [`Admission::mint`] turns it into the
/// per-request [`OpBudget`] *mechanism*. Every minted budget carries the
/// session's token, so cancelling the session aborts whatever request is
/// in flight — and every request after it — without touching the shared
/// base (see `ddcore::session`).
///
/// ```
/// use ddcore::govern::{Admission, OpAbort};
/// use std::time::Duration;
/// let adm = Admission::unlimited()
///     .with_node_limit(10_000)
///     .with_time_limit(Duration::from_millis(50));
/// let mut budget = adm.mint(); // one fresh envelope per request
/// assert!(budget.checkpoint().is_ok());
/// adm.cancel();
/// assert_eq!(adm.mint().checkpoint(), Err(OpAbort::Cancelled));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Admission {
    node_limit: Option<u64>,
    time_limit: Option<Duration>,
    token: CancelToken,
}

impl Admission {
    /// No default limits; requests still honour the session token.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Default per-request node-creation ceiling.
    #[must_use]
    pub fn with_node_limit(mut self, n: u64) -> Self {
        self.node_limit = Some(n);
        self
    }

    /// Default per-request wall-clock allowance (the deadline is re-armed
    /// at each [`Admission::mint`], not fixed at construction).
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// The session-wide cancellation token (clone it to other threads).
    #[must_use]
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Raise the session's token: the in-flight request and every later
    /// one abort with [`OpAbort::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Mint one request's [`OpBudget`] from the default envelope.
    #[must_use]
    pub fn mint(&self) -> OpBudget {
        self.mint_with(None, None)
    }

    /// Mint a request budget with per-request overrides: an explicit
    /// `nodes` / `time` replaces the session default for this request
    /// only (it cannot escape the session token).
    #[must_use]
    pub fn mint_with(&self, nodes: Option<u64>, time: Option<Duration>) -> OpBudget {
        let mut b = OpBudget::unlimited().with_cancel(&self.token);
        if let Some(n) = nodes.or(self.node_limit) {
            b = b.with_node_limit(n);
        }
        if let Some(t) = time.or(self.time_limit) {
            b = b.with_deadline_in(t);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_aborts() {
        let mut b = OpBudget::unlimited();
        for _ in 0..10_000 {
            assert_eq!(b.checkpoint(), Ok(()));
        }
        assert_eq!(b.used(), 10_000);
        assert_eq!(b.nodes_remaining(), u64::MAX);
    }

    #[test]
    fn node_limit_exact_boundary() {
        for limit in [1u64, 2, 7, 100] {
            let mut b = OpBudget::unlimited().with_node_limit(limit);
            for i in 0..limit {
                assert_eq!(b.checkpoint(), Ok(()), "checkpoint {i} under limit {limit}");
            }
            assert_eq!(b.checkpoint(), Err(OpAbort::NodeBudget));
            assert_eq!(b.used(), limit + 1);
            // Depleted budgets stay depleted.
            assert_eq!(b.checkpoint(), Err(OpAbort::NodeBudget));
        }
    }

    #[test]
    fn injection_fires_at_exact_checkpoint() {
        for k in [1u64, 2, 3, 50] {
            let mut b = OpBudget::unlimited().inject_cancel_at(k);
            for i in 1..k {
                assert_eq!(b.checkpoint(), Ok(()), "checkpoint {i} before k={k}");
            }
            assert_eq!(b.checkpoint(), Err(OpAbort::Cancelled), "k={k}");
        }
    }

    #[test]
    fn cancel_observed_within_stride() {
        let token = CancelToken::new();
        let mut b = OpBudget::unlimited()
            .with_cancel(&token)
            .with_poll_stride(8);
        token.cancel();
        let mut aborted_at = None;
        for i in 1..=64u64 {
            if b.checkpoint().is_err() {
                aborted_at = Some(i);
                break;
            }
        }
        let at = aborted_at.expect("a raised token must abort");
        assert!(at <= 8, "aborted at checkpoint {at}, stride is 8");
    }

    #[test]
    fn expired_deadline_aborts_immediately_with_stride_one() {
        let mut b = OpBudget::unlimited()
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .with_poll_stride(1);
        assert_eq!(b.checkpoint(), Err(OpAbort::Deadline));
    }

    #[test]
    fn stop_view_reflects_conditions() {
        let unlimited = OpBudget::unlimited();
        assert!(!unlimited.stop_view().is_limited());

        let token = CancelToken::new();
        let b = OpBudget::unlimited().with_cancel(&token);
        let view = b.stop_view();
        assert!(view.is_limited());
        assert_eq!(view.should_stop(0), None);
        token.cancel();
        assert_eq!(view.should_stop(0), Some(OpAbort::Cancelled));

        let b = OpBudget::unlimited().with_node_limit(10);
        let view = b.stop_view();
        assert_eq!(view.should_stop(10), None);
        assert_eq!(view.should_stop(11), Some(OpAbort::NodeBudget));

        assert!(OpBudget::unlimited()
            .inject_cancel_at(3)
            .stop_view()
            .is_limited());
    }

    #[test]
    fn charge_bulk_accounts_like_loop() {
        let mut a = OpBudget::unlimited().with_node_limit(100);
        let mut b = OpBudget::unlimited().with_node_limit(100);
        assert_eq!(a.charge(60), Ok(()));
        for _ in 0..60 {
            b.checkpoint().unwrap();
        }
        assert_eq!(a.used(), b.used());
        assert_eq!(a.charge(41), Err(OpAbort::NodeBudget));
    }

    #[test]
    fn display_and_error() {
        let e: Box<dyn std::error::Error> = Box::new(OpAbort::Deadline);
        assert!(e.to_string().contains("deadline"));
        assert!(OpAbort::NodeBudget.to_string().contains("node budget"));
        assert!(OpAbort::Cancelled.to_string().contains("cancelled"));
    }
}
