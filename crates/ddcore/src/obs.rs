//! Unified observability: a cross-backend metrics registry, a structured
//! trace layer, and profiling hooks.
//!
//! Three independent facilities share this module because they share one
//! contract — **zero cost when off**:
//!
//! 1. **Metrics registry** ([`MetricsSnapshot`]): a flat, snapshot/delta-
//!    capable tree of named counters and gauges that every backend fills
//!    through the [`RawManager::observe`](crate::api::RawManager::observe)
//!    seam. Names are stable dotted paths (`cache.hits`, `gc.runs`,
//!    `par.shard_contention`) so formatters, JSON export and tests are
//!    backend-agnostic. Snapshots are pulled from counters the managers
//!    already maintain — taking one costs nothing on any hot path.
//! 2. **Trace layer**: a bounded ring buffer of timestamped spans and
//!    instant events (op begin/end, GC, scheduled sift fire+result,
//!    budget aborts, parallel phase boundaries, per-worker task spans),
//!    exported as Chrome `trace_event` JSON ([`chrome_trace_json`]) so a
//!    governed build+sift+CEC run opens directly in Perfetto. Disabled
//!    (the default), every hook is one relaxed atomic load and a
//!    predicted branch — no allocation, no clock read, no lock.
//! 3. **Profiling hooks**: per-op log2 latency histograms and per-op-tag
//!    cache hit rates ([`profile_snapshot`], [`format_profile`]). Same
//!    enable discipline as tracing.
//!
//! Tracing and profiling are process-global (managers deep in the call
//! graph record without threading a handle through every layer); the
//! metrics registry is per-manager. Both global facilities can also be
//! switched on from the environment (`BBDD_TRACE=1`, `BBDD_PROFILE=1`),
//! which is how CI runs the whole test suite traced.

use crate::govern::OpAbort;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

// ───────────────────────────── enable state ─────────────────────────────

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static TRACE_STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static PROF_STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Lazily resolve an enable flag: explicit `set_*` wins, otherwise the
/// environment variable decides on first query (set and not `0`/empty ⇒
/// on). After initialization the hot-path cost is one relaxed load.
fn lazy_enabled(state: &AtomicU8, env: &str) -> bool {
    match state.load(Ordering::Relaxed) {
        STATE_OFF => false,
        STATE_ON => true,
        _ => {
            let on = std::env::var_os(env)
                .map(|v| !v.is_empty() && v != *"0")
                .unwrap_or(false);
            state.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Is the trace layer recording? Checked (one relaxed atomic load) at
/// every instrumentation site; resolves `BBDD_TRACE` on first call.
#[inline]
pub fn trace_enabled() -> bool {
    lazy_enabled(&TRACE_STATE, "BBDD_TRACE")
}

/// Is the profiler recording? Checked (one relaxed atomic load) at every
/// instrumentation site; resolves `BBDD_PROFILE` on first call.
#[inline]
pub fn profile_enabled() -> bool {
    lazy_enabled(&PROF_STATE, "BBDD_PROFILE")
}

/// Turn the trace layer on or off (overrides `BBDD_TRACE`).
pub fn set_trace_enabled(on: bool) {
    TRACE_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Turn the profiler on or off (overrides `BBDD_PROFILE`).
pub fn set_profile_enabled(on: bool) {
    PROF_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ─────────────────────────────── op names ───────────────────────────────

/// The instrumented operation kinds. One enum shared by the trace layer
/// (span/event names and categories) and the profiler (histogram index),
/// so a Perfetto track and a `--profile` row use the same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Binary `apply` (any of the 16 two-input Boolean operators).
    Apply,
    /// If-then-else.
    Ite,
    /// Existential quantification over a cube.
    Exists,
    /// Universal quantification over a cube.
    Forall,
    /// Fused and-exists (relational product).
    AndExists,
    /// Cofactor / restrict.
    Restrict,
    /// Single-variable composition.
    Compose,
    /// Simultaneous vector composition.
    VectorCompose,
    /// N-ary apply over an operand list.
    NaryApply,
    /// Model counting.
    SatCount,
    /// Mark-and-sweep garbage collection.
    Gc,
    /// One adjacent-level swap (the reorder primitive).
    Swap,
    /// A variable-reorder pass (manual or scheduled sift).
    Reorder,
    /// Netlist construction (`logicnet::build`).
    BuildNetwork,
    /// Combinational equivalence check (`logicnet::cec`).
    Cec,
    /// One output miter inside a CEC run.
    CecOutput,
    /// The split of a `Par*` operation: the go/no-go size probe and, when
    /// it says go, the expansion into leaf tasks.
    ParSplit,
    /// The frozen-base parallel phase of a `Par*` operation.
    ParPhase,
    /// The deterministic commit phase of a `Par*` operation.
    ParCommit,
    /// One worker task inside the fork-join pool.
    ParTask,
    /// A budget abort surfaced by a governed `try_*` operation.
    Abort,
    /// Forking a per-client session overlay off a shared base snapshot.
    SessionFork,
    /// The deterministic commit minting a new base snapshot
    /// (`Session::publish`).
    Publish,
    /// One request handled by the serving front door.
    ServeRequest,
}

/// Number of [`Op`] variants (histogram row count).
const OP_COUNT: usize = 24;

/// Every variant, in histogram-index order.
const ALL_OPS: [Op; OP_COUNT] = [
    Op::Apply,
    Op::Ite,
    Op::Exists,
    Op::Forall,
    Op::AndExists,
    Op::Restrict,
    Op::Compose,
    Op::VectorCompose,
    Op::NaryApply,
    Op::SatCount,
    Op::Gc,
    Op::Swap,
    Op::Reorder,
    Op::BuildNetwork,
    Op::Cec,
    Op::CecOutput,
    Op::ParSplit,
    Op::ParPhase,
    Op::ParCommit,
    Op::ParTask,
    Op::Abort,
    Op::SessionFork,
    Op::Publish,
    Op::ServeRequest,
];

impl Op {
    /// Stable display name (trace event name, `--profile` row label).
    pub fn name(self) -> &'static str {
        match self {
            Op::Apply => "apply",
            Op::Ite => "ite",
            Op::Exists => "exists",
            Op::Forall => "forall",
            Op::AndExists => "and_exists",
            Op::Restrict => "restrict",
            Op::Compose => "compose",
            Op::VectorCompose => "vector_compose",
            Op::NaryApply => "nary_apply",
            Op::SatCount => "sat_count",
            Op::Gc => "gc",
            Op::Swap => "swap",
            Op::Reorder => "reorder",
            Op::BuildNetwork => "build_network",
            Op::Cec => "cec",
            Op::CecOutput => "cec_output",
            Op::ParSplit => "par_split",
            Op::ParPhase => "par_phase",
            Op::ParCommit => "par_commit",
            Op::ParTask => "par_task",
            Op::Abort => "abort",
            Op::SessionFork => "session_fork",
            Op::Publish => "publish",
            Op::ServeRequest => "serve_request",
        }
    }

    /// Trace event category (`cat` field — Perfetto track grouping).
    pub fn category(self) -> &'static str {
        match self {
            Op::Gc | Op::Swap | Op::Reorder => "manager",
            Op::BuildNetwork | Op::Cec | Op::CecOutput => "logicnet",
            Op::ParSplit | Op::ParPhase | Op::ParCommit | Op::ParTask => "par",
            Op::Abort => "govern",
            Op::SessionFork | Op::Publish | Op::ServeRequest => "serve",
            _ => "op",
        }
    }

    fn index(self) -> usize {
        ALL_OPS.iter().position(|&o| o == self).unwrap_or(0)
    }
}

// ─────────────────────────── clock + thread ids ─────────────────────────

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (first observability
/// activity). Monotonic; shared by every thread so spans line up.
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Small dense id of the calling thread (1-based, assigned on first use).
/// Used as the `tid` of trace events; exposed so tests can filter the
/// shared ring down to their own thread's spans.
pub fn current_tid() -> u32 {
    TID.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

// ───────────────────────────── trace layer ──────────────────────────────

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome trace terms).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time event (`ph: "i"`).
    Instant,
}

/// One entry of the trace ring buffer.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Recording thread (see [`current_tid`]).
    pub tid: u32,
    /// Which operation this event belongs to.
    pub op: Op,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Optional single argument, exported into the event's `args` object.
    pub arg: Option<(&'static str, u64)>,
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest entry once the buffer has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Default ring capacity: 64k events (~2.5 MB), enough for a full
/// build+sift+CEC run at op granularity before the oldest entries rotate
/// out.
const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

static RING: OnceLock<Mutex<Ring>> = OnceLock::new();

fn ring() -> &'static Mutex<Ring> {
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: Vec::new(),
            head: 0,
            capacity: DEFAULT_TRACE_CAPACITY,
            dropped: 0,
        })
    })
}

fn push_event(op: Op, kind: EventKind, arg: Option<(&'static str, u64)>) {
    let ev = TraceEvent {
        ts_ns: now_ns(),
        tid: current_tid(),
        op,
        kind,
        arg,
    };
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(ev);
}

/// Discard all buffered trace events (keeps the configured capacity).
pub fn trace_clear() {
    let mut r = ring().lock().unwrap_or_else(PoisonError::into_inner);
    r.buf.clear();
    r.head = 0;
    r.dropped = 0;
}

/// Resize the ring (also clears it). Oldest events rotate out once the
/// new capacity fills.
pub fn trace_set_capacity(capacity: usize) {
    let mut r = ring().lock().unwrap_or_else(PoisonError::into_inner);
    r.buf = Vec::new();
    r.head = 0;
    r.dropped = 0;
    r.capacity = capacity.max(1);
}

/// Snapshot the buffered events, oldest first. Recording continues.
pub fn trace_events() -> Vec<TraceEvent> {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .snapshot()
}

/// How many events were overwritten because the ring wrapped.
pub fn trace_dropped() -> u64 {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .dropped
}

/// Record a point-in-time event (no-op unless tracing is enabled).
#[inline]
pub fn event(op: Op, arg: Option<(&'static str, u64)>) {
    if trace_enabled() {
        push_event(op, EventKind::Instant, arg);
    }
}

/// Record a budget-abort instant event tagged with the abort reason
/// (no-op unless tracing is enabled).
#[inline]
pub fn abort_event(reason: OpAbort) {
    if trace_enabled() {
        let code = match reason {
            OpAbort::NodeBudget => 1,
            OpAbort::Deadline => 2,
            OpAbort::Cancelled => 3,
        };
        push_event(Op::Abort, EventKind::Instant, Some(("reason", code)));
    }
}

/// RAII span: records a begin event on creation and the matching end
/// event on drop (so an early return — e.g. a budget abort unwinding
/// through `?` — still closes the span), and feeds the op's latency
/// histogram when profiling is on. When both facilities are off,
/// construction is two relaxed loads and drop is two predicted branches:
/// no clock read, no allocation.
#[must_use = "a span records its end when dropped; bind it to a local"]
#[derive(Debug)]
pub struct SpanGuard {
    op: Op,
    start: Option<Instant>,
    traced: bool,
    arg: Option<(&'static str, u64)>,
}

impl SpanGuard {
    /// Attach one `(label, value)` argument, exported on the end event.
    pub fn set_arg(&mut self, label: &'static str, value: u64) {
        if self.traced {
            self.arg = Some((label, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.traced {
            push_event(self.op, EventKind::End, self.arg);
        }
        if let Some(t0) = self.start {
            if profile_enabled() {
                record_op_ns(self.op, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Open a traced + profiled span for `op`. See [`SpanGuard`].
#[inline]
pub fn span(op: Op) -> SpanGuard {
    let traced = trace_enabled();
    let profiled = profile_enabled();
    if !traced && !profiled {
        return SpanGuard {
            op,
            start: None,
            traced: false,
            arg: None,
        };
    }
    if traced {
        push_event(op, EventKind::Begin, None);
    }
    SpanGuard {
        op,
        start: Some(Instant::now()),
        traced,
        arg: None,
    }
}

/// Start a profile-only timer: `Some(now)` when profiling is enabled,
/// `None` (free) otherwise. Pair with [`prof_record`]. Used on sites too
/// hot or too numerous for trace events (e.g. every adjacent-level swap).
#[inline]
pub fn prof_timer() -> Option<Instant> {
    if profile_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Close a [`prof_timer`] into `op`'s latency histogram (no-op on `None`).
#[inline]
pub fn prof_record(op: Op, timer: Option<Instant>) {
    if let Some(t0) = timer {
        record_op_ns(op, t0.elapsed().as_nanos() as u64);
    }
}

/// Serialize the buffered events as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`. Timestamps are microseconds from the trace epoch.
pub fn chrome_trace_json() -> String {
    let events = trace_events();
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match ev.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        let us = ev.ts_ns as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
            ev.op.name(),
            ev.op.category(),
            ph,
            us,
            ev.tid
        ));
        if ev.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if let Some((label, value)) = ev.arg {
            out.push_str(&format!(",\"args\":{{\"{label}\":{value}}}"));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

// ─────────────────────────────── profiler ───────────────────────────────

/// Log2 latency buckets: bucket `i` holds durations in `[2^i, 2^(i+1))`
/// nanoseconds; 40 buckets cover up to ~18 minutes.
const HIST_BUCKETS: usize = 40;

/// Cache-tag classes for per-tag hit-rate accounting (the 16 apply tags
/// collapse into one class; structured-op tags keep their own).
const TAG_SLOTS: usize = 7;

fn tag_slot(tag: u32) -> usize {
    use crate::optag;
    match tag {
        t if t < optag::ITE => 0,
        optag::ITE => 1,
        optag::EXISTS => 2,
        optag::FORALL => 3,
        optag::AND_EXISTS => 4,
        optag::COMPOSE => 5,
        _ => 6,
    }
}

fn tag_slot_name(slot: usize) -> &'static str {
    match slot {
        0 => "apply",
        1 => "ite",
        2 => "exists",
        3 => "forall",
        4 => "and_exists",
        5 => "compose",
        _ => "other",
    }
}

struct ProfStore {
    /// `OP_COUNT × HIST_BUCKETS` log2 latency histogram.
    hist: Vec<AtomicU64>,
    /// Per-op call count and total nanoseconds.
    count: Vec<AtomicU64>,
    total_ns: Vec<AtomicU64>,
    /// Per-tag-class cache lookups and hits.
    cache_lookups: Vec<AtomicU64>,
    cache_hits: Vec<AtomicU64>,
}

static PROF: OnceLock<ProfStore> = OnceLock::new();

fn prof() -> &'static ProfStore {
    PROF.get_or_init(|| ProfStore {
        hist: (0..OP_COUNT * HIST_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect(),
        count: (0..OP_COUNT).map(|_| AtomicU64::new(0)).collect(),
        total_ns: (0..OP_COUNT).map(|_| AtomicU64::new(0)).collect(),
        cache_lookups: (0..TAG_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        cache_hits: (0..TAG_SLOTS).map(|_| AtomicU64::new(0)).collect(),
    })
}

fn record_op_ns(op: Op, ns: u64) {
    let p = prof();
    let i = op.index();
    let bucket = (63 - (ns | 1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
    p.hist[i * HIST_BUCKETS + bucket].fetch_add(1, Ordering::Relaxed);
    p.count[i].fetch_add(1, Ordering::Relaxed);
    p.total_ns[i].fetch_add(ns, Ordering::Relaxed);
}

/// Computed-cache access hook: when profiling is enabled, counts the
/// lookup (and hit) against the op-tag's class. Called by every cache
/// implementation; one relaxed load and a predicted branch when off.
#[inline]
pub fn cache_access(tag: u32, hit: bool) {
    if !profile_enabled() {
        return;
    }
    let p = prof();
    let slot = tag_slot(tag);
    p.cache_lookups[slot].fetch_add(1, Ordering::Relaxed);
    if hit {
        p.cache_hits[slot].fetch_add(1, Ordering::Relaxed);
    }
}

/// One op's row of a [`ProfileSnapshot`].
#[derive(Debug, Clone)]
pub struct OpProfile {
    /// Which operation.
    pub op: Op,
    /// Number of recorded calls.
    pub count: u64,
    /// Sum of recorded latencies, nanoseconds.
    pub total_ns: u64,
    /// Log2 latency histogram — `buckets[i]` counts calls in
    /// `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl OpProfile {
    /// The latency below which `fraction` of recorded calls fall,
    /// resolved to the upper edge of the containing log2 bucket
    /// (nanoseconds). `None` when nothing was recorded.
    pub fn quantile_ns(&self, fraction: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let threshold = (self.count as f64 * fraction).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= threshold {
                return Some(1u64 << (i + 1).min(63));
            }
        }
        Some(1u64 << HIST_BUCKETS)
    }
}

/// Per-tag-class cache hit-rate row of a [`ProfileSnapshot`].
#[derive(Debug, Clone)]
pub struct CacheTagProfile {
    /// Tag-class label (`apply`, `ite`, ...).
    pub name: &'static str,
    /// Lookups recorded while profiling was on.
    pub lookups: u64,
    /// Hits among those lookups.
    pub hits: u64,
}

/// A point-in-time copy of the profiler's histograms and cache counters.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Per-op latency rows (only ops with at least one recorded call).
    pub ops: Vec<OpProfile>,
    /// Per-tag-class cache hit rates (only classes with lookups).
    pub cache: Vec<CacheTagProfile>,
}

/// Copy the profiler state out (recording continues).
pub fn profile_snapshot() -> ProfileSnapshot {
    let p = prof();
    let mut ops = Vec::new();
    for (i, &op) in ALL_OPS.iter().enumerate() {
        let count = p.count[i].load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        ops.push(OpProfile {
            op,
            count,
            total_ns: p.total_ns[i].load(Ordering::Relaxed),
            buckets: (0..HIST_BUCKETS)
                .map(|b| p.hist[i * HIST_BUCKETS + b].load(Ordering::Relaxed))
                .collect(),
        });
    }
    let mut cache = Vec::new();
    for slot in 0..TAG_SLOTS {
        let lookups = p.cache_lookups[slot].load(Ordering::Relaxed);
        if lookups == 0 {
            continue;
        }
        cache.push(CacheTagProfile {
            name: tag_slot_name(slot),
            lookups,
            hits: p.cache_hits[slot].load(Ordering::Relaxed),
        });
    }
    ProfileSnapshot { ops, cache }
}

/// Zero every histogram and cache counter.
pub fn profile_reset() {
    let p = prof();
    for a in p
        .hist
        .iter()
        .chain(&p.count)
        .chain(&p.total_ns)
        .chain(&p.cache_lookups)
        .chain(&p.cache_hits)
    {
        a.store(0, Ordering::Relaxed);
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render a profile snapshot as the human `--profile` report: one row per
/// op (calls, total, mean, p50/p99 from the log2 histogram) plus per-tag
/// cache hit rates. This is the formatter `sift_anatomy` and the CLI
/// share.
pub fn format_profile(s: &ProfileSnapshot) -> String {
    let mut out = String::new();
    out.push_str("profile: per-op latency (log2 histogram quantiles)\n");
    if s.ops.is_empty() {
        out.push_str("  (no samples — was profiling enabled?)\n");
    }
    for row in &s.ops {
        let mean = row.total_ns / row.count.max(1);
        let p50 = row.quantile_ns(0.50).unwrap_or(0);
        let p99 = row.quantile_ns(0.99).unwrap_or(0);
        out.push_str(&format!(
            "  {:<14} calls {:>9}  total {:>9}  mean {:>9}  p50 <{:>9}  p99 <{:>9}\n",
            row.op.name(),
            row.count,
            fmt_ns(row.total_ns),
            fmt_ns(mean),
            fmt_ns(p50),
            fmt_ns(p99),
        ));
    }
    if !s.cache.is_empty() {
        out.push_str("profile: cache hit rate by op tag\n");
        for c in &s.cache {
            out.push_str(&format!(
                "  {:<14} {:>9} lookups  {:>6.2}% hits\n",
                c.name,
                c.lookups,
                100.0 * c.hits as f64 / c.lookups.max(1) as f64
            ));
        }
    }
    out
}

// ─────────────────────────── metrics registry ───────────────────────────

/// Whether a metric accumulates (counter) or reads a current level
/// (gauge). Deltas subtract counters and pass gauges through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing over a manager's lifetime.
    Counter,
    /// A current level (live nodes, shard occupancy); not monotonic.
    Gauge,
}

/// One named value of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable dotted path, e.g. `cache.hits`.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The value at snapshot time.
    pub value: u64,
}

/// A uniform, backend-agnostic snapshot of a manager's counters: the
/// registry every backend fills through
/// [`RawManager::observe`](crate::api::RawManager::observe).
///
/// Metric names are stable dotted paths grouped into sections —
/// `nodes.*`, `ops.*`, `cache.*`, `table.*`, `gc.*`, `roots.*`, `dvo.*`,
/// `govern.*`, `mem.*`, and (parallel backends only) `par.*` — so one formatter,
/// one JSON encoder and one test suite cover all backends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    backend: &'static str,
    entries: Vec<Metric>,
}

impl MetricsSnapshot {
    /// An empty snapshot labeled with the producing backend's name.
    pub fn new(backend: &'static str) -> Self {
        MetricsSnapshot {
            backend,
            entries: Vec::new(),
        }
    }

    /// Which backend produced this snapshot (`bbdd`, `par-robdd`, ...).
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Append a counter.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.entries.push(Metric {
            name,
            kind: MetricKind::Counter,
            value,
        });
    }

    /// Append a gauge.
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        self.entries.push(Metric {
            name,
            kind: MetricKind::Gauge,
            value,
        });
    }

    /// All metrics, in registration order.
    pub fn entries(&self) -> &[Metric] {
        &self.entries
    }

    /// Look a metric up by its dotted name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The change since `earlier`: counters subtract (saturating, and a
    /// metric absent earlier counts from zero); gauges keep their current
    /// value. `self` should be the later snapshot of the same manager.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new(self.backend);
        for m in &self.entries {
            let value = match m.kind {
                MetricKind::Counter => m.value.saturating_sub(earlier.get(m.name).unwrap_or(0)),
                MetricKind::Gauge => m.value,
            };
            out.entries.push(Metric { value, ..*m });
        }
        out
    }

    /// Render as the human `--stats`/`--metrics` report: one line per
    /// section, `name=value` pairs, hit rates appended where derivable.
    pub fn format(&self) -> String {
        let mut out = String::new();
        let mut section_start = 0;
        while section_start < self.entries.len() {
            let section = section_of(self.entries[section_start].name);
            let mut line = format!("[{}] {}:", self.backend, section);
            let mut end = section_start;
            while end < self.entries.len() && section_of(self.entries[end].name) == section {
                let m = &self.entries[end];
                let short = m.name.split_once('.').map_or(m.name, |(_, s)| s);
                line.push_str(&format!(" {short}={}", m.value));
                end += 1;
            }
            if let (Some(hits), Some(lookups)) = (
                self.get(&format!("{section}.hits")),
                self.get(&format!("{section}.lookups")),
            ) {
                if lookups > 0 {
                    line.push_str(&format!(
                        " (hit rate {:.2}%)",
                        100.0 * hits as f64 / lookups as f64
                    ));
                }
            }
            out.push_str(&line);
            out.push('\n');
            section_start = end;
        }
        out
    }

    /// Serialize as nested JSON: sections become objects, e.g.
    /// `{"backend":"bbdd","cache":{"hits":12,...},...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 24 + 32);
        out.push_str(&format!("{{\"backend\":\"{}\"", self.backend));
        let mut i = 0;
        while i < self.entries.len() {
            let section = section_of(self.entries[i].name);
            out.push_str(&format!(",\"{section}\":{{"));
            let mut first = true;
            while i < self.entries.len() && section_of(self.entries[i].name) == section {
                let m = &self.entries[i];
                let short = m.name.split_once('.').map_or(m.name, |(_, s)| s);
                if !first {
                    out.push(',');
                }
                out.push_str(&format!("\"{short}\":{}", m.value));
                first = false;
                i += 1;
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn section_of(name: &str) -> &str {
    name.split_once('.').map_or(name, |(s, _)| s)
}

// ───────────────────────────── memory gauges ─────────────────────────────

/// Heap bytes a manager holds, by structure — the `mem.*` gauges. Each is
/// allocated capacity (what the process pays for), not occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemBytes {
    /// Node storage: the node arena and its free list (plus, on a parallel
    /// manager, the overlay arena and its import memo).
    pub arena: usize,
    /// Unique tables: the slot (or bucket and entry) arrays.
    pub table: usize,
    /// Computed tables.
    pub cache: usize,
}

impl MemBytes {
    /// Append the `mem.*` gauges to `m`.
    pub fn fill(&self, m: &mut MetricsSnapshot) {
        m.gauge("mem.arena_bytes", self.arena as u64);
        m.gauge("mem.table_bytes", self.table as u64);
        m.gauge("mem.cache_bytes", self.cache as u64);
    }
}

impl std::ops::Add for MemBytes {
    type Output = MemBytes;

    fn add(self, o: MemBytes) -> MemBytes {
        MemBytes {
            arena: self.arena + o.arena,
            table: self.table + o.table,
            cache: self.cache + o.cache,
        }
    }
}

// ───────────────────────── govern counter helper ────────────────────────

/// Per-manager accounting of governed (`try_*`) operations: checkpoint
/// spend and abort outcomes, bucketed by reason. The generic API layer
/// feeds this through
/// [`RawManager::note_governed`](crate::api::RawManager::note_governed);
/// backends embed one and surface it in their [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernCounters {
    /// Governed operations observed (completed or aborted).
    pub ops: u64,
    /// Budget checkpoints consumed across those operations (≈ nodes
    /// materialized under governance).
    pub checkpoints: u64,
    /// Aborts due to the node-creation ceiling.
    pub aborts_node_budget: u64,
    /// Aborts due to the wall-clock deadline.
    pub aborts_deadline: u64,
    /// Aborts due to cancellation (incl. fault injection).
    pub aborts_cancelled: u64,
}

impl GovernCounters {
    /// Record one governed operation's outcome.
    pub fn note(&mut self, checkpoints: u64, abort: Option<OpAbort>) {
        self.ops += 1;
        self.checkpoints += checkpoints;
        match abort {
            Some(OpAbort::NodeBudget) => self.aborts_node_budget += 1,
            Some(OpAbort::Deadline) => self.aborts_deadline += 1,
            Some(OpAbort::Cancelled) => self.aborts_cancelled += 1,
            None => {}
        }
    }

    /// Total aborts across all reasons.
    pub fn aborts(&self) -> u64 {
        self.aborts_node_budget + self.aborts_deadline + self.aborts_cancelled
    }

    /// Append this counter set as the snapshot's `govern.*` section.
    pub fn fill(&self, m: &mut MetricsSnapshot) {
        m.counter("govern.ops", self.ops);
        m.counter("govern.checkpoints", self.checkpoints);
        m.counter("govern.aborts", self.aborts());
        m.counter("govern.aborts_node_budget", self.aborts_node_budget);
        m.counter("govern.aborts_deadline", self.aborts_deadline);
        m.counter("govern.aborts_cancelled", self.aborts_cancelled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let mut a = MetricsSnapshot::new("t");
        a.counter("cache.lookups", 10);
        a.gauge("nodes.live", 5);
        let mut b = MetricsSnapshot::new("t");
        b.counter("cache.lookups", 25);
        b.gauge("nodes.live", 3);
        let d = b.delta(&a);
        assert_eq!(d.get("cache.lookups"), Some(15));
        assert_eq!(d.get("nodes.live"), Some(3));
    }

    #[test]
    fn json_nests_by_section() {
        let mut m = MetricsSnapshot::new("bbdd");
        m.counter("cache.hits", 1);
        m.counter("cache.lookups", 2);
        m.gauge("nodes.live", 7);
        let j = m.to_json();
        assert_eq!(
            j,
            "{\"backend\":\"bbdd\",\"cache\":{\"hits\":1,\"lookups\":2},\"nodes\":{\"live\":7}}"
        );
    }

    #[test]
    fn spans_balance_in_ring() {
        set_trace_enabled(true);
        trace_clear();
        {
            let mut s = span(Op::Apply);
            s.set_arg("nodes", 3);
        }
        event(Op::Gc, Some(("freed", 9)));
        set_trace_enabled(false);
        let tid = current_tid();
        let evs: Vec<_> = trace_events()
            .into_iter()
            .filter(|e| e.tid == tid)
            .collect();
        let begins = evs.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, ends);
        assert!(evs.iter().any(|e| e.kind == EventKind::Instant));
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"args\":{\"nodes\":3}"));
    }

    #[test]
    fn histogram_quantiles_resolve_buckets() {
        set_profile_enabled(true);
        profile_reset();
        record_op_ns(Op::Swap, 100);
        record_op_ns(Op::Swap, 100);
        record_op_ns(Op::Swap, 1_000_000);
        let s = profile_snapshot();
        let row = s.ops.iter().find(|r| r.op == Op::Swap).unwrap();
        assert_eq!(row.count, 3);
        assert!(row.quantile_ns(0.5).unwrap() <= 256);
        assert!(row.quantile_ns(0.99).unwrap() >= 1_000_000);
        set_profile_enabled(false);
        profile_reset();
    }

    #[test]
    fn govern_counters_bucket_reasons() {
        let mut g = GovernCounters::default();
        g.note(10, None);
        g.note(5, Some(OpAbort::Deadline));
        g.note(1, Some(OpAbort::NodeBudget));
        assert_eq!(g.ops, 3);
        assert_eq!(g.checkpoints, 16);
        assert_eq!(g.aborts(), 2);
        let mut m = MetricsSnapshot::new("t");
        g.fill(&mut m);
        assert_eq!(m.get("govern.aborts_deadline"), Some(1));
    }
}
