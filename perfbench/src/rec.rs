//! Measurement plumbing shared by the workloads: the per-pass record,
//! timers, counter vectors, quantiles and the trace self-time rollup.

use ddcore::obs::{EventKind, MetricKind, MetricsSnapshot, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Per-layer values of one pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A deterministic work-counter vector, keyed by dotted metric name.
pub type Counters = BTreeMap<&'static str, u64>;

/// What one timed pass of a workload reports.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the timed part of the pass (checks excluded).
    pub run_s: f64,
    /// Seconds of the pass's first half (see the workload's docs).
    pub first_s: f64,
    /// Seconds of the pass's second half.
    pub second_s: f64,
    /// Deterministic node figure of the first half.
    pub first_nodes: u64,
    /// Deterministic node figure of the second half.
    pub second_nodes: u64,
    /// Latency of every unit of work in the pass, milliseconds.
    pub units_ms: Vec<f64>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that were wrong, errors or aborted.
    pub failed: u64,
    /// The deterministic work counters of the pass's managers and
    /// sessions: a fixed seed must reproduce them exactly.
    pub counters: Counters,
    /// Counters that depend on thread timing (see [`Pass::count`]).
    pub racy: Counters,
    /// Per-layer timers and derived values.
    pub layers: Layers,
}

impl Pass {
    /// Add `seconds` to the layer timer `name`.
    pub fn add(&mut self, name: &'static str, seconds: f64) {
        *self.layers.entry(name).or_insert(0.0) += seconds;
    }

    /// Run `f`, adding its wall time to the layer timer `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed().as_secs_f64());
        out
    }

    /// Fold a manager's metrics snapshot into the pass's counters. Names
    /// in `racy`, which thread timing moves, go to [`Pass::racy`]; gauges
    /// are levels, not work, and are skipped.
    pub fn count(&mut self, snap: &MetricsSnapshot, racy: &[&str]) {
        for m in snap.entries() {
            if m.kind != MetricKind::Counter {
                continue;
            }
            let into = if racy.contains(&m.name) {
                &mut self.racy
            } else {
                &mut self.counters
            };
            *into.entry(m.name).or_insert(0) += m.value;
        }
    }

    /// A counter's value, deterministic and timing-dependent parts summed.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).unwrap_or(&0) + self.racy.get(name).unwrap_or(&0)
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Inclusive and self (exclusive) seconds of one span kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTime {
    /// Sum of span durations.
    pub incl_s: f64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_s: f64,
}

/// Roll the trace ring's Begin/End events up into per-op inclusive and
/// self time, matching spans per thread with a stack. Returns the totals
/// by op name and the number of End events that matched no open span.
pub fn rollup(events: &[TraceEvent]) -> (BTreeMap<&'static str, SpanTime>, u64) {
    let mut stacks: HashMap<u32, Vec<(&'static str, u64, u64)>> = HashMap::new();
    let mut out: BTreeMap<&'static str, SpanTime> = BTreeMap::new();
    let mut unmatched = 0;
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::Begin => stack.push((ev.op.name(), ev.ts_ns, 0)),
            EventKind::End => match stack.pop() {
                Some((name, start, child)) if name == ev.op.name() => {
                    let dur = ev.ts_ns.saturating_sub(start);
                    let t = out.entry(name).or_default();
                    t.incl_s += dur as f64 * 1e-9;
                    t.self_s += dur.saturating_sub(child) as f64 * 1e-9;
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                _ => unmatched += 1,
            },
            EventKind::Instant => {}
        }
    }
    unmatched += stacks.values().map(|s| s.len() as u64).sum::<u64>();
    (out, unmatched)
}

/// Peak resident set size of this process, megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
