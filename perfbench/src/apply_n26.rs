//! `apply_n26`: the XOR-accumulation op stream of the baseline's
//! `big_apply` (26 variables, ~790 k live nodes), run on the sequential
//! `Bbdd` and then on `ParBbdd` with [`THREADS`] workers — the only
//! workload through `ddcore::par`.
//!
//! One worker runs the whole pipeline (split, phase, overlay, commit,
//! concurrent table and cache) inline on the calling thread. With two
//! workers on a two-core shared host every phase spawns a thread and
//! waits for the slower one, so the parallel half measured the host's
//! scheduler: its median moved by a quarter between runs of the same
//! code, while the inline pipeline is as steady as the sequential half
//! and costs the same (about 0.75 s against 0.5 s sequential).
//!
//! Halves: `first_*` is the sequential manager, `second_*` the parallel
//! one; `*_nodes` is the manager's live nodes at the end. One unit is one
//! top-level `apply` call.

use crate::rec::{since, Pass};
use crate::Workload;
use bbdd::{Bbdd, BoolOp, Edge, ParBbdd, ParConfig};
use ddcore::api::RawManager;
use logicnet::sim::SplitMix64;
use std::time::Instant;

/// Manager variables.
const VARS: usize = 26;
/// XOR-accumulation rounds after the first stream.
const ROUNDS: usize = 12;
/// Applies per random-function stream.
const STREAM_OPS: usize = 12 * VARS;
/// Worker threads of the parallel manager (see the module comment).
pub const THREADS: usize = 1;

/// `ParBbdd` counters that depend on thread timing, not on the input:
/// work stealing and shard contention, and everything its lossy
/// concurrent cache counts, since which worker reaches a line first
/// decides hits and misses.
const PAR_RACY: [&str; 8] = [
    "par.tasks_stolen",
    "par.shard_contention",
    "cache.tear_misses",
    "cache.lookups",
    "cache.hits",
    "cache.misses",
    "cache.inserts",
    "par.recursions",
];

pub struct ApplyN26 {
    /// `ROUNDS + 1` streams of (operator, variable) steps.
    streams: Vec<Vec<(BoolOp, usize)>>,
    /// Variables used as their negation (from the seed).
    negated: u64,
}

/// The baseline's op stream: an LCG over a five-operator table, one
/// stream per seed.
fn stream(seed: u64) -> Vec<(BoolOp, usize)> {
    let table = [
        BoolOp::XOR,
        BoolOp::AND,
        BoolOp::OR,
        BoolOp::XNOR,
        BoolOp::NAND,
    ];
    let mut state = seed | 1;
    (0..STREAM_OPS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (
                table[(state >> 33) as usize % table.len()],
                (state >> 18) as usize % VARS,
            )
        })
        .collect()
}

impl ApplyN26 {
    /// The streams are the baseline's; the seed picks which variables
    /// enter as negative literals. Negating a variable renames the
    /// function without changing any diagram's size, so every seed does
    /// the same work on different inputs.
    pub fn setup(seed: u64) -> Self {
        let streams = std::iter::once(0xF00D)
            .chain((1..=ROUNDS as u64).map(|k| 0xBEEF * k))
            .map(stream)
            .collect();
        ApplyN26 {
            streams,
            negated: SplitMix64::new(seed).next_u64(),
        }
    }
}

/// Run every stream on `mgr` and XOR-accumulate the results; each
/// top-level apply is one unit, its time also added to `layer`.
fn accumulate<M: RawManager<Edge = Edge>>(
    mgr: &mut M,
    w: &ApplyN26,
    p: &mut Pass,
    layer: &'static str,
) -> Edge {
    let vars: Vec<Edge> = (0..VARS)
        .map(|v| mgr.var_edge(v).complement_if((w.negated >> v) & 1 == 1))
        .collect();
    let mut apply = |mgr: &mut M, op, f, g| {
        let t = Instant::now();
        let r = mgr.apply_edge(op, f, g);
        let s = since(t);
        p.units_ms.push(s * 1e3);
        p.add(layer, s);
        r
    };
    let mut acc = vars[0];
    for (k, stream) in w.streams.iter().enumerate() {
        let mut f = vars[0];
        for &(op, v) in stream {
            f = apply(mgr, op, f, vars[v]);
        }
        acc = if k == 0 {
            f
        } else {
            apply(mgr, BoolOp::XOR, acc, f)
        };
    }
    acc
}

impl Workload for ApplyN26 {
    fn reference(&mut self) {}

    fn pass(&mut self) -> Pass {
        let mut p = Pass::default();
        let t_pass = Instant::now();

        let t_half = Instant::now();
        let mut seq = Bbdd::new(VARS);
        let seq_acc = accumulate(&mut seq, self, &mut p, "apply.s");
        p.first_s = since(t_half);

        let t_half = Instant::now();
        let cfg = ParConfig {
            threads: THREADS,
            ..ParConfig::default()
        };
        let mut par = ParBbdd::with_config(VARS, cfg);
        let par_acc = accumulate(&mut par, self, &mut p, "par.apply_s");
        p.second_s = since(t_half);
        p.run_s = since(t_pass);

        p.first_nodes = seq.live_nodes() as u64;
        p.second_nodes = par.live_nodes() as u64;
        p.check(p.first_nodes == p.second_nodes);
        p.check(seq.sat_count_edge(seq_acc) == par.sat_count_edge(par_acc));
        p.count(&seq.observe(), &[]);
        p.count(&par.observe(), &PAR_RACY);
        p
    }
}
