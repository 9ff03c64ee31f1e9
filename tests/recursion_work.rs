//! Exact work of the recursive operations on a fixed mixed family: the
//! recursion and node counters of `apply`, `ite`, `exists`, `forall` and
//! `and_exists` on all four managers.
//!
//! perfbench's counter vectors pin apply-heavy work, but none of its
//! workloads quantifies and none records the parallel workers' work. This
//! suite pins both: any change to an expansion top, a cofactor order, a
//! cache key, a terminal case or a counter increment of those recursions
//! moves at least one of these numbers. The quantified sets include
//! variables whose predecessor in the order is not quantified, so the
//! BBDD's chain case (a level's SV quantified, its PV not) runs.
//!
//! The `table.*` counters are left out: they depend on the unique-table
//! variant (`chained_tables`), the work asserted here does not.
//! A deliberate change of work updates the expected numbers and says why.

use ddcore::api::RawManager;
use ddcore::par::{NodeShape, Par, ParConfig};
use ddcore::{BoolOp, Edge};

const N: usize = 12;

/// The counters asserted on every manager (`ops.ite` only exists where
/// `ite` counts its own recursions).
const KERNEL: [&str; 6] = [
    "ops.apply",
    "ops.ite",
    "ops.quant",
    "nodes.created",
    "cache.lookups",
    "cache.hits",
];

/// The parallel workers' and the commit's counters.
const PIPELINE: [&str; 3] = ["par.recursions", "par.nodes_imported", "par.tasks_executed"];

/// A random operator/variable fold over `N` variables (the family of
/// `par_pipeline.rs`).
fn build_mixed<R: RawManager<Edge = Edge>>(mgr: &mut R, seed: u64, vars: &[Edge]) -> Edge {
    let ops = [
        BoolOp::XOR,
        BoolOp::AND,
        BoolOp::OR,
        BoolOp::XNOR,
        BoolOp::NAND,
    ];
    let mut state = seed | 1;
    let mut f = vars[0];
    for _ in 0..3 * N {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let op = ops[(state >> 33) as usize % ops.len()];
        let v = vars[(state >> 18) as usize % N];
        f = mgr.apply_edge(op, f, v);
    }
    f
}

/// Run the family and return the named counters the manager reports.
fn work<R: RawManager<Edge = Edge>>(mgr: &mut R, names: &[&str]) -> Vec<(String, u64)> {
    let vars: Vec<Edge> = (0..N).map(|v| mgr.var_edge(v)).collect();
    for seed in 0..4u64 {
        let f = build_mixed(mgr, seed, &vars);
        let g = build_mixed(mgr, seed + 77, &vars);
        let h = build_mixed(mgr, seed + 151, &vars);
        let t = mgr.ite_edge(f, g, h);
        // Each set quantifies a variable whose predecessor stays free.
        mgr.exists_edge(f, &[1, 3, 4, 9]);
        mgr.forall_edge(g, &[0, 2, 7, 8]);
        mgr.exists_edge(t, &[5, 6, 11]);
        mgr.and_exists_edge(f, g, &[2, 5, 6, 10]);
        mgr.and_exists_edge(t, h, &[0, 1, 7]);
    }
    let m = mgr.observe();
    names
        .iter()
        .filter_map(|&name| m.get(name).map(|v| (name.to_string(), v)))
        .collect()
}

fn sequential<M: RawManager<Edge = Edge>>() -> Vec<(String, u64)> {
    work(&mut M::with_vars(N), &KERNEL)
}

/// The pipeline on every operand, one worker, three split levels.
fn parallel<M: NodeShape>() -> Vec<(String, u64)> {
    let cfg = ParConfig {
        threads: 1,
        cutoff: 0,
        split_depth: Some(3),
        cache_ways: 1 << 10,
        shards: 8,
    };
    let names: Vec<&str> = KERNEL.iter().chain(&PIPELINE).copied().collect();
    work(&mut Par::<M>::with_config(N, cfg), &names)
}

fn expect(actual: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let expected: Vec<(String, u64)> = expected.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    assert_eq!(actual, expected);
}

#[test]
fn bbdd_work() {
    expect(
        sequential::<bbdd::Bbdd>(),
        &[
            ("ops.apply", 21789),
            ("ops.ite", 3660),
            ("ops.quant", 1301),
            ("nodes.created", 5719),
            ("cache.lookups", 23157),
            ("cache.hits", 10807),
        ],
    );
}

#[test]
fn robdd_work() {
    expect(
        sequential::<robdd::Robdd>(),
        &[
            ("ops.apply", 5300),
            ("ops.quant", 498),
            ("nodes.created", 1760),
            ("cache.lookups", 3747),
            ("cache.hits", 1040),
        ],
    );
}

#[test]
fn par_bbdd_work() {
    expect(
        parallel::<bbdd::Bbdd>(),
        &[
            ("ops.apply", 244),
            ("ops.ite", 0),
            ("ops.quant", 0),
            ("nodes.created", 5539),
            ("cache.lookups", 38307),
            ("cache.hits", 15907),
            ("par.recursions", 48391),
            ("par.nodes_imported", 4089),
            ("par.tasks_executed", 1907),
        ],
    );
}

#[test]
fn par_robdd_work() {
    expect(
        parallel::<robdd::Robdd>(),
        &[
            ("ops.apply", 118),
            ("ops.quant", 0),
            ("nodes.created", 1760),
            ("cache.lookups", 3252),
            ("cache.hits", 871),
            ("par.recursions", 5304),
            ("par.nodes_imported", 772),
            ("par.tasks_executed", 784),
        ],
    );
}
