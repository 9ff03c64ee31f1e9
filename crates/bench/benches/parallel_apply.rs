//! Parallel apply: the large XOR-accumulation workload (the `baseline`
//! binary's big-apply shape) on `ParBbdd` at 1/2/4 threads against the
//! sequential `Bbdd`.
//!
//! On a multi-core host the 2- and 4-thread rows show the fork-join
//! speedup; on a single-core host they document the pipeline's overhead
//! honestly (the machine-readable numbers land in `BENCH_ops.json` via
//! `cargo run --release -p bbdd-bench --bin baseline`).

use bbdd::{Bbdd, BoolOp, Edge, ParBbdd, ParConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddcore::api::RawManager;

const VARS: usize = 22;
const ACCS: usize = 6;

fn random_function(
    apply: &mut impl FnMut(BoolOp, Edge, Edge) -> Edge,
    vars: &[Edge],
    seed: u64,
) -> Edge {
    let table = [
        BoolOp::XOR,
        BoolOp::AND,
        BoolOp::OR,
        BoolOp::XNOR,
        BoolOp::NAND,
    ];
    let mut state = seed | 1;
    let mut f = vars[0];
    for _ in 0..10 * VARS {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let op = table[(state >> 33) as usize % table.len()];
        let v = vars[(state >> 18) as usize % VARS];
        f = apply(op, f, v);
    }
    f
}

/// Accumulate `ACCS` large XORs — the timed portion. Setup (building the
/// manager and the operand functions) is excluded via `iter_batched`.
fn bench_parallel_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_apply");
    group.sample_size(3);

    group.bench_function("xor_acc/seq", |b| {
        b.iter_batched(
            || {
                let mut mgr = Bbdd::new(VARS);
                let vars: Vec<Edge> = (0..VARS).map(|v| mgr.var(v)).collect();
                let fs: Vec<Edge> = (0..=ACCS as u64)
                    .map(|k| random_function(&mut |o, x, y| mgr.apply(o, x, y), &vars, 0xF00D + k))
                    .collect();
                (mgr, fs)
            },
            |(mut mgr, fs)| {
                let mut acc = fs[0];
                for &g in &fs[1..] {
                    acc = mgr.xor(acc, g);
                }
                acc
            },
            BatchSize::LargeInput,
        );
    });

    for threads in [1usize, 2, 4] {
        group.bench_function(format!("xor_acc/par_t{threads}"), |b| {
            b.iter_batched(
                || {
                    let mut mgr = ParBbdd::with_config(
                        VARS,
                        ParConfig {
                            threads,
                            ..ParConfig::default()
                        },
                    );
                    let vars: Vec<Edge> = (0..VARS).map(|v| mgr.var_edge(v)).collect();
                    let fs: Vec<Edge> = (0..=ACCS as u64)
                        .map(|k| {
                            random_function(
                                &mut |o, x, y| mgr.apply_edge(o, x, y),
                                &vars,
                                0xF00D + k,
                            )
                        })
                        .collect();
                    (mgr, fs)
                },
                |(mut mgr, fs)| {
                    let mut acc = fs[0];
                    for &g in &fs[1..] {
                        acc = mgr.apply_edge(BoolOp::XOR, acc, g);
                    }
                    acc
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_apply);
criterion_main!(benches);
