//! The generic parallel pipeline (`ddcore::par::Par`), one suite for both
//! node shapes: every case runs on `ParBbdd` and on `ParRobdd`, written
//! against `RawManager` only.
//!
//! Covers determinism across thread counts and equality with the
//! sequential manager for every parallel operation, the cutoff fallback,
//! GC through the wrapper and behind it (`inner_mut()`), the `par_stats`
//! tallies, and the budgeted path through the parallel phase.

use ddcore::api::RawManager;
use ddcore::govern::OpBudget;
use ddcore::par::{NodeShape, Par, ParConfig};
use ddcore::BoolOp;

/// The per-backend diagnostics the suite needs beyond the trait surface.
trait Backend: NodeShape {
    fn validate_all(&self) -> Result<(), String>;
}

impl Backend for bbdd::Bbdd {
    fn validate_all(&self) -> Result<(), String> {
        self.validate()
    }
}

impl Backend for robdd::Robdd {
    fn validate_all(&self) -> Result<(), String> {
        self.validate()
    }
}

/// Instantiate each generic case once per backend.
macro_rules! for_both_backends {
    ($($case:ident),* $(,)?) => {
        mod bbdd_backend {
            $( #[test] fn $case() { super::$case::<bbdd::Bbdd>(); } )*
        }
        mod robdd_backend {
            $( #[test] fn $case() { super::$case::<robdd::Robdd>(); } )*
        }
    };
}

for_both_backends!(
    parallel_ops_match_sequential_and_are_thread_count_invariant,
    sequential_fallback_below_cutoff,
    collect_keeps_roots_and_recycles,
    inner_mut_collections_invalidate_the_concurrent_cache,
    par_stats_surface_the_machinery,
    budgeted_apply_through_the_parallel_phase_matches_unlimited,
);

fn forced() -> ParConfig {
    ParConfig {
        threads: 4,
        cutoff: 0, // force the parallel pipeline on every operand size
        split_depth: Some(3),
        cache_ways: 1 << 10,
        shards: 8,
    }
}

fn build_mixed<E: Copy>(
    n: usize,
    seed: u64,
    apply: &mut impl FnMut(BoolOp, E, E) -> E,
    vars: &[E],
) -> E {
    let ops = [
        BoolOp::XOR,
        BoolOp::AND,
        BoolOp::OR,
        BoolOp::XNOR,
        BoolOp::NAND,
    ];
    let mut state = seed | 1;
    let mut f = vars[0];
    for _ in 0..3 * n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let op = ops[(state >> 33) as usize % ops.len()];
        let v = vars[(state >> 18) as usize % n];
        f = apply(op, f, v);
    }
    f
}

fn assignment(n: usize, m: u32) -> Vec<bool> {
    (0..n).map(|i| (m >> i) & 1 == 1).collect()
}

fn vars_of<R: RawManager>(mgr: &mut R, n: usize) -> Vec<R::Edge> {
    (0..n).map(|v| mgr.var_edge(v)).collect()
}

fn gc_runs<M: NodeShape>(par: &Par<M>) -> u64 {
    par.inner().observe().get("gc.runs").unwrap_or(0)
}

/// The core determinism + correctness check on one random function
/// family: parallel results must be bit-identical across thread counts
/// and semantically equal to the sequential manager's.
fn parallel_ops_match_sequential_and_are_thread_count_invariant<M: Backend>() {
    let n = 10;
    for seed in 0..4u64 {
        let mut reference = None;
        // Sequential baseline.
        let mut seq = M::with_vars(n);
        let vs = vars_of(&mut seq, n);
        let fs = build_mixed(n, seed, &mut |op, a, b| seq.apply_edge(op, a, b), &vs);
        let gs = build_mixed(n, seed + 77, &mut |op, a, b| seq.apply_edge(op, a, b), &vs);
        let seq_apply = seq.apply_edge(BoolOp::AND, fs, gs);
        let seq_ite = seq.ite_edge(fs, gs, seq_apply);
        let seq_ex = seq.exists_edge(fs, &[1, 3, 4]);
        let seq_fa = seq.forall_edge(fs, &[0, 2]);
        let seq_ae = seq.and_exists_edge(fs, gs, &[2, 5, 6]);

        for threads in [1usize, 2, 4, 8] {
            let mut par = Par::<M>::with_config(
                n,
                ParConfig {
                    threads,
                    ..forced()
                },
            );
            let vp = vars_of(&mut par, n);
            let fp = build_mixed(n, seed, &mut |op, a, b| par.apply_edge(op, a, b), &vp);
            let gp = build_mixed(n, seed + 77, &mut |op, a, b| par.apply_edge(op, a, b), &vp);
            let p_apply = par.apply_edge(BoolOp::AND, fp, gp);
            let p_ite = par.ite_edge(fp, gp, p_apply);
            let p_ex = par.exists_edge(fp, &[1, 3, 4]);
            let p_fa = par.forall_edge(fp, &[0, 2]);
            let p_ae = par.and_exists_edge(fp, gp, &[2, 5, 6]);
            let got = (p_apply, p_ite, p_ex, p_fa, p_ae);
            match reference {
                None => reference = Some(got),
                Some(expect) => assert_eq!(
                    got, expect,
                    "seed {seed}: thread count {threads} changed a root"
                ),
            }
            par.inner().validate_all().unwrap();
            // Semantic equality against the sequential manager (and
            // canonical-size equality — same reduced diagram).
            for (p, s, name) in [
                (p_apply, seq_apply, "apply"),
                (p_ite, seq_ite, "ite"),
                (p_ex, seq_ex, "exists"),
                (p_fa, seq_fa, "forall"),
                (p_ae, seq_ae, "and_exists"),
            ] {
                assert_eq!(
                    par.node_count_edge(p),
                    seq.node_count_edge(s),
                    "seed {seed} {name}: canonical sizes differ"
                );
                for m in 0..(1u32 << n) {
                    let a = assignment(n, m);
                    assert_eq!(
                        par.eval_edge(p, &a),
                        seq.eval_edge(s, &a),
                        "seed {seed} {name} assignment {a:?}"
                    );
                }
            }
            assert!(
                par.par_stats().ops_parallel > 0,
                "cutoff 0 must exercise the pipeline"
            );
        }
    }
}

fn sequential_fallback_below_cutoff<M: Backend>() {
    let mut par = Par::<M>::new(6, 4); // default cutoff 2048
    let (a, b) = (par.var_edge(0), par.var_edge(1));
    let f = par.apply_edge(BoolOp::AND, a, b);
    assert!(f != par.constant_edge(true) && f != par.constant_edge(false));
    let st = par.par_stats();
    assert_eq!(st.ops_parallel, 0);
    assert!(st.ops_sequential > 0);
}

fn collect_keeps_roots_and_recycles<M: Backend>() {
    let mut par = Par::<M>::with_config(8, forced());
    let vs = vars_of(&mut par, 8);
    let f = build_mixed(8, 5, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
    let tf: Vec<bool> = (0..256u32)
        .map(|m| par.eval_edge(f, &assignment(8, m)))
        .collect();
    let _pins: Vec<_> = vs.iter().chain([&f]).map(|&e| par.pin(e)).collect();
    par.collect();
    par.inner().validate_all().unwrap();
    for (m, want) in (0u32..).zip(&tf) {
        assert_eq!(par.eval_edge(f, &assignment(8, m)), *want);
    }
    // Post-GC operations still work (and still deterministic).
    let g = par.apply_edge(BoolOp::XOR, f, vs[0]);
    let g2 = par.apply_edge(BoolOp::XOR, f, vs[0]);
    assert_eq!(g, g2);
}

/// Regression: an automatic GC triggered through `inner_mut()` runs
/// behind the wrapper's back; unless the wrapper notices (gc_generation
/// sync), the lossy concurrent cache keeps entries keyed on freed — and
/// then recycled — node ids, and a later parallel op can return a wrong
/// edge.
fn inner_mut_collections_invalidate_the_concurrent_cache<M: Backend>() {
    let mut par = Par::<M>::with_config(8, forced());
    let vs = vars_of(&mut par, 8);
    let f = build_mixed(8, 5, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
    let g = build_mixed(8, 6, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
    let (_fh, _gh) = (par.pin(f), par.pin(g));
    let truth: Vec<bool> = (0..256u32)
        .map(|m| {
            let a = assignment(8, m);
            par.eval_edge(f, &a) && par.eval_edge(g, &a)
        })
        .collect();
    // Arm the latch, churn garbage-producing ops through inner_mut(), and
    // run the latched collections at the sequential manager's own
    // boundary: entirely behind the wrapper's back.
    par.set_gc_threshold(1);
    let runs0 = gc_runs(&par);
    for v in 0..8 {
        let a = par.inner_mut().var_edge(v);
        let b = par.inner_mut().var_edge((v + 1) % 8);
        let _ = par.inner_mut().apply_edge(BoolOp::XNOR, a, b);
        par.inner_mut().after_op();
    }
    assert!(gc_runs(&par) > runs0, "inner auto-GC must have run");
    // The parallel pipeline must re-derive, not replay stale entries.
    let h = par.apply_edge(BoolOp::AND, f, g);
    for (m, want) in (0u32..).zip(&truth) {
        assert_eq!(par.eval_edge(h, &assignment(8, m)), *want, "assignment {m}");
    }
    par.inner().validate_all().unwrap();
}

fn par_stats_surface_the_machinery<M: Backend>() {
    let mut par = Par::<M>::with_config(10, forced());
    let vs = vars_of(&mut par, 10);
    let f = build_mixed(10, 9, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
    let g = build_mixed(10, 10, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
    let _ = par.apply_edge(BoolOp::AND, f, g);
    let st = par.par_stats();
    assert!(st.ops_parallel > 0);
    assert!(st.tasks_executed > 0);
    assert!(st.par_recursions > 0);
    assert!(st.cache.lookups > 0);
    assert_eq!(st.last_shard_occupancy.len(), 8);
    assert_eq!(
        st.tasks_executed,
        st.tasks_by_worker.iter().sum::<u64>(),
        "per-worker tallies must add up"
    );
}

/// A limited budget that is never exhausted takes the governed path
/// through the parallel phase (stop predicate, charged commit, polled
/// resolve) and must land on exactly the edge the unlimited call returns.
fn budgeted_apply_through_the_parallel_phase_matches_unlimited<M: Backend>() {
    let n = 10;
    let mut reference = None;
    for threads in [1usize, 4] {
        let cfg = ParConfig {
            threads,
            ..forced()
        };
        let mut results = Vec::new();
        for limited in [false, true] {
            let mut par = Par::<M>::with_config(n, cfg);
            let vs = vars_of(&mut par, n);
            let f = build_mixed(n, 3, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
            let g = build_mixed(n, 80, &mut |op, a, b| par.apply_edge(op, a, b), &vs);
            let before = par.par_stats().ops_parallel;
            let r = if limited {
                let mut budget = OpBudget::unlimited().with_node_limit(1 << 40);
                let r = par
                    .try_apply_edge(BoolOp::XOR, f, g, &mut budget)
                    .expect("a generous budget never aborts");
                assert!(budget.used() > 0, "the governed path polls the budget");
                r
            } else {
                par.apply_edge(BoolOp::XOR, f, g)
            };
            assert_eq!(
                par.par_stats().ops_parallel,
                before + 1,
                "threads {threads}: the apply must run the parallel phase"
            );
            par.inner().validate_all().unwrap();
            results.push(r);
        }
        assert_eq!(
            results[0], results[1],
            "threads {threads}: budgeted and unlimited apply differ"
        );
        match reference {
            None => reference = Some(results[0]),
            Some(expect) => assert_eq!(results[0], expect, "threads {threads} changed the root"),
        }
    }
}
