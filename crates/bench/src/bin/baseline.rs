//! Machine-readable performance baseline for the storage layer.
//!
//! Runs the Table-I quick subset (build + sift for both packages), the
//! Fig.-2 swap-throughput harness and two apply-throughput workloads (one
//! cache-resident, one far past it), then writes `BENCH_ops.json` so later
//! PRs have a perf trajectory to compare against.
//!
//! Usage: `cargo run --release -p bbdd-bench --bin baseline [-- out.json]`
//! (add `--features chained_tables` for the seed-table ablation variant).

use bbdd::{Bbdd, BbddManager, BoolOp, Edge};
use bbdd_bench::{fig2, table1, timed};
use benchgen::mcnc;
use ddcore::api::{BooleanFunction, FunctionManager, RawManager};
use std::fmt::Write as _;
use std::time::Instant;

/// Repeat `f`, keeping the minimum wall-clock seconds.
fn min_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let (_, s) = timed(&mut f);
        best = best.min(s);
    }
    best
}

/// One deterministic random-op stream over pre-built literals, generic in
/// the manager: the sequential and parallel workloads feed the *same*
/// stream through `apply`, so their JSON rows compare identical work.
fn random_function(
    apply: &mut impl FnMut(BoolOp, Edge, Edge) -> Edge,
    vs: &[Edge],
    seed: u64,
    ops: usize,
) -> Edge {
    let table = [
        BoolOp::XOR,
        BoolOp::AND,
        BoolOp::OR,
        BoolOp::XNOR,
        BoolOp::NAND,
    ];
    let n = vs.len();
    let mut state = seed | 1;
    let mut f = vs[0];
    for _ in 0..ops {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let op = table[(state >> 33) as usize % table.len()];
        let v = vs[(state >> 18) as usize % n];
        f = apply(op, f, v);
    }
    f
}

/// Requests/sec through the MVCC serving layer: `sessions` sessions forked
/// off one published snapshot, request `i` on session `i mod sessions`
/// (the serve front door's batch layout), over a fixed eval / sat_count /
/// apply request mix against the misex1 library.
fn serve_throughput(sessions: usize, requests: usize) -> f64 {
    use ddcore::govern::OpBudget;
    let net = mcnc::generate("misex1").expect("known benchmark");
    let base = logicnet::publish::publish_networks::<Bbdd>(&[&net]).expect("publish");
    let names: Vec<String> = base.library().names().to_vec();
    let inputs = base.library().inputs().len();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..sessions {
            let base = &base;
            let names = &names;
            scope.spawn(move || {
                let mut s = base.session();
                let mut budget = OpBudget::unlimited();
                let mut i = w;
                while i < requests {
                    let f = names[i % names.len()].as_str();
                    let g = names[(i / 3 + 1) % names.len()].as_str();
                    match i % 3 {
                        0 => {
                            let v: Vec<bool> =
                                (0..inputs).map(|x| (i >> (x % 8)) & 1 == 1).collect();
                            std::hint::black_box(s.eval(f, &v).expect("published"));
                        }
                        1 => {
                            std::hint::black_box(s.sat_count(f, &mut budget).expect("count"));
                        }
                        _ => {
                            std::hint::black_box(
                                s.apply(BoolOp::AND, f, g, None, &mut budget)
                                    .expect("apply"),
                            );
                        }
                    }
                    i += sessions;
                }
            });
        }
    });
    requests as f64 / t0.elapsed().as_secs_f64()
}

/// Sustained pairwise-AND throughput over 24 random 20-variable functions.
fn apply_throughput_ns() -> f64 {
    let n = 20;
    let t0 = Instant::now();
    let mut total = 0u64;
    while t0.elapsed().as_secs_f64() < 2.0 {
        let mut mgr = Bbdd::new(n);
        let vs: Vec<Edge> = (0..n).map(|v| mgr.var(v)).collect();
        let fs: Vec<Edge> = (0..24)
            .map(|k| {
                random_function(
                    &mut |o, x, y| mgr.apply(o, x, y),
                    &vs,
                    0x1111 * (k + 1) as u64,
                    4 * n,
                )
            })
            .collect();
        for i in 0..fs.len() {
            for j in (i + 1)..fs.len() {
                std::hint::black_box(mgr.and(fs[i], fs[j]));
                total += 1;
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / total as f64
}

/// XOR-accumulation over 26 variables: ~650k live nodes, tables far past
/// the cache hierarchy.
fn big_apply_ms() -> (f64, usize) {
    let n = 26;
    let mut best = f64::MAX;
    let mut live = 0;
    for round in 0..2u64 {
        let t = Instant::now();
        let mut mgr = Bbdd::new(n);
        let vs: Vec<Edge> = (0..n).map(|v| mgr.var_edge(v)).collect();
        let mut acc = random_function(
            &mut |o, x, y| mgr.apply_edge(o, x, y),
            &vs,
            0xF00D + round,
            12 * n,
        );
        for k in 0..12u64 {
            let g = random_function(
                &mut |o, x, y| mgr.apply_edge(o, x, y),
                &vs,
                0xBEEF * (k + 1) + round,
                12 * n,
            );
            acc = mgr.apply_edge(BoolOp::XOR, acc, g);
        }
        std::hint::black_box(acc);
        live = mgr.live_nodes();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best * 1e3, live)
}

/// The [`big_apply_ms`] workload on the parallel manager pipeline.
fn big_apply_par_ms(threads: usize) -> (f64, usize) {
    use bbdd::{ParBbdd, ParConfig};
    let n = 26;
    let mut best = f64::MAX;
    let mut live = 0;
    for round in 0..2u64 {
        let t = Instant::now();
        let mut mgr = ParBbdd::with_config(
            n,
            ParConfig {
                threads,
                ..ParConfig::default()
            },
        );
        let vs: Vec<Edge> = (0..n).map(|v| mgr.var_edge(v)).collect();
        let mut acc = random_function(
            &mut |o, x, y| mgr.apply_edge(o, x, y),
            &vs,
            0xF00D + round,
            12 * n,
        );
        for k in 0..12u64 {
            let g = random_function(
                &mut |o, x, y| mgr.apply_edge(o, x, y),
                &vs,
                0xBEEF * (k + 1) + round,
                12 * n,
            );
            acc = mgr.apply_edge(BoolOp::XOR, acc, g);
        }
        std::hint::black_box(&mut acc);
        live = mgr.live_nodes();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best * 1e3, live)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ops.json".to_string());
    let variant = if cfg!(feature = "chained_tables") {
        "chained_tables"
    } else {
        "open_tables"
    };

    // Host/build provenance, so a baseline JSON is interpretable on its
    // own: thread count, table variant, toolchain and source revision.
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let run_cmd = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let git_rev = run_cmd("git", &["rev-parse", "--short", "HEAD"]);
    let rustc_version = run_cmd("rustc", &["--version"]);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"host_threads\": {host_threads}, \"table_variant\": \"{variant}\", \
         \"git_rev\": \"{git_rev}\", \"rustc\": \"{rustc_version}\"}},"
    );
    let _ = writeln!(json, "  \"variant\": \"{variant}\",");

    // Quick Table-I subset: build + sift, both packages.
    let quick = ["my_adder", "comp", "misex1", "9symml", "parity", "cordic"];
    let _ = writeln!(json, "  \"table1_quick\": [");
    for (idx, name) in quick.iter().enumerate() {
        let net = mcnc::generate(name).expect("known benchmark");
        let build_bbdd = min_time(5, || {
            let mgr = BbddManager::with_vars(net.num_inputs());
            std::hint::black_box(logicnet::build::build_network(&mgr, &net));
        });
        let build_robdd = min_time(5, || {
            let mgr = robdd::RobddManager::with_vars(net.num_inputs());
            std::hint::black_box(logicnet::build::build_network(&mgr, &net));
        });
        let sift_bbdd = min_time(5, || {
            let mgr = BbddManager::with_vars(net.num_inputs());
            let _roots = logicnet::build::build_network(&mgr, &net);
            mgr.reorder(); // output handles are the registry's roots
        });
        let sift_robdd = min_time(5, || {
            let mgr = robdd::RobddManager::with_vars(net.num_inputs());
            let _roots = logicnet::build::build_network(&mgr, &net);
            mgr.reorder();
        });
        let comma = if idx + 1 < quick.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"bbdd_build_us\": {:.2}, \"robdd_build_us\": {:.2}, \
             \"bbdd_build_sift_us\": {:.2}, \"robdd_build_sift_us\": {:.2}}}{comma}",
            build_bbdd * 1e6,
            build_robdd * 1e6,
            sift_bbdd * 1e6,
            sift_robdd * 1e6,
        );
        eprintln!("table1 {name}: done");
    }
    let _ = writeln!(json, "  ],");

    // One full Table-I row through the serialization pipeline, for node
    // counts (sizes are deterministic; timing is covered above).
    let row = table1::run_row(&mcnc::TABLE1[0]);
    let _ = writeln!(
        json,
        "  \"table1_row_{}\": {{\"bbdd_nodes\": {}, \"bdd_nodes\": {}, \"ratio\": {:.4}}},",
        row.name,
        row.bbdd_nodes,
        row.bdd_nodes,
        row.node_ratio()
    );

    // Fig. 2 swap throughput.
    let sw = fig2::swap_throughput(16, 0xDA7E);
    let _ = writeln!(
        json,
        "  \"fig2_swap\": {{\"vars\": {}, \"live_nodes\": {}, \"swaps_per_s\": {:.0}}},",
        sw.vars,
        sw.live_nodes,
        sw.swaps as f64 / sw.seconds
    );

    // Verification ops layer: cube quantification over half the inputs of
    // `comp` (all outputs), satcount over the 16-bit CLA adder, and the
    // full CEC of the 12-bit ripple-vs-lookahead adder pair — each on both
    // managers, matching the `verification_ops` criterion bench.
    {
        let comp = mcnc::generate("comp").expect("known benchmark");
        let cube: Vec<usize> = (0..comp.num_inputs()).filter(|v| v % 2 == 0).collect();
        let exists_bbdd = min_time(5, || {
            let mgr = BbddManager::with_vars(comp.num_inputs());
            let roots = logicnet::build::build_network(&mgr, &comp);
            for r in &roots {
                std::hint::black_box(r.exists(&cube));
            }
        });
        let exists_robdd = min_time(5, || {
            let mgr = robdd::RobddManager::with_vars(comp.num_inputs());
            let roots = logicnet::build::build_network(&mgr, &comp);
            for r in &roots {
                std::hint::black_box(r.exists(&cube));
            }
        });
        let cla = benchgen::datapath::adder_cla(16);
        let satcount_bbdd = min_time(5, || {
            let mgr = BbddManager::with_vars(cla.num_inputs());
            let roots = logicnet::build::build_network(&mgr, &cla);
            let mut acc = 0u128;
            for r in &roots {
                acc = acc.wrapping_add(r.sat_count());
            }
            std::hint::black_box(acc);
        });
        let ripple = benchgen::datapath::adder(12);
        let cla12 = benchgen::datapath::adder_cla(12);
        let cec_bbdd = min_time(5, || {
            std::hint::black_box(logicnet::cec::check_equivalence_bbdd(&ripple, &cla12));
        });
        let cec_robdd = min_time(5, || {
            std::hint::black_box(logicnet::cec::check_equivalence_robdd(&ripple, &cla12));
        });
        let _ = writeln!(
            json,
            "  \"verification\": {{\"exists_comp_bbdd_us\": {:.2}, \"exists_comp_robdd_us\": {:.2}, \
             \"satcount_cla16_build_bbdd_us\": {:.2}, \"cec_adder12_bbdd_us\": {:.2}, \
             \"cec_adder12_robdd_us\": {:.2}}},",
            exists_bbdd * 1e6,
            exists_robdd * 1e6,
            satcount_bbdd * 1e6,
            cec_bbdd * 1e6,
            cec_robdd * 1e6,
        );
        eprintln!("verification ops: done");
    }

    // Dynamic variable ordering: per-strategy build+sift rows on the
    // misex1 stand-in (both packages), and the pair-aware vs plain sift
    // node-count comparison on the XOR-heavy C499 stand-in — the workload
    // class where BBDD chain pairs should move as units.
    {
        use ddcore::dvo::DvoStrategy;
        let strategies = [
            ("full", DvoStrategy::Full),
            ("window1", DvoStrategy::Window(1)),
            ("window2", DvoStrategy::Window(2)),
            ("pair", DvoStrategy::Pair),
        ];
        let net = mcnc::generate("misex1").expect("known benchmark");
        let _ = writeln!(json, "  \"dvo\": {{");
        let _ = writeln!(json, "    \"build_and_sift_misex1\": [");
        for (idx, (name, strategy)) in strategies.iter().enumerate() {
            let mut bbdd_nodes = 0;
            let bbdd_us = min_time(5, || {
                let mgr = BbddManager::with_vars(net.num_inputs());
                let _roots = logicnet::build::build_network(&mgr, &net);
                bbdd_nodes = mgr.reorder_with(*strategy).expect("strategy dispatch");
            }) * 1e6;
            let mut robdd_nodes = 0;
            let robdd_us = min_time(5, || {
                let mgr = robdd::RobddManager::with_vars(net.num_inputs());
                let _roots = logicnet::build::build_network(&mgr, &net);
                robdd_nodes = mgr.reorder_with(*strategy).expect("strategy dispatch");
            }) * 1e6;
            let comma = if idx + 1 < strategies.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "      {{\"strategy\": \"{name}\", \"bbdd_build_sift_us\": {bbdd_us:.2}, \
                 \"bbdd_nodes\": {bbdd_nodes}, \"robdd_build_sift_us\": {robdd_us:.2}, \
                 \"robdd_nodes\": {robdd_nodes}}}{comma}",
            );
        }
        let _ = writeln!(json, "    ],");
        let xor_net = mcnc::generate("C499").expect("known benchmark");
        let built = {
            let mgr = BbddManager::with_vars(xor_net.num_inputs());
            let _roots = logicnet::build::build_network(&mgr, &xor_net);
            mgr.gc();
            mgr.live_nodes()
        };
        let mut plain_nodes = 0;
        let plain_us = min_time(3, || {
            let mgr = BbddManager::with_vars(xor_net.num_inputs());
            let _roots = logicnet::build::build_network(&mgr, &xor_net);
            plain_nodes = mgr.reorder_with(DvoStrategy::Full).expect("full sift");
        }) * 1e6;
        let mut pair_nodes = 0;
        let pair_us = min_time(3, || {
            let mgr = BbddManager::with_vars(xor_net.num_inputs());
            let _roots = logicnet::build::build_network(&mgr, &xor_net);
            pair_nodes = mgr.reorder_with(DvoStrategy::Pair).expect("pair sift");
        }) * 1e6;
        let _ = writeln!(
            json,
            "    \"pair_vs_plain_bbdd_C499\": {{\"built_nodes\": {built}, \
             \"plain_sift_nodes\": {plain_nodes}, \"plain_sift_us\": {plain_us:.2}, \
             \"pair_sift_nodes\": {pair_nodes}, \"pair_sift_us\": {pair_us:.2}, \
             \"pair_minus_plain_nodes\": {}}}",
            pair_nodes as i64 - plain_nodes as i64,
        );
        let _ = writeln!(json, "  }},");
        eprintln!("dvo section: done");
    }

    // Apply throughput, small and large scale.
    let ns = apply_throughput_ns();
    let _ = writeln!(json, "  \"apply_and_n20_ns\": {ns:.1},");
    eprintln!("apply throughput: done");
    let (ms, live) = big_apply_ms();
    let _ = writeln!(
        json,
        "  \"big_apply_n26\": {{\"ms\": {ms:.1}, \"live_nodes\": {live}}},"
    );

    // Parallel execution subsystem: the same 650k-node apply workload on
    // the ParBbdd pipeline at 1/2/4 threads, and the multi-output CEC fan
    // out. `host_threads` records how many hardware threads this machine
    // actually has — speedups are only physically possible when it
    // exceeds 1.
    {
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut par_ms = [0f64; 3];
        let mut par_live = 0usize;
        for (slot, threads) in [1usize, 2, 4].into_iter().enumerate() {
            let (ms, lv) = big_apply_par_ms(threads);
            par_ms[slot] = ms;
            par_live = lv;
            eprintln!("parallel big apply t{threads}: done");
        }
        let ripple = benchgen::datapath::adder(24);
        let cla = benchgen::datapath::adder_cla(24);
        let mut cec_ms = [0f64; 3];
        for (slot, threads) in [1usize, 2, 4].into_iter().enumerate() {
            cec_ms[slot] = min_time(3, || {
                std::hint::black_box(logicnet::cec::check_equivalence_parallel_bbdd(
                    &ripple, &cla, threads,
                ));
            }) * 1e3;
        }
        let _ = writeln!(
            json,
            "  \"parallel\": {{\"host_threads\": {host}, \
             \"big_apply_par_n26\": {{\"t1_ms\": {:.1}, \"t2_ms\": {:.1}, \"t4_ms\": {:.1}, \
             \"live_nodes\": {par_live}, \"speedup_t4_vs_t1\": {:.3}}}, \
             \"cec_adder24_multi_output\": {{\"t1_ms\": {:.2}, \"t2_ms\": {:.2}, \"t4_ms\": {:.2}, \
             \"speedup_t4_vs_t1\": {:.3}}}}},",
            par_ms[0],
            par_ms[1],
            par_ms[2],
            par_ms[0] / par_ms[2],
            cec_ms[0],
            cec_ms[1],
            cec_ms[2],
            cec_ms[0] / cec_ms[2],
        );
        eprintln!("parallel section: done");
    }

    // The CNF front door: exact model counting through the clause-
    // scheduled build. parity-16 is the XOR-heavy headline case (the
    // biconditional expansion vs the ROBDD baseline), random 3-CNF the
    // generic load; the sliced rows decompose the same random instance
    // into 2^2 cofactor sub-problems (sequential vs the fork-join pool at
    // 4 workers — interpret against meta.host_threads) and the recombined
    // counts are asserted bit-equal to the whole-formula count.
    {
        use cnf::Schedule;
        use ddcore::govern::OpBudget;
        let whole_ms = |inst: &cnf::Cnf, robdd_pkg: bool| -> (f64, u128, u64) {
            let mut best = (f64::MAX, 0u128, 0u64);
            for _ in 0..3 {
                let mut budget = OpBudget::unlimited();
                let t0 = Instant::now();
                let (count, stats) = if robdd_pkg {
                    let mgr = robdd::RobddManager::with_vars(inst.num_vars);
                    cnf::count_cnf(&mgr, inst, &Schedule::Bucket, &mut budget).expect("count")
                } else {
                    let mgr = BbddManager::with_vars(inst.num_vars);
                    cnf::count_cnf(&mgr, inst, &Schedule::Bucket, &mut budget).expect("count")
                };
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if ms < best.0 {
                    best = (ms, count, stats.conj_peak_nodes);
                }
            }
            best
        };
        let parity = benchgen::cnf::parity_chain(16);
        let (pb_ms, pb_count, pb_peak) = whole_ms(&parity, false);
        let (pr_ms, pr_count, pr_peak) = whole_ms(&parity, true);
        assert_eq!(pb_count, pr_count, "packages disagree on parity-16");
        assert_eq!(pb_count, 1u128 << 15);
        let rand3 = benchgen::cnf::random3(26, 110, 7);
        let (rb_ms, rb_count, rb_peak) = whole_ms(&rand3, false);
        let sliced_ms = |threads: Option<usize>| -> (f64, u128) {
            let mut best = (f64::MAX, 0u128);
            for _ in 0..3 {
                let t0 = Instant::now();
                let make = || BbddManager::with_vars(rand3.num_vars);
                let sliced = match threads {
                    Some(t) => cnf::count_sliced_par(
                        t,
                        make,
                        OpBudget::unlimited,
                        &rand3,
                        &Schedule::Bucket,
                        2,
                    ),
                    None => {
                        cnf::count_sliced(make, OpBudget::unlimited, &rand3, &Schedule::Bucket, 2)
                    }
                };
                assert!(!sliced.partial);
                assert_eq!(sliced.total, rb_count, "slices disagree with the whole");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if ms < best.0 {
                    best = (ms, sliced.total);
                }
            }
            best
        };
        let (slice_seq_ms, _) = sliced_ms(None);
        let (slice_par_ms, _) = sliced_ms(Some(4));
        // host_threads: the sliced_k2_par4 row can only beat the
        // sequential row when the host has more than one hardware thread.
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let _ = writeln!(
            json,
            "  \"cnf\": {{\"schedule\": \"bucket\", \"host_threads\": {host}, \
             \"parity16\": {{\"vars\": {}, \"clauses\": {}, \"count\": \"{pb_count}\", \
             \"bbdd_ms\": {pb_ms:.2}, \"bbdd_peak_nodes\": {pb_peak}, \
             \"robdd_ms\": {pr_ms:.2}, \"robdd_peak_nodes\": {pr_peak}}}, \
             \"random3_n26\": {{\"vars\": {}, \"clauses\": {}, \"count\": \"{rb_count}\", \
             \"bbdd_ms\": {rb_ms:.2}, \"bbdd_peak_nodes\": {rb_peak}, \
             \"sliced_k2_seq_ms\": {slice_seq_ms:.2}, \
             \"sliced_k2_par4_ms\": {slice_par_ms:.2}}}}},",
            parity.num_vars,
            parity.num_clauses(),
            rand3.num_vars,
            rand3.num_clauses(),
        );
        eprintln!("cnf section: done");
    }

    // The serving layer: batch requests/sec with 1 session vs 4 concurrent
    // sessions (interpret against meta.host_threads — parallel speedups
    // are only physically possible when it exceeds 1).
    {
        const REQS: usize = 3000;
        let mut rps = [0f64; 2];
        for (slot, sessions) in [1usize, 4].into_iter().enumerate() {
            for _ in 0..3 {
                rps[slot] = rps[slot].max(serve_throughput(sessions, REQS));
            }
            eprintln!("serve throughput s{sessions}: done");
        }
        let _ = writeln!(
            json,
            "  \"serve_throughput\": {{\"requests\": {REQS}, \"library\": \"misex1\", \
             \"rps_1_session\": {:.0}, \"rps_4_sessions\": {:.0}, \
             \"speedup_4_vs_1\": {:.3}}}",
            rps[0],
            rps[1],
            rps[1] / rps[0],
        );
    }
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
