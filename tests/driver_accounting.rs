//! The accounting contract of the network drivers: the infallible
//! `build_network`, `check_equivalence` and `check_equivalence_parallel`
//! return exactly what their `try_` forms return under an unlimited
//! budget, and only the `try_` forms touch the `govern.*` counters.
//!
//! Both sequential kernels (`Bbdd`, `Robdd`) are covered; the pair under
//! check refutes several outputs, so "the lowest refuted output wins" is
//! exercised on every thread count.

use bbdd::prelude::*;
use ddcore::govern::OpBudget;
use logicnet::build::{build_network, try_build_network};
use logicnet::cec::{
    check_equivalence, check_equivalence_parallel, try_check_equivalence,
    try_check_equivalence_parallel, CecVerdict,
};
use logicnet::{GateOp, Network};
use robdd::prelude::*;

const BITS: usize = 6;

/// A `BITS`-bit ripple-carry adder. With `bug = Some(j)` the carry out of
/// bit `j` is an OR instead of a majority, which refutes every sum bit
/// above `j` and the carry out.
fn adder(name: &str, bug: Option<usize>) -> Network {
    let mut net = Network::new(name);
    let a: Vec<_> = (0..BITS).map(|i| net.add_input(&format!("a{i}"))).collect();
    let b: Vec<_> = (0..BITS).map(|i| net.add_input(&format!("b{i}"))).collect();
    let mut carry = net.add_gate(GateOp::Const0, &[]);
    for i in 0..BITS {
        let p = net.add_gate(GateOp::Xor, &[a[i], b[i]]);
        let s = net.add_gate(GateOp::Xor, &[p, carry]);
        net.set_output(&format!("s{i}"), s);
        carry = if bug == Some(i) {
            net.add_gate(GateOp::Or, &[a[i], b[i]])
        } else {
            net.add_gate(GateOp::Maj, &[a[i], b[i], carry])
        };
    }
    net.set_output("cout", carry);
    net
}

/// `(govern.ops, govern.checkpoints)` of a manager.
fn governed<M: FunctionManager>(mgr: &M) -> (u64, u64) {
    let s = mgr.metrics();
    (
        s.get("govern.ops").unwrap_or(0),
        s.get("govern.checkpoints").unwrap_or(0),
    )
}

fn build_contract<M: FunctionManager>(make: impl Fn(usize) -> M) {
    let net = adder("add", None);
    let mgr = make(net.num_inputs());
    let before = governed(&mgr);
    let outs = build_network(&mgr, &net);
    assert_eq!(governed(&mgr), before, "build_network is not governed");
    let governed_outs = try_build_network(&mgr, &net, &mut OpBudget::unlimited())
        .expect("an unlimited budget never aborts");
    assert_eq!(governed_outs, outs, "same canonical outputs");
    assert!(
        governed(&mgr).0 > before.0,
        "try_build_network counts its ops"
    );
}

fn cec_contract<M: FunctionManager>(make: impl Fn(usize) -> M) {
    let good = adder("good", None);
    let bad = adder("bad", Some(2));
    for other in [&good, &bad] {
        let mgr = make(good.num_inputs());
        let before = governed(&mgr);
        let verdict = check_equivalence(&mgr, &good, other);
        assert_eq!(governed(&mgr), before, "check_equivalence is not governed");
        let again = try_check_equivalence(&mgr, &good, other, &mut OpBudget::unlimited())
            .expect("an unlimited budget never aborts");
        assert_eq!(again, verdict, "same verdict and counterexample");
        assert!(
            governed(&mgr).0 > before.0,
            "try_check_equivalence counts its ops"
        );
    }
    // The mutant refutes s3, s4, s5 and cout; the lowest one is reported.
    let mgr = make(good.num_inputs());
    match check_equivalence(&mgr, &good, &bad) {
        CecVerdict::Inequivalent(cex) => {
            assert_eq!(cex.output_name, "s3");
            assert!(cex.distinguishing.is_some_and(|d| d > 0));
        }
        CecVerdict::Equivalent => panic!("mutation missed"),
    }
}

fn parallel_cec_contract<M, F>(make: F)
where
    M: FunctionManager,
    F: Fn() -> M + Sync,
{
    let good = adder("good", None);
    let bad = adder("bad", Some(2));
    let sequential = check_equivalence(&make(), &good, &bad);
    for threads in [1usize, 3] {
        for other in [&good, &bad] {
            let (verdict, stats) = check_equivalence_parallel(&good, other, threads, &make);
            let (again, governed_stats) = try_check_equivalence_parallel(
                &good,
                other,
                threads,
                &make,
                &mut OpBudget::unlimited(),
            )
            .expect("an unlimited budget never aborts");
            assert_eq!(again, verdict, "threads {threads}");
            assert_eq!(governed_stats.outputs, stats.outputs, "threads {threads}");
            assert_eq!(governed_stats.chunks, stats.chunks, "threads {threads}");
            assert_eq!(governed_stats.workers, stats.workers, "threads {threads}");
            // Which worker ran which chunk is scheduling; the total is not.
            let ran = |v: &[u64]| v.iter().sum::<u64>() as usize;
            assert_eq!(ran(&stats.chunks_by_worker), stats.chunks);
            assert_eq!(ran(&governed_stats.chunks_by_worker), stats.chunks);
            if threads == 1 {
                assert_eq!(governed_stats.chunks_by_worker, stats.chunks_by_worker);
            }
        }
        let (verdict, _) = check_equivalence_parallel(&good, &bad, threads, &make);
        assert_eq!(
            verdict, sequential,
            "threads {threads}: lowest refuted output wins"
        );
    }
}

#[test]
fn build_accounting_bbdd() {
    build_contract(BbddManager::with_vars);
}

#[test]
fn build_accounting_robdd() {
    build_contract(RobddManager::with_vars);
}

#[test]
fn cec_accounting_bbdd() {
    cec_contract(BbddManager::with_vars);
}

#[test]
fn cec_accounting_robdd() {
    cec_contract(RobddManager::with_vars);
}

#[test]
fn parallel_cec_accounting_bbdd() {
    parallel_cec_contract(|| BbddManager::with_vars(2 * BITS));
}

#[test]
fn parallel_cec_accounting_robdd() {
    parallel_cec_contract(|| RobddManager::with_vars(2 * BITS));
}
