//! Combinational equivalence checking (CEC) over decision diagrams.
//!
//! The driver builds *two* networks into **one** manager (shared variable
//! space, inputs aligned by name), forms the per-output miter
//! `m_k = f_k ⊕ g_k`, and proves each output by existentially quantifying
//! every input: `∃X. m_k` is the constant **false** exactly when the
//! outputs agree on all assignments. On a refuted output the miter itself
//! yields a concrete distinguishing assignment
//! ([`BooleanFunction::any_sat`]) and the number of distinguishing
//! assignments.
//!
//! Canonicity alone would let the check be a pointer comparison
//! (`f_k == g_k`); routing the proof through XOR + quantification keeps
//! the driver generic over backends whose representation is *not*
//! canonical and exercises the quantification path end-to-end — the same
//! structure used by SAT-based CEC, where the miter goes to a solver
//! instead.
//!
//! ```
//! use logicnet::{Network, GateOp};
//! use logicnet::cec::{check_equivalence, CecVerdict};
//!
//! // Two XOR implementations: native, and AND/OR decomposed.
//! let mut a = Network::new("xor_native");
//! let (x, y) = (a.add_input("x"), a.add_input("y"));
//! let g = a.add_gate(GateOp::Xor, &[x, y]);
//! a.set_output("f", g);
//!
//! let mut b = Network::new("xor_decomposed");
//! let (x, y) = (b.add_input("x"), b.add_input("y"));
//! let nx = b.add_gate(GateOp::Not, &[x]);
//! let ny = b.add_gate(GateOp::Not, &[y]);
//! let t1 = b.add_gate(GateOp::And, &[x, ny]);
//! let t2 = b.add_gate(GateOp::And, &[nx, y]);
//! let g = b.add_gate(GateOp::Or, &[t1, t2]);
//! b.set_output("f", g);
//!
//! let mgr = bbdd::BbddManager::with_vars(2);
//! assert_eq!(check_equivalence(&mgr, &a, &b), CecVerdict::Equivalent);
//! ```

use crate::build::build_network_with_inputs;
use crate::form::{OpForm, Unbudgeted};
use crate::ir::Network;
use ddcore::api::{BooleanFunction, FunctionManager};
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::BoolOp;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A concrete refutation of one output pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Index of the differing output (in the first network's port order).
    pub output: usize,
    /// Name of the differing output port.
    pub output_name: String,
    /// A distinguishing input assignment, in the **first** network's input
    /// order.
    pub inputs: Vec<bool>,
    /// Number of distinguishing assignments (`None` when uncountable in
    /// 128 bits).
    pub distinguishing: Option<u128>,
}

/// Outcome of a combinational equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecVerdict {
    /// Every matched output pair agrees on every input assignment.
    Equivalent,
    /// At least one output pair differs; the first refuted pair's evidence.
    Inequivalent(Counterexample),
}

impl CecVerdict {
    /// `true` for [`CecVerdict::Equivalent`].
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecVerdict::Equivalent)
    }
}

/// How the two interfaces were matched (by name or positionally) — mostly
/// diagnostic, returned by [`match_interfaces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortMatching {
    /// Both port name sets are identical: matched name-to-name.
    ByName,
    /// Name sets differ: matched by position.
    Positional,
}

/// Compute the input permutation and output pairing between two networks.
///
/// Returns `(input_map, output_map, how)` where `input_map[i]` is the
/// index of `a`'s input that `b`'s input `i` corresponds to, and
/// `output_map[k]` is the index of `b`'s output matching `a`'s output `k`.
///
/// # Panics
/// Panics if the interfaces have different arities, or if name sets match
/// but contain duplicates.
#[must_use]
pub fn match_interfaces(a: &Network, b: &Network) -> (Vec<usize>, Vec<usize>, PortMatching) {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input arity mismatch");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output arity mismatch");
    let a_in: Vec<&str> = a.inputs().iter().map(|&s| a.signal_name(s)).collect();
    let b_in: Vec<&str> = b.inputs().iter().map(|&s| b.signal_name(s)).collect();
    let a_out: Vec<&str> = a.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let b_out: Vec<&str> = b.outputs().iter().map(|(n, _)| n.as_str()).collect();

    let same_sets = |x: &[&str], y: &[&str]| {
        let mut xs = x.to_vec();
        let mut ys = y.to_vec();
        xs.sort_unstable();
        ys.sort_unstable();
        xs == ys
    };
    if same_sets(&a_in, &b_in) && same_sets(&a_out, &b_out) {
        let index_of = |names: &[&str]| -> HashMap<String, usize> {
            let mut m = HashMap::new();
            for (i, n) in names.iter().enumerate() {
                assert!(
                    m.insert((*n).to_string(), i).is_none(),
                    "duplicate port name {n}"
                );
            }
            m
        };
        let a_in_idx = index_of(&a_in);
        let b_out_idx = index_of(&b_out);
        let input_map: Vec<usize> = b_in.iter().map(|n| a_in_idx[*n]).collect();
        let output_map: Vec<usize> = a_out.iter().map(|n| b_out_idx[*n]).collect();
        (input_map, output_map, PortMatching::ByName)
    } else {
        let n = a.num_inputs();
        let m = a.num_outputs();
        ((0..n).collect(), (0..m).collect(), PortMatching::Positional)
    }
}

/// Build `a` and `b` into `mgr` over one variable space (variable `i` is
/// `a`'s input `i`, `b`'s inputs aligned by the [`match_interfaces`]
/// result `maps`) and prove `a`'s outputs in `outputs` against their
/// partners in port order, in operation form `form`, stopping at the
/// first refutation.
///
/// Each proof forms the miter `m_k = f_k ⊕ g_k` and quantifies every
/// input; `∃X. m_k` is false exactly when the outputs agree. On abort,
/// returns the reason and the number of outputs decided. The builds are
/// never governed: they are cheap next to the quantifications.
fn prove<M: FunctionManager, O: OpForm>(
    mgr: &M,
    a: &Network,
    b: &Network,
    (input_map, output_map, _): &(Vec<usize>, Vec<usize>, PortMatching),
    outputs: Range<usize>,
    form: &mut O,
) -> Result<Option<Counterexample>, (O::Abort, usize)> {
    let n = a.num_inputs();
    let vars: Vec<M::Function> = (0..n).map(|i| mgr.var(i)).collect();
    let a_outs = build_network_with_inputs(mgr, a, &vars);
    let b_inputs: Vec<M::Function> = input_map.iter().map(|&i| vars[i].clone()).collect();
    // No protection list: `a_outs` are owned handles, so the first
    // network's outputs are structurally live across every GC opportunity
    // the second build triggers. (The caller-maintained liveness list this
    // replaces is exactly where a ≥1024-gate network once compared
    // unequal to itself.)
    let b_outs = build_network_with_inputs(mgr, b, &b_inputs);

    let all_inputs: Vec<usize> = (0..n).collect();
    for k in outputs.clone() {
        let mut out_span = ddcore::obs::span(ddcore::obs::Op::CecOutput);
        out_span.set_arg("output", k as u64);
        let decided = |reason| (reason, k - outputs.start);
        let miter = form
            .apply(BoolOp::XOR, &a_outs[k], &b_outs[output_map[k]])
            .map_err(decided)?;
        let quantified = form.exists(&miter, &all_inputs).map_err(decided)?;
        if !quantified.is_false() {
            let inputs = miter
                .any_sat()
                .map(|m| m[..n].to_vec())
                .expect("a non-false miter has a model");
            return Ok(Some(Counterexample {
                output: k,
                output_name: a.outputs()[k].0.clone(),
                inputs,
                // Counted over the networks' input universe, so spare
                // manager variables do not inflate it.
                distinguishing: miter.sat_count_over(n),
            }));
        }
    }
    Ok(None)
}

/// The sequential driver behind [`check_equivalence`] and
/// [`try_check_equivalence`].
fn check<M: FunctionManager, O: OpForm>(
    mgr: &M,
    a: &Network,
    b: &Network,
    form: &mut O,
) -> Result<CecVerdict, (O::Abort, usize)> {
    let _cec = ddcore::obs::span(ddcore::obs::Op::Cec);
    let maps = match_interfaces(a, b);
    let cex = prove(mgr, a, b, &maps, 0..a.num_outputs(), form)?;
    Ok(cex.map_or(CecVerdict::Equivalent, CecVerdict::Inequivalent))
}

/// Check two combinational networks for equivalence in `mgr`.
///
/// Inputs and outputs are matched by name when both networks carry the
/// same port-name sets, positionally otherwise. The manager must have at
/// least `a.num_inputs()` variables; variable `i` is bound to `a`'s input
/// `i` (so counterexamples read in `a`'s input order).
///
/// # Panics
/// Panics if the interfaces have different arities or the manager has too
/// few variables.
pub fn check_equivalence<M: FunctionManager>(mgr: &M, a: &Network, b: &Network) -> CecVerdict {
    check(mgr, a, b, &mut Unbudgeted).unwrap_or_else(|(never, _)| match never {})
}

/// A CEC run cut short by its [`OpBudget`]: the partial verdict.
///
/// `outputs_checked` counts the output pairs fully decided (proved equal
/// or refuted) before the abort, in the first network's port order for the
/// sequential driver. A refutation found before the abort is definitive —
/// one counterexample proves inequivalence no matter how many outputs went
/// unchecked — so [`try_check_equivalence_parallel`] reports it as a full
/// [`CecVerdict::Inequivalent`] rather than an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecAborted {
    /// Why the budget stopped the run.
    pub reason: OpAbort,
    /// Output pairs fully decided before the abort.
    pub outputs_checked: usize,
}

impl std::fmt::Display for CecAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "equivalence check aborted ({}) after {} output(s)",
            self.reason, self.outputs_checked
        )
    }
}

impl std::error::Error for CecAborted {}

fn aborted((reason, outputs_checked): (OpAbort, usize)) -> CecAborted {
    CecAborted {
        reason,
        outputs_checked,
    }
}

/// [`check_equivalence`] under a resource budget: each per-output miter
/// and quantification runs through the fallible `try_*` operations, and
/// the first abort surfaces as [`CecAborted`] with the number of outputs
/// already decided — a partial verdict the caller can act on.
///
/// The two network *builds* are not governed (they are cheap next to the
/// per-output quantifications for CEC-sized netlists); the budget begins
/// metering at the first miter.
///
/// # Errors
/// Returns [`CecAborted`] when the budget's node ceiling, deadline or
/// cancellation token stops the run before every output is decided.
///
/// # Panics
/// Panics if the interfaces have different arities or the manager has too
/// few variables.
pub fn try_check_equivalence<M: FunctionManager>(
    mgr: &M,
    a: &Network,
    b: &Network,
    budget: &mut OpBudget,
) -> Result<CecVerdict, CecAborted> {
    check(mgr, a, b, budget).map_err(aborted)
}

/// Execution statistics of one [`check_equivalence_parallel`] run.
#[derive(Debug, Clone, Default)]
pub struct CecParStats {
    /// Output pairs proved.
    pub outputs: usize,
    /// Chunks (pool tasks) the outputs were partitioned into.
    pub chunks: usize,
    /// Workers that participated (including the submitting thread).
    pub workers: usize,
    /// Chunks executed per worker slot (index 0 = the submitting thread).
    pub chunks_by_worker: Vec<u64>,
}

/// The fork-join driver behind [`check_equivalence_parallel`] and
/// [`try_check_equivalence_parallel`]: each chunk proves its outputs in a
/// fresh manager under its own clone of `form`, and `stop` is polled
/// between chunks (`Some` stops the pool and names the reason).
fn check_parallel<M, F, O>(
    a: &Network,
    b: &Network,
    threads: usize,
    make_mgr: F,
    form: &O,
    stop: impl Fn() -> Option<O::Abort> + Sync,
) -> Result<(CecVerdict, CecParStats), (O::Abort, usize)>
where
    M: FunctionManager,
    F: Fn() -> M + Sync,
    O: OpForm + Clone + Sync,
    O::Abort: Send,
{
    let _cec = ddcore::obs::span(ddcore::obs::Op::Cec);
    let n_out = a.num_outputs();
    if n_out == 0 {
        return Ok((CecVerdict::Equivalent, CecParStats::default()));
    }
    let maps = match_interfaces(a, b);
    // Chunk c owns the contiguous output range [c*per, (c+1)*per). The
    // chunk count is recomputed from the rounded-up chunk size so no
    // vacuous chunk exists — every spawned chunk pays for two network
    // builds, so an empty one would be pure waste.
    let per = n_out.div_ceil((threads.max(1) * 2).min(n_out));
    let chunks = n_out.div_ceil(per);
    // The lowest refuted output any chunk found, the first abort any
    // chunk hit (stop conditions agree across chunks up to benign races,
    // so "first" is as deterministic as the conditions themselves), and
    // the outputs decided by unrefuted chunks.
    let refuted: Mutex<Option<Counterexample>> = Mutex::new(None);
    let first_abort: Mutex<Option<O::Abort>> = Mutex::new(None);
    let decided = AtomicUsize::new(0);
    let (fj, stopped) = ddcore::par::try_fork_join_governed(
        threads,
        chunks,
        || stop().is_some(),
        |c| {
            let outputs = c * per..((c + 1) * per).min(n_out);
            match prove(&make_mgr(), a, b, &maps, outputs.clone(), &mut form.clone()) {
                Ok(None) => {
                    decided.fetch_add(outputs.len(), Ordering::Relaxed);
                }
                Ok(Some(cex)) => {
                    let mut lowest = refuted.lock().expect("cec result lock");
                    if lowest.as_ref().is_none_or(|l| cex.output < l.output) {
                        *lowest = Some(cex);
                    }
                }
                Err((reason, done)) => {
                    decided.fetch_add(done, Ordering::Relaxed);
                    first_abort
                        .lock()
                        .expect("cec abort lock")
                        .get_or_insert(reason);
                }
            }
        },
    )
    .unwrap_or_else(|p| panic!("{p}"));
    let stats = CecParStats {
        outputs: n_out,
        chunks,
        workers: fj.workers,
        chunks_by_worker: fj.executed,
    };
    if let Some(cex) = refuted.into_inner().expect("cec result lock") {
        return Ok((CecVerdict::Inequivalent(cex), stats));
    }
    let abort = first_abort.into_inner().expect("cec abort lock");
    match abort.or_else(|| if stopped { stop() } else { None }) {
        Some(reason) => Err((reason, decided.into_inner())),
        None => Ok((CecVerdict::Equivalent, stats)),
    }
}

/// [`check_equivalence`] with the per-output miter loop fanned out across
/// a fork-join pool.
///
/// Outputs are partitioned into about `2 × threads` chunks; each chunk is
/// proved in its **own** fresh manager (built by `make_mgr`), so chunks
/// never contend and the whole check is embarrassingly parallel. The
/// verdict is deterministic regardless of scheduling: every chunk stops
/// at its first refutation, and the lowest refuted output *in the first
/// network's port order* wins — exactly the output [`check_equivalence`]
/// would have reported.
///
/// Each chunk rebuilds both networks; for CEC-sized netlists the build is
/// cheap next to the per-output miter quantifications the chunk then runs,
/// and per-chunk managers are what make the fan-out contention-free.
///
/// # Panics
/// Panics if the interfaces have different arities or a manager has too
/// few variables.
pub fn check_equivalence_parallel<M, F>(
    a: &Network,
    b: &Network,
    threads: usize,
    make_mgr: F,
) -> (CecVerdict, CecParStats)
where
    M: FunctionManager,
    F: Fn() -> M + Sync,
{
    check_parallel(a, b, threads, make_mgr, &Unbudgeted, || None)
        .unwrap_or_else(|(never, _)| match never {})
}

/// [`check_equivalence_parallel`] under a resource budget: chunks run
/// [`try_check_equivalence`]'s per-output fallible pipeline, and pool
/// workers observe the budget's stop conditions **between chunk tasks**
/// ([`ddcore::par::try_fork_join_governed`]), so a raised
/// [`ddcore::govern::CancelToken`] or an expired deadline stops the whole
/// fan-out after at most the chunks already in flight.
///
/// Budget semantics in the parallel driver: the budget's *stop conditions*
/// (token, deadline, fault injection) are shared by every chunk, while the
/// **node ceiling applies per chunk** — each chunk clones the budget for
/// its own manager, since per-chunk managers are what keep the fan-out
/// contention-free and a shared depleting counter would reintroduce the
/// contention.
///
/// A refutation found by any chunk before the stop is returned as a full
/// [`CecVerdict::Inequivalent`] (lowest output index wins, so the verdict
/// is deterministic): one counterexample is definitive regardless of how
/// many outputs went unchecked.
///
/// # Errors
/// Returns [`CecAborted`] when the run stopped before every output was
/// decided and no refutation was found; `outputs_checked` counts outputs
/// decided across all chunks.
///
/// # Panics
/// Panics if the interfaces have different arities, a manager has too few
/// variables, or a pool task panics.
pub fn try_check_equivalence_parallel<M, F>(
    a: &Network,
    b: &Network,
    threads: usize,
    make_mgr: F,
    budget: &mut OpBudget,
) -> Result<(CecVerdict, CecParStats), CecAborted>
where
    M: FunctionManager,
    F: Fn() -> M + Sync,
{
    let view = budget.stop_view();
    check_parallel(a, b, threads, make_mgr, &*budget, || view.should_stop(0)).map_err(aborted)
}

/// [`check_equivalence_parallel`] over fresh sequential BBDD managers
/// (one per chunk), returning only the verdict.
///
/// # Panics
/// Panics if the interfaces have different arities.
#[must_use]
pub fn check_equivalence_parallel_bbdd(a: &Network, b: &Network, threads: usize) -> CecVerdict {
    let n = a.num_inputs().max(1);
    check_equivalence_parallel(a, b, threads, || bbdd::BbddManager::with_vars(n)).0
}

/// [`check_equivalence_parallel`] over fresh sequential ROBDD managers
/// (one per chunk), returning only the verdict.
///
/// # Panics
/// Panics if the interfaces have different arities.
#[must_use]
pub fn check_equivalence_parallel_robdd(a: &Network, b: &Network, threads: usize) -> CecVerdict {
    let n = a.num_inputs().max(1);
    check_equivalence_parallel(a, b, threads, || robdd::RobddManager::with_vars(n)).0
}

/// [`check_equivalence`] in a fresh BBDD manager.
///
/// # Panics
/// Panics if the interfaces have different arities.
#[must_use]
pub fn check_equivalence_bbdd(a: &Network, b: &Network) -> CecVerdict {
    let mgr = bbdd::BbddManager::with_vars(a.num_inputs().max(1));
    check_equivalence(&mgr, a, b)
}

/// [`check_equivalence`] in a fresh ROBDD manager.
///
/// # Panics
/// Panics if the interfaces have different arities.
#[must_use]
pub fn check_equivalence_robdd(a: &Network, b: &Network) -> CecVerdict {
    let mgr = robdd::RobddManager::with_vars(a.num_inputs().max(1));
    check_equivalence(&mgr, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GateOp;

    fn half_adder(name: &str, decomposed_xor: bool) -> Network {
        let mut net = Network::new(name);
        let a = net.add_input("a");
        let b = net.add_input("b");
        let s = if decomposed_xor {
            let na = net.add_gate(GateOp::Not, &[a]);
            let nb = net.add_gate(GateOp::Not, &[b]);
            let t1 = net.add_gate(GateOp::And, &[a, nb]);
            let t2 = net.add_gate(GateOp::And, &[na, b]);
            net.add_gate(GateOp::Or, &[t1, t2])
        } else {
            net.add_gate(GateOp::Xor, &[a, b])
        };
        let c = net.add_gate(GateOp::And, &[a, b]);
        net.set_output("s", s);
        net.set_output("c", c);
        net
    }

    #[test]
    fn equivalent_implementations_verify_on_both_backends() {
        let x = half_adder("x", false);
        let y = half_adder("y", true);
        assert_eq!(check_equivalence_bbdd(&x, &y), CecVerdict::Equivalent);
        assert_eq!(check_equivalence_robdd(&x, &y), CecVerdict::Equivalent);
    }

    #[test]
    fn mutation_is_detected_with_counterexample() {
        let good = half_adder("good", false);
        let mut bad = Network::new("bad");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let s = bad.add_gate(GateOp::Xor, &[a, b]);
        let c = bad.add_gate(GateOp::Or, &[a, b]); // BUG: OR carry
        bad.set_output("s", s);
        bad.set_output("c", c);

        for verdict in [
            check_equivalence_bbdd(&good, &bad),
            check_equivalence_robdd(&good, &bad),
        ] {
            match verdict {
                CecVerdict::Inequivalent(cex) => {
                    assert_eq!(cex.output_name, "c");
                    // The carry differs exactly on a ≠ b: two assignments.
                    assert_eq!(cex.distinguishing, Some(2));
                    let [a_val, b_val] = cex.inputs[..] else {
                        panic!("two inputs expected")
                    };
                    assert_ne!(a_val, b_val, "counterexample must distinguish");
                }
                CecVerdict::Equivalent => panic!("mutation missed"),
            }
        }
    }

    #[test]
    fn inputs_matched_by_name_across_declaration_orders() {
        // Same function, inputs declared in opposite order: positional
        // matching would mistake x∧¬y for y∧¬x.
        let mut p = Network::new("p");
        let x = p.add_input("x");
        let y = p.add_input("y");
        let ny = p.add_gate(GateOp::Not, &[y]);
        let g = p.add_gate(GateOp::And, &[x, ny]);
        p.set_output("f", g);

        let mut q = Network::new("q");
        let y2 = q.add_input("y");
        let x2 = q.add_input("x");
        let ny2 = q.add_gate(GateOp::Not, &[y2]);
        let g2 = q.add_gate(GateOp::And, &[x2, ny2]);
        q.set_output("f", g2);

        assert_eq!(check_equivalence_bbdd(&p, &q), CecVerdict::Equivalent);
        assert_eq!(check_equivalence_robdd(&p, &q), CecVerdict::Equivalent);
        let (input_map, _, how) = match_interfaces(&p, &q);
        assert_eq!(how, PortMatching::ByName);
        assert_eq!(input_map, vec![1, 0]);
    }

    #[test]
    fn large_networks_survive_the_builders_gc_stride() {
        // Regression: with the old caller-maintained liveness lists,
        // building the second network GC'd against only its own live wires
        // once past the builder's GC stride (1024 gates), reclaiming the
        // first network's output nodes — a 2500-gate network then compared
        // unequal to itself. Handles make the first network's outputs
        // structurally live; this must stay green with no protection
        // plumbing anywhere in the driver.
        let mut big = Network::new("big");
        let a = big.add_input("a");
        let b = big.add_input("b");
        let mut acc = big.add_gate(GateOp::Xor, &[a, b]);
        for _ in 0..2500 {
            acc = big.add_gate(GateOp::Xor, &[acc, a]);
        }
        let m = big.add_gate(GateOp::Maj, &[a, b, acc]);
        big.set_output("f", m);
        assert_eq!(check_equivalence_bbdd(&big, &big), CecVerdict::Equivalent);
        assert_eq!(check_equivalence_robdd(&big, &big), CecVerdict::Equivalent);
    }

    #[test]
    fn parallel_cec_matches_sequential_for_all_thread_counts() {
        let good = half_adder("x", false);
        let alt = half_adder("y", true);
        let mut bad = Network::new("bad");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let s = bad.add_gate(GateOp::Xor, &[a, b]);
        let c = bad.add_gate(GateOp::Or, &[a, b]);
        bad.set_output("s", s);
        bad.set_output("c", c);

        let seq_pos = check_equivalence_bbdd(&good, &alt);
        let seq_neg = check_equivalence_bbdd(&good, &bad);
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                check_equivalence_parallel_bbdd(&good, &alt, threads),
                seq_pos,
                "threads {threads}"
            );
            assert_eq!(
                check_equivalence_parallel_robdd(&good, &alt, threads),
                CecVerdict::Equivalent
            );
            // The refuted output and its evidence must be the sequential
            // driver's, whatever worker found it first.
            assert_eq!(
                check_equivalence_parallel_bbdd(&good, &bad, threads),
                seq_neg,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn parallel_cec_reports_pool_stats() {
        let x = half_adder("x", false);
        let y = half_adder("y", true);
        let (verdict, stats) =
            check_equivalence_parallel(&x, &y, 4, || bbdd::BbddManager::with_vars(x.num_inputs()));
        assert!(verdict.is_equivalent());
        assert_eq!(stats.outputs, 2);
        assert!(stats.chunks >= 1 && stats.chunks <= 2);
        assert_eq!(
            stats.chunks_by_worker.iter().sum::<u64>() as usize,
            stats.chunks
        );
    }

    #[test]
    fn parallel_managers_drive_the_generic_cec() {
        // ParBbdd / ParRobdd as the backend of the ordinary sequential
        // driver: every miter/quantification runs the fork-join pipeline
        // internally.
        let x = half_adder("x", false);
        let y = half_adder("y", true);
        let mgr = bbdd::ParBbddManager::new(bbdd::ParBbdd::with_config(
            x.num_inputs(),
            bbdd::ParConfig {
                threads: 4,
                cutoff: 0,
                split_depth: Some(2),
                cache_ways: 1 << 10,
                shards: 8,
            },
        ));
        assert_eq!(check_equivalence(&mgr, &x, &y), CecVerdict::Equivalent);
        let mgr = robdd::ParRobddManager::new(robdd::ParRobdd::with_config(
            x.num_inputs(),
            robdd::ParConfig {
                threads: 4,
                cutoff: 0,
                split_depth: Some(2),
                cache_ways: 1 << 10,
                shards: 8,
            },
        ));
        assert_eq!(check_equivalence(&mgr, &x, &y), CecVerdict::Equivalent);
    }

    #[test]
    fn model_count_saturates_exactly_beyond_127_variables() {
        // The 127/128 boundary of `sat_count_checked`: a constant-true
        // miter over n variables has 2^n distinguishing assignments, which
        // fits u128 at n = 127 and saturates at n = 128. The driver must
        // report the count exactly at 127 and None (not a clamped value)
        // at 128.
        for n in [127usize, 128] {
            let mut p = Network::new("p");
            for i in 0..n {
                p.add_input(&format!("x{i}"));
            }
            let one = p.add_gate(GateOp::Const1, &[]);
            p.set_output("f", one);
            let mut q = Network::new("q");
            for i in 0..n {
                q.add_input(&format!("x{i}"));
            }
            let zero = q.add_gate(GateOp::Const0, &[]);
            q.set_output("f", zero);

            for verdict in [
                check_equivalence(&bbdd::BbddManager::with_vars(n), &p, &q),
                check_equivalence(&robdd::RobddManager::with_vars(n), &p, &q),
            ] {
                match verdict {
                    CecVerdict::Inequivalent(cex) => {
                        let expected = (n == 127).then_some(1u128 << 127);
                        assert_eq!(cex.distinguishing, expected, "n = {n}");
                    }
                    CecVerdict::Equivalent => panic!("constants must differ"),
                }
            }
        }
    }

    #[test]
    fn budgeted_cec_matches_unbudgeted_when_unlimited() {
        let x = half_adder("x", false);
        let y = half_adder("y", true);
        let mgr = bbdd::BbddManager::with_vars(2);
        assert_eq!(
            try_check_equivalence(&mgr, &x, &y, &mut OpBudget::unlimited()),
            Ok(CecVerdict::Equivalent)
        );
        let mgr = robdd::RobddManager::with_vars(2);
        assert_eq!(
            try_check_equivalence(&mgr, &x, &y, &mut OpBudget::unlimited()),
            Ok(CecVerdict::Equivalent)
        );
    }

    #[test]
    fn budgeted_cec_surfaces_partial_verdict() {
        // Against the OR-carry mutant, output "s" is decided for free
        // (same canonical edge, miter collapses terminally, zero
        // checkpoints) but the "c" miter AND(a,b) ⊕ OR(a,b) forces real
        // apply recursion — so a pre-cancelled token with stride 1 aborts
        // there, with exactly one output decided.
        let x = half_adder("x", false);
        let mut bad = Network::new("bad");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let s = bad.add_gate(GateOp::Xor, &[a, b]);
        let c = bad.add_gate(GateOp::Or, &[a, b]);
        bad.set_output("s", s);
        bad.set_output("c", c);
        let token = ddcore::govern::CancelToken::new();
        token.cancel();
        let mut budget = OpBudget::unlimited()
            .with_cancel(&token)
            .with_poll_stride(1);
        let mgr = bbdd::BbddManager::with_vars(2);
        let aborted = try_check_equivalence(&mgr, &x, &bad, &mut budget)
            .expect_err("cancelled budget must abort");
        assert_eq!(aborted.reason, OpAbort::Cancelled);
        assert_eq!(aborted.outputs_checked, 1);
        // The manager survives the abort: the same check completes
        // under a fresh unlimited budget and finds the real refutation.
        match try_check_equivalence(&mgr, &x, &bad, &mut OpBudget::unlimited()) {
            Ok(CecVerdict::Inequivalent(cex)) => assert_eq!(cex.output_name, "c"),
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn governed_parallel_cec_stops_between_chunks() {
        let x = half_adder("x", false);
        let y = half_adder("y", true);
        // An unlimited budget runs the governed chunk loop to the end.
        let (verdict, stats) = try_check_equivalence_parallel(
            &x,
            &y,
            2,
            || bbdd::BbddManager::with_vars(2),
            &mut OpBudget::unlimited(),
        )
        .expect("unlimited budget never aborts");
        assert!(verdict.is_equivalent());
        assert_eq!(stats.outputs, 2);
        // A pre-raised token stops the fan-out before any chunk runs.
        let token = ddcore::govern::CancelToken::new();
        token.cancel();
        let mut budget = OpBudget::unlimited()
            .with_cancel(&token)
            .with_poll_stride(1);
        for threads in [1usize, 4] {
            let aborted = try_check_equivalence_parallel(
                &x,
                &y,
                threads,
                || bbdd::BbddManager::with_vars(2),
                &mut budget,
            )
            .expect_err("raised token must abort the parallel check");
            assert_eq!(aborted.reason, OpAbort::Cancelled, "threads {threads}");
            assert_eq!(aborted.outputs_checked, 0, "threads {threads}");
        }
        // A refutation found under a live budget is definitive.
        let mut bad = Network::new("bad");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let s = bad.add_gate(GateOp::Xor, &[a, b]);
        let c = bad.add_gate(GateOp::Or, &[a, b]);
        bad.set_output("s", s);
        bad.set_output("c", c);
        let live = ddcore::govern::CancelToken::new();
        let mut budget = OpBudget::unlimited().with_cancel(&live);
        let (verdict, _) = try_check_equivalence_parallel(
            &x,
            &bad,
            2,
            || bbdd::BbddManager::with_vars(2),
            &mut budget,
        )
        .expect("live token, small nets: run completes");
        match verdict {
            CecVerdict::Inequivalent(cex) => assert_eq!(cex.output_name, "c"),
            CecVerdict::Equivalent => panic!("mutation missed"),
        }
    }

    #[test]
    fn constant_outputs_are_handled() {
        let mut p = Network::new("p");
        let a = p.add_input("a");
        let na = p.add_gate(GateOp::Not, &[a]);
        let t = p.add_gate(GateOp::Or, &[a, na]);
        p.set_output("f", t);
        let mut q = Network::new("q");
        let _ = q.add_input("a");
        let one = q.add_gate(GateOp::Const1, &[]);
        q.set_output("f", one);
        assert_eq!(check_equivalence_bbdd(&p, &q), CecVerdict::Equivalent);
    }
}
