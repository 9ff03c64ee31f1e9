//! The abort-safety proof harness for `ddcore::govern`: after **any**
//! abort mid-recursion, the manager must remain fully usable.
//!
//! Three layers of evidence, each on all four managers (parallel pair at
//! threads 1 and 4):
//!
//! 1. **Exhaustive fault-injection sweep** — a deterministic workload
//!    exercising apply/ite/exists/forall/and_exists/compose/sat_count
//!    through the fallible trait ops is first metered (total checkpoint
//!    count N), then re-run N times with [`OpBudget::inject_cancel_at`]
//!    forcing an abort at exactly the K-th checkpoint, for every K in
//!    1..=N. After each abort: every surviving handle still denotes its
//!    shadow truth table, the manager validates structurally, infallible
//!    ops still work, and once all handles drop the GC returns to the
//!    sink-only baseline with an empty registry (the PR 4 leak check).
//! 2. **Randomized interleaving** — proptest scripts interleave random
//!    ops with random injection points; the same invariants hold.
//! 3. **Cancellation latency** — a token raised mid-request aborts within
//!    one poll stride of further checkpoints, the documented bound.
//!
//! Bounded sifting gets its own sweep: an abort at any checkpoint of
//! `try_reorder` must leave a consistent variable order and a diagram
//! still denoting the same functions.

use bbdd::prelude::*;
use ddcore::govern::{CancelToken, OpAbort, OpBudget};
use proptest::prelude::*;
use robdd::prelude::*;

const NV: usize = 5;
const ROWS: u32 = 32;

// ── Per-backend diagnostics (structural validation is deliberately not
//    part of the public trait surface) ────────────────────────────────────

trait Diagnostics: FunctionManager {
    fn validate_all(&self) -> Result<(), String>;
    /// Scheduled (policy-fired) reorders so far, aborted ones included.
    fn scheduled_reorders(&self) -> u64;
}

impl Diagnostics for BbddManager {
    fn validate_all(&self) -> Result<(), String> {
        self.backend().validate()
    }
    fn scheduled_reorders(&self) -> u64 {
        self.backend().scheduled_reorders()
    }
}

impl Diagnostics for RobddManager {
    fn validate_all(&self) -> Result<(), String> {
        self.backend().validate()
    }
    fn scheduled_reorders(&self) -> u64 {
        self.backend().scheduled_reorders()
    }
}

impl Diagnostics for ParBbddManager {
    fn validate_all(&self) -> Result<(), String> {
        self.backend().inner().validate()
    }
    fn scheduled_reorders(&self) -> u64 {
        self.backend().inner().scheduled_reorders()
    }
}

impl Diagnostics for ParRobddManager {
    fn validate_all(&self) -> Result<(), String> {
        self.backend().inner().validate()
    }
    fn scheduled_reorders(&self) -> u64 {
        self.backend().inner().scheduled_reorders()
    }
}

// ── Truth-table shadow model (32-bit tables over 5 variables) ────────────

fn tt_var(v: usize) -> u32 {
    let mut t = 0u32;
    for m in 0..ROWS {
        if (m >> v) & 1 == 1 {
            t |= 1 << m;
        }
    }
    t
}

fn tt_restrict(t: u32, v: usize, value: bool) -> u32 {
    let mut r = 0u32;
    for m in 0..ROWS {
        let source = if value { m | (1 << v) } else { m & !(1 << v) };
        if (t >> source) & 1 == 1 {
            r |= 1 << m;
        }
    }
    r
}

/// Simultaneous substitution: row `m` reads `t` at the row the
/// substituted functions select (`None` keeps the variable).
fn tt_vector_compose(t: u32, subs: &[Option<u32>]) -> u32 {
    let mut r = 0u32;
    for m in 0..ROWS {
        let mut source = 0;
        for v in 0..NV {
            let bit = subs.get(v).copied().flatten().map_or(m >> v, |g| g >> m);
            source |= (bit & 1) << v;
        }
        if (t >> source) & 1 == 1 {
            r |= 1 << m;
        }
    }
    r
}

fn tt_exists(t: u32, vars: &[usize]) -> u32 {
    vars.iter().fold(t, |t, &v| {
        tt_restrict(t, v, true) | tt_restrict(t, v, false)
    })
}

fn tt_forall(t: u32, vars: &[usize]) -> u32 {
    vars.iter().fold(t, |t, &v| {
        tt_restrict(t, v, true) & tt_restrict(t, v, false)
    })
}

fn check_tt<F: BooleanFunction>(label: &str, f: &F, tt: u32) {
    for m in 0..ROWS {
        let v: Vec<bool> = (0..NV).map(|i| (m >> i) & 1 == 1).collect();
        assert_eq!(
            f.eval(&v),
            (tt >> m) & 1 == 1,
            "{label}: eval disagrees on row {m}"
        );
    }
}

// ── The deterministic governed workload ──────────────────────────────────

/// Run the whole fallible op mix under `budget`, pushing every completed
/// (handle, shadow-table) pair into `survivors` as it is produced — so an
/// abort leaves exactly the handles that were fully committed before it.
fn workload<M: FunctionManager>(
    mgr: &M,
    budget: &mut OpBudget,
    survivors: &mut Vec<(M::Function, u32)>,
) -> Result<(), OpAbort> {
    let vars: Vec<(M::Function, u32)> = (0..NV).map(|v| (mgr.var(v), tt_var(v))).collect();
    // Parity chain: five entangled XORs.
    let (mut p, mut tp) = (vars[0].0.clone(), vars[0].1);
    for (f, tt) in &vars[1..] {
        p = p.try_xor(f, budget)?;
        tp ^= tt;
        survivors.push((p.clone(), tp));
    }
    // A multiplexer on top of the parity.
    let ite = vars[0].0.try_ite(&p, &vars[2].0, budget)?;
    let t_ite = (vars[0].1 & tp) | (!vars[0].1 & vars[2].1);
    survivors.push((ite.clone(), t_ite));
    // Fused relational product, plain quantifications.
    let ae = p.try_and_exists(&ite, &[1, 3], budget)?;
    survivors.push((ae, tt_exists(tp & t_ite, &[1, 3])));
    let ex = ite.try_exists(&[0, 4], budget)?;
    survivors.push((ex, tt_exists(t_ite, &[0, 4])));
    let fa = ite.try_forall(&[2], budget)?;
    survivors.push((fa, tt_forall(t_ite, &[2])));
    // Composition: substitute the parity for variable 1 of the mux.
    let comp = ite.try_compose(1, &p, budget)?;
    let t_comp = (tp & tt_restrict(t_ite, 1, true)) | (!tp & tt_restrict(t_ite, 1, false));
    survivors.push((comp.clone(), t_comp));
    // Restriction, and a simultaneous substitution swapping variables 0
    // and 2 of the composite.
    let res = ite.try_restrict(3, true, budget)?;
    survivors.push((res, tt_restrict(t_ite, 3, true)));
    let swap = [Some(vars[2].0.clone()), None, Some(vars[0].0.clone())];
    let vc = comp.try_vector_compose(&swap, budget)?;
    let t_swap = [Some(vars[2].1), None, Some(vars[0].1)];
    survivors.push((vc, tt_vector_compose(t_comp, &t_swap)));
    // Governed counting over the final composite.
    let count = comp.try_sat_count(budget)?;
    assert_eq!(count, u128::from(t_comp.count_ones()), "sat_count");
    Ok(())
}

/// The invariant bundle checked after every abort (and after clean runs).
fn assert_consistent<M: Diagnostics>(mgr: &M, survivors: Vec<(M::Function, u32)>) {
    mgr.validate_all()
        .expect("structural invariants after abort");
    for (idx, (f, tt)) in survivors.iter().enumerate() {
        check_tt(&format!("survivor {idx}"), f, *tt);
    }
    // Infallible ops still work on a post-abort manager.
    let mut acc = mgr.constant(false);
    let mut acc_tt = 0u32;
    for v in 0..NV {
        acc = acc.xor(&mgr.var(v));
        acc_tt ^= tt_var(v);
    }
    check_tt("post-abort parity", &acc, acc_tt);
    drop(acc);
    // Leak check: handles dropped → empty registry, sink-only baseline;
    // whatever partial results the abort orphaned are reclaimed here.
    drop(survivors);
    mgr.gc();
    assert_eq!(mgr.external_roots(), 0, "registry must drain after abort");
    assert_eq!(mgr.live_nodes(), 0, "orphans must be GC-reclaimed");
    mgr.validate_all().expect("structural invariants after GC");
}

/// A budget that takes the governed path everywhere (so its checkpoint
/// stream matches an injection run) but never actually aborts: the huge
/// node ceiling marks it "limited" without ever being reached.
fn metering_budget() -> OpBudget {
    OpBudget::unlimited().with_node_limit(1 << 40)
}

/// The exhaustive sweep: meter the workload's checkpoint count N, then
/// force an abort at every K in 1..=N and check the invariant bundle.
fn sweep<M: Diagnostics>(make: impl Fn() -> M) {
    let mgr = make();
    let mut meter = metering_budget();
    let mut full = Vec::new();
    workload(&mgr, &mut meter, &mut full).expect("metering run must complete");
    let n = meter.used();
    assert!(n > 0, "workload must pass checkpoints");
    assert_consistent(&mgr, full);

    for k in 1..=n {
        let mgr = make();
        let mut budget = metering_budget().inject_cancel_at(k);
        let mut survivors = Vec::new();
        let res = workload(&mgr, &mut budget, &mut survivors);
        // The workload is deterministic and passed checkpoint k on the
        // metering run, so injection at k must abort it — as Cancelled,
        // injection's reuse of the cancellation path.
        assert_eq!(res, Err(OpAbort::Cancelled), "k = {k} of {n}");
        assert_consistent(&mgr, survivors);
    }
}

fn par_bbdd(threads: usize) -> ParBbddManager {
    ParBbddManager::new(ParBbdd::with_config(
        NV,
        bbdd::ParConfig {
            threads,
            cutoff: 0, // force the parallel pipeline on every operand size
            split_depth: Some(2),
            cache_ways: 1 << 10,
            shards: 8,
        },
    ))
}

fn par_robdd(threads: usize) -> ParRobddManager {
    ParRobddManager::new(ParRobdd::with_config(
        NV,
        robdd::ParConfig {
            threads,
            cutoff: 0,
            split_depth: Some(2),
            cache_ways: 1 << 10,
            shards: 8,
        },
    ))
}

#[test]
fn exhaustive_fault_injection_bbdd() {
    sweep(|| BbddManager::with_vars(NV));
}

#[test]
fn exhaustive_fault_injection_robdd() {
    sweep(|| RobddManager::with_vars(NV));
}

#[test]
fn exhaustive_fault_injection_par_bbdd() {
    for threads in [1usize, 4] {
        sweep(move || par_bbdd(threads));
    }
}

#[test]
fn exhaustive_fault_injection_par_robdd() {
    for threads in [1usize, 4] {
        sweep(move || par_robdd(threads));
    }
}

// ── Cancellation latency ─────────────────────────────────────────────────

/// The documented bound: once a token is raised, the operation aborts
/// within at most one poll stride of further checkpoints. Run a prefix to
/// put the budget mid-stride (worst case for the countdown), raise the
/// token, and count the checkpoints the rest of the workload manages to
/// pass.
#[test]
fn cancellation_aborts_within_one_poll_stride() {
    const STRIDE: u64 = 16;
    for threads in [1usize, 4] {
        let mgr = par_bbdd(threads);
        let token = CancelToken::new();
        let mut budget = OpBudget::unlimited()
            .with_cancel(&token)
            .with_poll_stride(STRIDE);
        // Prefix: entangle two variables so the budget's countdown is
        // armed somewhere inside a stride.
        let a = mgr.var(0);
        let b = mgr.var(1);
        let _ab = a.try_xor(&b, &mut budget).expect("token not raised yet");
        let before = budget.used();

        token.cancel();
        let mut survivors = Vec::new();
        let res = workload(&mgr, &mut budget, &mut survivors);
        assert_eq!(res, Err(OpAbort::Cancelled), "threads {threads}");
        let after_raise = budget.used() - before;
        assert!(
            after_raise <= STRIDE,
            "threads {threads}: {after_raise} checkpoints after the raise, stride {STRIDE}"
        );
    }
    // Sequential managers: same bound.
    let mgr = BbddManager::with_vars(NV);
    let token = CancelToken::new();
    let mut budget = OpBudget::unlimited()
        .with_cancel(&token)
        .with_poll_stride(16);
    let _warm = mgr.var(0).try_xor(&mgr.var(1), &mut budget).expect("ok");
    let before = budget.used();
    token.cancel();
    let res = workload(&mgr, &mut budget, &mut Vec::new());
    assert_eq!(res, Err(OpAbort::Cancelled));
    assert!(budget.used() - before <= 16);
}

// ── Bounded sifting ──────────────────────────────────────────────────────

/// Meter a sift's checkpoints, then abort it at every K: the variable
/// order must stay consistent and every root must still denote its
/// function.
fn sift_sweep<M: Diagnostics>(make: impl Fn() -> M) {
    // A function whose sift actually moves variables: a lopsided mix of
    // conjunctions and parities.
    let build = |mgr: &M| -> (Vec<(M::Function, u32)>, ()) {
        let v: Vec<(M::Function, u32)> = (0..NV).map(|i| (mgr.var(i), tt_var(i))).collect();
        let and02 = v[0].0.and(&v[2].0);
        let t_and02 = v[0].1 & v[2].1;
        let par134 = v[1].0.xor(&v[3].0).xor(&v[4].0);
        let t_par134 = v[1].1 ^ v[3].1 ^ v[4].1;
        let mix = and02.or(&par134);
        let t_mix = t_and02 | t_par134;
        (vec![(and02, t_and02), (par134, t_par134), (mix, t_mix)], ())
    };

    let mgr = make();
    let (roots, ()) = build(&mgr);
    let mut meter = metering_budget();
    let metered = mgr.try_reorder(&mut meter);
    let Some(res) = metered else {
        // Backend without dynamic reordering: nothing to sweep.
        return;
    };
    res.expect("metering sift must complete");
    let n = meter.used();
    assert!(n > 0, "sift must pass checkpoints");
    for (f, tt) in &roots {
        check_tt("post-sift root", f, *tt);
    }
    drop(roots);

    for k in 1..=n {
        let mgr = make();
        let (roots, ()) = build(&mgr);
        let mut budget = metering_budget().inject_cancel_at(k);
        let res = mgr
            .try_reorder(&mut budget)
            .expect("backend reorders (checked above)");
        assert_eq!(res, Err(OpAbort::Cancelled), "sift k = {k} of {n}");
        // A consistent order: a permutation of 0..NV.
        let mut order = mgr.variable_order();
        order.sort_unstable();
        assert_eq!(order, (0..NV).collect::<Vec<_>>(), "order after abort");
        mgr.validate_all()
            .expect("structural invariants after sift abort");
        for (f, tt) in &roots {
            check_tt(&format!("root after sift abort k={k}"), f, *tt);
        }
        // The manager still sifts to completion afterwards.
        mgr.reorder().expect("infallible sift after abort");
        for (f, tt) in &roots {
            check_tt("root after recovery sift", f, *tt);
        }
        drop(roots);
        mgr.gc();
        assert_eq!(mgr.external_roots(), 0);
        assert_eq!(mgr.live_nodes(), 0);
    }
}

#[test]
fn bounded_sift_fault_injection_bbdd() {
    sift_sweep(|| BbddManager::with_vars(NV));
}

#[test]
fn bounded_sift_fault_injection_robdd() {
    sift_sweep(|| RobddManager::with_vars(NV));
}

// ── Scheduled reorders inside a governed network build ───────────────────

/// A deterministic random netlist big enough to cross the builder's
/// 1024-gate collection gate — the only place `try_build_network` can
/// fire a scheduled reorder.
fn long_netlist() -> logicnet::Network {
    use logicnet::{GateOp, Network};
    let mut net = Network::new("long");
    let mut sigs: Vec<_> = (0..NV).map(|i| net.add_input(&format!("x{i}"))).collect();
    let mut state = 0x5EEDu64;
    for _ in 0..1100 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = sigs[(state >> 11) as usize % sigs.len()];
        let b = sigs[(state >> 33) as usize % sigs.len()];
        let op = match (state >> 50) % 4 {
            0 => GateOp::And,
            1 => GateOp::Or,
            2 => GateOp::Xor,
            _ => GateOp::Nand,
        };
        sigs.push(net.add_gate(op, &[a, b]));
    }
    net.set_output("y", *sigs.last().unwrap());
    net.set_output("z", sigs[NV + 700]);
    net.check().unwrap();
    net
}

/// Arm ONLY the DVO schedule (gc_threshold stays 0, so the op-boundary
/// latch never fires): the one reorder opportunity is the budgeted
/// `try_collect` gate at gate 1024 of `try_build_network`. Meter a clean
/// governed build, prove the schedule fired there, then binary-search the
/// injection point that lands the abort *inside* the scheduled sift and
/// check the full consistency bundle at and after it.
fn scheduled_build_abort_sweep<M: Diagnostics>(make: impl Fn() -> M) {
    use logicnet::build::try_build_network;

    let net = long_netlist();
    let policy: ddcore::dvo::DvoPolicy = "full:thresh1".parse().expect("policy literal");

    // Metering run: the governed build completes and the schedule fired
    // exactly once, at the single 1024-gate boundary.
    let mgr = make();
    mgr.set_reorder_policy(Some(policy));
    let mut meter = metering_budget();
    let outs = try_build_network(&mgr, &net, &mut meter).expect("metering build must complete");
    let n = meter.used();
    assert!(n > 0, "build must pass checkpoints");
    assert_eq!(
        mgr.scheduled_reorders(),
        1,
        "the always-due schedule must fire at the builder's collection gate"
    );
    // Reference truth tables from network simulation.
    for m in 0..ROWS {
        let v: Vec<bool> = (0..NV).map(|i| (m >> i) & 1 == 1).collect();
        let expect = net.simulate(&v);
        for (o, e) in outs.iter().zip(&expect) {
            assert_eq!(o.eval(&v), *e, "metering build row {m}");
        }
    }
    drop(outs);

    // gates_built at abort is monotone in the injection point; the
    // smallest k reporting 1024 gates is an abort *at* the collection
    // gate — i.e. inside the scheduled sift (plain GC passes no
    // checkpoints).
    let gates_at = |k: u64| -> Option<usize> {
        let mgr = make();
        mgr.set_reorder_policy(Some(policy));
        let mut budget = metering_budget().inject_cancel_at(k);
        match try_build_network(&mgr, &net, &mut budget) {
            Ok(_) => None,
            Err(aborted) => {
                assert_eq!(aborted.reason, OpAbort::Cancelled, "k = {k}");
                Some(aborted.gates_built)
            }
        }
    };
    let (mut lo, mut hi) = (1u64, n);
    assert!(gates_at(lo).expect("k=1 must abort") < 1024);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        match gates_at(mid) {
            Some(g) if g < 1024 => lo = mid,
            _ => hi = mid,
        }
    }
    let k_sift = hi;

    // The abort at k_sift and the next few checkpoints land inside (or
    // just past) the scheduled sift; each must leave a consistent,
    // reusable manager.
    for k in [k_sift, k_sift + 1, k_sift + 2, k_sift + 7]
        .into_iter()
        .filter(|&k| k <= n)
    {
        let mgr = make();
        mgr.set_reorder_policy(Some(policy));
        let mut budget = metering_budget().inject_cancel_at(k);
        let aborted = try_build_network(&mgr, &net, &mut budget)
            .expect_err("k within the metered range must abort");
        assert_eq!(aborted.reason, OpAbort::Cancelled, "k = {k}");
        if k == k_sift {
            assert_eq!(
                aborted.gates_built, 1024,
                "first ≥1024 abort must be at the collection gate (the sift)"
            );
            assert_eq!(
                mgr.scheduled_reorders(),
                1,
                "an aborted scheduled sift still consumed its trigger"
            );
        }
        // Consistent order, balanced registry, structurally valid.
        let mut order = mgr.variable_order();
        order.sort_unstable();
        assert_eq!(order, (0..NV).collect::<Vec<_>>(), "order after k = {k}");
        assert_eq!(mgr.external_roots(), 0, "builder cleanup after k = {k}");
        mgr.validate_all().expect("structural invariants");
        mgr.gc();
        assert_eq!(mgr.live_nodes(), 0, "partial build reclaimed, k = {k}");
        // The same manager rebuilds the full network correctly.
        let outs = try_build_network(&mgr, &net, &mut metering_budget())
            .expect("rebuild after aborted scheduled sift");
        for m in 0..ROWS {
            let v: Vec<bool> = (0..NV).map(|i| (m >> i) & 1 == 1).collect();
            let expect = net.simulate(&v);
            for (o, e) in outs.iter().zip(&expect) {
                assert_eq!(o.eval(&v), *e, "rebuild row {m} after k = {k}");
            }
        }
    }
}

#[test]
fn scheduled_reorder_abort_inside_governed_build_bbdd() {
    scheduled_build_abort_sweep(|| BbddManager::with_vars(NV));
}

#[test]
fn scheduled_reorder_abort_inside_governed_build_robdd() {
    scheduled_build_abort_sweep(|| RobddManager::with_vars(NV));
}

#[test]
fn scheduled_reorder_abort_inside_governed_build_par() {
    scheduled_build_abort_sweep(|| ParBbddManager::new(ParBbdd::new(NV, 2)));
    scheduled_build_abort_sweep(|| ParRobddManager::new(ParRobdd::new(NV, 2)));
}

// ── Randomized aborts × random ops ───────────────────────────────────────

type Step = (u8, u8, u8, u8);

fn vars_of_mask(mask: u8) -> Vec<usize> {
    (0..NV).filter(|v| (mask >> v) & 1 == 1).collect()
}

/// A random script of governed ops with a random injection point: every
/// step that completes pushes its (handle, shadow) pair; the abort, if it
/// fires, must leave the usual invariant bundle intact.
fn random_abort_script<M: Diagnostics>(mgr: &M, steps: &[Step], inject_at: u64) {
    let mut budget = metering_budget().inject_cancel_at(inject_at);
    let mut slots: Vec<(M::Function, u32)> =
        vec![(mgr.constant(false), 0), (mgr.constant(true), !0)];
    for v in 0..NV {
        slots.push((mgr.var(v), tt_var(v)));
    }
    let mut aborted = false;
    for &(kind, a, b, c) in steps {
        let pick = |x: u8| x as usize % slots.len();
        let res: Result<Option<(M::Function, u32)>, OpAbort> = match kind % 6 {
            0 => {
                let (i, j) = (pick(a), pick(b));
                let op = BoolOp::from_table(c % 16);
                let mut t = 0u32;
                for m in 0..ROWS {
                    let x = (slots[i].1 >> m) & 1 == 1;
                    let y = (slots[j].1 >> m) & 1 == 1;
                    if op.eval(x, y) {
                        t |= 1 << m;
                    }
                }
                slots[i]
                    .0
                    .try_apply(op, &slots[j].0, &mut budget)
                    .map(|f| Some((f, t)))
            }
            1 => {
                let (i, j, k) = (pick(a), pick(b), pick(c));
                let t = (slots[i].1 & slots[j].1) | (!slots[i].1 & slots[k].1);
                slots[i]
                    .0
                    .try_ite(&slots[j].0, &slots[k].0, &mut budget)
                    .map(|f| Some((f, t)))
            }
            2 => {
                let i = pick(a);
                let vs = vars_of_mask(b);
                let t = tt_exists(slots[i].1, &vs);
                slots[i]
                    .0
                    .try_exists(&vs, &mut budget)
                    .map(|f| Some((f, t)))
            }
            3 => {
                let i = pick(a);
                let vs = vars_of_mask(b);
                let t = tt_forall(slots[i].1, &vs);
                slots[i]
                    .0
                    .try_forall(&vs, &mut budget)
                    .map(|f| Some((f, t)))
            }
            4 => {
                let (i, j) = (pick(a), pick(b));
                let vs = vars_of_mask(c);
                let t = tt_exists(slots[i].1 & slots[j].1, &vs);
                slots[i]
                    .0
                    .try_and_exists(&slots[j].0, &vs, &mut budget)
                    .map(|f| Some((f, t)))
            }
            _ => {
                // Handle drop, mid-script: governance must compose with
                // the GC machinery.
                if slots.len() > 1 {
                    let i = pick(a);
                    slots.swap_remove(i);
                }
                Ok(None)
            }
        };
        match res {
            Ok(Some(pair)) => slots.push(pair),
            Ok(None) => {}
            Err(reason) => {
                assert_eq!(reason, OpAbort::Cancelled, "only injection can fire");
                aborted = true;
                break;
            }
        }
    }
    let _ = aborted; // scripts short of the injection point finish clean
    mgr.validate_all().unwrap();
    for (idx, (f, tt)) in slots.iter().enumerate() {
        check_tt(&format!("slot {idx}"), f, *tt);
    }
    drop(slots);
    mgr.gc();
    assert_eq!(mgr.external_roots(), 0, "registry must drain");
    assert_eq!(mgr.live_nodes(), 0, "orphans must be GC-reclaimed");
    mgr.validate_all().unwrap();
}

// ── Session-scoped fault injection (the MVCC serving layer) ──────────────
//
// Same discipline as the manager sweeps, one layer up: a deterministic
// session workload (apply/quantify/compose/sat_count/CEC against published
// functions) is metered, then aborted at every checkpoint. After each
// abort the *session* must stay usable (the same session finishes the
// whole workload clean), the *shared base* must be untouched (published
// functions still evaluate correctly, fresh sessions still fork), and
// once every session drops the epoch tracker must report zero live
// overlay nodes — the no-leak proof for the serving layer.

/// The published workload library: a parity and a lopsided mix over the
/// same NV inputs as the manager sweeps.
fn serving_net() -> logicnet::Network {
    use logicnet::{GateOp, Network};
    let mut net = Network::new("served");
    let xs: Vec<_> = (0..NV).map(|i| net.add_input(&format!("x{i}"))).collect();
    let p01 = net.add_gate(GateOp::Xor, &[xs[0], xs[1]]);
    let par = net.add_gate(GateOp::Xor, &[p01, xs[2]]);
    let and = net.add_gate(GateOp::And, &[xs[0], xs[3]]);
    let mix = net.add_gate(GateOp::Or, &[and, xs[4]]);
    net.set_output("par", par);
    net.set_output("mix", mix);
    net.check().unwrap();
    net
}

/// The deterministic in-session op mix, all through one caller budget.
fn session_workload<B: ddcore::session::SessionBackend>(
    s: &mut ddcore::session::Session<B>,
    budget: &mut OpBudget,
) -> Result<(), ddcore::session::SessionError> {
    s.apply(BoolOp::AND, "par", "mix", Some("t_and"), budget)?;
    s.apply(BoolOp::XOR, "t_and", "mix", Some("t_xor"), budget)?;
    s.quantify(true, "t_xor", &[0, 2], Some("t_ex"), budget)?;
    s.quantify(false, "t_and", &[4], Some("t_fa"), budget)?;
    s.compose("mix", 4, "par", Some("t_comp"), budget)?;
    let _ = s.sat_count("t_comp", budget)?;
    let _ = s.cec("par", "mix", budget)?;
    Ok(())
}

fn session_sweep<B: ddcore::session::SessionBackend>(make: impl Fn() -> B) {
    use ddcore::session::SessionError;
    let net = serving_net();
    let base = logicnet::publish::publish_networks_on(make(), &[&net])
        .expect("publish the serving library");

    // Metering run: count the workload's checkpoints.
    let mut s = base.session();
    let mut meter = metering_budget();
    session_workload(&mut s, &mut meter).expect("metering session run must complete");
    let n = meter.used();
    assert!(n > 0, "session workload must pass checkpoints");
    drop(s);

    for k in 1..=n {
        let mut s = base.session();
        let mut budget = metering_budget().inject_cancel_at(k);
        let res = session_workload(&mut s, &mut budget);
        assert!(
            matches!(res, Err(SessionError::Aborted(OpAbort::Cancelled))),
            "session k = {k} of {n}: {res:?}"
        );
        // The aborted session is still serviceable: the identical workload
        // completes on it (stores overwrite their earlier partial set).
        session_workload(&mut s, &mut metering_budget())
            .expect("aborted session must finish the workload clean");
        drop(s);
        // The shared base never felt the abort: every published function
        // still denotes its network output, and fresh sessions fork fine.
        for m in 0..ROWS {
            let v: Vec<bool> = (0..NV).map(|i| (m >> i) & 1 == 1).collect();
            let expect = net.simulate(&v);
            assert_eq!(base.eval("par", &v), Some(expect[0]), "k = {k} row {m}");
            assert_eq!(base.eval("mix", &v), Some(expect[1]), "k = {k} row {m}");
        }
    }

    // No overlay leak across the whole sweep: every session dropped, so
    // the tracker's session.* gauges must be back to zero while the
    // reclaim counters prove the overlays were actually torn down.
    let t = base.tracker();
    assert_eq!(t.sessions_live(), 0, "all sweep sessions dropped");
    assert_eq!(
        t.overlay_nodes(),
        0,
        "overlay nodes leaked past session drop"
    );
    assert!(
        t.nodes_reclaimed() > 0,
        "the sweep must have reclaimed overlays"
    );
    let mut m = ddcore::obs::MetricsSnapshot::new("session-sweep");
    t.fill(&mut m);
    assert_eq!(m.get("session.live"), Some(0));
    assert_eq!(m.get("session.nodes"), Some(0));
    assert_eq!(
        m.get("session.created"),
        Some(n + 1),
        "one session per k plus metering"
    );
    assert!(
        m.get("session.ops_aborted").unwrap_or(0) >= n,
        "every k aborted one op"
    );
}

#[test]
fn session_fault_injection_bbdd() {
    session_sweep(|| Bbdd::new(NV));
}

#[test]
fn session_fault_injection_robdd() {
    session_sweep(|| Robdd::new(NV));
}

#[test]
fn session_fault_injection_par_bbdd() {
    for threads in [1usize, 4] {
        session_sweep(move || {
            ParBbdd::with_config(
                NV,
                bbdd::ParConfig {
                    threads,
                    cutoff: 0,
                    split_depth: Some(2),
                    cache_ways: 1 << 10,
                    shards: 8,
                },
            )
        });
    }
}

#[test]
fn session_fault_injection_par_robdd() {
    for threads in [1usize, 4] {
        session_sweep(move || {
            ParRobdd::with_config(
                NV,
                robdd::ParConfig {
                    threads,
                    cutoff: 0,
                    split_depth: Some(2),
                    cache_ways: 1 << 10,
                    shards: 8,
                },
            )
        });
    }
}

// ── Randomized-abort properties over the scripts above ───────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_aborts_bbdd(
        steps in proptest::collection::vec(
            (0u8..6, any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        inject in 1u64..96,
    ) {
        random_abort_script(&BbddManager::with_vars(NV), &steps, inject);
    }

    #[test]
    fn random_aborts_robdd(
        steps in proptest::collection::vec(
            (0u8..6, any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        inject in 1u64..96,
    ) {
        random_abort_script(&RobddManager::with_vars(NV), &steps, inject);
    }

    #[test]
    fn random_aborts_par_bbdd(
        steps in proptest::collection::vec(
            (0u8..6, any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
        inject in 1u64..96,
    ) {
        for threads in [1usize, 4] {
            random_abort_script(&par_bbdd(threads), &steps, inject);
        }
    }

    #[test]
    fn random_aborts_par_robdd(
        steps in proptest::collection::vec(
            (0u8..6, any::<u8>(), any::<u8>(), any::<u8>()), 1..16),
        inject in 1u64..96,
    ) {
        for threads in [1usize, 4] {
            random_abort_script(&par_robdd(threads), &steps, inject);
        }
    }
}
