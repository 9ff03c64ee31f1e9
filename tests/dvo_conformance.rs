//! The reorder-torture conformance suite for the dynamic-variable-ordering
//! engine (`ddcore::dvo`): **semantic invariance under every strategy ×
//! schedule combination**, on all four managers (the parallel pair at
//! thread counts 1 and 4), proven against 32-entry shadow truth tables —
//! including scheduled sifts that fire mid-construction and scheduled
//! sifts that *abort* mid-move under an injected budget.
//!
//! Everything runs through the `ddcore::api` trait family only: the same
//! driver torture-tests `bbdd`, `robdd` and both parallel front-ends, so a
//! backend can only pass by implementing the whole reorder contract
//! (policy install, strategy dispatch, scheduled firing, budgeted abort
//! with order park-back, `set_order`).

use bbdd::prelude::*;
use ddcore::dvo::{DvoPolicy, DvoStrategy, ReorderSchedule};
use ddcore::govern::{OpAbort, OpBudget};
use robdd::prelude::*;

const NV: usize = 5;
const ROWS: u32 = 32;

/// Truth table of variable `v`: row `m` has variable `v` = bit `v` of `m`.
fn tt_var(v: usize) -> u32 {
    let mut t = 0u32;
    for m in 0..ROWS {
        if (m >> v) & 1 == 1 {
            t |= 1 << m;
        }
    }
    t
}

fn assignment_of(m: u32) -> Vec<bool> {
    (0..NV).map(|v| (m >> v) & 1 == 1).collect()
}

/// Every surviving handle must still denote its shadow table, bit by bit.
fn check_all<F: BooleanFunction>(label: &str, pool: &[(F, u32)]) {
    for (i, (f, tt)) in pool.iter().enumerate() {
        for m in 0..ROWS {
            assert_eq!(
                f.eval(&assignment_of(m)),
                (tt >> m) & 1 == 1,
                "{label}: handle {i} disagrees with its shadow table on row {m}"
            );
        }
        assert_eq!(
            f.sat_count(),
            u128::from(tt.count_ones()),
            "{label}: handle {i} sat_count"
        );
    }
}

/// The variable order must stay a permutation of `0..NV` at all times.
fn check_order<M: FunctionManager>(label: &str, mgr: &M) {
    let mut order = mgr.variable_order();
    order.sort_unstable();
    assert_eq!(
        order,
        (0..NV).collect::<Vec<_>>(),
        "{label}: order must stay a permutation"
    );
}

/// A deterministic entangled workload: literals plus LCG-chosen binary
/// combinations, kept alive with their shadow tables. Grows enough nodes
/// to give growth/creation schedules something to fire on.
fn workload<M: FunctionManager>(mgr: &M, rounds: usize) -> Vec<(M::Function, u32)> {
    let mut pool: Vec<(M::Function, u32)> = Vec::new();
    for v in 0..NV {
        pool.push((mgr.var(v), tt_var(v)));
    }
    let mut state = 0xD1CE_5EEDu64;
    for _ in 0..rounds {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (state >> 18) as usize % pool.len();
        let j = (state >> 34) as usize % pool.len();
        let (f, tf) = (&pool[i].0, pool[i].1);
        let (g, tg) = (&pool[j].0, pool[j].1);
        let (h, th) = match (state >> 50) % 4 {
            0 => (f.and(g), tf & tg),
            1 => (f.or(g), tf | tg),
            2 => (f.xor(g), tf ^ tg),
            _ => (f.xnor(g), !(tf ^ tg)),
        };
        pool.push((h, th));
        // The documented collection gate generic drivers poll — a due
        // scheduled reorder fires here, mid-workload.
        if pool.len() % 7 == 0 {
            mgr.collect();
        }
    }
    pool
}

const STRATEGIES: [DvoStrategy; 4] = [
    DvoStrategy::Full,
    DvoStrategy::Window(1),
    DvoStrategy::Window(2),
    DvoStrategy::Pair,
];

fn schedules() -> [ReorderSchedule; 4] {
    [
        ReorderSchedule::Never,
        ReorderSchedule::NodeThreshold(24),
        ReorderSchedule::GrowthFactor(1.5),
        ReorderSchedule::EveryCreations(64),
    ]
}

/// One strategy × schedule cell: install the policy, run the entangled
/// workload with collection gates, reorder explicitly, install an
/// adversarial static order — the truth tables must survive all of it.
fn torture_cell<M: FunctionManager>(mgr: &M, policy: DvoPolicy) {
    let label = format!("policy {policy}");
    mgr.set_reorder_policy(Some(policy));
    assert_eq!(mgr.reorder_policy(), Some(policy), "{label}: install");
    // The GC latch boundary is the schedule's in-operation firing point.
    mgr.set_gc_threshold(16);

    let pool = workload(mgr, 40);
    check_all(&label, &pool);
    check_order(&label, mgr);

    // Explicit reorder runs the installed policy's strategy.
    let n = mgr
        .reorder()
        .expect("all four managers support dynamic reordering");
    assert_eq!(n, mgr.live_nodes(), "{label}: reorder reports live count");
    check_all(&format!("{label} after explicit reorder"), &pool);
    check_order(&label, mgr);

    // An adversarial static order (reversed) must also preserve handles.
    let reversed: Vec<usize> = (0..NV).rev().collect();
    assert!(mgr.set_order(&reversed), "{label}: set_order supported");
    check_all(&format!("{label} after reversed set_order"), &pool);
    check_order(&label, mgr);

    // And every *other* strategy must be runnable over the same diagram
    // regardless of the installed policy.
    for strategy in STRATEGIES {
        mgr.reorder_with(strategy)
            .expect("strategy dispatch supported");
        check_all(&format!("{label} after reorder_with {strategy}"), &pool);
        check_order(&label, mgr);
    }

    drop(pool);
    mgr.set_reorder_policy(None);
    assert_eq!(mgr.reorder_policy(), None, "{label}: clear");
    mgr.gc();
    assert_eq!(mgr.external_roots(), 0, "{label}: registry drains");
    assert_eq!(mgr.live_nodes(), 0, "{label}: no leaked nodes");
}

/// Budget-aborted sifts: explicit `try_reorder_with` at several injected
/// checkpoints, and a *scheduled* sift aborted inside the governed
/// collection gate. On every abort the order is consistent, every handle
/// still evaluates correctly and the manager stays fully usable.
fn abort_cell<M: FunctionManager>(mgr: &M, strategy: DvoStrategy) {
    let label = format!("abort {strategy}");
    let pool = workload(mgr, 30);

    for checkpoint in [1u64, 2, 3, 5, 8] {
        let mut budget = OpBudget::unlimited().inject_cancel_at(checkpoint);
        match mgr.try_reorder_with(strategy, &mut budget) {
            Some(Err(OpAbort::Cancelled)) => {}
            Some(Ok(_)) => {} // strategy finished before the checkpoint
            other => panic!("{label}: unexpected result {other:?}"),
        }
        check_order(&format!("{label} checkpoint {checkpoint}"), mgr);
        check_all(&format!("{label} checkpoint {checkpoint}"), &pool);
    }

    // Scheduled firing through the governed gate: arm an immediately-due
    // schedule, then collect under a budget that dies at the first
    // checkpoint. try_collect must surface the abort, consume the trigger
    // (no re-fire storm) and leave everything consistent.
    mgr.set_reorder_policy(Some(DvoPolicy {
        strategy,
        schedule: ReorderSchedule::NodeThreshold(1),
    }));
    let mut budget = OpBudget::unlimited().inject_cancel_at(1);
    match mgr.try_collect(&mut budget) {
        Err(OpAbort::Cancelled) => {}
        Ok(_) => panic!("{label}: a due scheduled sift must hit the injected cancel"),
        Err(other) => panic!("{label}: wrong abort reason {other}"),
    }
    check_order(&format!("{label} scheduled abort"), mgr);
    check_all(&format!("{label} scheduled abort"), &pool);
    // The trigger was consumed: the next governed gate must not re-fire
    // immediately (the workload has not grown since).
    assert_eq!(
        mgr.try_collect(&mut OpBudget::unlimited()),
        Ok(false),
        "{label}: aborted scheduled sift must consume its trigger"
    );
    // An unbudgeted reorder completes and the handles still check out.
    mgr.reorder().expect("reorder after aborted schedule");
    check_all(&format!("{label} post-abort reorder"), &pool);

    drop(pool);
    mgr.set_reorder_policy(None);
    mgr.gc();
    assert_eq!(mgr.external_roots(), 0, "{label}: registry drains");
    assert_eq!(mgr.live_nodes(), 0, "{label}: no leaked nodes");
}

macro_rules! dvo_suite {
    ($($name:ident => $mk:expr;)*) => {$(
        mod $name {
            use super::*;

            #[test]
            fn every_strategy_times_schedule_preserves_semantics() {
                for strategy in STRATEGIES {
                    for schedule in schedules() {
                        let mgr = $mk;
                        torture_cell(&mgr, DvoPolicy { strategy, schedule });
                    }
                }
            }

            #[test]
            fn aborted_sifts_leave_a_consistent_manager() {
                for strategy in STRATEGIES {
                    let mgr = $mk;
                    abort_cell(&mgr, strategy);
                }
            }
        }
    )*};
}

fn par_bbdd(threads: usize) -> ParBbddManager {
    ParBbddManager::new(ParBbdd::with_config(
        NV,
        bbdd::ParConfig {
            threads,
            cutoff: 0,
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

dvo_suite! {
    bbdd_dvo => BbddManager::with_vars(NV);
    robdd_dvo => RobddManager::with_vars(NV);
    par_bbdd_dvo_t1 => par_bbdd(1);
    par_bbdd_dvo_t4 => par_bbdd(4);
    par_robdd_dvo_t1 => par_robdd(1);
    par_robdd_dvo_t4 => par_robdd(4);
}

// The sift bound (`ReorderBackend::settled_width`) on the raw managers:
// every size a direction can still reach is at least the bound, and the
// engine's cut on it changes no result.

use ddcore::boolop::BoolOp;
use ddcore::dvo::ReorderBackend;
use ddcore::roots::RootGuard;

/// What the bound tests need from a raw manager beyond the reorder
/// contract.
trait RawSift: ReorderBackend + Sized {
    type E: Copy;
    fn with_vars(n: usize) -> Self;
    fn lit(&mut self, v: usize) -> Self::E;
    fn op(&mut self, op: BoolOp, f: Self::E, g: Self::E) -> Self::E;
    fn hold(&self, f: Self::E) -> RootGuard;
    fn swaps(&self) -> u64;
}

impl RawSift for bbdd::Bbdd {
    type E = bbdd::Edge;
    fn with_vars(n: usize) -> Self {
        bbdd::Bbdd::new(n)
    }
    fn lit(&mut self, v: usize) -> bbdd::Edge {
        self.var(v)
    }
    fn op(&mut self, op: BoolOp, f: bbdd::Edge, g: bbdd::Edge) -> bbdd::Edge {
        self.apply(op, f, g)
    }
    fn hold(&self, f: bbdd::Edge) -> RootGuard {
        self.pin(f)
    }
    fn swaps(&self) -> u64 {
        self.stats().swaps
    }
}

impl RawSift for robdd::Robdd {
    type E = robdd::Edge;
    fn with_vars(n: usize) -> Self {
        robdd::Robdd::new(n)
    }
    fn lit(&mut self, v: usize) -> robdd::Edge {
        self.var(v)
    }
    fn op(&mut self, op: BoolOp, f: robdd::Edge, g: robdd::Edge) -> robdd::Edge {
        self.apply(op, f, g)
    }
    fn hold(&self, f: robdd::Edge) -> RootGuard {
        self.pin(f)
    }
    fn swaps(&self) -> u64 {
        self.stats().swaps
    }
}

/// Three pinned random functions over `n` variables, each over its own
/// stretch of variables (so some pairs share no support), plus unpinned
/// garbage for the opening collection.
fn random_forest<B: RawSift>(n: usize, seed: u64) -> (B, Vec<RootGuard>) {
    let mut mgr = B::with_vars(n);
    let ops = [
        BoolOp::XOR,
        BoolOp::AND,
        BoolOp::OR,
        BoolOp::XNOR,
        BoolOp::NAND,
    ];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut roots = Vec::new();
    for _ in 0..6 {
        let lo = next() % n;
        let span = 2 + next() % (n - 1);
        let mut f = mgr.lit(lo);
        for _ in 0..2 * span {
            let v = mgr.lit((lo + next() % span) % n);
            f = mgr.op(ops[next() % ops.len()], f, v);
        }
        roots.push(f);
    }
    let guards = roots.iter().step_by(2).map(|&f| mgr.hold(f)).collect();
    (mgr, guards)
}

fn order_of<B: ReorderBackend>(b: &B) -> Vec<usize> {
    (0..b.num_vars()).map(|p| b.var_at_position(p)).collect()
}

/// From every start position and in both directions, move a group of
/// `len` through every remaining position.
fn bound_is_sound<B: RawSift>(label: &str) {
    for n in [4, 7, 10] {
        for seed in 0..4u64 {
            for len in [1, 2] {
                for start in 0..=n - len {
                    for down in [true, false] {
                        let case = format!(
                            "{label} n={n} seed={seed} len={len} start={start} down={down}"
                        );
                        let (mut b, _roots) = random_forest::<B>(n, seed);
                        b.begin_reorder();
                        walk_checking_bound(&case, &mut b, start, len, down);
                        b.end_reorder();
                    }
                }
            }
        }
    }
}

/// Move the group at `top .. top + len` to the end of the order in one
/// direction. Each size must be at least every bound reported before it,
/// and the first bound must fit inside the levels the moves really left
/// alone: the widths of the non-group variables whose level never
/// changed.
fn walk_checking_bound<B: ReorderBackend>(
    case: &str,
    b: &mut B,
    mut top: usize,
    len: usize,
    down: bool,
) {
    let n = b.num_vars();
    let first = b.settled_width(top, len, down);
    let mut bound = first;
    assert!(b.sweep() >= bound, "{case}: bound above the current size");
    let group: Vec<usize> = (top..top + len).map(|p| b.var_at_position(p)).collect();
    let widths: Vec<usize> = (0..n).map(|v| b.var_width(v)).collect();
    let mut untouched: Vec<bool> = (0..n).map(|v| !group.contains(&v)).collect();
    while (down && top + len < n) || (!down && top > 0) {
        if down {
            for i in (0..len).rev() {
                b.swap_positions(top + i);
            }
            top += 1;
        } else {
            for i in 0..len {
                b.swap_positions(top - 1 + i);
            }
            top -= 1;
        }
        let size = b.sweep();
        assert!(
            size >= bound,
            "{case}: size {size} at {top} below bound {bound}"
        );
        bound = bound.max(b.settled_width(top, len, down));
        for (v, same) in untouched.iter_mut().enumerate() {
            *same &= b.var_width(v) == widths[v];
        }
    }
    let unchanged: usize = (0..n).filter(|&v| untouched[v]).map(|v| widths[v]).sum();
    assert!(
        first <= unchanged,
        "{case}: bound {first} exceeds the {unchanged} nodes no move changed"
    );
}

/// Delegates the whole reorder contract but keeps the default (absent)
/// bound.
struct NoBound<'a, B>(&'a mut B);

impl<B: ReorderBackend> ReorderBackend for NoBound<'_, B> {
    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }
    fn position_of(&self, var: usize) -> usize {
        self.0.position_of(var)
    }
    fn var_at_position(&self, pos: usize) -> usize {
        self.0.var_at_position(pos)
    }
    fn swap_positions(&mut self, pos: usize) {
        self.0.swap_positions(pos);
    }
    fn sweep(&mut self) -> usize {
        self.0.sweep()
    }
    fn begin_reorder(&mut self) {
        self.0.begin_reorder();
    }
    fn end_reorder(&mut self) -> usize {
        self.0.end_reorder()
    }
    fn var_width(&self, var: usize) -> usize {
        self.0.var_width(var)
    }
    fn pair_affinity(&self, pos: usize) -> f64 {
        self.0.pair_affinity(pos)
    }
}

/// Full, window and pair sift reach the same order and live count with
/// and without the bound, and the bound never costs a swap.
fn bound_changes_no_result<B: RawSift>(label: &str) {
    let mut saved = 0;
    for n in [4, 7, 10] {
        for seed in 0..6u64 {
            for strategy in [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair] {
                let (mut bounded, _r1) = random_forest::<B>(n, seed);
                let (mut plain, _r2) = random_forest::<B>(n, seed);
                let unlimited = &mut OpBudget::unlimited();
                let live = strategy.run(&mut bounded, unlimited).expect("unlimited");
                let live_plain = strategy
                    .run(&mut NoBound(&mut plain), unlimited)
                    .expect("unlimited");
                let case = format!("{label} {strategy} n={n} seed={seed}");
                assert_eq!(order_of(&bounded), order_of(&plain), "{case}: order");
                assert_eq!(live, live_plain, "{case}: live count");
                assert!(bounded.swaps() <= plain.swaps(), "{case}: swaps");
                saved += plain.swaps() - bounded.swaps();
            }
        }
    }
    assert!(saved > 0, "{label}: the bound never cut a direction");
}

#[test]
fn bbdd_sift_bound_is_sound() {
    bound_is_sound::<bbdd::Bbdd>("bbdd");
}

#[test]
fn robdd_sift_bound_is_sound() {
    bound_is_sound::<robdd::Robdd>("robdd");
}

#[test]
fn bbdd_sift_bound_changes_no_result() {
    bound_changes_no_result::<bbdd::Bbdd>("bbdd");
}

#[test]
fn robdd_sift_bound_changes_no_result() {
    bound_changes_no_result::<robdd::Robdd>("robdd");
}
