//! The `ddcore::api` conformance suite: every [`BooleanFunction`] /
//! [`FunctionManager`] operation, exercised against 32-entry shadow truth
//! tables, macro-instantiated for **all four managers** (the parallel
//! pair at thread counts 1 and 4).
//!
//! Everything below runs through the trait API only — no edge-level
//! calls, no backend-specific methods. This is the single suite that
//! replaces the per-crate copies of the handle-operation property tests:
//! a fifth backend gets full op coverage by adding one line to the macro
//! invocation at the bottom.

use bbdd::prelude::*;
use ddcore::api::RawManager;
use ddcore::dvo::{DvoPolicy, DvoStrategy};
use ddcore::govern::{CancelToken, OpAbort, OpBudget};
use ddcore::obs;
use ddcore::MetricKind;
use robdd::prelude::*;
use std::time::{Duration, Instant};

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

/// Row index of `assignment`.
fn row_of(assignment: &[bool]) -> u32 {
    assignment
        .iter()
        .enumerate()
        .fold(0, |m, (v, &b)| if b { m | (1 << v) } else { m })
}

fn assignment_of(m: u32) -> Vec<bool> {
    (0..NV).map(|v| (m >> v) & 1 == 1).collect()
}

/// Check a handle against its shadow table through every query op.
fn check<F: BooleanFunction>(label: &str, f: &F, tt: u32) {
    for m in 0..ROWS {
        assert_eq!(
            f.eval(&assignment_of(m)),
            (tt >> m) & 1 == 1,
            "{label}: eval disagrees on row {m}"
        );
    }
    assert_eq!(
        f.sat_count(),
        u128::from(tt.count_ones()),
        "{label}: sat_count"
    );
    match f.any_sat() {
        Some(w) => {
            assert!(tt != 0, "{label}: any_sat on UNSAT");
            assert_eq!((tt >> row_of(&w)) & 1, 1, "{label}: any_sat not a model");
        }
        None => assert_eq!(tt, 0, "{label}: any_sat missed a model"),
    }
    let all = f.all_sat(ROWS as usize);
    assert_eq!(all.len(), tt.count_ones() as usize, "{label}: all_sat size");
    for w in &all {
        assert_eq!((tt >> row_of(w)) & 1, 1, "{label}: all_sat non-model");
    }
    let support = f.support();
    for v in 0..NV {
        let depends = tt_restrict(tt, v, true) != tt_restrict(tt, v, false);
        assert_eq!(
            support.contains(&v),
            depends,
            "{label}: support disagrees on variable {v}"
        );
    }
    assert_eq!(f.is_true(), tt == !0, "{label}: is_true");
    assert_eq!(f.is_false(), tt == 0, "{label}: is_false");
    assert_eq!(f.is_constant(), tt == 0 || tt == !0, "{label}: is_constant");
    if f.is_constant() {
        assert_eq!(f.node_count(), 0, "{label}: constants have no nodes");
    } else {
        assert!(f.node_count() > 0, "{label}: node_count");
    }
}

/// A deterministic pool of (handle, shadow-table) pairs to draw operands
/// from: literals, constants and a few composites.
fn pool<M: FunctionManager>(mgr: &M) -> Vec<(M::Function, u32)> {
    let mut pool: Vec<(M::Function, u32)> = Vec::new();
    pool.push((mgr.constant(false), 0));
    pool.push((mgr.constant(true), !0));
    for v in 0..NV {
        pool.push((mgr.var(v), tt_var(v)));
        pool.push((mgr.nvar(v), !tt_var(v)));
    }
    // Composites seeded by a fixed LCG so every backend sees the same mix.
    let mut state = 0xD1CE_5EEDu64;
    for _ in 0..12 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (state >> 18) as usize % pool.len();
        let j = (state >> 34) as usize % pool.len();
        let op = BoolOp::from_table((state >> 50) as u8 % 16);
        let tt = {
            let mut t = 0u32;
            for m in 0..ROWS {
                if op.eval((pool[i].1 >> m) & 1 == 1, (pool[j].1 >> m) & 1 == 1) {
                    t |= 1 << m;
                }
            }
            t
        };
        let f = pool[i].0.apply(op, &pool[j].0);
        pool.push((f, tt));
    }
    pool
}

/// The conformance body, generic over the manager: every trait operation
/// against the shadow model.
fn conformance<M: FunctionManager>(mgr: &M) {
    assert_eq!(mgr.num_vars(), NV);
    assert_eq!(mgr.variable_order().len(), NV);
    let pool = pool(mgr);
    for (f, tt) in &pool {
        check("pool", f, *tt);
    }

    // Binary ops: all 16 operators over a sample of operand pairs, plus
    // the named wrappers.
    for (i, j) in [(0usize, 1usize), (2, 4), (3, 17), (10, 15), (16, 18)] {
        let (fi, ti) = &pool[i % pool.len()];
        let (fj, tj) = &pool[j % pool.len()];
        for op in BoolOp::all() {
            let mut tt = 0u32;
            for m in 0..ROWS {
                if op.eval((ti >> m) & 1 == 1, (tj >> m) & 1 == 1) {
                    tt |= 1 << m;
                }
            }
            check("apply", &fi.apply(op, fj), tt);
        }
        check("and", &fi.and(fj), ti & tj);
        check("or", &fi.or(fj), ti | tj);
        check("xor", &fi.xor(fj), ti ^ tj);
        check("xnor", &fi.xnor(fj), !(ti ^ tj));
        check("nand", &fi.nand(fj), !(ti & tj));
        check("nor", &fi.nor(fj), !(ti | tj));
        check("imp", &fi.imp(fj), !ti | tj);
        check("not", &fi.not(), !ti);
    }

    // ITE over operand triples.
    for (i, j, k) in [(2usize, 4usize, 6usize), (12, 3, 18), (17, 16, 5)] {
        let (fi, ti) = &pool[i % pool.len()];
        let (fj, tj) = &pool[j % pool.len()];
        let (fk, tk) = &pool[k % pool.len()];
        check("ite", &fi.ite(fj, fk), (ti & tj) | (!ti & tk));
    }

    // Quantification, restriction, cofactors over several cubes.
    for (idx, mask) in [(14usize, 0b00101u8), (16, 0b11010), (18, 0b00011)] {
        let (f, tt) = &pool[idx % pool.len()];
        let vars: Vec<usize> = (0..NV).filter(|v| (mask >> v) & 1 == 1).collect();
        check("exists", &f.exists(&vars), tt_exists(*tt, &vars));
        check("forall", &f.forall(&vars), tt_forall(*tt, &vars));
        let (g, tg) = &pool[(idx + 3) % pool.len()];
        check(
            "and_exists",
            &f.and_exists(g, &vars),
            tt_exists(tt & tg, &vars),
        );
        let v = vars[0];
        check("restrict1", &f.restrict(v, true), tt_restrict(*tt, v, true));
        check(
            "restrict0",
            &f.restrict(v, false),
            tt_restrict(*tt, v, false),
        );
        let (hi, lo) = f.cofactors(v);
        check("cofactor_hi", &hi, tt_restrict(*tt, v, true));
        check("cofactor_lo", &lo, tt_restrict(*tt, v, false));
    }

    // Composition: single substitution vs the simultaneous form.
    {
        let (f, tf) = &pool[16 % pool.len()];
        let (g, tg) = &pool[9 % pool.len()];
        let var = 2;
        let expect = (tg & tt_restrict(*tf, var, true)) | (!tg & tt_restrict(*tf, var, false));
        check("compose", &f.compose(var, g), expect);
        let mut subs: Vec<Option<M::Function>> = vec![None; NV];
        subs[var] = Some(g.clone());
        check("vector_compose", &f.vector_compose(&subs), expect);
        // Simultaneous swap of two variables — the case single composes
        // cannot express.
        let mut swap: Vec<Option<M::Function>> = vec![None; NV];
        swap[0] = Some(mgr.var(1));
        swap[1] = Some(mgr.var(0));
        let mut expect_swap = 0u32;
        for m in 0..ROWS {
            let b0 = (m >> 1) & 1; // new value of variable 0
            let b1 = m & 1;
            let source = (m & !0b11) | (b0) | (b1 << 1);
            if (tf >> source) & 1 == 1 {
                expect_swap |= 1 << m;
            }
        }
        check("vector_compose_swap", &f.vector_compose(&swap), expect_swap);
    }

    // Manager-level surface: shared counts, GC accounting, DOT export.
    let handles: Vec<M::Function> = pool.iter().map(|(f, _)| f.clone()).collect();
    assert!(mgr.shared_node_count(&handles) > 0);
    let dot = mgr.to_dot(&handles[..2], &["a", "b"]);
    assert!(!dot.is_empty(), "to_dot must render something");
    let profile = mgr
        .level_profile(&handles)
        .expect("all four backends expose a level profile");
    assert_eq!(profile.len(), NV);
    assert_eq!(
        profile.iter().sum::<usize>(),
        mgr.shared_node_count(&handles),
        "level profile must account for every reachable node"
    );
    drop(handles);
    drop(pool);
    mgr.gc();
    assert_eq!(mgr.external_roots(), 0, "registry drains");
    assert_eq!(mgr.live_nodes(), 0, "sink-only after all handles drop");
    assert_eq!(mgr.gc_threshold(), 0);
    mgr.set_gc_threshold(64);
    assert_eq!(mgr.gc_threshold(), 64);
    mgr.collect();

    // Manager identity round-trips through handles.
    let f = mgr.var(0);
    let same = f.manager().var(0);
    assert_eq!(f, same, "manager() addresses the same backend");
}

/// The `try_*` conformance section: governed ops agree with their
/// infallible twins under an unlimited budget, every abort reason
/// surfaces through the trait, and the manager stays usable after each
/// abort.
fn govern_conformance<M: FunctionManager>(mgr: &M) {
    // Fresh, entangled operands so the governed ops do real work (a
    // cache-hit op passes no checkpoints and cannot abort).
    let parity = |mgr: &M, budget: &mut OpBudget| -> Result<M::Function, OpAbort> {
        let mut acc = mgr.var(0);
        for v in 1..NV {
            acc = acc.try_xor(&mgr.var(v), budget)?;
        }
        Ok(acc)
    };
    let parity_tt = (0..NV).fold(0u32, |t, v| t ^ tt_var(v));

    // Unlimited budget: same result as the infallible op, no abort.
    let f = parity(mgr, &mut OpBudget::unlimited()).expect("unlimited budget never aborts");
    check("try parity", &f, parity_tt);
    let g = f
        .try_ite(&mgr.var(1), &mgr.var(3), &mut OpBudget::unlimited())
        .expect("ite");
    check(
        "try ite",
        &g,
        (parity_tt & tt_var(1)) | (!parity_tt & tt_var(3)),
    );
    assert_eq!(
        f.try_sat_count(&mut OpBudget::unlimited()),
        Ok(f.sat_count()),
        "governed counting agrees"
    );
    assert_eq!(
        f.sat_count_checked(),
        Some(f.sat_count()),
        "checked counting agrees at 5 variables"
    );
    assert_eq!(
        f.try_exists(&[0, 2], &mut OpBudget::unlimited()).as_ref(),
        Ok(&f.exists(&[0, 2])),
        "governed quantification agrees"
    );
    drop(g);
    drop(f);
    mgr.gc();

    // Each abort reason surfaces, and the manager survives every abort:
    // the same parity build completes infallibly right after.
    let aborts: Vec<(&str, OpBudget, OpAbort)> = vec![
        (
            "node budget",
            OpBudget::unlimited().with_node_limit(1),
            OpAbort::NodeBudget,
        ),
        (
            "deadline",
            OpBudget::unlimited()
                .with_deadline(Instant::now() - Duration::from_millis(1))
                .with_poll_stride(1),
            OpAbort::Deadline,
        ),
        (
            "cancelled",
            {
                let token = CancelToken::new();
                token.cancel();
                OpBudget::unlimited()
                    .with_cancel(&token)
                    .with_poll_stride(1)
            },
            OpAbort::Cancelled,
        ),
    ];
    for (label, mut budget, expect) in aborts {
        let res = parity(mgr, &mut budget);
        assert_eq!(res.err(), Some(expect), "{label}: abort reason");
        mgr.gc();
        // Usable after the abort, and no leaked registry slots.
        let f = parity(mgr, &mut OpBudget::unlimited()).expect("post-abort build");
        check(&format!("post-{label} parity"), &f, parity_tt);
        drop(f);
        mgr.gc();
        assert_eq!(mgr.external_roots(), 0, "{label}: registry drains");
        assert_eq!(mgr.live_nodes(), 0, "{label}: no leaked nodes");
    }

    // One budget spans a multi-op request: node headroom depletes across
    // calls until the request as a whole runs out.
    let mut budget = OpBudget::unlimited().with_node_limit(10_000);
    let before = budget.nodes_remaining();
    let f = parity(mgr, &mut budget).expect("plenty of headroom");
    assert!(
        budget.nodes_remaining() < before,
        "a governed op must deplete the shared budget"
    );
    drop(f);
    mgr.gc();

    // Governed reordering either aborts cleanly or is unsupported; both
    // answers must keep the manager consistent.
    let keep = parity(mgr, &mut OpBudget::unlimited()).expect("build for sift");
    match mgr.try_reorder(&mut OpBudget::unlimited().inject_cancel_at(1)) {
        None => assert!(mgr.reorder().is_none(), "capability answers must agree"),
        Some(res) => {
            assert_eq!(res, Err(OpAbort::Cancelled), "injection at checkpoint 1");
            let mut order = mgr.variable_order();
            order.sort_unstable();
            assert_eq!(
                order,
                (0..NV).collect::<Vec<_>>(),
                "order stays a permutation"
            );
            check("post-sift-abort parity", &keep, parity_tt);
        }
    }
    drop(keep);
    mgr.gc();
    assert_eq!(mgr.external_roots(), 0, "registry drains at section end");
    assert_eq!(mgr.live_nodes(), 0, "sink-only at section end");
}

/// The observability conformance section, on a **fresh** manager (the
/// gc-balance invariants need a complete creation/collection history):
/// metric invariants every backend's [`FunctionManager::metrics`]
/// registry must satisfy, under the registry's stable dotted names.
fn obs_conformance<M: FunctionManager>(mgr: &M) {
    let s0 = mgr.metrics();
    assert!(!s0.backend().is_empty(), "snapshot names its backend");

    // Work the registry: a pool of composites plus one governed op.
    let pool = pool(mgr);
    let s1 = mgr.metrics();

    // Every section of the unified tree is present and populated.
    for section in [
        "nodes", "ops", "cache", "table", "gc", "roots", "dvo", "govern",
    ] {
        assert!(
            s1.entries()
                .iter()
                .any(|m| m.name.starts_with(section) && m.name.as_bytes()[section.len()] == b'.'),
            "section {section}.* present on {}",
            s1.backend()
        );
    }

    // Cache accounting closes: hits + misses == lookups.
    assert_eq!(
        s1.get("cache.hits").unwrap() + s1.get("cache.misses").unwrap(),
        s1.get("cache.lookups").unwrap(),
        "cache hits + misses == lookups on {}",
        s1.backend()
    );

    // Counters are monotonic across snapshots.
    for m in s1
        .entries()
        .iter()
        .filter(|m| m.kind == MetricKind::Counter)
    {
        assert!(
            m.value >= s0.get(m.name).unwrap_or(0),
            "counter {} monotonic on {}",
            m.name,
            s1.backend()
        );
    }

    // A governed op moves the govern.* section.
    let f = pool[3]
        .0
        .try_xor(
            &pool[7].0,
            &mut OpBudget::unlimited().with_node_limit(1 << 20),
        )
        .expect("huge budget");
    let s2 = mgr.metrics();
    assert!(
        s2.get("govern.ops").unwrap() > s1.get("govern.ops").unwrap_or(0),
        "governed op counted on {}",
        s2.backend()
    );

    // Snapshot/delta consistency: earlier + delta == later, per counter.
    let d = s2.delta(&s1);
    for m in s2
        .entries()
        .iter()
        .filter(|m| m.kind == MetricKind::Counter)
    {
        assert_eq!(
            s1.get(m.name).unwrap_or(0) + d.get(m.name).unwrap(),
            m.value,
            "delta consistency for {} on {}",
            m.name,
            s2.backend()
        );
    }

    // All handles dropped + GC ⇒ the books balance: nothing live, the
    // registry drained, and every node ever created was eventually freed.
    drop(f);
    drop(pool);
    mgr.gc();
    let s3 = mgr.metrics();
    assert_eq!(s3.get("nodes.live"), Some(0), "live after full drop");
    assert_eq!(s3.get("roots.live"), Some(0), "registry after full drop");
    assert_eq!(
        s3.get("nodes.created"),
        s3.get("gc.nodes_freed"),
        "created == freed once nothing is live on {}",
        s3.backend()
    );
    assert_eq!(
        s3.get("roots.registered").unwrap() + s3.get("roots.retained").unwrap(),
        s3.get("roots.released").unwrap(),
        "root registrations + retains == releases on {}",
        s3.backend()
    );
}

/// Instantiate the suite (plus the operator-overload sugar, which lives
/// on the concrete handle type) for one backend per line.
macro_rules! conformance_suite {
    ($($name:ident => $mgr:expr;)*) => {$(
        #[test]
        fn $name() {
            let mgr = $mgr;
            conformance(&mgr);
            govern_conformance(&mgr);
            // Observability invariants run on a fresh manager: the
            // gc-balance checks need the full creation history.
            obs_conformance(&$mgr);
            // `std::ops` sugar on handle references — concrete types only.
            let a = mgr.var(0);
            let b = mgr.var(1);
            assert_eq!(&a & &b, a.and(&b));
            assert_eq!(&a | &b, a.or(&b));
            assert_eq!(&a ^ &b, a.xor(&b));
            assert_eq!(!&a, a.not());
        }
    )*};
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

conformance_suite! {
    bbdd_conformance => BbddManager::with_vars(NV);
    robdd_conformance => RobddManager::with_vars(NV);
    par_bbdd_conformance_t1 => par_bbdd(1);
    par_bbdd_conformance_t4 => par_bbdd(4);
    par_robdd_conformance_t1 => par_robdd(1);
    par_robdd_conformance_t4 => par_robdd(4);
}

/// Tracing conformance: every span begun on this thread is ended, even
/// when the traced operation dies mid-flight on a budget abort. The ring
/// is shared process-wide, so all assertions filter by [`obs::current_tid`]
/// (other tests may trace concurrently when `BBDD_TRACE` is set).
#[test]
fn trace_spans_balance_across_abort() {
    obs::set_trace_enabled(true);
    // A roomy private capacity so concurrent traced tests cannot evict
    // this thread's events between recording and the snapshot below.
    obs::trace_set_capacity(1 << 17);

    let mgr = BbddManager::with_vars(NV);
    // A one-node budget aborts the parity build inside the recursion,
    // after the op's span has opened.
    let mut budget = OpBudget::unlimited().with_node_limit(1);
    let aborted = (1..NV).try_fold(mgr.var(0), |acc, v| acc.try_xor(&mgr.var(v), &mut budget));
    assert!(aborted.is_err(), "one-node budget must abort");
    // And a healthy mix of ops on top, including a GC span.
    let pool = pool(&mgr);
    drop(pool);
    mgr.gc();

    let tid = obs::current_tid();
    let events: Vec<ddcore::TraceEvent> = obs::trace_events()
        .into_iter()
        .filter(|e| e.tid == tid)
        .collect();
    assert!(!events.is_empty(), "tracing recorded this thread's ops");

    // Per-op span depth never goes negative and ends the test at zero.
    let mut depth: std::collections::HashMap<obs::Op, i64> = std::collections::HashMap::new();
    let mut begins = 0u64;
    let mut abort_instants = 0u64;
    for e in &events {
        match e.kind {
            obs::EventKind::Begin => {
                begins += 1;
                *depth.entry(e.op).or_insert(0) += 1;
            }
            obs::EventKind::End => {
                let d = depth.entry(e.op).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "end without begin for {:?}", e.op);
            }
            obs::EventKind::Instant => {
                if e.op == obs::Op::Abort {
                    abort_instants += 1;
                }
            }
        }
    }
    assert!(begins > 0, "at least one span opened");
    assert!(
        abort_instants > 0,
        "the budget abort left an instant marker"
    );
    for (op, d) in &depth {
        assert_eq!(*d, 0, "unbalanced span for {op:?}");
    }
}

// ───────────────────── derived backend contract ─────────────────────────

/// The provided forms of the backend contract: every infallible op is its
/// budgeted form under an unlimited budget (at the edge level and through
/// the handles), infallible handle ops never touch the `govern.*`
/// accounting, and `reorder()` is `reorder_with` of the installed policy's
/// strategy, full sift without one. `make` builds a fresh manager, so the
/// reorder checks run on twins with identical histories.
fn derived_contract<B: RawManager>(make: impl Fn(usize) -> ManagerRef<B>) {
    let unlimited = || OpBudget::unlimited();
    let mgr = make(NV);
    let pool = pool(&mgr);
    let governed = |m: &ManagerRef<B>| {
        let s = m.metrics();
        (s.get("govern.ops"), s.get("govern.checkpoints"))
    };
    let before = governed(&mgr);
    for (i, (f, _)) in pool.iter().enumerate() {
        let (g, _) = &pool[(i * 7 + 3) % pool.len()];
        let (h, _) = &pool[(i * 5 + 1) % pool.len()];
        let (v, vars) = (i % NV, [i % NV, (i + 2) % NV]);
        let mut u = unlimited();
        for op in [BoolOp::AND, BoolOp::XOR, BoolOp::IMPLIES] {
            assert_eq!(f.apply(op, g), f.try_apply(op, g, &mut u).unwrap());
        }
        assert_eq!(f.ite(g, h), f.try_ite(g, h, &mut u).unwrap());
        assert_eq!(f.exists(&vars), f.try_exists(&vars, &mut u).unwrap());
        assert_eq!(f.forall(&vars), f.try_forall(&vars, &mut u).unwrap());
        assert_eq!(
            f.and_exists(g, &vars),
            f.try_and_exists(g, &vars, &mut u).unwrap()
        );
        assert_eq!(f.compose(v, g), f.try_compose(v, g, &mut u).unwrap());

        let mut b = mgr.backend_mut();
        let (fe, ge, he) = (f.edge(), g.edge(), h.edge());
        let mut u = unlimited();
        assert_eq!(
            b.apply_edge(BoolOp::NAND, fe, ge),
            b.try_apply_edge(BoolOp::NAND, fe, ge, &mut u).unwrap()
        );
        assert_eq!(
            b.ite_edge(fe, ge, he),
            b.try_ite_edge(fe, ge, he, &mut u).unwrap()
        );
        assert_eq!(
            b.exists_edge(fe, &vars),
            b.try_exists_edge(fe, &vars, &mut u).unwrap()
        );
        assert_eq!(
            b.forall_edge(fe, &vars),
            b.try_forall_edge(fe, &vars, &mut u).unwrap()
        );
        assert_eq!(
            b.and_exists_edge(fe, ge, &vars),
            b.try_and_exists_edge(fe, ge, &vars, &mut u).unwrap()
        );
        assert_eq!(
            b.compose_edge(fe, v, ge),
            b.try_compose_edge(fe, v, ge, &mut u).unwrap()
        );
    }
    // Only the handle-level `try_*` calls above were accounted; the
    // infallible ops alone leave the counters where they were.
    let after_try = governed(&mgr);
    assert_ne!(before, after_try, "governed ops are accounted");
    for (i, (f, _)) in pool.iter().enumerate() {
        let (g, _) = &pool[(i * 3 + 2) % pool.len()];
        let vars = [i % NV];
        let subs = vec![Some(g.clone()), None];
        drop([
            f.apply(BoolOp::OR, g),
            f.ite(g, f),
            f.exists(&vars),
            f.forall(&vars),
            f.and_exists(g, &vars),
            f.restrict(i % NV, true),
            f.compose(i % NV, g),
            f.vector_compose(&subs),
        ]);
    }
    assert_eq!(governed(&mgr), after_try, "infallible ops are not governed");

    // Twins with a hostile order: the equality comparator of two 4-bit
    // words, operand bits stacked.
    let twin = || {
        let m = make(8);
        let eq = (0..4).fold(m.constant(true), |acc, i| {
            acc.and(&m.var(i).xnor(&m.var(i + 4)))
        });
        (m, eq)
    };
    for (policy, strategy) in [
        (None, DvoStrategy::Full),
        (Some("pair:never"), DvoStrategy::Pair),
    ] {
        let (m1, f1) = twin();
        let (m2, f2) = twin();
        let policy = policy.map(|p| p.parse::<DvoPolicy>().unwrap());
        m1.set_reorder_policy(policy);
        m2.set_reorder_policy(policy);
        let live = m1.reorder();
        assert_eq!(live, m2.reorder_with(strategy), "{strategy} live count");
        assert_eq!(live, Some(m1.live_nodes()));
        assert_eq!(m1.variable_order(), m2.variable_order(), "{strategy} order");
        assert_eq!(f1.node_count(), f2.node_count());
    }
}

#[test]
fn derived_contract_bbdd() {
    derived_contract(BbddManager::with_vars);
}

#[test]
fn derived_contract_robdd() {
    derived_contract(RobddManager::with_vars);
}

#[test]
fn derived_contract_par_bbdd() {
    derived_contract(|n| ParBbddManager::new(ParBbdd::new(n, 4)));
}

#[test]
fn derived_contract_par_robdd() {
    derived_contract(|n| ParRobddManager::new(ParRobdd::new(n, 4)));
}
