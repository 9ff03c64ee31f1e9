//! Property tests of the shared diagram walks (`ddcore::walk`): every
//! converted walk — node and shared node count, level profile, model
//! count (plain, checked, budgeted, over a declared universe), BBDD
//! `sat_fraction`, ROBDD structural support, DOT visit order and the
//! parallel cutoff probe — must equal a hash-based reference
//! implementation kept here, written against each backend's public node
//! view (`node_info`), on both backends, through `Par` and in sessions.
//!
//! The scratch is exercised where a dense, epoch-stamped visit set could
//! go wrong: after collections and sifting (recycled node ids carrying
//! stale stamps), across a forced epoch wrap-around, after a budgeted
//! count aborted at every checkpoint, and in session forks that must not
//! disturb their base.

use bbdd::{Bbdd, ParBbdd};
use ddcore::api::RawManager;
use ddcore::boolop::BoolOp;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::par::{NodeShape, PackedEdge, Par, ParConfig};
use ddcore::session::{Library, SharedBase};
use ddcore::walk::NodeGraph;
use robdd::{ParRobdd, Robdd};
use std::collections::{HashMap, HashSet};

const SEEDS: u64 = 12;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ───────────────────────────── references ────────────────────────────────

/// One node as the reference walks read it from the public node view.
struct RefNode<E> {
    /// Children in the order the DOT exporter pushes them.
    kids: [E; 2],
    /// Variables the node's function ranges over.
    universe: u32,
    /// The node's index in the backend's level profile.
    slot: usize,
    /// The node's (primary) variable.
    var: usize,
}

trait Reference: RawManager<Edge: PackedEdge> + NodeGraph {
    fn ref_node(&self, e: Self::Edge) -> RefNode<Self::Edge>;
}

impl Reference for Bbdd {
    fn ref_node(&self, e: bbdd::Edge) -> RefNode<bbdd::Edge> {
        let n = self.node_info(e).expect("internal node");
        RefNode {
            kids: [n.eq, n.neq],
            universe: n.level as u32 + 1,
            slot: n.level,
            var: n.pv,
        }
    }
}

impl Reference for Robdd {
    fn ref_node(&self, e: robdd::Edge) -> RefNode<robdd::Edge> {
        let n = self.node_info(e).expect("internal node");
        let pos = self.position_of(n.var);
        RefNode {
            kids: [n.then_, n.else_],
            universe: (self.num_vars() - pos) as u32,
            slot: pos,
            var: n.var,
        }
    }
}

/// Node ids in the order the DOT exporter defines them.
fn ref_dfs<M: Reference>(m: &M, roots: &[M::Edge]) -> Vec<u32> {
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    let mut stack: Vec<M::Edge> = roots.iter().copied().filter(|e| !e.is_constant()).collect();
    while let Some(e) = stack.pop() {
        if !seen.insert(e.node()) {
            continue;
        }
        order.push(e.node());
        stack.extend(m.ref_node(e).kids.into_iter().filter(|k| !k.is_constant()));
    }
    order
}

fn ref_profile<M: Reference>(m: &M, roots: &[M::Edge]) -> Vec<usize> {
    let mut profile = vec![0; m.num_vars()];
    let mut seen = HashSet::new();
    let mut stack: Vec<M::Edge> = roots.iter().copied().filter(|e| !e.is_constant()).collect();
    while let Some(e) = stack.pop() {
        if seen.insert(e.node()) {
            let n = m.ref_node(e);
            profile[n.slot] += 1;
            stack.extend(n.kids.into_iter().filter(|k| !k.is_constant()));
        }
    }
    profile
}

fn ref_support<M: Reference>(m: &M, f: M::Edge) -> Vec<usize> {
    let mut vars: Vec<usize> = ref_dfs(m, &[f])
        .into_iter()
        .map(|id| m.ref_node(M::Edge::from_bits(id << 1)).var)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    vars.sort_unstable();
    vars
}

fn ref_sat<M: Reference>(m: &M, e: M::Edge, k: u32, memo: &mut HashMap<u32, u128>) -> u128 {
    if e.is_constant() {
        return if e == M::Edge::ONE { 1 << k } else { 0 };
    }
    let n = m.ref_node(e);
    let raw = match memo.get(&e.node()) {
        Some(&r) => r,
        None => {
            let r = n
                .kids
                .iter()
                .map(|&c| ref_sat(m, c, n.universe - 1, memo))
                .sum();
            memo.insert(e.node(), r);
            r
        }
    };
    let signed = if e.is_complemented() {
        (1 << n.universe) - raw
    } else {
        raw
    };
    signed << (k - n.universe)
}

fn ref_sat_count<M: Reference>(m: &M, e: M::Edge) -> u128 {
    ref_sat(m, e, m.num_vars() as u32, &mut HashMap::new())
}

fn ref_fraction(m: &Bbdd, e: bbdd::Edge, memo: &mut HashMap<u32, f64>) -> f64 {
    if e.is_constant() {
        return if e == bbdd::Edge::ONE { 1.0 } else { 0.0 };
    }
    let n = m.node_info(e).unwrap();
    let raw = match memo.get(&e.node()) {
        Some(&r) => r,
        None => {
            let r = 0.5 * (ref_fraction(m, n.neq, memo) + ref_fraction(m, n.eq, memo));
            memo.insert(e.node(), r);
            r
        }
    };
    if e.is_complemented() {
        1.0 - raw
    } else {
        raw
    }
}

/// Node ids in DOT definition order.
fn dot_order(dot: &str) -> Vec<u32> {
    dot.lines()
        .filter_map(|l| l.trim().strip_prefix('n'))
        .filter_map(|l| l.split_once(" [label="))
        .map(|(id, _)| id.parse().unwrap())
        .collect()
}

// ───────────────────────────── the checks ────────────────────────────────

/// Every walk of `walker` over `roots` against the reference on `m` (the
/// same manager, or a parallel front-end's inner one).
fn check_walks<W, M>(walker: &mut W, m_of: impl Fn(&W) -> &M, roots: &[M::Edge])
where
    W: RawManager<Edge = M::Edge>,
    M: Reference,
{
    let m = m_of(walker);
    let order = ref_dfs(m, roots);
    let profile = ref_profile(m, roots);
    let counts: Vec<(usize, u128)> = roots
        .iter()
        .map(|&r| (ref_dfs(m, &[r]).len(), ref_sat_count(m, r)))
        .collect();

    assert_eq!(walker.shared_node_count_edges(roots), order.len());
    assert_eq!(walker.level_profile_edges(roots), Some(profile));
    assert_eq!(dot_order(&walker.to_dot_edges(roots, &[])), order);
    let n = walker.num_vars();
    for (&r, &(nodes, count)) in roots.iter().zip(&counts) {
        assert_eq!(walker.node_count_edge(r), nodes);
        assert_eq!(walker.sat_count_edge(r), count);
        assert_eq!(walker.sat_count_checked_edge(r), Some(count));
        let mut budget = OpBudget::unlimited();
        assert_eq!(walker.try_sat_count_edge(r, &mut budget), Ok(count));
        assert_eq!(budget.used(), nodes as u64, "one poll per counted node");
        assert_eq!(walker.sat_count_over_edge(r, n + 3), Some(count << 3));
        let over = if walker.support_edge(r).iter().all(|&v| v < n - 1) {
            Some(count >> 1)
        } else {
            None
        };
        assert_eq!(walker.sat_count_over_edge(r, n - 1), over);
    }
}

/// Structural support (ROBDD) and `sat_fraction` (BBDD), the two
/// backend-specific walks.
fn check_robdd_support(m: &Robdd, roots: &[robdd::Edge]) {
    for &r in roots {
        assert_eq!(m.support(r), ref_support(m, r));
    }
}

fn check_fraction(m: &Bbdd, roots: &[bbdd::Edge]) {
    for &r in roots {
        let want = ref_fraction(m, r, &mut HashMap::new());
        assert_eq!(m.sat_fraction(r).to_bits(), want.to_bits());
    }
}

/// A random forest: the variables plus `n` random binary applies over
/// everything built so far.
fn forest<M: RawManager>(m: &mut M, rng: &mut Rng, n: usize) -> Vec<M::Edge> {
    let mut pool: Vec<M::Edge> = (0..m.num_vars()).map(|v| m.var_edge(v)).collect();
    for _ in 0..n {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let op = BoolOp::from_table(rng.below(16) as u8);
        pool.push(m.apply_edge(op, a, b));
    }
    pool
}

/// Pin `roots` in the registry so collections and sifts keep them.
fn pin<M: RawManager>(m: &M, roots: &[M::Edge]) -> Vec<ddcore::roots::RootGuard> {
    m.root_registry()
        .guard_many(roots.iter().map(|&e| M::edge_bits(e)))
}

/// The whole sequential scenario on one backend: a forest; GC, then more
/// functions on recycled ids; a sift; a forced wrap-around.
fn scenario<M: Reference>(extra: impl Fn(&M, &[M::Edge])) {
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let mut m = M::with_vars(6 + seed as usize % 5);
        let kept = forest(&mut m, &mut rng, 60);
        let kept: Vec<M::Edge> = kept.into_iter().filter(|_| rng.below(3) == 0).collect();
        let _guards = pin(&m, &kept);
        check_walks(&mut m, |m| m, &kept);
        extra(&m, &kept);

        // Unpinned garbage, collected: its ids are recycled next.
        let _ = forest(&mut m, &mut rng, 40);
        let slots_before = m.node_slots();
        assert!(m.gc() > 0, "seed {seed}: the collection frees something");
        let fresh = forest(&mut m, &mut rng, 40);
        let old: HashSet<u32> = ref_dfs(&m, &kept).into_iter().collect();
        let recycled = ref_dfs(&m, &fresh)
            .into_iter()
            .filter(|id| *id < slots_before && !old.contains(id))
            .count();
        assert!(recycled > 0, "seed {seed}: new nodes reuse freed ids");
        let both: Vec<M::Edge> = kept.iter().chain(&fresh).copied().collect();
        let _more = pin(&m, &fresh);
        check_walks(&mut m, |m| m, &both);
        extra(&m, &both);

        let counts: Vec<u128> = both.iter().map(|&r| m.sat_count_edge(r)).collect();
        assert!(m.try_sift().is_some());
        check_walks(&mut m, |m| m, &both);
        extra(&m, &both);
        let after: Vec<u128> = both.iter().map(|&r| m.sat_count_edge(r)).collect();
        assert_eq!(counts, after, "sifting keeps every function");

        // Stamps near the top of the range: the next walks wrap.
        m.walk_scratch().force_floor(u32::MAX - 3);
        check_walks(&mut m, |m| m, &both);
        extra(&m, &both);
    }
}

#[test]
fn bbdd_walks_match_the_reference() {
    scenario::<Bbdd>(check_fraction);
}

#[test]
fn robdd_walks_match_the_reference() {
    scenario::<Robdd>(check_robdd_support);
}

/// Abort a budgeted count at every checkpoint; after each abort the
/// scratch still serves exact walks.
fn aborts<M: Reference>() {
    let mut rng = Rng(7);
    let mut m = M::with_vars(9);
    let roots = forest(&mut m, &mut rng, 50);
    let f = *roots.last().unwrap();
    let nodes = ref_dfs(&m, &[f]).len() as u64;
    let count = ref_sat_count(&m, f);
    for k in 1..=nodes {
        let mut budget = OpBudget::unlimited().inject_cancel_at(k);
        assert_eq!(
            m.try_sat_count_edge(f, &mut budget),
            Err(OpAbort::Cancelled),
            "abort at checkpoint {k}"
        );
        assert_eq!(m.sat_count_edge(f), count);
        assert_eq!(m.node_count_edge(f), nodes as usize);
    }
    let mut budget = OpBudget::unlimited().inject_cancel_at(nodes + 1);
    assert_eq!(m.try_sat_count_edge(f, &mut budget), Ok(count));
    check_walks(&mut m, |m| m, &roots);
}

#[test]
fn aborted_counts_leave_the_scratch_usable() {
    aborts::<Bbdd>();
    aborts::<Robdd>();
}

/// `Par` front-ends: every walk through the parallel manager equals the
/// reference on its inner manager, and the cutoff probe sends exactly
/// the operations the reference size test sends to the pipeline.
fn par_scenario<M: Reference + NodeShape>() {
    for seed in 0..4 {
        let cutoff = 8 + 8 * seed as usize;
        let cfg = ParConfig {
            threads: 2,
            cutoff,
            ..ParConfig::default()
        };
        let mut par = Par::<M>::with_config(8, cfg);
        let mut rng = Rng(seed);
        let mut pool: Vec<M::Edge> = (0..8).map(|v| par.var_edge(v)).collect();
        for _ in 0..60 {
            let (a, b) = (pool[rng.below(pool.len())], pool[rng.below(pool.len())]);
            let big = par.live_nodes() >= cutoff && ref_dfs(par.inner(), &[a, b]).len() >= cutoff;
            let before = par.par_stats().ops_sequential;
            pool.push(par.apply_edge(BoolOp::from_table(rng.below(16) as u8), a, b));
            let sequential = par.par_stats().ops_sequential - before;
            assert_eq!(sequential, u64::from(!big), "seed {seed}: cutoff probe");
        }
        check_walks(&mut par, Par::inner, &pool);
        par.inner().walk_scratch().force_floor(u32::MAX - 1);
        check_walks(&mut par, Par::inner, &pool);
    }
}

#[test]
fn par_walks_and_cutoff_match_the_reference() {
    par_scenario::<Bbdd>();
    par_scenario::<Robdd>();
    // The aliases are the same types.
    let _: fn(usize, usize) -> ParBbdd = ParBbdd::new;
    let _: fn(usize, usize) -> ParRobdd = ParRobdd::new;
}

/// Sessions: a fork starts with its own, empty scratch; walks in the
/// fork (over base and overlay nodes, across a wrap) and in the base do
/// not disturb one another.
fn session_scenario<M: Reference + ddcore::session::SessionBackend>() {
    let mut rng = Rng(3);
    let mut m = M::with_vars(8);
    let pool = forest(&mut m, &mut rng, 50);
    let mut lib = Library::new((0..8).map(|v| format!("x{v}")).collect());
    for (i, &e) in pool.iter().enumerate() {
        lib.insert(&format!("f{i}"), e);
    }
    let base = SharedBase::publish(m, lib);
    let want: Vec<(usize, u128)> = pool
        .iter()
        .map(|&e| {
            (
                ref_dfs(base.backend(), &[e]).len(),
                ref_sat_count(base.backend(), e),
            )
        })
        .collect();
    // Warm the base's scratch, then move its floor near the top.
    assert_eq!(
        base.backend().shared_node_count_edges(&pool),
        ref_dfs(base.backend(), &pool).len()
    );
    base.backend().walk_scratch().force_floor(u32::MAX - 2);

    let mut s = base.session();
    for (i, &(nodes, count)) in want.iter().enumerate() {
        let name = format!("f{i}");
        assert_eq!(s.node_count(&name), Ok(nodes));
        assert_eq!(s.sat_count(&name, &mut OpBudget::unlimited()), Ok(count));
    }
    // Overlay nodes: new functions in the fork, walked there.
    let (a, b) = (pool[10], pool[20]);
    let made = s
        .build_raw(&mut OpBudget::unlimited(), |fork, _| {
            assert!(!std::ptr::eq(
                fork.walk_scratch(),
                base.backend().walk_scratch()
            ));
            let mut roots = forest(fork, &mut Rng(11), 30);
            roots.push(fork.apply_edge(BoolOp::XOR, a, b));
            check_walks(fork, |m| m, &roots);
            fork.walk_scratch().force_floor(u32::MAX);
            check_walks(fork, |m| m, &roots);
            Ok(roots.len())
        })
        .unwrap();
    assert!(made > 0);
    // The base answers exactly as before, from its own scratch.
    for (&e, &(nodes, count)) in pool.iter().zip(&want) {
        assert_eq!(base.backend().node_count_edge(e), nodes);
        assert_eq!(base.backend().sat_count_edge(e), count);
    }
    drop(s);
    let s2 = base.session();
    drop(s2);
    assert_eq!(
        base.backend().shared_node_count_edges(&pool),
        ref_dfs(base.backend(), &pool).len()
    );
}

#[test]
fn session_forks_walk_on_their_own_scratch() {
    session_scenario::<Bbdd>();
    session_scenario::<Robdd>();
}
