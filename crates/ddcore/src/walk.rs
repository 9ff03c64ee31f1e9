//! Allocation-free diagram walks, written once over [`NodeGraph`]: node
//! counting, level profiles, structural support, DOT export, the parallel
//! cutoff probe and model counting, all on one per-manager
//! [`WalkScratch`] — a dense `u32` stamp per node slot above a *floor*.
//! A walk marks a node with `floor + 1 + ordinal`, so "visited" is
//! `stamp > floor` and the ordinal indexes a counting memo; ending the
//! walk moves the floor past its marks, unmarking every slot in O(1).
//! DESIGN.md, *Diagram walks*, has the contract, the wrap-around, the
//! memory bound and why the state sits behind a `Mutex`.

use crate::edge::Edge;
use crate::govern::{OpAbort, OpBudget};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The node-graph view every walk reads: stored nodes as three words
/// `(first, second, meta)` — the packed child edges and a meta word whose
/// low 16 bits are the node's top — plus the manager's walk scratch.
pub trait NodeGraph {
    /// Arena slots in use: every node id is below this.
    fn node_slots(&self) -> u32;

    /// The words of stored node `id`.
    fn node_words(&self, id: u32) -> (u32, u32, u32);

    /// The variables a node's function ranges over, given its meta word:
    /// its own top and every variable below it (BBDD level + 1; ROBDD
    /// `num_vars` minus the position). Both children range over one fewer.
    fn universe(&self, meta: u32) -> u32;

    /// The manager's visit scratch.
    fn walk_scratch(&self) -> &WalkScratch;
}

/// The per-manager visit scratch; `Default` allocates nothing.
#[derive(Debug, Default)]
pub struct WalkScratch {
    state: Mutex<Marks>,
}

#[derive(Debug, Default)]
struct Marks {
    stamps: Vec<u32>,
    floor: u32,
    stack: Vec<u32>,
}

impl WalkScratch {
    /// Start a walk over node ids below `slots`; it holds the scratch
    /// until the returned [`Walk`] drops.
    fn begin(&self, slots: u32) -> Walk<'_> {
        let mut marks = std::mem::take(&mut *self.lock());
        let need = slots as usize;
        if marks.stamps.len() < need {
            // A zeroed allocation, not `resize`, which writes every slot:
            // a large fresh block maps its pages only when touched.
            marks.stamps = vec![0; need.max(marks.stamps.len() * 2)];
            marks.floor = 0;
        } else if u32::MAX - marks.floor < slots {
            marks.stamps.fill(0);
            marks.floor = 0;
        }
        marks.stack.clear();
        Walk {
            home: self,
            marks,
            visited: 0,
        }
    }

    /// Move the floor as if that many stamps had been used, so a test can
    /// drive the wrap-around with a small diagram.
    #[doc(hidden)]
    pub fn force_floor(&self, floor: u32) {
        self.lock().floor = floor;
    }

    fn lock(&self) -> MutexGuard<'_, Marks> {
        // Nothing panics under the lock, so a poisoned state is whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One walk in progress: its visited set and a reusable stack. Dropping
/// it ends the walk and returns the state to the scratch.
struct Walk<'a> {
    home: &'a WalkScratch,
    marks: Marks,
    visited: u32,
}

impl Walk<'_> {
    /// Mark `id` if this walk has not; `true` on the first visit.
    #[inline]
    fn first_visit(&mut self, id: u32) -> bool {
        if self.ordinal(id).is_some() {
            return false;
        }
        self.mark(id);
        true
    }

    /// The ordinal `id` was marked with in this walk, if it was.
    #[inline]
    fn ordinal(&self, id: u32) -> Option<u32> {
        let s = self.marks.stamps[id as usize];
        (s > self.marks.floor).then(|| s - self.marks.floor - 1)
    }

    /// Mark an unmarked `id` with the next ordinal.
    #[inline]
    fn mark(&mut self, id: u32) {
        debug_assert!(self.ordinal(id).is_none(), "node {id} marked twice");
        self.visited += 1;
        self.marks.stamps[id as usize] = self.marks.floor + self.visited;
    }
}

impl Drop for Walk<'_> {
    fn drop(&mut self) {
        let mut marks = std::mem::take(&mut self.marks);
        marks.floor += self.visited;
        // A concurrent walk may have returned a private state meanwhile;
        // keep the larger (each is self-consistent).
        let mut home = self.home.lock();
        if marks.stamps.len() >= home.stamps.len() {
            *home = marks;
        }
    }
}

/// Visit every node reachable from `roots` once, depth first (roots and
/// then children pushed in order, popped last-first), calling
/// `f(id, words)` on each; stop after `limit` nodes. Returns the number
/// visited.
pub fn visit(
    m: &impl NodeGraph,
    roots: &[Edge],
    limit: usize,
    mut f: impl FnMut(u32, (u32, u32, u32)),
) -> usize {
    let mut walk = m.walk_scratch().begin(m.node_slots());
    for r in roots.iter().filter(|e| !e.is_constant()) {
        walk.marks.stack.push(r.node());
    }
    while (walk.visited as usize) < limit {
        let Some(id) = walk.marks.stack.pop() else {
            break;
        };
        if !walk.first_visit(id) {
            continue;
        }
        let words = m.node_words(id);
        f(id, words);
        for child in [Edge::from_bits(words.0), Edge::from_bits(words.1)] {
            if !child.is_constant() {
                walk.marks.stack.push(child.node());
            }
        }
    }
    walk.visited as usize
}

/// Distinct internal nodes reachable from any of `roots`.
pub fn shared_node_count(m: &impl NodeGraph, roots: &[Edge]) -> usize {
    visit(m, roots, usize::MAX, |_, _| {})
}

/// Graphviz DOT of the diagrams rooted at `roots`, nodes in the walk's
/// depth-first order. `names` labels the roots (`f{i}` by default) and
/// `label(id)` the nodes. Solid arrows go to the second child when
/// `solid_second` holds, else to the first; dashed arrows to the other;
/// red marks complement attributes.
pub fn to_dot(
    m: &impl NodeGraph,
    graph: &str,
    roots: &[Edge],
    names: &[&str],
    solid_second: bool,
    label: impl Fn(u32) -> String,
) -> String {
    let mut out =
        format!("digraph {graph} {{\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n");
    out.push_str("  one [shape=box, label=\"1\"];\n");
    let target = |e: Edge| {
        if e.is_constant() {
            "one".to_string()
        } else {
            format!("n{}", e.node())
        }
    };
    let mut walk = m.walk_scratch().begin(m.node_slots());
    for (i, &r) in roots.iter().enumerate() {
        let name = names.get(i).filter(|n| !n.is_empty());
        let name = name.map_or_else(|| format!("f{i}"), |n| (*n).to_string());
        let _ = writeln!(out, "  root{i} [shape=plaintext, label=\"{name}\"];");
        let style = ["", ", style=dotted, color=red"][usize::from(r.is_complemented())];
        let _ = writeln!(out, "  root{i} -> {} [arrowhead=none{style}];", target(r));
        if !r.is_constant() {
            walk.marks.stack.push(r.node());
        }
    }
    while let Some(id) = walk.marks.stack.pop() {
        if !walk.first_visit(id) {
            continue;
        }
        let _ = writeln!(out, "  n{id} [label=\"{}\"];", label(id));
        let (first, second, _) = m.node_words(id);
        let (solid, dashed) = if solid_second {
            (second, first)
        } else {
            (first, second)
        };
        for (child, attrs) in [(solid, ""), (dashed, "style=dashed")] {
            let child = Edge::from_bits(child);
            let attrs = match (attrs, child.is_complemented()) {
                ("", false) => String::new(),
                ("", true) => " [color=red]".to_string(),
                (a, false) => format!(" [{a}]"),
                (a, true) => format!(" [{a}, color=red]"),
            };
            let _ = writeln!(out, "  n{id} -> {}{attrs};", target(child));
            if !child.is_constant() {
                walk.marks.stack.push(child.node());
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// The exact number of satisfying assignments of `f` over `n_vars ≥` its
/// top's universe variables, under a budget polled once per counted node.
/// Counting allocates no nodes, so an abort leaves no trace.
///
/// # Errors
/// The budget's abort reason.
///
/// # Panics
/// Panics if `n_vars > 127` (the count could overflow `u128`).
pub fn try_sat_count(
    m: &impl NodeGraph,
    f: Edge,
    n_vars: usize,
    budget: &mut OpBudget,
) -> Result<u128, OpAbort> {
    assert!(
        n_vars <= 127,
        "sat_count overflows u128 beyond 127 variables"
    );
    measure(m, f, n_vars as u32, budget)
}

/// The satisfying fraction of `f`'s universe (any variable count).
pub fn sat_fraction(m: &impl NodeGraph, f: Edge) -> f64 {
    // A fraction needs no universe: every `k` measures the same.
    measure(m, f, u32::MAX, &mut OpBudget::unlimited()).expect("unlimited budget never aborts")
}

/// What a counting walk accumulates per node: `|f| = |f_first| +
/// |f_second|` over exact integers (`u128`) or halved into a fraction
/// (`f64`), with the complement and the scaling for skipped variables.
trait Measure: Copy {
    fn constant(one: bool, k: u32) -> Self;
    fn join(first: Self, second: Self) -> Self;
    fn complement(self, u: u32) -> Self;
    fn lift(self, u: u32, k: u32) -> Self;
}

impl Measure for u128 {
    fn constant(one: bool, k: u32) -> Self {
        u128::from(one) << k
    }
    fn join(first: Self, second: Self) -> Self {
        first + second
    }
    fn complement(self, u: u32) -> Self {
        (1 << u) - self
    }
    fn lift(self, u: u32, k: u32) -> Self {
        self << (k - u)
    }
}

impl Measure for f64 {
    fn constant(one: bool, _: u32) -> Self {
        f64::from(u8::from(one))
    }
    fn join(first: Self, second: Self) -> Self {
        0.5 * (first + second)
    }
    fn complement(self, _: u32) -> Self {
        1.0 - self
    }
    fn lift(self, _: u32, _: u32) -> Self {
        self
    }
}

/// The measure of `f` over `k` variables, children first-then-second,
/// memoized by mark ordinal.
fn measure<V: Measure>(
    m: &impl NodeGraph,
    f: Edge,
    k: u32,
    budget: &mut OpBudget,
) -> Result<V, OpAbort> {
    let mut walk = m.walk_scratch().begin(m.node_slots());
    let mut memo = Vec::with_capacity(64);
    measure_rec(m, &mut walk, &mut memo, f, k, budget)
}

fn measure_rec<V: Measure>(
    m: &impl NodeGraph,
    walk: &mut Walk<'_>,
    memo: &mut Vec<V>,
    e: Edge,
    k: u32,
    budget: &mut OpBudget,
) -> Result<V, OpAbort> {
    if e.is_constant() {
        return Ok(V::constant(e == Edge::ONE, k));
    }
    let id = e.node();
    let (first, second, meta) = m.node_words(id);
    let u = m.universe(meta);
    debug_assert!(u <= k);
    let raw = if let Some(ord) = walk.ordinal(id) {
        memo[ord as usize]
    } else {
        budget.checkpoint()?;
        let a = measure_rec(m, walk, memo, Edge::from_bits(first), u - 1, budget)?;
        let b = measure_rec(m, walk, memo, Edge::from_bits(second), u - 1, budget)?;
        walk.mark(id);
        if memo.len() == 4096 {
            // Past the small counts, reserve for every slot at once: a
            // large `realloc` may copy, holding both blocks resident.
            memo.reserve_exact(walk.marks.stamps.len());
        }
        memo.push(V::join(a, b));
        memo[memo.len() - 1]
    };
    let signed = if e.is_complemented() {
        raw.complement(u)
    } else {
        raw
    };
    Ok(signed.lift(u, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_moves_past_each_walk() {
        let s = WalkScratch::default();
        let mut w = s.begin(8);
        assert!(w.first_visit(3));
        assert!(!w.first_visit(3));
        w.mark(5);
        assert_eq!(w.ordinal(5), Some(1));
        drop(w);
        let mut w = s.begin(8);
        assert_eq!(w.ordinal(3), None, "the next walk starts unmarked");
        w.mark(5);
        assert_eq!(w.ordinal(5), Some(0));
    }

    #[test]
    fn wrap_around_zeroes_stale_stamps() {
        let s = WalkScratch::default();
        drop(s.begin(8));
        s.force_floor(u32::MAX - 10);
        let mut w = s.begin(4);
        for id in 0..4 {
            assert!(w.first_visit(id));
        }
        drop(w);
        // 4 more slots no longer fit below u32::MAX: the stamps reset.
        let mut w = s.begin(8);
        assert!((0..8).all(|id| w.ordinal(id).is_none()));
        assert!(w.first_visit(2));
    }

    #[test]
    fn growing_keeps_no_stamp() {
        let s = WalkScratch::default();
        let mut w = s.begin(2);
        w.first_visit(1);
        drop(w);
        let w = s.begin(100);
        assert!((0..100).all(|id| w.ordinal(id).is_none()));
    }

    #[test]
    fn concurrent_walks_use_private_state() {
        let s = WalkScratch::default();
        let mut a = s.begin(4);
        let mut b = s.begin(4);
        assert!(a.first_visit(1));
        assert!(
            b.first_visit(1),
            "the second walk does not see the first's marks"
        );
        drop(a);
        drop(b);
        let w = s.begin(4);
        assert!((0..4).all(|id| w.ordinal(id).is_none()));
    }
}
