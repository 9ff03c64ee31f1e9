//! Dynamic variable ordering: pluggable reorder strategies, adaptive
//! schedules and the shared group-sifting engine.
//!
//! Before this module existed, Rudell sifting was written twice — once per
//! manager crate — and exposed only as a monolithic end-of-build `sift()`.
//! The DATE 2014 paper's whole premise is that the *variable order* (for
//! BBDDs: the chained variable pairs) is the lever for compactness, so
//! ordering deserves the same first-class treatment the storage layer got:
//!
//! * [`ReorderBackend`] — the primitives a manager exposes so the
//!   generic engine can sift it: positions, adjacent swaps, an exact live
//!   count and level widths (plus an optional *chain-affinity* signal, see
//!   below), bracketed by a reorder scope in which the backend keeps
//!   [`SiftRefs`] and reclaims each swap's dead nodes locally. A backend
//!   may also report a *settled width*
//!   ([`ReorderBackend::settled_width`]), a lower bound that ends a sift
//!   direction once no further move in it can beat the best size.
//!   Both `ddcore::bbdd::Bbdd` and `ddcore::robdd::Robdd` implement
//!   this; their public sift entry points are thin wrappers over the
//!   engine here.
//! * [`ReorderStrategy`] — the pluggable algorithm: [`FullSift`] (classic
//!   Rudell), [`WindowSift`] (exploration clamped to a radius around each
//!   variable's start position — bounded work on large orders) and
//!   [`PairSift`] (variables move as *pairs* chosen by chain affinity —
//!   the BBDD-specific strategy, see below). [`DvoStrategy`] is the
//!   CLI-parseable value form dispatching to the three.
//! * [`ReorderSchedule`] / [`DvoPolicy`] / [`DvoState`] — *when* to
//!   reorder: never, past an absolute live-node threshold (the classic
//!   auto-reorder discipline), on a live-node growth factor, or
//!   after every N node creations. The managers consult their [`DvoState`]
//!   at the PR 4 GC-latch boundary and at the network builders' collection
//!   gates, so reordering triggers adaptively *during* long builds.
//!
//! # Pair-aware sifting (BBDD chains)
//!
//! A biconditional node at chain level `l` branches on `PV ⊕ SV` — it
//! couples the variable at order position `p` with the one at `p + 1`.
//! Moving one of them away by classic sifting breaks every such
//! biconditional pair crossing the cut, which is why plain sifting tends
//! to undo exactly the chain structure that makes BBDDs compact on
//! XOR-rich circuits. [`PairSift`] asks the backend for the fraction of
//! biconditional (non-Shannon) nodes at each boundary
//! ([`ReorderBackend::pair_affinity`]), greedily locks high-affinity
//! adjacent pairs together, and sifts each pair as one rigid group of two
//! (two adjacent swaps per order position). The ROBDD backend reports a
//! structural analogue (fraction of nodes with a cofactor pointing
//! directly at the next variable), so the strategy is meaningful — if less
//! decisive — there too.
//!
//! # Abort safety
//!
//! Every engine entry point takes an [`OpBudget`] and polls it before each
//! group move. On abort the group being sifted is first parked back at the
//! best position seen (a bounded amount of un-budgeted work, at most one
//! sweep across the order), so the backend is always left with a
//! consistent variable order and canonical tables — the contract
//! `RawManager::reorder_with` documents and the scheduled-reorder hooks
//! in `try_build_network` rely on.

use crate::edge::Edge;
use crate::govern::{OpAbort, OpBudget};

/// The reordering primitives a manager exposes to the generic engine.
///
/// Positions are **top-based**: position `0` is the root level of the
/// diagram. The engine only ever issues adjacent swaps, so canonicity is
/// the backend's local swap correctness — the engine never sees edges.
pub trait ReorderBackend {
    /// Number of variables in the order.
    fn num_vars(&self) -> usize;

    /// Top-based position of `var` in the current order.
    fn position_of(&self, var: usize) -> usize;

    /// The variable at top-based position `pos`.
    fn var_at_position(&self, pos: usize) -> usize;

    /// Swap the variables at positions `pos` and `pos + 1` in place; every
    /// existing edge keeps denoting the same function.
    fn swap_positions(&mut self, pos: usize);

    /// The exact live node count, which the engine reads after every group
    /// move for its position decisions. Swaps strand dead nodes, and dead
    /// nodes *compound* — each later swap rebuilds them along with the
    /// live ones — so no dead node may survive a move. The engine calls
    /// this only inside a reorder scope, where a backend keeping
    /// [`SiftRefs`] has already reclaimed each swap's dead nodes, so it is
    /// an O(1) read.
    fn sweep(&mut self) -> usize;

    /// Open a reorder scope; every strategy calls this once before its
    /// first move. A backend keeping [`SiftRefs`] runs one full
    /// collection here and starts counting.
    fn begin_reorder(&mut self);

    /// Close the reorder scope, on every exit path including an abort:
    /// drop any sift-scoped state, collect what handles dropped mid-sift
    /// left behind and return the exact live count.
    fn end_reorder(&mut self) -> usize;

    /// Nodes currently stored whose branching variable is `var`.
    fn var_width(&self, var: usize) -> usize;

    /// Chain affinity across the boundary below position `pos`: the
    /// fraction (`0.0..=1.0`) of nodes at `pos` that structurally couple
    /// the variable at `pos` with the one at `pos + 1`. BBDDs report the
    /// biconditional-node fraction of the level; ROBDDs the fraction of
    /// nodes with a direct cofactor into the next variable. The default
    /// (`0.0`) makes [`PairSift`] degenerate to singleton sifting.
    fn pair_affinity(&self, _pos: usize) -> f64 {
        0.0
    }

    /// A lower bound for every size the engine can still see in one sift
    /// direction: the stored nodes on levels that no further move of the
    /// group at positions `top .. top + len` towards the bottom (`down`)
    /// or the top can change. The group's own levels never count. The
    /// engine ends a direction once this reaches the best size seen, since
    /// no later move in it can then strictly improve. The default (`0`)
    /// is no bound.
    fn settled_width(&self, _top: usize, _len: usize, _down: bool) -> usize {
        0
    }
}

/// Tuning knobs shared by every sifting strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftParams {
    /// Abort a direction when the diagram grows beyond
    /// `max_growth × best_size` (CUDD's classic 1.2).
    pub max_growth: f64,
    /// Number of complete passes over all variables (or groups).
    pub passes: usize,
}

impl Default for SiftParams {
    fn default() -> Self {
        SiftParams {
            max_growth: 1.2,
            passes: 1,
        }
    }
}

/// Sift-scoped reference counts (CUDD's `cuddSwapInPlace` discipline).
///
/// A backend builds them once per reorder, right after a full collection:
/// each stored node counts its parents among stored nodes plus its entries
/// in one snapshot of the root registry. A swap then only touches the
/// window: it [`SiftRefs::dec`]s the old children of every node it
/// rewrites and [`SiftRefs::inc`]s the new ones, and afterwards frees each
/// node [`SiftRefs::pop_dead`] hands out, decrementing that node's children
/// in turn so the reclamation cascades below the window. The stored set
/// after every swap is therefore exactly what a full mark would keep, and
/// the per-move collection the engine used to need is gone.
///
/// Counts are indexed by node slot, the target of an edge; constant edges
/// are never counted. A slot the backend frees has count 0, and slots past
/// the end read as 0, so freshly allocated nodes start at 0.
#[derive(Debug, Clone, Default)]
pub struct SiftRefs {
    counts: Vec<u32>,
    /// Slots whose count reached 0 since the last drain; an entry may have
    /// been revived (count > 0 again) or listed twice.
    dead: Vec<u32>,
}

impl SiftRefs {
    /// Zero counts for `slots` node slots.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        SiftRefs {
            counts: vec![0; slots],
            dead: Vec::new(),
        }
    }

    pub(crate) fn count(&self, id: u32) -> u32 {
        self.counts.get(id as usize).copied().unwrap_or(0)
    }

    /// Add one reference to the node `e` points to (constants are not
    /// counted).
    pub fn inc(&mut self, e: Edge) {
        if e.is_constant() {
            return;
        }
        let i = e.node() as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    /// Drop one reference to the node `e` points to; a node reaching 0 is
    /// queued for [`SiftRefs::pop_dead`].
    ///
    /// # Panics
    /// Panics if the node holds no reference (a count underflow is a
    /// backend bookkeeping bug).
    pub fn dec(&mut self, e: Edge) {
        if e.is_constant() {
            return;
        }
        let id = e.node();
        let c = &mut self.counts[id as usize];
        *c = c.checked_sub(1).expect("sift refcount underflow");
        if *c == 0 {
            self.dead.push(id);
        }
    }

    /// Queue slot `id` if nothing references it — for a node created
    /// during a swap that no rebuilt node ended up using.
    pub fn queue_if_dead(&mut self, id: u32) {
        if self.count(id) == 0 {
            self.dead.push(id);
        }
    }

    /// Next queued slot whose count is still 0. The caller frees it (and
    /// decrements its children) or skips it if it is already free.
    pub fn pop_dead(&mut self) -> Option<u32> {
        while let Some(id) = self.dead.pop() {
            if self.count(id) == 0 {
                return Some(id);
            }
        }
        None
    }
}

/// Move the rigid group occupying positions `top .. top + len` one order
/// position down (or up), preserving the order within the group.
///
/// One group step costs `len` adjacent swaps: moving down hoists the
/// variable below the group over every member (bottom swap first), moving
/// up sinks the variable above it (top swap first).
fn move_group<B: ReorderBackend>(b: &mut B, top: usize, len: usize, down: bool) {
    if down {
        for i in (0..len).rev() {
            b.swap_positions(top + i);
        }
    } else {
        for i in 0..len {
            b.swap_positions(top - 1 + i);
        }
    }
}

/// Sift one rigid group (1 or 2 variables today; the engine is written for
/// any contiguous `len`) through the order and park it at the best
/// position seen. `window` clamps exploration to `start ± window`.
///
/// On abort the group is parked back (un-budgeted, at most one sweep
/// across the order) before the error is returned, so the order is always
/// left consistent.
fn sift_group<B: ReorderBackend>(
    b: &mut B,
    lead_var: usize,
    len: usize,
    window: Option<usize>,
    params: &SiftParams,
    budget: &mut OpBudget,
) -> Result<(), OpAbort> {
    let n = b.num_vars();
    if len >= n {
        return Ok(());
    }
    let start = b.position_of(lead_var);
    let mut best_size = b.sweep();
    let mut best_top = start;
    let limit = |best: usize| (best as f64 * params.max_growth) as usize + 2;
    let in_window = |top: usize| match window {
        Some(w) => top.abs_diff(start) <= w,
        None => true,
    };

    // Visit the nearer end first to minimize swap work.
    let directions: [bool; 2] = if start >= n / 2 {
        [true, false]
    } else {
        [false, true]
    };
    // On abort we fall through to the park-back loop below before
    // returning the error, so the order is always left consistent.
    let mut abort: Option<OpAbort> = None;
    'exploration: for &down in &directions {
        loop {
            let top = b.position_of(lead_var);
            if down && top + len >= n {
                break;
            }
            if !down && top == 0 {
                break;
            }
            let next_top = if down { top + 1 } else { top - 1 };
            if !in_window(next_top) {
                break;
            }
            // Every later size in this direction is at least the settled
            // width, and `best_top` moves only on a strict improvement, so
            // the cut never changes where the group parks.
            if b.settled_width(top, len, down) >= best_size {
                break;
            }
            if let Err(reason) = budget.checkpoint() {
                abort = Some(reason);
                break 'exploration;
            }
            move_group(b, top, len, down);
            let size = b.sweep();
            if size < best_size {
                best_size = size;
                best_top = next_top;
            }
            if size > limit(best_size) {
                break;
            }
        }
    }
    // Return to the best position (un-budgeted: at most one sweep).
    loop {
        let top = b.position_of(lead_var);
        match top.cmp(&best_top) {
            std::cmp::Ordering::Less => move_group(b, top, len, true),
            std::cmp::Ordering::Greater => move_group(b, top, len, false),
            std::cmp::Ordering::Equal => break,
        }
    }
    match abort {
        Some(reason) => Err(reason),
        None => Ok(()),
    }
}

/// One full pass over `groups` (each a contiguous run of variables given
/// top-to-bottom, widest group first), sifting each in turn.
fn sift_pass<B: ReorderBackend>(
    b: &mut B,
    groups: &[(usize, usize)], // (lead variable, group length)
    window: Option<usize>,
    params: &SiftParams,
    budget: &mut OpBudget,
) -> Result<(), OpAbort> {
    for &(lead, len) in groups {
        sift_group(b, lead, len, window, params, budget)?;
    }
    Ok(())
}

/// Run `passes` (at least one) strategy passes inside the backend's
/// reorder scope. The scope is closed on every exit path, so an abort
/// never leaves sift-scoped state behind.
fn scoped_passes<B: ReorderBackend>(
    b: &mut B,
    passes: usize,
    budget: &mut OpBudget,
    mut pass: impl FnMut(&mut B, &mut OpBudget) -> Result<(), OpAbort>,
) -> Result<usize, OpAbort> {
    // Span covers the whole strategy run; an abort drops it without the
    // live-count arg, which is how a cut-short reorder reads in a trace.
    let mut span = crate::obs::span(crate::obs::Op::Reorder);
    b.begin_reorder();
    let mut res = Ok(());
    for _ in 0..passes.max(1) {
        if b.num_vars() < 2 {
            break;
        }
        res = pass(b, budget);
        if res.is_err() {
            break;
        }
    }
    let live = b.end_reorder();
    res?;
    span.set_arg("live_nodes", live as u64);
    Ok(live)
}

/// Singleton groups for all variables, processed by decreasing level
/// population (the classic heuristic: the widest level has the most to
/// gain), position as the deterministic tie-break.
fn singleton_groups<B: ReorderBackend>(b: &B) -> Vec<(usize, usize)> {
    let mut groups: Vec<(usize, usize)> = (0..b.num_vars()).map(|v| (v, 1)).collect();
    groups.sort_by_key(|&(v, _)| (std::cmp::Reverse(b.var_width(v)), b.position_of(v)));
    groups
}

/// A pluggable reordering algorithm, generic over any [`ReorderBackend`].
///
/// Strategies are value types (the three shipped ones are `Copy` configs);
/// [`DvoStrategy`] is the erased, parseable form policies and CLIs carry.
pub trait ReorderStrategy {
    /// Stable identifier (the CLI token).
    fn name(&self) -> &'static str;

    /// Run the strategy to completion under `budget`, returning the live
    /// node count when the reorder scope closes.
    ///
    /// # Errors
    /// The budget's abort reason; the backend's order is consistent (the
    /// group being sifted was parked back) when this returns `Err`.
    fn reorder<B: ReorderBackend>(
        &self,
        b: &mut B,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort>;
}

/// Classic Rudell sifting: every variable moves alone through all
/// positions and parks at its best.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FullSift {
    /// Shared sifting knobs.
    pub params: SiftParams,
}

impl ReorderStrategy for FullSift {
    fn name(&self) -> &'static str {
        "full"
    }

    fn reorder<B: ReorderBackend>(
        &self,
        b: &mut B,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        scoped_passes(b, self.params.passes, budget, |b, budget| {
            let groups = singleton_groups(b);
            sift_pass(b, &groups, None, &self.params, budget)
        })
    }
}

/// Bounded sifting: like [`FullSift`] but each variable explores only
/// `radius` positions around where it started — `O(n · radius)` swaps per
/// pass instead of `O(n²)`, the right trade on wide orders or when
/// reordering runs on a schedule mid-build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSift {
    /// Exploration radius around each variable's start position.
    pub radius: usize,
    /// Shared sifting knobs.
    pub params: SiftParams,
}

impl Default for WindowSift {
    fn default() -> Self {
        WindowSift {
            radius: 2,
            params: SiftParams::default(),
        }
    }
}

impl ReorderStrategy for WindowSift {
    fn name(&self) -> &'static str {
        "window"
    }

    fn reorder<B: ReorderBackend>(
        &self,
        b: &mut B,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        scoped_passes(b, self.params.passes, budget, |b, budget| {
            let groups = singleton_groups(b);
            sift_pass(b, &groups, Some(self.radius.max(1)), &self.params, budget)
        })
    }
}

/// Pair-aware sifting: adjacent variables whose boundary carries a high
/// chain affinity ([`ReorderBackend::pair_affinity`]) are locked into
/// rigid pairs and sifted as units, so the biconditional pairs that make a
/// BBDD compact are never split by the sift itself. Unpaired variables
/// sift alone as usual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSift {
    /// Minimum affinity for two adjacent variables to be locked together.
    pub min_affinity: f64,
    /// Shared sifting knobs.
    pub params: SiftParams,
}

impl Default for PairSift {
    fn default() -> Self {
        PairSift {
            min_affinity: 0.5,
            params: SiftParams::default(),
        }
    }
}

impl PairSift {
    /// Greedy disjoint pairing by descending affinity, then singletons for
    /// the rest; groups ordered by total width (position tie-break).
    fn groups<B: ReorderBackend>(&self, b: &B) -> Vec<(usize, usize)> {
        let n = b.num_vars();
        let mut boundaries: Vec<(usize, f64)> = (0..n.saturating_sub(1))
            .map(|p| (p, b.pair_affinity(p)))
            .filter(|&(_, a)| a >= self.min_affinity)
            .collect();
        boundaries.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        let mut used = vec![false; n];
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for (p, _) in boundaries {
            if !used[p] && !used[p + 1] {
                used[p] = true;
                used[p + 1] = true;
                groups.push((b.var_at_position(p), 2));
            }
        }
        for (p, taken) in used.iter().enumerate() {
            if !taken {
                groups.push((b.var_at_position(p), 1));
            }
        }
        let width = |lead: usize, len: usize| {
            let top = b.position_of(lead);
            (0..len)
                .map(|i| b.var_width(b.var_at_position(top + i)))
                .sum::<usize>()
        };
        groups
            .sort_by_key(|&(lead, len)| (std::cmp::Reverse(width(lead, len)), b.position_of(lead)));
        groups
    }
}

impl ReorderStrategy for PairSift {
    fn name(&self) -> &'static str {
        "pair"
    }

    fn reorder<B: ReorderBackend>(
        &self,
        b: &mut B,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        scoped_passes(b, self.params.passes, budget, |b, budget| {
            // Pairing is recomputed per pass from the *current* order and
            // node population — an earlier pass (or a previous scheduled
            // reorder) changes both.
            let groups = self.groups(b);
            sift_pass(b, &groups, None, &self.params, budget)
        })
    }
}

/// The value form of a reorder strategy: what policies store, CLIs parse
/// and the trait-level `reorder_with` takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvoStrategy {
    /// Classic Rudell sifting ([`FullSift`]).
    Full,
    /// Window sifting with the given radius ([`WindowSift`]).
    Window(usize),
    /// Pair-aware group sifting ([`PairSift`] at its default affinity).
    Pair,
}

impl DvoStrategy {
    /// Dispatch to the concrete [`ReorderStrategy`].
    ///
    /// # Errors
    /// The budget's abort reason (order left consistent).
    pub fn run<B: ReorderBackend>(
        &self,
        b: &mut B,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        match *self {
            DvoStrategy::Full => FullSift::default().reorder(b, budget),
            DvoStrategy::Window(radius) => WindowSift {
                radius,
                ..WindowSift::default()
            }
            .reorder(b, budget),
            DvoStrategy::Pair => PairSift::default().reorder(b, budget),
        }
    }
}

impl std::fmt::Display for DvoStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DvoStrategy::Full => write!(f, "full"),
            DvoStrategy::Window(r) => write!(f, "window{r}"),
            DvoStrategy::Pair => write!(f, "pair"),
        }
    }
}

impl std::str::FromStr for DvoStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(DvoStrategy::Full),
            "pair" => Ok(DvoStrategy::Pair),
            "window" => Ok(DvoStrategy::Window(WindowSift::default().radius)),
            _ => {
                if let Some(r) = s.strip_prefix("window") {
                    let radius: usize = r
                        .parse()
                        .map_err(|_| format!("bad window radius in {s:?}"))?;
                    if radius == 0 {
                        return Err("window radius must be positive".into());
                    }
                    Ok(DvoStrategy::Window(radius))
                } else {
                    Err(format!(
                        "unknown strategy {s:?} (expected full, window[N] or pair)"
                    ))
                }
            }
        }
    }
}

/// When a policy's strategy fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReorderSchedule {
    /// Only explicit `reorder*` calls — the policy's strategy still picks
    /// the algorithm they run.
    Never,
    /// Fire once the live node count reaches an absolute threshold; after
    /// each firing the threshold re-arms at twice the post-reorder size
    /// (the classic auto-reorder discipline).
    NodeThreshold(usize),
    /// Fire when the live node count has grown by this factor since the
    /// last reorder (or since the policy was installed).
    GrowthFactor(f64),
    /// Fire after this many node creations since the last reorder.
    EveryCreations(u64),
}

impl std::fmt::Display for ReorderSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorderSchedule::Never => write!(f, "never"),
            ReorderSchedule::NodeThreshold(n) => write!(f, "thresh{n}"),
            ReorderSchedule::GrowthFactor(g) => write!(f, "growth{g}"),
            ReorderSchedule::EveryCreations(n) => write!(f, "nodes{n}"),
        }
    }
}

impl std::str::FromStr for ReorderSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "never" {
            return Ok(ReorderSchedule::Never);
        }
        if s == "growth" {
            return Ok(ReorderSchedule::GrowthFactor(2.0));
        }
        if let Some(rest) = s.strip_prefix("growth") {
            let f: f64 = rest
                .parse()
                .map_err(|_| format!("bad growth factor in {s:?}"))?;
            if f <= 1.0 {
                return Err("growth factor must exceed 1".into());
            }
            return Ok(ReorderSchedule::GrowthFactor(f));
        }
        if let Some(rest) = s.strip_prefix("thresh") {
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad threshold in {s:?}"))?;
            return Ok(ReorderSchedule::NodeThreshold(n.max(1)));
        }
        if let Some(rest) = s.strip_prefix("nodes") {
            let n: u64 = rest
                .parse()
                .map_err(|_| format!("bad creation count in {s:?}"))?;
            return Ok(ReorderSchedule::EveryCreations(n.max(1)));
        }
        Err(format!(
            "unknown schedule {s:?} (expected never, thresh<N>, growth[<F>] or nodes<N>)"
        ))
    }
}

/// A complete dynamic-reordering policy: which algorithm, fired when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvoPolicy {
    /// The algorithm scheduled firings (and explicit `reorder()` calls on
    /// a policy-carrying manager) run.
    pub strategy: DvoStrategy,
    /// When scheduled firings happen.
    pub schedule: ReorderSchedule,
}

impl std::fmt::Display for DvoPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.strategy, self.schedule)
    }
}

impl std::str::FromStr for DvoPolicy {
    type Err = String;

    /// Parse `<strategy>[:<schedule>]`; a missing schedule defaults to
    /// `growth2` (a bare `--dvo pair` means "reorder adaptively").
    fn from_str(s: &str) -> Result<Self, String> {
        let (strat, sched) = match s.split_once(':') {
            Some((a, b)) => (a, b.parse::<ReorderSchedule>()?),
            None => (s, ReorderSchedule::GrowthFactor(2.0)),
        };
        Ok(DvoPolicy {
            strategy: strat.parse()?,
            schedule: sched,
        })
    }
}

/// Per-manager schedule bookkeeping: the installed policy plus the
/// baselines its schedule measures growth against. Embedded in each
/// manager next to the GC latch (same pattern as
/// [`crate::roots::GcLatch`]).
#[derive(Debug, Default, Clone)]
pub struct DvoState {
    policy: Option<DvoPolicy>,
    /// Live-node re-arm point for [`ReorderSchedule::NodeThreshold`].
    thresh_arm: usize,
    /// Live count after the last reorder (growth-factor baseline).
    baseline_live: usize,
    /// `nodes_created` at the last reorder (creation-count baseline).
    created_mark: u64,
    /// Scheduled firings so far (observability; tests assert on it).
    reorders: u64,
}

impl DvoState {
    /// Install (or clear) the policy, resetting every schedule baseline to
    /// the manager's current counters.
    pub fn set_policy(&mut self, policy: Option<DvoPolicy>, live: usize, created: u64) {
        self.policy = policy;
        self.thresh_arm = match policy.map(|p| p.schedule) {
            Some(ReorderSchedule::NodeThreshold(n)) => n,
            _ => 0,
        };
        self.baseline_live = live;
        self.created_mark = created;
    }

    /// The installed policy.
    #[must_use]
    pub fn policy(&self) -> Option<DvoPolicy> {
        self.policy
    }

    /// The installed policy's strategy (for explicit `reorder()` calls).
    #[must_use]
    pub fn strategy(&self) -> Option<DvoStrategy> {
        self.policy.map(|p| p.strategy)
    }

    /// Scheduled reorders run so far.
    #[must_use]
    pub fn reorders(&self) -> u64 {
        self.reorders
    }

    /// Should a scheduled reorder fire, given the manager's current live
    /// node count and cumulative creation counter?
    #[must_use]
    pub fn due(&self, live: usize, created: u64) -> bool {
        match self.policy.map(|p| p.schedule) {
            None | Some(ReorderSchedule::Never) => false,
            Some(ReorderSchedule::NodeThreshold(_)) => live >= self.thresh_arm,
            Some(ReorderSchedule::GrowthFactor(f)) => {
                // An 8-node floor keeps sink-only managers from thrashing.
                live >= (self.baseline_live.max(8) as f64 * f) as usize
            }
            Some(ReorderSchedule::EveryCreations(n)) => {
                created.saturating_sub(self.created_mark) >= n
            }
        }
    }

    /// Re-arm every baseline after a reorder ran (or was aborted — an
    /// aborted scheduled sift still consumed its trigger, otherwise the
    /// very next operation boundary would fire and abort it again).
    pub fn note_reorder(&mut self, live: usize, created: u64) {
        self.reorders += 1;
        self.thresh_arm = (live * 2).max(self.thresh_arm);
        self.baseline_live = live;
        self.created_mark = created;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A permutation-only backend: no nodes, every order equally good.
    /// Exercises the engine's movement/bookkeeping, not its size decisions.
    struct PermBackend {
        var_at_pos: Vec<usize>,
        pos_of_var: Vec<usize>,
        swaps: usize,
        widths: Vec<usize>,
        affinity: Vec<f64>,
        /// Reorder scopes opened / closed.
        scopes: (usize, usize),
    }

    impl PermBackend {
        fn new(n: usize) -> Self {
            PermBackend {
                var_at_pos: (0..n).collect(),
                pos_of_var: (0..n).collect(),
                swaps: 0,
                widths: vec![1; n],
                affinity: vec![0.0; n.saturating_sub(1)],
                scopes: (0, 0),
            }
        }
    }

    impl ReorderBackend for PermBackend {
        fn num_vars(&self) -> usize {
            self.var_at_pos.len()
        }
        fn position_of(&self, var: usize) -> usize {
            self.pos_of_var[var]
        }
        fn var_at_position(&self, pos: usize) -> usize {
            self.var_at_pos[pos]
        }
        fn swap_positions(&mut self, pos: usize) {
            self.var_at_pos.swap(pos, pos + 1);
            self.pos_of_var[self.var_at_pos[pos]] = pos;
            self.pos_of_var[self.var_at_pos[pos + 1]] = pos + 1;
            self.swaps += 1;
        }
        fn sweep(&mut self) -> usize {
            self.widths.iter().sum()
        }
        fn begin_reorder(&mut self) {
            assert_eq!(self.scopes.0, self.scopes.1, "scopes do not nest");
            self.scopes.0 += 1;
        }
        fn end_reorder(&mut self) -> usize {
            self.scopes.1 += 1;
            assert_eq!(self.scopes.0, self.scopes.1, "closed an unopened scope");
            self.sweep()
        }
        fn var_width(&self, var: usize) -> usize {
            self.widths[var]
        }
        fn pair_affinity(&self, pos: usize) -> f64 {
            self.affinity[pos]
        }
    }

    fn is_permutation(b: &PermBackend) -> bool {
        let mut seen: Vec<usize> = b.var_at_pos.clone();
        seen.sort_unstable();
        seen == (0..b.num_vars()).collect::<Vec<_>>()
    }

    #[test]
    fn every_strategy_preserves_the_permutation() {
        for strategy in [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair] {
            let mut b = PermBackend::new(6);
            b.affinity = vec![0.9, 0.1, 0.9, 0.1, 0.9];
            strategy
                .run(&mut b, &mut OpBudget::unlimited())
                .expect("unlimited budget");
            assert!(is_permutation(&b), "{strategy}: {:?}", b.var_at_pos);
            // Equal sizes everywhere: every variable parks where it began.
            assert_eq!(b.var_at_pos, (0..6).collect::<Vec<_>>(), "{strategy}");
        }
    }

    #[test]
    fn pair_groups_are_disjoint_and_affinity_ranked() {
        let mut b = PermBackend::new(6);
        b.affinity = vec![0.9, 0.8, 0.2, 0.9, 0.0];
        let groups = PairSift::default().groups(&b);
        // Boundary 0 (0.9) pairs (0,1); boundary 1 conflicts; boundary 3
        // (0.9) pairs (3,4); the rest are singletons.
        let pairs: Vec<(usize, usize)> = groups.iter().copied().filter(|&(_, l)| l == 2).collect();
        assert_eq!(pairs, vec![(0, 2), (3, 2)]);
        let singles: Vec<usize> = groups
            .iter()
            .filter(|&&(_, l)| l == 1)
            .map(|&(v, _)| v)
            .collect();
        assert_eq!(singles, vec![2, 5]);
    }

    #[test]
    fn aborted_sift_parks_back_and_reports() {
        let mut b = PermBackend::new(8);
        let mut budget = OpBudget::unlimited().inject_cancel_at(3);
        let res = FullSift::default().reorder(&mut b, &mut budget);
        assert_eq!(res, Err(OpAbort::Cancelled));
        assert!(is_permutation(&b));
        assert_eq!(b.var_at_pos, (0..8).collect::<Vec<_>>(), "parked back");
        assert_eq!(b.scopes, (1, 1), "an abort still closes the scope");
    }

    #[test]
    fn every_strategy_runs_in_one_scope() {
        for strategy in [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair] {
            let mut b = PermBackend::new(5);
            let params = SiftParams {
                passes: 3,
                ..SiftParams::default()
            };
            let live = match strategy {
                DvoStrategy::Full => {
                    FullSift { params }.reorder(&mut b, &mut OpBudget::unlimited())
                }
                DvoStrategy::Window(radius) => {
                    WindowSift { radius, params }.reorder(&mut b, &mut OpBudget::unlimited())
                }
                DvoStrategy::Pair => PairSift {
                    params,
                    ..PairSift::default()
                }
                .reorder(&mut b, &mut OpBudget::unlimited()),
            };
            assert_eq!(live, Ok(5), "{strategy}");
            assert_eq!(b.scopes, (1, 1), "{strategy}: one scope for all passes");
        }
    }

    #[test]
    fn moving_a_pair_preserves_inner_order() {
        let mut b = PermBackend::new(5);
        move_group(&mut b, 0, 2, true); // [0,1] down past 2
        assert_eq!(b.var_at_pos, vec![2, 0, 1, 3, 4]);
        move_group(&mut b, 1, 2, true);
        assert_eq!(b.var_at_pos, vec![2, 3, 0, 1, 4]);
        move_group(&mut b, 2, 2, false);
        assert_eq!(b.var_at_pos, vec![2, 0, 1, 3, 4]);
        assert_eq!(b.swaps, 6, "two swaps per pair step");
    }

    #[test]
    fn parsing_round_trips() {
        for s in ["full", "window3", "pair"] {
            let strat: DvoStrategy = s.parse().unwrap();
            assert_eq!(strat.to_string(), s);
        }
        assert_eq!(
            "window".parse::<DvoStrategy>().unwrap(),
            DvoStrategy::Window(2)
        );
        for s in ["never", "thresh100", "growth1.5", "nodes4096"] {
            let sched: ReorderSchedule = s.parse().unwrap();
            assert_eq!(sched.to_string(), s);
        }
        let p: DvoPolicy = "pair:nodes256".parse().unwrap();
        assert_eq!(p.strategy, DvoStrategy::Pair);
        assert_eq!(p.schedule, ReorderSchedule::EveryCreations(256));
        let bare: DvoPolicy = "full".parse().unwrap();
        assert_eq!(bare.schedule, ReorderSchedule::GrowthFactor(2.0));
        assert!("bogus".parse::<DvoStrategy>().is_err());
        assert!("growth0.5".parse::<ReorderSchedule>().is_err());
        assert!("window0".parse::<DvoStrategy>().is_err());
    }

    #[test]
    fn schedule_state_fires_and_rearms() {
        let mut st = DvoState::default();
        assert!(!st.due(1 << 20, 1 << 20), "no policy, never due");
        st.set_policy(
            Some(DvoPolicy {
                strategy: DvoStrategy::Full,
                schedule: ReorderSchedule::NodeThreshold(100),
            }),
            10,
            0,
        );
        assert!(!st.due(99, 0));
        assert!(st.due(100, 0));
        st.note_reorder(80, 0);
        assert!(!st.due(120, 0), "re-armed at 2x the post-reorder size");
        assert!(st.due(160, 0));

        st.set_policy(
            Some(DvoPolicy {
                strategy: DvoStrategy::Pair,
                schedule: ReorderSchedule::GrowthFactor(2.0),
            }),
            50,
            0,
        );
        assert!(!st.due(99, 0));
        assert!(st.due(100, 0));

        st.set_policy(
            Some(DvoPolicy {
                strategy: DvoStrategy::Full,
                schedule: ReorderSchedule::EveryCreations(1000),
            }),
            0,
            5000,
        );
        assert!(!st.due(0, 5999));
        assert!(st.due(0, 6000));
        st.note_reorder(0, 6100);
        assert!(!st.due(0, 7099));
        assert!(st.due(0, 7100));
        assert_eq!(st.reorders(), 2);
    }
}
