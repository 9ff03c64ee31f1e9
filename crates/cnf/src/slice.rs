//! Exact model counting, whole and sliced.
//!
//! **Whole**: build the instance under a schedule, then count over the
//! declared variable universe ([`count_cnf`]).
//!
//! **Sliced**: pick a splitting set `S` of `k` variables, and for each of
//! the `2^k` assignments `α` to `S` count the *cofactor instance*
//! `F|α ∧ α` — the clauses simplified under `α` (satisfied clauses
//! dropped, falsified literals stripped) conjoined with unit clauses
//! pinning `α` itself. The `2^k` slice counts are taken over the same
//! declared universe, their model sets partition the models of `F`
//! (every model of `F` sets `S` in exactly one way), so the slice counts
//! **sum bit-exactly to the whole count**. Each slice runs under its own
//! budget in its own manager; a slice that blows its budget is recorded
//! as aborted and the recombined verdict degrades from exact to
//! `partial` (a lower bound) instead of failing the whole instance.
//!
//! Slices are independent by construction, so [`count_sliced_par`] fans
//! them out on the `ddcore::par` fork-join pool, one private manager per
//! slice, with deterministic results for every thread count.

use crate::build::{try_build_cnf, BuildStats};
use crate::dimacs::Cnf;
use crate::schedule::ClauseSchedule;
use ddcore::api::{BooleanFunction, FunctionManager};
use ddcore::govern::{OpAbort, OpBudget};
use std::sync::Mutex;

/// Why a whole-instance count produced no number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountError {
    /// The budget stopped the build or the count.
    Aborted {
        /// The budget's abort reason.
        reason: OpAbort,
        /// Clauses conjoined before the abort.
        clauses_done: u64,
    },
    /// The count is not exactly representable in `u128` (more than 127
    /// declared or manager variables).
    Unrepresentable,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::Aborted {
                reason,
                clauses_done,
            } => write!(f, "count aborted ({reason}) after {clauses_done} clauses"),
            CountError::Unrepresentable => write!(f, "count not representable in u128"),
        }
    }
}

impl std::error::Error for CountError {}

/// Build `cnf` under `schedule` in `mgr` and model-count it over the
/// declared `cnf.num_vars` universe, all under one budget.
///
/// # Errors
/// [`CountError::Aborted`] when the budget runs out,
/// [`CountError::Unrepresentable`] past the 127-variable `u128` ceiling.
pub fn count_cnf<M: FunctionManager, S: ClauseSchedule>(
    mgr: &M,
    cnf: &Cnf,
    schedule: &S,
    budget: &mut OpBudget,
) -> Result<(u128, BuildStats), CountError> {
    let plan = schedule.plan(cnf);
    let (f, stats) = try_build_cnf(mgr, cnf, &plan, budget).map_err(|e| CountError::Aborted {
        reason: e.reason,
        clauses_done: e.clauses_done,
    })?;
    let count = f
        .try_sat_count_over(cnf.num_vars, budget)
        .map_err(|reason| CountError::Aborted {
            reason,
            clauses_done: stats.clauses_scheduled,
        })?
        .ok_or(CountError::Unrepresentable)?;
    Ok((count, stats))
}

// ───────────────────────── slicing ────────────────────────────────────────

/// The splitting set for `k`-way slicing: the `k` most frequently
/// occurring variables (ties by ascending index), clamped to the
/// variables that actually occur. Splitting on a hot variable simplifies
/// the most clauses per slice.
#[must_use]
pub fn splitting_set(cnf: &Cnf, k: usize) -> Vec<usize> {
    let occ = cnf.occurrences();
    let mut vars: Vec<usize> = (0..cnf.num_vars).filter(|&v| occ[v] > 0).collect();
    vars.sort_by_key(|&v| (std::cmp::Reverse(occ[v]), v));
    vars.truncate(k);
    vars.sort_unstable();
    vars
}

/// The cofactor instance `F|α ∧ α` for a fixed partial assignment:
/// satisfied clauses dropped, falsified literals stripped, and one unit
/// clause per fixed variable so the slice's models are exactly the
/// models of `F` extending `α`. The declared universe is unchanged.
#[must_use]
pub fn cofactor_cnf(cnf: &Cnf, fixed: &[(usize, bool)]) -> Cnf {
    let mut value = vec![None::<bool>; cnf.num_vars];
    for &(v, b) in fixed {
        value[v] = Some(b);
    }
    let mut out = Cnf::new(cnf.num_vars);
    for c in &cnf.clauses {
        let mut kept: Vec<i32> = Vec::with_capacity(c.len());
        let mut satisfied = false;
        for &l in c {
            let v = (l.unsigned_abs() - 1) as usize;
            match value[v] {
                Some(b) if b == (l > 0) => {
                    satisfied = true;
                    break;
                }
                Some(_) => {} // falsified literal: strip
                None => kept.push(l),
            }
        }
        if !satisfied {
            out.clauses.push(kept);
        }
    }
    for &(v, b) in fixed {
        let lit = (v + 1) as i32;
        out.clauses.push(vec![if b { lit } else { -lit }]);
    }
    out
}

/// One slice's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOutcome {
    /// Which of the `2^k` assignments (bit `i` = value of the `i`-th
    /// splitting variable).
    pub index: usize,
    /// The slice's exact count, when it finished.
    pub count: Option<u128>,
    /// The abort reason, when it did not.
    pub aborted: Option<OpAbort>,
    /// Build counters for this slice.
    pub stats: BuildStats,
}

/// The recombined verdict of a sliced count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedCount {
    /// Sum of the completed slices' counts: the exact total when
    /// `partial` is false, otherwise an exact *lower bound*.
    pub total: u128,
    /// True when at least one slice aborted — the total covers only the
    /// completed region of the assignment space.
    pub partial: bool,
    /// The splitting set used (ascending variable indices).
    pub splitting: Vec<usize>,
    /// Per-slice outcomes, index order.
    pub slices: Vec<SliceOutcome>,
}

impl SlicedCount {
    /// Slices that finished.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.slices.iter().filter(|s| s.count.is_some()).count()
    }

    /// Slices that aborted.
    #[must_use]
    pub fn aborted(&self) -> usize {
        self.slices.len() - self.completed()
    }

    /// Peak intermediate conjunction size over all slices.
    #[must_use]
    pub fn peak_nodes(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.stats.conj_peak_nodes)
            .max()
            .unwrap_or(0)
    }

    fn from_outcomes(splitting: Vec<usize>, slices: Vec<SliceOutcome>) -> Self {
        let total = slices.iter().filter_map(|s| s.count).sum();
        let partial = slices.iter().any(|s| s.count.is_none());
        SlicedCount {
            total,
            partial,
            splitting,
            slices,
        }
    }
}

fn count_one_slice<M: FunctionManager, S: ClauseSchedule>(
    mgr: &M,
    cnf: &Cnf,
    splitting: &[usize],
    schedule: &S,
    index: usize,
    budget: &mut OpBudget,
) -> SliceOutcome {
    let fixed: Vec<(usize, bool)> = splitting
        .iter()
        .enumerate()
        .map(|(bit, &v)| (v, (index >> bit) & 1 == 1))
        .collect();
    let slice = cofactor_cnf(cnf, &fixed);
    match count_cnf(mgr, &slice, schedule, budget) {
        Ok((count, stats)) => SliceOutcome {
            index,
            count: Some(count),
            aborted: None,
            stats,
        },
        Err(CountError::Aborted { reason, .. }) => SliceOutcome {
            index,
            count: None,
            aborted: Some(reason),
            stats: BuildStats::default(),
        },
        // Representability (> 127 declared vars) fails every slice
        // identically; callers should check it up front, so a slice that
        // still hits it is recorded as not-completed.
        Err(CountError::Unrepresentable) => SliceOutcome {
            index,
            count: None,
            aborted: Some(OpAbort::Cancelled),
            stats: BuildStats::default(),
        },
    }
}

/// Sequential sliced count: `2^k` cofactor instances (splitting set from
/// [`splitting_set`]), each built and counted in a fresh manager from
/// `make_mgr` under a fresh per-slice budget from `make_budget`, then
/// recombined. Aborted slices degrade the verdict to `partial` instead
/// of failing the instance. This is [`count_sliced_par`] on one thread.
pub fn count_sliced<M, S, FM, FB>(
    make_mgr: FM,
    make_budget: FB,
    cnf: &Cnf,
    schedule: &S,
    k: usize,
) -> SlicedCount
where
    M: FunctionManager,
    S: ClauseSchedule + Sync,
    FM: Fn() -> M + Sync,
    FB: Fn() -> OpBudget + Sync,
{
    count_sliced_par(1, make_mgr, make_budget, cnf, schedule, k)
}

/// [`count_sliced`] fanned out on the `ddcore::par` fork-join pool:
/// each worker builds its slices in private managers, so no
/// synchronization touches the diagrams and the recombined total is
/// identical for every thread count.
pub fn count_sliced_par<M, S, FM, FB>(
    threads: usize,
    make_mgr: FM,
    make_budget: FB,
    cnf: &Cnf,
    schedule: &S,
    k: usize,
) -> SlicedCount
where
    M: FunctionManager,
    S: ClauseSchedule + Sync,
    FM: Fn() -> M + Sync,
    FB: Fn() -> OpBudget + Sync,
{
    let splitting = splitting_set(cnf, k);
    let n_slices = 1usize << splitting.len();
    let results: Mutex<Vec<Option<SliceOutcome>>> = Mutex::new(vec![None; n_slices]);
    let _stats = ddcore::par::fork_join(threads.max(1), n_slices, |i| {
        let mgr = make_mgr();
        let mut budget = make_budget();
        let outcome = count_one_slice(&mgr, cnf, &splitting, schedule, i, &mut budget);
        results.lock().expect("slice results poisoned")[i] = Some(outcome);
    });
    let slices = results
        .into_inner()
        .expect("slice results poisoned")
        .into_iter()
        .map(|s| s.expect("fork_join ran every slice"))
        .collect();
    SlicedCount::from_outcomes(splitting, slices)
}
