//! The CNF/DIMACS front door: SAT-shaped workloads for the decision
//! diagram suite.
//!
//! Everything upstream of this crate is circuit-shaped (BLIF, structural
//! Verilog, generated netlists). This crate adds the other canonical
//! industrial workload — CNF — end to end:
//!
//! * [`dimacs`] — a strict DIMACS CNF parser (line-numbered rejections:
//!   garbage headers, out-of-range literals, missing `0` terminators,
//!   clause-count mismatches) and a round-tripping writer.
//! * [`schedule`] — clause scheduling behind the [`ClauseSchedule`] seam:
//!   file order, bucket clustering with balanced-tree conjunction, and a
//!   FORCE-style clause order.
//! * [`order`] — static *variable* orders for CNF (occurrence frequency,
//!   FORCE hypergraph placement), installed via
//!   `FunctionManager::set_order` before building.
//! * [`build`] — scheduled construction on the budgeted `try_*` API,
//!   with the manager's collection gate (and therefore any installed DVO
//!   schedule) firing every [`build::CLAUSE_STRIDE`] clauses; plus an
//!   edge-level variant for session forks.
//! * [`mod@slice`] — exact model counting over the *declared* variable
//!   universe (`sat_count_over` normalization), whole or sliced: `2^k`
//!   cofactor sub-instances counted independently — sequentially or on
//!   the fork-join pool — and recombined bit-exactly, with per-slice
//!   budget aborts degrading the verdict to `partial` instead of failing
//!   the instance.
//!
//! The CLI surface is `bbdd-cli count <file.cnf>`; the serve protocol
//! speaks `load_cnf`/`count`. See `DESIGN.md` § "CNF front door".
//!
//! ```
//! use cnf::{parse_dimacs, Schedule};
//!
//! let instance = cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
//! assert_eq!(instance.num_vars, 3);
//! assert_eq!(instance.brute_force_count(), Some(4));
//! // Plans are deterministic and cover every clause exactly once.
//! use cnf::schedule::ClauseSchedule;
//! let plan = Schedule::Bucket.plan(&instance);
//! assert!(plan.covers_exactly(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod dimacs;
pub mod order;
pub mod schedule;
pub mod slice;

pub use build::{build_cnf, try_build_cnf, try_build_cnf_raw, BuildAborted, BuildStats};
pub use dimacs::{parse_dimacs, Clause, Cnf, DimacsError, DimacsErrorKind, MAX_VARS};
pub use order::CnfOrder;
pub use schedule::{ClauseSchedule, Schedule, SchedulePlan};
pub use slice::{
    cofactor_cnf, count_cnf, count_sliced, count_sliced_par, splitting_set, CountError,
    SliceOutcome, SlicedCount,
};
