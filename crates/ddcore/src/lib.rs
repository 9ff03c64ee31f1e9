//! Shared infrastructure for the decision-diagram packages in this workspace.
//!
//! The DATE 2014 BBDD paper (§IV-A3, *Memory Management*) describes three
//! implementation ingredients that are independent of the diagram type:
//!
//! 1. a **Cantor-pairing hash** family, `C(i,j) = ½(i+j)(i+j+1) + i`, nested
//!    for wider tuples and reduced modulo a large prime before the final
//!    table-size modulo ([`cantor`]);
//! 2. an **adaptive hash table** used as the *unique table*, which resizes
//!    on load and can re-arrange its hash function when collision
//!    statistics degrade ([`table`]). The tables store node ids only and
//!    read keys from the owner's node arena ([`table::KeyStore`]). Two
//!    implementations exist: the cache-friendly open-addressed
//!    [`table::OpenTable`] (default) and the seed's chained
//!    [`table::BucketTable`] (the `chained_tables` ablation feature);
//!    [`table::UniqueTable`] aliases the selected one;
//! 3. an **overwrite-on-collision cache** used as the *computed table*,
//!    2-way set-associative with an age-based victim bit ([`cache`]).
//!
//! Both the BBDD package (`bbdd` crate) and the ROBDD baseline (`robdd`
//! crate) are built on these primitives, so the Table-I runtime comparison
//! measures the *algorithms*, not incidental infrastructure differences.
//!
//! On top of the storage primitives, two pieces of shared *operation*
//! infrastructure keep the managers' op suites aligned: the computed-table
//! tag registry ([`optag`]) naming every cached operation (apply, ite,
//! quantification, composition), and the n-ary operator tables ([`nary`])
//! backing the generic n-ary `apply`.
//!
//! The [`roots`] module holds the shared external-root registry behind the
//! managers' owned function handles (`bbdd::BbddFn` / `robdd::RobddFn`):
//! GC and reordering trace from the registry instead of caller-supplied
//! `roots: &[Edge]` lists, making the forgotten-root bug class
//! unrepresentable.
//!
//! The [`par`] module holds the one generic parallel pipeline, [`Par`]
//! (`bbdd::ParBbdd` and `robdd::ParRobdd` are its instances over the two
//! managers' [`NodeShape`] impls), and the multi-core primitives it is
//! built from: a sharded concurrent unique table, a lossy lock-free
//! computed cache, an append-only overlay arena and a std-only fork-join
//! helper — all safe Rust (this crate forbids `unsafe`).
//!
//! The [`dvo`] module is the dynamic-variable-ordering engine: pluggable
//! reorder strategies (full/window/pair-aware sifting) over a small
//! [`dvo::ReorderBackend`] contract, plus the adaptive schedules that fire
//! them mid-build at the managers' GC-latch boundaries.
//!
//! The [`obs`] module is the unified observability layer: a cross-backend
//! metrics registry ([`obs::MetricsSnapshot`], filled through
//! [`api::RawManager::observe`]), a bounded trace ring exporting Chrome
//! `trace_event` JSON, and per-op profiling histograms — all zero-cost
//! when disabled.
//!
//! The [`walk`] module writes the read-only walks (node and model
//! counting, profiles, DOT, the cutoff probe) once, over one per-manager
//! visit scratch instead of a hash table per call.
//!
//! The [`session`] module is the MVCC serving layer built over the same
//! frozen-base / overlay / deterministic-commit design the parallel
//! managers use per operation: immutable `Arc`-shared base snapshots
//! holding a published function library ([`session::SharedBase`]),
//! per-client overlay sessions with budget-based admission control
//! ([`session::Session`]), and epoch-based reclamation
//! ([`session::EpochTracker`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod boolop;
pub mod cache;
pub mod cantor;
pub mod dvo;
pub mod fxhash;
pub mod govern;
pub mod nary;
pub mod obs;
pub mod optag;
pub mod par;
pub mod roots;
pub mod session;
pub mod stats;
pub mod table;
pub mod walk;

/// The most variables a manager supports: both backends index levels and
/// variables with 16 bits and reserve `u16::MAX` for the sink. Front doors
/// (DIMACS headers, netlist inputs) reject anything wider with an error
/// naming this limit.
pub const MAX_VARS: usize = u16::MAX as usize - 1;

pub use api::{BooleanFunction, Function, FunctionManager, ManagerRef, RawManager};
pub use boolop::{BoolOp, Unary};
pub use cache::{CacheStats, ComputedCache};
pub use cantor::{cantor_pair, CantorHasher, HashArrangement};
pub use dvo::{
    DvoPolicy, DvoState, DvoStrategy, FullSift, PairSift, ReorderBackend, ReorderSchedule,
    ReorderStrategy, SiftParams, WindowSift,
};
pub use fxhash::{FxHashMap, FxHashSet};
pub use govern::{Admission, CancelToken, OpAbort, OpBudget};
pub use nary::NaryOp;
pub use obs::{
    GovernCounters, MemBytes, Metric, MetricKind, MetricsSnapshot, ProfileSnapshot, TraceEvent,
};
pub use par::{
    AtomicCache, AtomicCacheStats, NodeShape, OverlayArena, Par, ParConfig, ParStats, ShardStats,
    ShardedTable, TaskPanic,
};
pub use roots::RootSet;
pub use session::{
    CecOutcome, EpochTracker, Library, Session, SessionBackend, SessionError, SharedBase,
};
pub use stats::TableStats;
pub use table::{BucketTable, KeyStore, OpenTable, UniqueTable, NIL};
pub use walk::{NodeGraph, WalkScratch};
