//! # robdd — a state-of-the-art-style ROBDD manipulation package
//!
//! This crate is the **baseline** of the DATE 2014 BBDD reproduction: a
//! Reduced Ordered Binary Decision Diagram package in the mould of CUDD
//! 2.5.0 (the comparison package of the paper's Table I), built on the same
//! shared infrastructure (`ddcore`) as the BBDD package so that runtime
//! comparisons measure the *diagram algorithms* rather than incidental
//! engineering differences.
//!
//! Features, mirroring §II-B of the paper:
//!
//! * Shannon-expansion nodes with **complement attributes** (only the 1 sink
//!   exists; stored nodes keep a regular *then*-edge for canonicity);
//! * a **unique table** per variable (strong canonical form: pointer
//!   equality ⇔ function equality);
//! * a **computed table** for the recursive `apply`/`ite` operators;
//! * mark-and-sweep **garbage collection** tracing the owned-handle
//!   registry ([`RobddFn`], mirror of `bbdd::BbddFn`) — `gc()`/`sift()`
//!   take no root lists, and `set_gc_threshold` arms automatic GC;
//! * classic in-place adjacent **variable swap** and **Rudell sifting**.
//!
//! ```
//! use robdd::Robdd;
//! let mut mgr = Robdd::new(3);
//! let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//! let ab = mgr.and(a, b);
//! let f = mgr.or(ab, c);
//! assert_eq!(mgr.sat_count(f), 5);
//! ```
//!
//! This crate is a facade: the package is [`ddcore::robdd`], next to the
//! kernel it plugs into, and everything here is re-exported from it. The
//! crate keeps its name and its `chained_tables` feature for the tools and
//! tests that name them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ddcore::robdd::*;
