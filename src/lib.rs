//! Umbrella crate for the BBDD reproduction suite.
//!
//! This crate re-exports the workspace members so that the runnable
//! `examples/` and the cross-crate integration `tests/` at the repository
//! root can exercise the whole system through one dependency:
//!
//! * [`bbdd`] — the Biconditional BDD manipulation package (the paper's
//!   primary contribution);
//! * [`robdd`] — the CUDD-style ROBDD baseline package;
//! * [`logicnet`] — logic-network IR with BLIF / structural-Verilog I/O;
//! * [`benchgen`] — MCNC stand-in and datapath benchmark generators;
//! * [`synthkit`] — cell library, technology mapper, static timing and the
//!   BBDD datapath-rewriting front-end;
//! * [`ddcore`] — shared table/cache/hash infrastructure.
//!
//! See `DESIGN.md` for the system inventory and storage layout,
//! `CHANGES.md` for the per-PR history with measured benchmark numbers,
//! and `BENCH_ops.json` (regenerated by
//! `cargo run --release -p bbdd-bench --bin baseline`) for the last
//! recorded machine-readable performance snapshot (taken at `e592727` on
//! a one-thread container; perfbench measures the current code).
//!
//! All of it is driven through **one API**: the [`ddcore::api`] trait
//! family (`FunctionManager` + `BooleanFunction`), implemented by all four
//! managers (`Bbdd`, `Robdd`, `ParBbdd`, `ParRobdd`) with static dispatch
//! and re-exported through `bbdd::prelude` / `robdd::prelude`.
//!
//! ## Quickstart: BLIF → BBDD → equivalence check
//!
//! The README's quickstart, kept compiling as a doc-test:
//!
//! ```
//! use bbdd_suite::*;
//! use bbdd::prelude::*;
//! use logicnet::build::build_network;
//! use logicnet::cec::{check_equivalence, CecVerdict};
//!
//! // Parse two BLIF descriptions of a full adder — one sum-of-products,
//! // one XOR-decomposed.
//! let sop = logicnet::blif::parse_blif(
//!     ".model fa_sop\n.inputs a b cin\n.outputs s cout\n\
//!      .names a b cin s\n100 1\n010 1\n001 1\n111 1\n\
//!      .names a b cin cout\n11- 1\n1-1 1\n-11 1\n.end\n",
//! )
//! .unwrap();
//! let xor = logicnet::blif::parse_blif(
//!     ".model fa_xor\n.inputs a b cin\n.outputs s cout\n\
//!      .names a b p\n10 1\n01 1\n\
//!      .names p cin s\n10 1\n01 1\n\
//!      .names a b g\n11 1\n.names p cin q\n11 1\n\
//!      .names g q cout\n1- 1\n-1 1\n.end\n",
//! )
//! .unwrap();
//!
//! // Build one of them as a Biconditional BDD and query it. The builder
//! // returns owned `BbddFn` handles: each one is a registered GC root, so
//! // no later collection or reorder can invalidate it.
//! let mgr = BbddManager::with_vars(sop.num_inputs());
//! let outputs = build_network(&mgr, &sop);
//! assert_eq!(outputs[1].sat_count(), 4); // cout has 4 minterms
//!
//! // Prove the two netlists equivalent: XOR miter + ∃-quantification.
//! let verdict = check_equivalence(&mgr, &sop, &xor);
//! assert_eq!(verdict, CecVerdict::Equivalent);
//! ```
//!
//! ## Multi-core quickstart: `ParBbdd`
//!
//! The README's parallel-manager snippet, kept compiling as a doc-test.
//! `ParBbdd`/`ParRobdd` are drop-in fork-join backends whose results are
//! bit-identical for every thread count — behind the same trait API:
//!
//! ```
//! use bbdd::prelude::*;
//!
//! // 24 variables, up to 4 threads (or ParBbdd::from_env for BBDD_THREADS).
//! let mgr = ParBbddManager::new(ParBbdd::new(24, 4));
//! let (a, b) = (mgr.var(0), mgr.var(1));
//! let f = &a ^ &b;
//! let mut assignment = vec![false; 24];
//! assignment[0] = true;
//! assert!(f.eval(&assignment));
//! let stats = mgr.backend().par_stats(); // shards, cache, per-worker split
//! assert_eq!(stats.tasks_stolen, stats.tasks_by_worker.iter().skip(1).sum::<u64>());
//! ```
//!
//! ## Per-request limits: budgets, deadlines, cancellation
//!
//! The README's resource-governance snippet, kept compiling as a
//! doc-test. Every operation has a fallible `try_*` twin taking an
//! [`ddcore::govern::OpBudget`]; on abort the manager stays fully usable
//! (see `DESIGN.md` "Resource governance & abort safety"):
//!
//! ```
//! use bbdd::prelude::*;
//! use ddcore::govern::{CancelToken, OpAbort, OpBudget};
//! use std::time::Duration;
//!
//! let mgr = BbddManager::with_vars(24);
//! let token = CancelToken::new(); // clone to another thread; .cancel() aborts
//! let mut budget = OpBudget::unlimited()
//!     .with_node_limit(1_000_000)
//!     .with_deadline_in(Duration::from_millis(50))
//!     .with_cancel(&token);
//! // One budget spans a whole request: the headroom depletes across calls.
//! let a = mgr.var(0);
//! let b = mgr.var(1);
//! match a.try_xor(&b, &mut budget) {
//!     Ok(f) => assert!(!f.is_constant()),
//!     Err(OpAbort::NodeBudget | OpAbort::Deadline | OpAbort::Cancelled) => {
//!         // Manager still consistent: retry smaller, or report and move on.
//!     }
//! }
//! ```
//!
//! ## Serving: sessions over a published snapshot
//!
//! The README's serving snippet, kept compiling as a doc-test. A network
//! library is published once as an immutable [`ddcore::session::SharedBase`];
//! clients fork lock-free [`ddcore::session::Session`]s from it, and the
//! [`serve`] module speaks newline-delimited JSON over stdio or TCP
//! (`bbdd-cli serve`):
//!
//! ```
//! use bbdd::Bbdd;
//! use bbdd_suite::serve::{run_batch, ServeConfig};
//! use logicnet::publish::publish_networks;
//! use logicnet::{GateOp, Network};
//!
//! let mut net = Network::new("toy");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(GateOp::Xor, &[a, b]);
//! net.set_output("y", g);
//!
//! let base = publish_networks::<Bbdd>(&[&net]).unwrap();
//! let out = run_batch(
//!     &base,
//!     &ServeConfig::default(),
//!     &[r#"{"op":"sat_count","id":1,"f":"y"}"#.to_string()],
//! );
//! assert!(out.responses[0].contains(r#""count":"2""#));
//! ```

pub mod serve;

pub use bbdd;
pub use benchgen;
pub use cnf;
pub use ddcore;
pub use logicnet;
pub use robdd;
pub use synthkit;
