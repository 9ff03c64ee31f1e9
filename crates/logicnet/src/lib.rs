//! # logicnet — combinational logic networks for the BBDD reproduction
//!
//! The DATE 2014 BBDD package consumes "a Verilog description of a
//! combinational logic network, flattened onto primitive Boolean operations
//! (XOR, AND, OR, INV, BUF)", while the CUDD baseline consumes BLIF
//! (§IV-B). This crate provides the corresponding substrate:
//!
//! * a gate-level **network IR** ([`Network`], [`Gate`], [`GateOp`]) with
//!   structural validation and topological evaluation;
//! * a **BLIF** reader/writer ([`blif`]);
//! * a flattened **structural-Verilog** reader/writer ([`verilog`]);
//! * **bit-parallel simulation** (64 vectors per word) and randomized
//!   equivalence checking ([`sim`]);
//! * a **combinational equivalence checker** ([`cec`]) proving two
//!   networks equal through XOR miters + existential quantification on
//!   any decision-diagram backend;
//! * **static variable-ordering heuristics** ([`order`]): FORCE and
//!   fan-in DFS computed from network structure before any node is built;
//! * one generic **decision-diagram builder** ([`build::build_network`]),
//!   written against the [`ddcore::api`] trait family and therefore
//!   driving all four managers in the workspace — exactly one traversal,
//!   backend chosen by the caller;
//! * a **library publisher** ([`publish::publish_networks`]) building one
//!   or more networks over a shared variable space and freezing them into
//!   an immutable `ddcore::session::SharedBase` snapshot, the entry point
//!   of the MVCC serving layer.
//!
//! ```
//! use logicnet::{Network, GateOp};
//! use logicnet::build::build_network;
//! use bbdd::prelude::*;
//!
//! let mut net = Network::new("toy");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(GateOp::Xor, &[a, b]);
//! net.set_output("y", g);
//! net.check().unwrap();
//!
//! let mgr = BbddManager::with_vars(net.num_inputs());
//! let outs = build_network(&mgr, &net); // Vec<BbddFn> — owned, GC-safe
//! assert!(outs[0].eval(&[true, false]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blif;
pub mod build;
pub mod cec;
mod form;
mod ir;
pub mod order;
pub mod publish;
pub mod sim;
pub mod verilog;

pub use ir::{Gate, GateOp, Network, NetworkError, Signal};
pub use order::{apply_static_order, fanin_order, force_order, static_order, StaticOrder};
