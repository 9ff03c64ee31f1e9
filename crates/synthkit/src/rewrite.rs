//! Decision-diagram → netlist conversion: the paper's datapath re-writing
//! front-end (§V-A), generalized over every manager in the workspace.
//!
//! The BBDD dump is the paper's: every biconditional node becomes a 2:1
//! multiplexer whose select is the comparator `PV ⊙ SV`; all nodes of one
//! CVO level share that single XNOR (the comparator is a property of the
//! level, not of the node), which is exactly why "BBDD nodes inherently
//! act as two-variable comparators" turns into compact mapped netlists on
//! a library with XNOR-2 cells. Shannon (R4) nodes pass the PV literal
//! through, and complement attributes become shared inverters.
//!
//! The ROBDD dump is the Shannon analogue — one multiplexer per node with
//! the tested variable as the select — so the same synthesis flow can be
//! driven by either package and the Table-II methodology extends to a
//! BDD-first flow for free.
//!
//! [`DiagramRewrite`] packages the conversion as a capability on top of
//! [`FunctionManager`]: the synthesis flow ([`crate::flow`]) and the CLI
//! are written once against it and select a backend at runtime.

use bbdd::Bbdd;
use ddcore::api::FunctionManager;
use ddcore::par::PackedEdge;
use ddcore::walk;
use logicnet::build::build_network;
use logicnet::cec::{check_equivalence_bbdd, CecVerdict};
use logicnet::{GateOp, Network, Signal};
use robdd::Robdd;
use std::collections::HashMap;

/// A manager whose diagrams can be dumped back as a gate-level network —
/// the capability the manager-generic synthesis flow and the CLI are
/// written against. Implemented by all four managers.
pub trait DiagramRewrite: FunctionManager {
    /// Convert the diagrams rooted at `roots` into a gate network.
    ///
    /// Network input `i` corresponds to manager variable `i` (named from
    /// `input_names` or `x{i}`); output port `k` takes `output_names[k]`
    /// (or `f{k}`).
    fn dump_network(
        &self,
        roots: &[Self::Function],
        input_names: &[String],
        output_names: &[String],
    ) -> Network;
}

impl DiagramRewrite for bbdd::BbddManager {
    fn dump_network(
        &self,
        roots: &[Self::Function],
        input_names: &[String],
        output_names: &[String],
    ) -> Network {
        let edges: Vec<bbdd::Edge> = roots.iter().map(|r| r.edge()).collect();
        bbdd_to_network(&self.backend(), &edges, input_names, output_names)
    }
}

impl DiagramRewrite for bbdd::ParBbddManager {
    fn dump_network(
        &self,
        roots: &[Self::Function],
        input_names: &[String],
        output_names: &[String],
    ) -> Network {
        let edges: Vec<bbdd::Edge> = roots.iter().map(|r| r.edge()).collect();
        bbdd_to_network(self.backend().inner(), &edges, input_names, output_names)
    }
}

impl DiagramRewrite for robdd::RobddManager {
    fn dump_network(
        &self,
        roots: &[Self::Function],
        input_names: &[String],
        output_names: &[String],
    ) -> Network {
        let edges: Vec<robdd::Edge> = roots.iter().map(|r| r.edge()).collect();
        robdd_to_network(&self.backend(), &edges, input_names, output_names)
    }
}

impl DiagramRewrite for robdd::ParRobddManager {
    fn dump_network(
        &self,
        roots: &[Self::Function],
        input_names: &[String],
        output_names: &[String],
    ) -> Network {
        let edges: Vec<robdd::Edge> = roots.iter().map(|r| r.edge()).collect();
        robdd_to_network(self.backend().inner(), &edges, input_names, output_names)
    }
}

/// Rewrite `net` through a decision diagram in `mgr` (optionally
/// reordered) and *prove* the rewritten netlist equivalent to the
/// original with the combinational equivalence checker — the
/// self-verifying form of the paper's datapath front-end. The proof runs
/// in a fresh BBDD manager regardless of `mgr`'s backend, so the check is
/// independent of the structure under test. Returns the rewritten network
/// together with the verdict (which is [`CecVerdict::Equivalent`] unless
/// this package is broken; the verdict is returned rather than asserted
/// so flows can log it).
#[must_use]
pub fn rewrite_and_verify<M: DiagramRewrite>(
    mgr: &M,
    net: &Network,
    reorder: bool,
) -> (Network, CecVerdict) {
    let roots = build_network(mgr, net);
    if reorder {
        let _ = mgr.reorder(); // output handles are the registry's roots
    }
    let in_names: Vec<String> = net
        .inputs()
        .iter()
        .map(|&s| net.signal_name(s).to_string())
        .collect();
    let out_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
    let rewritten = mgr.dump_network(&roots, &in_names, &out_names);
    let verdict = check_equivalence_bbdd(net, &rewritten);
    (rewritten, verdict)
}

/// [`rewrite_and_verify`] through a fresh sequential BBDD manager — the
/// paper's flow as a one-liner.
#[must_use]
pub fn rewrite_and_verify_bbdd(net: &Network, sift: bool) -> (Network, CecVerdict) {
    let mgr = bbdd::BbddManager::with_vars(net.num_inputs().max(1));
    rewrite_and_verify(&mgr, net, sift)
}

/// Convert the BBDD functions `roots` of `mgr` into a gate network (the
/// edge-level core behind [`DiagramRewrite`]; see the module docs for the
/// structure).
#[must_use]
pub fn bbdd_to_network(
    mgr: &Bbdd,
    roots: &[bbdd::Edge],
    input_names: &[String],
    output_names: &[String],
) -> Network {
    let n = mgr.num_vars();
    let mut net = Network::new("bbdd_rewrite");
    let inputs: Vec<Signal> = (0..n)
        .map(|i| {
            let default = format!("x{i}");
            let name = input_names.get(i).cloned().unwrap_or(default);
            net.add_input(&name)
        })
        .collect();

    // Shared per-level comparator XNOR(PV, SV), node signals (positive
    // polarity), shared inverters and the constant-one source.
    let mut level_sel: HashMap<usize, Signal> = HashMap::new();
    let mut node_sig: HashMap<u32, Signal> = HashMap::new();
    let mut inv_sig: HashMap<Signal, Signal> = HashMap::new();
    let mut const1: Option<Signal> = None;

    // Gather reachable nodes, sorted bottom-up so children exist first.
    let mut nodes: Vec<(u32, bbdd::Edge)> = Vec::new();
    walk::visit(mgr, roots, usize::MAX, |id, _| {
        nodes.push((id, bbdd::Edge::from_bits(id << 1)));
    });
    nodes.sort_by_key(|&(_, e)| mgr.node_info(e).expect("node").level);

    for (id, e) in nodes {
        let info = mgr.node_info(e).expect("node");
        let sig = if info.shannon {
            inputs[info.pv]
        } else {
            let sel = match level_sel.entry(info.level) {
                std::collections::hash_map::Entry::Occupied(o) => *o.get(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let pv = inputs[info.pv];
                    let s = match info.sv {
                        Some(sv) => net.add_gate(GateOp::Xnor, &[pv, inputs[sv]]),
                        None => pv, // bottom level: PV ⊙ 1 = PV
                    };
                    *v.insert(s)
                }
            };
            // Deliberately emit the generic multiplexer even for XNOR- and
            // constant-child node shapes: the uniform mux structure exposes
            // shared AND terms across sibling nodes to the back-end's
            // structural hashing, which measurably beats per-node
            // peepholing (e.g. 99 vs 141 cells on the 16-bit CLA adder).
            let t = edge_signal(
                &mut net,
                info.eq.is_complemented(),
                mgr.edge_id(info.eq),
                &node_sig,
                &mut inv_sig,
                &mut const1,
                info.eq == bbdd::Edge::ONE,
            );
            let f = edge_signal(
                &mut net,
                info.neq.is_complemented(),
                mgr.edge_id(info.neq),
                &node_sig,
                &mut inv_sig,
                &mut const1,
                info.neq == bbdd::Edge::ONE,
            );
            net.add_gate(GateOp::Mux, &[sel, t, f])
        };
        node_sig.insert(id, sig);
    }

    for (k, root) in roots.iter().enumerate() {
        let default = format!("f{k}");
        let name = output_names.get(k).cloned().unwrap_or(default);
        let sig = edge_signal(
            &mut net,
            root.is_complemented(),
            mgr.edge_id(*root),
            &node_sig,
            &mut inv_sig,
            &mut const1,
            *root == bbdd::Edge::ONE,
        );
        net.set_output(&name, sig);
    }
    net.check().expect("rewritten network must be valid");
    net
}

/// Convert the ROBDD functions `roots` of `mgr` into a gate network: one
/// `MUX(var, then, else)` per Shannon node, shared inverters for
/// complement edges (the BDD-first analogue of [`bbdd_to_network`]).
#[must_use]
pub fn robdd_to_network(
    mgr: &Robdd,
    roots: &[robdd::Edge],
    input_names: &[String],
    output_names: &[String],
) -> Network {
    let n = mgr.num_vars();
    let mut net = Network::new("robdd_rewrite");
    let inputs: Vec<Signal> = (0..n)
        .map(|i| {
            let default = format!("x{i}");
            let name = input_names.get(i).cloned().unwrap_or(default);
            net.add_input(&name)
        })
        .collect();

    let mut node_sig: HashMap<u32, Signal> = HashMap::new();
    let mut inv_sig: HashMap<Signal, Signal> = HashMap::new();
    let mut const1: Option<Signal> = None;

    // Reachable nodes, children before parents: a node's children sit
    // strictly *below* it in the order, so descending position = bottom-up.
    let mut nodes: Vec<(u32, robdd::Edge)> = Vec::new();
    walk::visit(mgr, roots, usize::MAX, |id, _| {
        nodes.push((id, robdd::Edge::from_bits(id << 1)));
    });
    nodes.sort_by_key(|&(_, e)| {
        std::cmp::Reverse(mgr.position_of(mgr.node_info(e).expect("node").var))
    });

    for (id, e) in nodes {
        let info = mgr.node_info(e).expect("node");
        let sel = inputs[info.var];
        let t = edge_signal(
            &mut net,
            info.then_.is_complemented(),
            mgr.edge_id(info.then_),
            &node_sig,
            &mut inv_sig,
            &mut const1,
            info.then_ == robdd::Edge::ONE,
        );
        let f = edge_signal(
            &mut net,
            info.else_.is_complemented(),
            mgr.edge_id(info.else_),
            &node_sig,
            &mut inv_sig,
            &mut const1,
            info.else_ == robdd::Edge::ONE,
        );
        node_sig.insert(id, net.add_gate(GateOp::Mux, &[sel, t, f]));
    }

    for (k, root) in roots.iter().enumerate() {
        let default = format!("f{k}");
        let name = output_names.get(k).cloned().unwrap_or(default);
        let sig = edge_signal(
            &mut net,
            root.is_complemented(),
            mgr.edge_id(*root),
            &node_sig,
            &mut inv_sig,
            &mut const1,
            *root == robdd::Edge::ONE,
        );
        net.set_output(&name, sig);
    }
    net.check().expect("rewritten network must be valid");
    net
}

/// Resolve an edge (described representation-neutrally: node id, polarity
/// and constant-ness) to a network signal, sharing inverters and the
/// constant-one source.
fn edge_signal(
    net: &mut Network,
    complemented: bool,
    id: Option<u32>,
    node_sig: &HashMap<u32, Signal>,
    inv_sig: &mut HashMap<Signal, Signal>,
    const1: &mut Option<Signal>,
    is_one: bool,
) -> Signal {
    let Some(id) = id else {
        let one = *const1.get_or_insert_with(|| net.add_gate(GateOp::Const1, &[]));
        if is_one {
            return one;
        }
        return *inv_sig
            .entry(one)
            .or_insert_with(|| net.add_gate(GateOp::Not, &[one]));
    };
    let base = *node_sig.get(&id).expect("children emitted before parents");
    if complemented {
        *inv_sig
            .entry(base)
            .or_insert_with(|| net.add_gate(GateOp::Not, &[base]))
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbdd::prelude::*;
    use logicnet::sim::{exhaustive_equivalence, Equivalence};
    use robdd::prelude::*;

    /// Round-trip: network → diagram → network must preserve the function,
    /// on every backend.
    fn roundtrip<M: DiagramRewrite>(mgr: &M, net: &Network) {
        let roots = build_network(mgr, net);
        let in_names: Vec<String> = net
            .inputs()
            .iter()
            .map(|&s| net.signal_name(s).to_string())
            .collect();
        let out_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
        let rewritten = mgr.dump_network(&roots, &in_names, &out_names);
        assert_eq!(
            exhaustive_equivalence(net, &rewritten),
            Equivalence::Indistinguishable
        );
    }

    fn full_adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_gate(GateOp::Xor, &[a, b]);
        let s = net.add_gate(GateOp::Xor, &[x, c]);
        let m = net.add_gate(GateOp::Maj, &[a, b, c]);
        net.set_output("s", s);
        net.set_output("co", m);
        net
    }

    #[test]
    fn rewrites_full_adder_on_all_backends() {
        let net = full_adder();
        roundtrip(&BbddManager::with_vars(3), &net);
        roundtrip(&RobddManager::with_vars(3), &net);
        roundtrip(&ParBbddManager::new(ParBbdd::new(3, 2)), &net);
        roundtrip(&ParRobddManager::new(ParRobdd::new(3, 2)), &net);
    }

    #[test]
    fn rewrites_comparator_with_shared_level_xnors() {
        let net = benchgen::datapath::equality(4);
        let mgr = BbddManager::with_vars(net.num_inputs());
        let roots = build_network(&mgr, &net);
        // Interleave operands so the XNOR pairs are adjacent in the CVO.
        let order: Vec<usize> = (0..4).flat_map(|i| [i, i + 4]).collect();
        mgr.backend_mut().reorder_to(&order);
        let rewritten = mgr.dump_network(&roots, &[], &[]);
        assert_eq!(
            exhaustive_equivalence(&net, &rewritten),
            Equivalence::Indistinguishable
        );
        // One shared XNOR per level with biconditional nodes — far fewer
        // gates than one XNOR per node.
        let h = rewritten.op_histogram();
        assert!(
            h.get(&GateOp::Xnor).copied().unwrap_or(0) <= 8,
            "level comparators must be shared"
        );
    }

    #[test]
    fn rewrites_constants_and_literals() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let k1 = net.add_gate(GateOp::Const1, &[]);
        let nb = net.add_gate(GateOp::Not, &[b]);
        net.set_output("one", k1);
        net.set_output("a", a);
        net.set_output("nb", nb);
        roundtrip(&BbddManager::with_vars(2), &net);
        roundtrip(&RobddManager::with_vars(2), &net);
    }

    #[test]
    fn rewrite_and_verify_proves_equivalence_on_both_packages() {
        let net = benchgen::datapath::adder(6);
        for sift in [false, true] {
            let (rewritten, verdict) = rewrite_and_verify_bbdd(&net, sift);
            assert!(verdict.is_equivalent(), "bbdd sift={sift}");
            assert_eq!(rewritten.num_inputs(), net.num_inputs());
            assert_eq!(rewritten.num_outputs(), net.num_outputs());
            let mgr = RobddManager::with_vars(net.num_inputs());
            let (_, verdict) = rewrite_and_verify(&mgr, &net, sift);
            assert!(verdict.is_equivalent(), "robdd sift={sift}");
        }
    }

    #[test]
    fn rewrites_after_sifting() {
        let net = benchgen::datapath::adder(4);
        let mgr = BbddManager::with_vars(net.num_inputs());
        let roots = build_network(&mgr, &net);
        mgr.reorder();
        let rewritten = mgr.dump_network(&roots, &[], &[]);
        assert_eq!(
            exhaustive_equivalence(&net, &rewritten),
            Equivalence::Indistinguishable
        );
    }
}
