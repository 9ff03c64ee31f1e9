//! Building decision diagrams from a network, generically over every
//! manager in the workspace.
//!
//! The topological traversal is written **once**, against the
//! [`FunctionManager`] / [`BooleanFunction`] trait pair of
//! [`ddcore::api`], and therefore runs unchanged on `bbdd::BbddManager`,
//! `robdd::RobddManager` and both parallel front-ends — exactly how the
//! paper feeds one benchmark network to both packages. (The ad-hoc
//! `BoolAlgebra` trait this replaces declared the same handful of
//! operations a third time; the word-level simulation that also used it
//! lives in [`crate::sim::simulate_words`] now.) It is also written once
//! for both operation forms: [`build_network`] and [`try_build_network`]
//! run the same gate loop, ungoverned or under a budget.
//!
//! Every wire the builder holds is an owned handle and therefore a
//! registered GC root, so the backend's collection opportunities
//! ([`FunctionManager::collect`]) can never reclaim a function some caller
//! still needs. The old design — a caller-maintained liveness list —
//! shipped exactly the bug it invites (a ≥1024-gate network compared
//! unequal to *itself* when the CEC driver forgot a root); with handles
//! the bug class is unrepresentable.

use crate::form::{OpForm, Unbudgeted};
use crate::ir::{GateOp, Network};
use ddcore::api::{BooleanFunction, FunctionManager};
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::BoolOp;

/// Gate-count interval between garbage-collection / dynamic-reordering
/// opportunities while building large networks.
const GC_STRIDE: usize = 1024;

/// Interpret `net` into `mgr`, returning one function handle per output
/// port (in `Network::outputs()` order).
///
/// Input `i` of the network is mapped to manager variable `i` — network
/// inputs bind to variables in declaration order, "the initial order
/// provided in the file" of the paper's experimental setup.
///
/// # Panics
/// Panics if the network fails [`Network::check`] or has more inputs than
/// the manager has variables.
pub fn build_network<M: FunctionManager>(mgr: &M, net: &Network) -> Vec<M::Function> {
    let inputs: Vec<M::Function> = (0..net.num_inputs()).map(|i| mgr.var(i)).collect();
    build_network_with_inputs(mgr, net, &inputs)
}

/// Interpret `net` into `mgr` with pre-bound input handles: network input
/// `i` reads `inputs[i]` instead of `mgr.var(i)`.
///
/// This is how the equivalence checker ([`crate::cec`]) builds two
/// networks over *one* variable space, aligning their inputs by name even
/// when the declaration orders differ. Functions built *before* this call
/// need no protection from the builder's periodic garbage-collection
/// opportunities: their owned handles are registered roots.
///
/// # Panics
/// Panics if the network fails [`Network::check`] or `inputs` is shorter
/// than the network's input list.
pub fn build_network_with_inputs<M: FunctionManager>(
    mgr: &M,
    net: &Network,
    inputs: &[M::Function],
) -> Vec<M::Function> {
    build_gates(mgr, net, inputs, &mut Unbudgeted).unwrap_or_else(|(never, _)| match never {})
}

/// A network build stopped by its [`OpBudget`].
///
/// All wire handles the interrupted build held are dropped before this is
/// returned, so the manager is left with a balanced root registry and only
/// unreferenced partial results — the next GC reclaims them (the managers'
/// abort-safety contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildAborted {
    /// Why the budget stopped the build.
    pub reason: OpAbort,
    /// Gates fully interpreted before the abort.
    pub gates_built: usize,
}

impl std::fmt::Display for BuildAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network build aborted ({}) after {} gate(s)",
            self.reason, self.gates_built
        )
    }
}

impl std::error::Error for BuildAborted {}

/// [`build_network`] under a resource budget: every gate's diagram
/// operations run through the fallible `try_*` forms, so a node ceiling,
/// deadline or cancellation stops the build mid-netlist instead of letting
/// a pathological network grow the manager until the process dies.
///
/// # Errors
/// Returns [`BuildAborted`] with the abort reason and the number of gates
/// already interpreted.
///
/// # Panics
/// Panics if the network fails [`Network::check`] or has more inputs than
/// the manager has variables.
pub fn try_build_network<M: FunctionManager>(
    mgr: &M,
    net: &Network,
    budget: &mut OpBudget,
) -> Result<Vec<M::Function>, BuildAborted> {
    let inputs: Vec<M::Function> = (0..net.num_inputs()).map(|i| mgr.var(i)).collect();
    build_gates(mgr, net, &inputs, budget).map_err(|(reason, gates_built)| BuildAborted {
        reason,
        gates_built,
    })
}

/// The gate loop behind every build entry: interpret `net` over the
/// pre-bound `inputs` in operation form `form`. On abort, returns the
/// reason and the number of gates interpreted, after dropping every wire
/// handle and offering the manager an ungoverned collection, so the
/// registry balances and the partial build is reclaimed.
fn build_gates<M: FunctionManager, O: OpForm>(
    mgr: &M,
    net: &Network,
    inputs: &[M::Function],
    form: &mut O,
) -> Result<Vec<M::Function>, (O::Abort, usize)> {
    net.check().expect("network must be structurally valid");
    assert!(
        inputs.len() >= net.num_inputs(),
        "one pre-bound handle per network input required"
    );
    let mut obs_span = ddcore::obs::span(ddcore::obs::Op::BuildNetwork);
    obs_span.set_arg("gates", net.gates().len() as u64);
    let mut wire: Vec<Option<M::Function>> = vec![None; net.num_signals()];
    for (i, s) in net.inputs().iter().enumerate() {
        wire[s.index()] = Some(inputs[i].clone());
    }
    // Last-use positions so intermediate handles can be dropped (releasing
    // their root-registry slots) as soon as they are dead.
    let mut last_use = vec![usize::MAX; net.num_signals()];
    for (gi, g) in net.gates().iter().enumerate() {
        for inp in &g.inputs {
            last_use[inp.index()] = gi;
        }
    }
    for (_, s) in net.outputs() {
        last_use[s.index()] = usize::MAX;
    }
    for s in net.inputs() {
        last_use[s.index()] = usize::MAX; // keep manager variables alive
    }
    let abort = |wire: &mut Vec<Option<M::Function>>, reason, gates_built| {
        wire.clear();
        mgr.collect();
        Err((reason, gates_built))
    };

    for (gi, g) in net.gates().iter().enumerate() {
        // Borrow the fan-in handles straight out of the wire table —
        // cloning them would cost a registry refcount round-trip per pin,
        // which adds up on micro builds.
        let ins: Vec<&M::Function> = g
            .inputs
            .iter()
            .map(|s| wire[s.index()].as_ref().expect("topological order"))
            .collect();
        let out = match gate(mgr, form, g.op, &ins) {
            Ok(out) => out,
            Err(reason) => return abort(&mut wire, reason, gi),
        };
        wire[g.output.index()] = Some(out);
        // Drop dead intermediates (their handles release the registry
        // slots) and give the backend a GC opportunity. Under a budget a
        // scheduled reorder due here runs governed, so even a mid-build
        // sift is abort-safe.
        if (gi + 1) % GC_STRIDE == 0 {
            for (idx, slot) in wire.iter_mut().enumerate() {
                if last_use[idx] <= gi {
                    *slot = None;
                }
            }
            if let Err(reason) = form.collect(mgr) {
                return abort(&mut wire, reason, gi + 1);
            }
        }
    }
    Ok(net
        .outputs()
        .iter()
        .map(|(_, s)| wire[s.index()].clone().expect("outputs are driven"))
        .collect())
}

/// One gate's function over its fan-in handles `ins`.
fn gate<M: FunctionManager, O: OpForm>(
    mgr: &M,
    form: &mut O,
    op: GateOp,
    ins: &[&M::Function],
) -> Result<M::Function, O::Abort> {
    // Left-fold `op` over the fan-in without cloning the head for the
    // ≥2-input case (the 1-input degenerate form clones once).
    let mut fold = |op: BoolOp| {
        if ins.len() == 1 {
            return Ok(ins[0].clone());
        }
        let mut acc = form.apply(op, ins[0], ins[1])?;
        for x in &ins[2..] {
            acc = form.apply(op, &acc, x)?;
        }
        Ok(acc)
    };
    Ok(match op {
        GateOp::Const0 => mgr.constant(false),
        GateOp::Const1 => mgr.constant(true),
        GateOp::Buf => ins[0].clone(),
        GateOp::Not => ins[0].not(),
        GateOp::And => fold(BoolOp::AND)?,
        GateOp::Nand => fold(BoolOp::AND)?.not(),
        GateOp::Or => fold(BoolOp::OR)?,
        GateOp::Nor => fold(BoolOp::OR)?.not(),
        GateOp::Xor => fold(BoolOp::XOR)?,
        GateOp::Xnor => fold(BoolOp::XOR)?.not(),
        GateOp::Maj => {
            let ab = form.apply(BoolOp::AND, ins[0], ins[1])?;
            let bc = form.apply(BoolOp::AND, ins[1], ins[2])?;
            let ac = form.apply(BoolOp::AND, ins[0], ins[2])?;
            let ab_bc = form.apply(BoolOp::OR, &ab, &bc)?;
            form.apply(BoolOp::OR, &ab_bc, &ac)?
        }
        GateOp::Mux => form.ite(ins[0], ins[1], ins[2])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Network;
    use bbdd::BbddManager;
    use robdd::RobddManager;

    fn ripple2() -> Network {
        let mut net = Network::new("add2");
        let a0 = net.add_input("a0");
        let a1 = net.add_input("a1");
        let b0 = net.add_input("b0");
        let b1 = net.add_input("b1");
        let s0 = net.add_gate(GateOp::Xor, &[a0, b0]);
        let c0 = net.add_gate(GateOp::And, &[a0, b0]);
        let s1p = net.add_gate(GateOp::Xor, &[a1, b1]);
        let s1 = net.add_gate(GateOp::Xor, &[s1p, c0]);
        let c1 = net.add_gate(GateOp::Maj, &[a1, b1, c0]);
        net.set_output("s0", s0);
        net.set_output("s1", s1);
        net.set_output("c", c1);
        net
    }

    fn check_backend<M: FunctionManager>(mgr: &M) {
        let net = ripple2();
        let outs = build_network(mgr, &net);
        for m in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let expect = net.simulate(&v);
            for (o, e) in outs.iter().zip(&expect) {
                assert_eq!(o.eval(&v), *e, "vector {v:?}");
            }
        }
        // The output handles are the only registered roots still held
        // here (the builder's input/intermediate handles all dropped on
        // exit — see builder_releases_intermediate_roots below).
        drop(outs);
    }

    #[test]
    fn bbdd_build_matches_simulation() {
        check_backend(&BbddManager::with_vars(4));
    }

    #[test]
    fn robdd_build_matches_simulation() {
        check_backend(&RobddManager::with_vars(4));
    }

    #[test]
    fn governed_build_matches_ungoverned_when_unlimited() {
        let net = ripple2();
        let mgr = BbddManager::with_vars(net.num_inputs());
        let outs = try_build_network(&mgr, &net, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts");
        for m in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let expect = net.simulate(&v);
            for (o, e) in outs.iter().zip(&expect) {
                assert_eq!(o.eval(&v), *e, "vector {v:?}");
            }
        }
    }

    #[test]
    fn governed_build_aborts_and_balances_registry() {
        let net = ripple2();
        let mgr = BbddManager::with_vars(net.num_inputs());
        let mut budget = OpBudget::unlimited().with_node_limit(1);
        let aborted = try_build_network(&mgr, &net, &mut budget)
            .expect_err("a one-node budget cannot build a 2-bit adder");
        assert_eq!(aborted.reason, OpAbort::NodeBudget);
        assert!(aborted.gates_built < net.num_gates());
        // Registry balanced, partial results reclaimed, manager usable.
        assert_eq!(mgr.external_roots(), 0);
        mgr.gc();
        let outs = build_network(&mgr, &net);
        assert_eq!(outs.len(), net.num_outputs());
    }

    #[test]
    fn builder_releases_intermediate_roots() {
        let net = ripple2();
        let mgr = BbddManager::with_vars(net.num_inputs());
        let outs = build_network(&mgr, &net);
        // Outputs are the only registered roots once the builder returns
        // (its input/intermediate handles all dropped on exit).
        assert_eq!(mgr.external_roots(), outs.len());
    }
}
