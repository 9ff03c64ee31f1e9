//! `table1_sift`: the paper's Table-I experiment through the CLI's
//! pipeline. Each pass, for `bbdd` then `robdd`, every netlist is parsed
//! from Verilog, built in file order, collected, fully sifted, dumped as
//! a network and written back as Verilog.
//!
//! Halves: `first_*` is the `bbdd` package, `second_*` the `robdd`
//! package; `*_nodes` is the sum of shared nodes after sift (Table-I
//! quality). One unit is one netlist on one package.

use crate::rec::{since, Pass};
use crate::Workload;
use bbdd::BbddManager;
use logicnet::build::build_network;
use logicnet::sim::{simulate_words, SplitMix64};
use logicnet::{verilog, Network};
use robdd::RobddManager;
use std::time::Instant;
use synthkit::rewrite::DiagramRewrite;

/// The Table-I rows of this workload, in paper order.
const CIRCUITS: [&str; 7] = [
    "C1908", "misex3", "alu4", "frg1", "count", "cordic", "my_adder",
];

/// Random input words per check: 64 words × 64 lanes = 4096 vectors.
const CHECK_WORDS: usize = 64;

pub struct Table1 {
    /// Verilog text of each netlist — the program's only input.
    sources: Vec<String>,
    /// The generated netlists the dumped networks must match.
    nets: Vec<Network>,
    seed: u64,
    /// Per netlist, the check's vectors.
    reference: Vec<Vectors>,
}

/// Random input words and the source netlist's output words on them.
struct Vectors {
    inputs: Vec<Vec<u64>>,
    outputs: Vec<Vec<u64>>,
}

impl Table1 {
    pub fn setup(seed: u64) -> Self {
        let nets: Vec<Network> = CIRCUITS
            .iter()
            .map(|name| benchgen::mcnc::generate(name).expect("Table-I benchmark"))
            .collect();
        let sources = nets.iter().map(verilog::write_verilog).collect();
        Table1 {
            sources,
            nets,
            seed,
            reference: Vec::new(),
        }
    }
}

/// One netlist on one package, as the CLI runs it: parse, build, gc,
/// sift, dump, write. Returns the written Verilog and the sifted size.
fn job<M: DiagramRewrite>(mgr: &M, text: &str, p: &mut Pass) -> (String, usize) {
    let net = p.time("verilog.parse_s", || {
        verilog::parse_verilog(text).expect("generated Verilog parses")
    });
    let roots = p.time("build.s", || build_network(mgr, &net));
    p.time("gc.call_s", || mgr.gc());
    p.time("sift.s", || mgr.reorder());
    let nodes = mgr.shared_node_count(&roots);
    let in_names: Vec<String> = net
        .inputs()
        .iter()
        .map(|&s| net.signal_name(s).to_string())
        .collect();
    let out_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
    let dumped = p.time("rewrite.dump_s", || {
        mgr.dump_network(&roots, &in_names, &out_names)
    });
    let out = p.time("verilog.write_s", || verilog::write_verilog(&dumped));
    p.count(&mgr.metrics(), &[]);
    (out, nodes)
}

impl Workload for Table1 {
    fn reference(&mut self) {
        let mut rng = SplitMix64::new(self.seed);
        self.reference = self
            .nets
            .iter()
            .map(|net| {
                let inputs: Vec<Vec<u64>> = (0..CHECK_WORDS)
                    .map(|_| (0..net.num_inputs()).map(|_| rng.next_u64()).collect())
                    .collect();
                let outputs = inputs.iter().map(|w| simulate_words(net, w)).collect();
                Vectors { inputs, outputs }
            })
            .collect();
    }

    fn pass(&mut self) -> Pass {
        let mut p = Pass::default();
        let mut written = Vec::with_capacity(2 * CIRCUITS.len());
        let t_pass = Instant::now();
        for robdd_pkg in [false, true] {
            let t_half = Instant::now();
            let mut nodes = 0;
            for (text, net) in self.sources.iter().zip(&self.nets) {
                let t_unit = Instant::now();
                let n = net.num_inputs();
                let (out, sifted) = if robdd_pkg {
                    job(&RobddManager::with_vars(n), text, &mut p)
                } else {
                    job(&BbddManager::with_vars(n), text, &mut p)
                };
                p.units_ms.push(since(t_unit) * 1e3);
                nodes += sifted as u64;
                written.push(out);
            }
            if robdd_pkg {
                p.second_s = since(t_half);
                p.second_nodes = nodes;
            } else {
                p.first_s = since(t_half);
                p.first_nodes = nodes;
            }
        }
        p.run_s = since(t_pass);

        // Every written netlist must compute its source's functions.
        for (i, text) in written.iter().enumerate() {
            let check = &self.reference[i % CIRCUITS.len()];
            let ok = verilog::parse_verilog(text).is_ok_and(|dumped| {
                check
                    .inputs
                    .iter()
                    .zip(&check.outputs)
                    .all(|(w, want)| &simulate_words(&dumped, w) == want)
            });
            p.check(ok);
        }
        p
    }
}
