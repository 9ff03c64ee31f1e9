//! `cnf_count`: the DIMACS front door. Each pass parses every instance,
//! plans a bucket schedule, conjoins it on `bbdd` and counts it over the
//! declared universe with `sat_count_over`.
//!
//! Halves: `first_*` is `parity_chain(20)` (tables far past the cache),
//! `second_*` is `random3(40, 160)` plus `product_config(60)`; `*_nodes`
//! is the sum of conjunction peak nodes. One unit is one instance.

use crate::rec::{since, Pass};
use crate::Workload;
use bbdd::BbddManager;
use benchgen::cnf::{parity_chain, product_config, random3};
use cnf::{parse_dimacs, try_build_cnf, ClauseSchedule, Cnf, Schedule};
use ddcore::api::{BooleanFunction, FunctionManager};
use ddcore::govern::OpBudget;
use logicnet::sim::SplitMix64;
use robdd::RobddManager;
use std::time::Instant;

/// Data variables of the parity chain: `2^(N-1)` models.
const PARITY_N: usize = 20;

pub struct CnfCount {
    /// DIMACS text of each instance — the program's only input.
    texts: Vec<String>,
    /// The exact count each instance must produce.
    expected: Vec<u128>,
}

/// Generator seed of the random instances' shape.
const SHAPE_SEED: u64 = 1;

/// `cnf` with the variables whose bit is set in `negated` replaced by
/// their negation: the same instance under renamed literals, with the
/// same model count and the same diagram sizes at every step.
fn negate_vars(cnf: &Cnf, negated: &[bool]) -> Cnf {
    let mut out = Cnf::new(cnf.num_vars);
    for clause in &cnf.clauses {
        let lits: Vec<i32> = clause
            .iter()
            .map(|&l| {
                if negated[l.unsigned_abs() as usize - 1] {
                    -l
                } else {
                    l
                }
            })
            .collect();
        out.add_clause(&lits);
    }
    out
}

impl CnfCount {
    /// The instance shapes are fixed; the seed picks which variables
    /// appear negated, so every seed does the same work on different
    /// input text.
    pub fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let negated: Vec<bool> = (0..64).map(|_| rng.next_u64() & 1 == 1).collect();
        let texts = [
            (parity_chain(PARITY_N), "parity_chain(20)"),
            (random3(40, 160, SHAPE_SEED), "random3(40, 160)"),
            (product_config(60, SHAPE_SEED), "product_config(60)"),
        ]
        .iter()
        .map(|(inst, name)| negate_vars(inst, &negated).to_dimacs(name))
        .collect();
        CnfCount {
            texts,
            expected: Vec::new(),
        }
    }
}

impl Workload for CnfCount {
    /// Parity has a closed form; the others are counted by the other
    /// package, the ROBDD baseline.
    fn reference(&mut self) {
        self.expected = self
            .texts
            .iter()
            .enumerate()
            .map(|(i, text)| {
                if i == 0 {
                    return 1u128 << (PARITY_N - 1);
                }
                let inst = parse_dimacs(text).expect("generated DIMACS parses");
                let mgr = RobddManager::with_vars(inst.num_vars);
                let mut budget = OpBudget::unlimited();
                cnf::count_cnf(&mgr, &inst, &Schedule::Bucket, &mut budget)
                    .expect("unlimited count")
                    .0
            })
            .collect();
    }

    fn pass(&mut self) -> Pass {
        let mut p = Pass::default();
        let mut counts = Vec::with_capacity(self.texts.len());
        let mut clauses = 0;
        let t_pass = Instant::now();
        for (i, text) in self.texts.iter().enumerate() {
            let t_unit = Instant::now();
            let inst = p.time("dimacs.parse_s", || {
                parse_dimacs(text).expect("generated DIMACS parses")
            });
            let plan = p.time("schedule.plan_s", || Schedule::Bucket.plan(&inst));
            let mgr = BbddManager::with_vars(inst.num_vars);
            let mut budget = OpBudget::unlimited();
            let (f, stats) = p.time("conjoin.s", || {
                try_build_cnf(&mgr, &inst, &plan, &mut budget).expect("unlimited build")
            });
            counts.push(p.time("satcount.s", || f.sat_count_over(inst.num_vars)));
            p.count(&mgr.metrics(), &[]);
            clauses += stats.clauses_scheduled;
            drop(f);
            drop(mgr);
            let unit_s = since(t_unit);
            p.units_ms.push(unit_s * 1e3);
            if i == 0 {
                p.first_s += unit_s;
                p.first_nodes += stats.conj_peak_nodes;
            } else {
                p.second_s += unit_s;
                p.second_nodes += stats.conj_peak_nodes;
            }
        }
        p.run_s = since(t_pass);
        p.counters.insert("cnf.clauses_scheduled", clauses);
        for (got, want) in counts.iter().zip(&self.expected) {
            p.check(*got == Some(*want));
        }
        p
    }
}
