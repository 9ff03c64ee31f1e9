//! `serve_mix`: the NDJSON serving front door on the misex1 library. One
//! client in a closed loop sends [`REQUESTS`] requests in batches of
//! [`BATCH`] lines through `run_batch` with one session, so every batch
//! is one session fork, like one TCP connection.
//!
//! The mix is mostly reads (eval 40 %, sat_count 15 %, node_count 10 %)
//! beside writes (apply+store 15 %, quantify+store 10 %, load_cnf 5 %,
//! count 5 %). Halves: `first_*` is the first half of the batches,
//! `second_*` the second; `*_nodes` is the overlay nodes the sessions of
//! that half created and reclaimed. One unit is one batch.

use crate::rec::{median, quantile, since, Layers, Pass};
use crate::Workload;
use bbdd::{Bbdd, BbddFn, BbddManager, BoolOp};
use bbdd_suite::serve::{json_string, parse_json, run_batch, ServeConfig};
use cnf::{parse_dimacs, try_build_cnf_raw, ClauseSchedule, Schedule};
use ddcore::api::BooleanFunction;
use ddcore::govern::OpBudget;
use ddcore::obs::MetricsSnapshot;
use ddcore::session::{Session, SharedBase};
use logicnet::build::build_network;
use logicnet::publish::publish_networks_on;
use logicnet::sim::SplitMix64;
use logicnet::Network;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Requests per pass.
pub const REQUESTS: usize = 100_000;
/// Request lines per batch (one session fork each).
pub const BATCH: usize = 20;
/// The published library.
const LIBRARY: &str = "misex1";
/// Binary operators an `apply` request draws from.
const HOWS: [(&str, BoolOp); 6] = [
    ("and", BoolOp::AND),
    ("or", BoolOp::OR),
    ("xor", BoolOp::XOR),
    ("nand", BoolOp::NAND),
    ("implies", BoolOp::IMPLIES),
    ("and_not", BoolOp::AND_NOT),
];

/// One generated request; [`Req::line`] renders it as the wire text.
enum Req {
    Eval {
        f: String,
        assignment: Vec<bool>,
    },
    SatCount {
        f: String,
    },
    NodeCount {
        f: String,
    },
    Apply {
        how: usize,
        f: String,
        g: String,
        store: String,
    },
    Quantify {
        exists: bool,
        f: String,
        vars: Vec<usize>,
        store: String,
    },
    LoadCnf {
        name: String,
        text: String,
    },
    Count {
        f: String,
        over: usize,
    },
}

impl Req {
    fn verb(&self) -> usize {
        match self {
            Req::Eval { .. } => 0,
            Req::SatCount { .. } => 1,
            Req::NodeCount { .. } => 2,
            Req::Apply { .. } => 3,
            Req::Quantify { .. } => 4,
            Req::LoadCnf { .. } => 5,
            Req::Count { .. } => 6,
        }
    }

    fn line(&self, id: usize) -> String {
        let q = |s: &str| json_string(s);
        match self {
            Req::Eval { f, assignment } => {
                let bits: Vec<String> = assignment.iter().map(bool::to_string).collect();
                format!(
                    r#"{{"op":"eval","id":{id},"f":{},"assignment":[{}]}}"#,
                    q(f),
                    bits.join(",")
                )
            }
            Req::SatCount { f } => format!(r#"{{"op":"sat_count","id":{id},"f":{}}}"#, q(f)),
            Req::NodeCount { f } => format!(r#"{{"op":"node_count","id":{id},"f":{}}}"#, q(f)),
            Req::Apply { how, f, g, store } => format!(
                r#"{{"op":"apply","id":{id},"how":"{}","f":{},"g":{},"store":{}}}"#,
                HOWS[*how].0,
                q(f),
                q(g),
                q(store)
            ),
            Req::Quantify {
                exists,
                f,
                vars,
                store,
            } => {
                let vs: Vec<String> = vars.iter().map(usize::to_string).collect();
                format!(
                    r#"{{"op":"quantify","id":{id},"kind":"{}","f":{},"vars":[{}],"store":{}}}"#,
                    if *exists { "exists" } else { "forall" },
                    q(f),
                    vs.join(","),
                    q(store)
                )
            }
            Req::LoadCnf { name, text } => format!(
                r#"{{"op":"load_cnf","id":{id},"name":{},"text":{},"schedule":"bucket"}}"#,
                q(name),
                q(text)
            ),
            Req::Count { f, over } => {
                format!(r#"{{"op":"count","id":{id},"f":{},"over":{over}}}"#, q(f))
            }
        }
    }
}

/// Draw one batch of requests. Stored names are batch-local, because the
/// session that holds them ends with the batch.
fn gen_batch(rng: &mut SplitMix64, lib: &[String], inputs: usize) -> Vec<Req> {
    let mut stored: Vec<String> = Vec::new();
    let mut cnfs: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(BATCH);
    for j in 0..BATCH {
        let pick = |rng: &mut SplitMix64| -> String {
            let r = rng.next_u64();
            if !stored.is_empty() && r & 1 == 1 {
                stored[(r >> 1) as usize % stored.len()].clone()
            } else {
                lib[(r >> 1) as usize % lib.len()].clone()
            }
        };
        let req = match rng.next_u64() % 100 {
            0..=39 => {
                let f = pick(rng);
                let bits = rng.next_u64();
                Req::Eval {
                    f,
                    assignment: (0..inputs).map(|i| (bits >> i) & 1 == 1).collect(),
                }
            }
            40..=54 => Req::SatCount { f: pick(rng) },
            55..=64 => Req::NodeCount { f: pick(rng) },
            65..=79 => Req::Apply {
                how: (rng.next_u64() % HOWS.len() as u64) as usize,
                f: pick(rng),
                g: pick(rng),
                store: format!("t{j}"),
            },
            80..=89 => {
                let f = pick(rng);
                let mask = rng.next_u64();
                let vars: Vec<usize> = (0..inputs).filter(|i| (mask >> (3 * i)) & 7 == 0).collect();
                Req::Quantify {
                    exists: mask >> 63 == 0,
                    f,
                    vars: if vars.is_empty() {
                        vec![(mask >> 40) as usize % inputs]
                    } else {
                        vars
                    },
                    store: format!("t{j}"),
                }
            }
            90..=94 => {
                let clauses = 6 + (rng.next_u64() % 10) as usize;
                let inst = benchgen::cnf::random3(inputs, clauses, rng.next_u64());
                let name = format!("c{j}");
                cnfs.push(name.clone());
                Req::LoadCnf {
                    name,
                    text: inst.to_dimacs(""),
                }
            }
            _ => {
                let r = rng.next_u64();
                let f = if cnfs.is_empty() {
                    pick(rng)
                } else {
                    cnfs[r as usize % cnfs.len()].clone()
                };
                Req::Count { f, over: inputs }
            }
        };
        if let Req::Apply { store, .. } | Req::Quantify { store, .. } = &req {
            stored.push(store.clone());
        }
        if let Req::LoadCnf { name, .. } = &req {
            stored.push(name.clone());
        }
        out.push(req);
    }
    out
}

pub struct ServeMix {
    net: Network,
    base: Arc<SharedBase<Bbdd>>,
    reqs: Vec<Vec<Req>>,
    /// The wire text of every request — the program's only input.
    lines: Vec<Vec<String>>,
    /// The response every request must get, computed on a private
    /// manager through the handle API.
    expected: Vec<Vec<String>>,
}

impl ServeMix {
    pub fn setup(seed: u64) -> Self {
        let net = benchgen::mcnc::generate(LIBRARY).expect("Table-I benchmark");
        let base = publish_networks_on(Bbdd::new(net.num_inputs()), &[&net]).expect("publish");
        let lib = base.library().names().to_vec();
        let inputs = base.library().inputs().len();
        let mut rng = SplitMix64::new(seed);
        let reqs: Vec<Vec<Req>> = (0..REQUESTS / BATCH)
            .map(|_| gen_batch(&mut rng, &lib, inputs))
            .collect();
        let lines = reqs
            .iter()
            .enumerate()
            .map(|(b, batch)| {
                batch
                    .iter()
                    .enumerate()
                    .map(|(j, r)| r.line(b * BATCH + j))
                    .collect()
            })
            .collect();
        ServeMix {
            net,
            base,
            reqs,
            lines,
            expected: Vec::new(),
        }
    }

    fn tracker_counters(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new("serve");
        self.base.tracker().fill(&mut m);
        m
    }
}

/// Time `n` session forks (and drops) of `base`, returning the median
/// fork microseconds.
fn fork_us(base: &Arc<SharedBase<Bbdd>>, n: usize) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            let s = base.session();
            let us = since(t) * 1e6;
            drop(s);
            us
        })
        .collect();
    median(&times)
}

/// Run one request directly against a session: the op layer without the
/// JSON and dispatch around it.
fn run_op(s: &mut Session<Bbdd>, req: &Req) -> bool {
    let mut budget = OpBudget::unlimited();
    match req {
        Req::Eval { f, assignment } => s.eval(f, assignment).is_ok(),
        Req::SatCount { f } => s.sat_count(f, &mut budget).is_ok(),
        Req::NodeCount { f } => s.node_count(f).is_ok(),
        Req::Apply { how, f, g, store } => s
            .apply(HOWS[*how].1, f, g, Some(store), &mut budget)
            .is_ok(),
        Req::Quantify {
            exists,
            f,
            vars,
            store,
        } => s
            .quantify(*exists, f, vars, Some(store), &mut budget)
            .is_ok(),
        Req::LoadCnf { name, text } => {
            let Ok(inst) = parse_dimacs(text) else {
                return false;
            };
            let plan = Schedule::Bucket.plan(&inst);
            match s.build_raw(&mut budget, |m, b| try_build_cnf_raw(m, &inst, &plan, b)) {
                Ok((edge, _)) => {
                    s.store(name, edge);
                    true
                }
                Err(_) => false,
            }
        }
        Req::Count { f, over } => s.sat_count_over(f, *over, &mut budget).is_ok(),
    }
}

/// The response payload `req` must get, computed through the handle API
/// on a private manager holding the library `lib`; `locals` are the
/// batch's stored names.
fn answer(
    mgr: &BbddManager,
    lib: &HashMap<String, BbddFn>,
    locals: &mut HashMap<String, BbddFn>,
    req: &Req,
) -> String {
    let get = |name: &str| -> BbddFn {
        locals
            .get(name)
            .or_else(|| lib.get(name))
            .expect("generated requests name visible functions")
            .clone()
    };
    let (payload, bind) = match req {
        Req::Eval { f, assignment } => (format!("\"value\":{}", get(f).eval(assignment)), None),
        Req::SatCount { f } => (format!("\"count\":\"{}\"", get(f).sat_count()), None),
        Req::NodeCount { f } => (format!("\"nodes\":{}", get(f).node_count()), None),
        Req::Apply { how, f, g, store } => {
            let r = get(f).apply(HOWS[*how].1, &get(g));
            (format!("\"nodes\":{}", r.node_count()), Some((store, r)))
        }
        Req::Quantify {
            exists,
            f,
            vars,
            store,
        } => {
            let r = if *exists {
                get(f).exists(vars)
            } else {
                get(f).forall(vars)
            };
            (format!("\"nodes\":{}", r.node_count()), Some((store, r)))
        }
        Req::LoadCnf { name, text } => {
            let inst = parse_dimacs(text).expect("generated DIMACS parses");
            let plan = Schedule::Bucket.plan(&inst);
            let (r, _) = cnf::build_cnf(mgr, &inst, &plan);
            let payload = format!(
                "\"name\":{},\"vars\":{},\"clauses\":{},\"nodes\":{},\"schedule\":\"bucket\"",
                json_string(name),
                inst.num_vars,
                inst.num_clauses(),
                r.node_count()
            );
            (payload, Some((name, r)))
        }
        Req::Count { f, over } => {
            let n = get(f).sat_count_over(*over).expect("at most 127 variables");
            (format!("\"count\":\"{n}\",\"over\":{over}"), None)
        }
    };
    if let Some((name, r)) = bind {
        locals.insert(name.clone(), r);
    }
    payload
}

impl Workload for ServeMix {
    fn reference(&mut self) {
        let mgr = BbddManager::with_vars(self.net.num_inputs());
        let outs = build_network(&mgr, &self.net);
        let lib: HashMap<String, BbddFn> = self
            .net
            .outputs()
            .iter()
            .map(|(n, _)| n.clone())
            .zip(outs)
            .collect();
        self.expected = self
            .reqs
            .iter()
            .enumerate()
            .map(|(b, batch)| {
                let mut locals = HashMap::new();
                batch
                    .iter()
                    .enumerate()
                    .map(|(j, req)| {
                        let payload = answer(&mgr, &lib, &mut locals, req);
                        format!("{{\"id\":{},\"status\":\"ok\",{payload}}}", b * BATCH + j)
                    })
                    .collect()
            })
            .collect();
    }

    fn pass(&mut self) -> Pass {
        let mut p = Pass::default();
        let cfg = ServeConfig {
            sessions: 1,
            ..ServeConfig::default()
        };
        let before = self.tracker_counters();
        let half = self.lines.len() / 2;
        let mut outcomes = Vec::with_capacity(self.lines.len());
        let mut reclaimed_at_half = 0;
        let t_pass = Instant::now();
        for (b, batch) in self.lines.iter().enumerate() {
            if b == half {
                reclaimed_at_half = self.base.tracker().nodes_reclaimed();
            }
            let t = Instant::now();
            let out = run_batch(&self.base, &cfg, batch);
            let s = since(t);
            p.units_ms.push(s * 1e3);
            if b < half {
                p.first_s += s;
            } else {
                p.second_s += s;
            }
            outcomes.push(out);
        }
        p.run_s = since(t_pass);

        let reclaimed_start = before.get("session.nodes_reclaimed").unwrap_or(0);
        p.first_nodes = reclaimed_at_half - reclaimed_start;
        p.second_nodes = self.base.tracker().nodes_reclaimed() - reclaimed_at_half;
        p.count(&self.tracker_counters().delta(&before), &[]);
        for (out, want) in outcomes.iter().zip(&self.expected) {
            for (got, want) in out.responses.iter().zip(want) {
                p.check(got == want);
            }
            for (name, v) in [
                ("serve.requests", out.requests),
                ("serve.rejected", out.rejected),
                ("serve.aborted", out.aborted),
                ("cnf.instances_loaded", out.cnf.instances_loaded),
                ("cnf.clauses_scheduled", out.cnf.clauses_scheduled),
                ("cnf.counts", out.cnf.counts),
            ] {
                *p.counters.entry(name).or_insert(0) += v;
            }
        }
        p
    }

    /// Split a request into JSON decode, session fork and op by replaying
    /// the stream outside `run_batch`, timing each public call; plus the
    /// one-off fork probe on larger bases.
    fn probe(&mut self, untraced_run_s: f64) -> Layers {
        let mut layers = Layers::new();
        let mut per_verb: Vec<Vec<f64>> = vec![Vec::new(); P50.len()];
        let (mut decode_s, mut fork_s, mut op_s) = (0.0, 0.0, 0.0);
        let mut forks_us = Vec::with_capacity(self.lines.len());
        let mut session_nodes = 0;
        for (lines, reqs) in self.lines.iter().zip(&self.reqs) {
            let t = Instant::now();
            let mut s = self.base.session();
            let f = since(t);
            fork_s += f;
            forks_us.push(f * 1e6);
            for (line, req) in lines.iter().zip(reqs) {
                let t = Instant::now();
                let parsed = parse_json(line);
                decode_s += since(t);
                std::hint::black_box(parsed.is_ok());
                let t = Instant::now();
                let ok = run_op(&mut s, req);
                let o = since(t);
                op_s += o;
                per_verb[req.verb()].push(o * 1e6);
                assert!(ok, "replayed request failed: {line}");
            }
            session_nodes += s.overlay_nodes() as u64;
        }
        let n = REQUESTS as f64;
        layers.insert("json.decode_us", decode_s / n * 1e6);
        layers.insert("session.op_us", op_s / n * 1e6);
        layers.insert("session.fork_us", median(&forks_us));
        layers.insert("session.nodes", session_nodes as f64);
        layers.insert(
            "serve.other_us",
            (untraced_run_s - decode_s - fork_s - op_s) / n * 1e6,
        );
        for (v, times) in per_verb.iter().enumerate() {
            layers.insert(P50[v], quantile(times, 0.5));
            layers.insert(P99[v], quantile(times, 0.99));
        }
        for (name, metric) in [
            ("C1355", "session.fork_c1355_us"),
            ("C1908", "session.fork_c1908_us"),
        ] {
            let net = benchgen::mcnc::generate(name).expect("Table-I benchmark");
            let base = publish_networks_on(Bbdd::new(net.num_inputs()), &[&net]).expect("publish");
            layers.insert(metric, fork_us(&base, 51));
        }
        layers
    }
}

/// Per-verb op latency metric names, in [`Req::verb`] order.
pub const P50: [&str; 7] = [
    "session.eval_p50_us",
    "session.sat_count_p50_us",
    "session.node_count_p50_us",
    "session.apply_p50_us",
    "session.quantify_p50_us",
    "session.load_cnf_p50_us",
    "session.count_p50_us",
];
/// See [`P50`].
pub const P99: [&str; 7] = [
    "session.eval_p99_us",
    "session.sat_count_p99_us",
    "session.node_count_p99_us",
    "session.apply_p99_us",
    "session.quantify_p99_us",
    "session.load_cnf_p99_us",
    "session.count_p99_us",
];
