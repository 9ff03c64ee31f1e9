//! Untrusted input never panics: random bytes and byte-mutations of valid
//! inputs go through every reader the CLI and `serve` expose — the JSON
//! request parser, `run_batch` on all four backends, the DIMACS, BLIF and
//! structural-Verilog readers, and `Bbdd::load` — and each either parses
//! or returns an error. Every panic is caught with `catch_unwind` and
//! fails the case. A forest `Bbdd::load` accepts must also pass
//! `validate()`.
//!
//! `run_batch` must also answer every request line with exactly one
//! response line whose status is `ok` or `error` (or `aborted`, when a
//! mutated request carries a budget of its own).
//!
//! Inputs that once made a reader panic are kept as fixed cases in
//! [`fixed_cases_stay_errors_or_values`].

use bbdd::{Bbdd, ParBbdd};
use bbdd_suite::serve::{parse_json, run_batch, ServeConfig};
use cnf::parse_dimacs;
use ddcore::session::{SessionBackend, SharedBase};
use logicnet::blif::{parse_blif, write_blif};
use logicnet::publish::publish_networks_on;
use logicnet::verilog::{parse_verilog, write_verilog};
use logicnet::{GateOp, Network};
use proptest::prelude::*;
use robdd::{ParRobdd, Robdd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The full adder every backend serves (inputs `a b cin`, outputs `s`
/// and `cout`) and whose BLIF and Verilog texts seed the mutations.
fn adder() -> Network {
    let mut net = Network::new("fa");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let cin = net.add_input("cin");
    let p = net.add_gate(GateOp::Xor, &[a, b]);
    let s = net.add_gate(GateOp::Xor, &[p, cin]);
    let g = net.add_gate(GateOp::And, &[a, b]);
    let c = net.add_gate(GateOp::Maj, &[a, b, cin]);
    let m = net.add_gate(GateOp::Mux, &[g, c, p]);
    let n = net.add_gate(GateOp::Nor, &[m, s]);
    net.set_output("s", s);
    net.set_output("cout", c);
    net.set_output("n", n);
    net
}

/// One valid request of every verb, one line each.
const REQUESTS: &str = concat!(
    r#"{"op":"eval","id":1,"f":"cout","assignment":[true,false,true]}"#,
    "\n",
    r#"{"op":"eval","f":"s","assignment":{"a":true,"cin":true}}"#,
    "\n",
    r#"{"op":"sat_count","id":"x","f":"cout"}"#,
    "\n",
    r#"{"op":"node_count","f":"n"}"#,
    "\n",
    r#"{"op":"apply","how":"and","f":"cout","g":"s","store":"both"}"#,
    "\n",
    r#"{"op":"quantify","kind":"exists","f":"cout","vars":["a",1]}"#,
    "\n",
    r#"{"op":"compose","f":"cout","var":"a","g":"s"}"#,
    "\n",
    r#"{"op":"cec","f":"cout","g":"n","budget":{"nodes":50,"ms":1000}}"#,
    "\n",
    r#"{"op":"load_cnf","name":"inst","text":"p cnf 3 2\n1 -2 0\n2 3 0\n","schedule":"bucket"}"#,
    "\n",
    r#"{"op":"count","f":"inst","over":3,"slice":2}"#,
    "\n",
    r#"{"op":"list"}"#,
    "\n",
    r#"{"op":"stats"}"#,
    "\n",
);

const DIMACS: &str = "c parity fragment\np cnf 4 5\n1 -2 0\n2 3 -4 0\n-1 4 0\n3 0\n-3 -4 1 2 0\n";

/// The seed texts the mutations start from.
fn seeds() -> Vec<String> {
    vec![
        REQUESTS.to_string(),
        DIMACS.to_string(),
        write_blif(&adder()),
        write_verilog(&adder()),
    ]
}

/// Tokens a mutation may splice in: the readers' keywords, delimiters and
/// numbers at the edges of their limits.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "(",
    ")",
    "\"",
    ":",
    ",",
    ";",
    "\n",
    " ",
    "\\",
    "\\u",
    "-",
    "0",
    "1",
    "-1",
    "65534",
    "65535",
    "65536",
    "4294967296",
    "18446744073709551616",
    "1e999",
    ".names",
    ".inputs",
    ".outputs",
    ".end",
    ".model",
    "input",
    "output",
    "wire",
    "assign",
    "module",
    "endmodule",
    "p cnf",
    "\"op\":",
    "\"f\":",
    "\"slice\":",
    "\"over\":",
    "\"budget\":",
    "true",
    "null",
    "~",
    "&",
    "|",
    "^",
    "?",
    "\u{e9}",
    "\u{1f600}",
];

/// Tokens a mutation of a saved forest may splice in: the format's
/// directives, node modes, edges and counts at the edges of their limits.
const FOREST_TOKENS: &[&str] = &[
    "bbdd 1",
    "vars",
    "order",
    "node",
    "root",
    "end",
    "#",
    " B ",
    " S ",
    ":0",
    ":1",
    "\n",
    " ",
    "0",
    "1",
    "2",
    "3",
    "4",
    "9",
    "-1",
    "65535",
    "70000",
    "4294967296",
];

/// A saved forest that the `load` mutations start from: a sum, a carry
/// and a masked sum over four variables, under a non-identity order.
fn forest() -> String {
    let mut m = Bbdd::new(4);
    let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
    let p = m.xor(a, b);
    let sum = m.xor(p, c);
    let g = m.and(a, b);
    let t = m.and(p, c);
    let carry = m.or(g, t);
    let masked = m.and(sum, !d);
    let roots = [sum, carry, masked];
    let pins: Vec<_> = roots.iter().map(|&e| m.pin(e)).collect();
    m.reorder_to(&[2, 0, 3, 1]);
    let text = m.save(&roots, &["s", "cout", "m"]);
    drop(pins);
    text
}

/// One input: raw random bytes, or a seed mutated by [`mutate_text`].
fn mutate(rng: &mut TestRng, raw: bool) -> String {
    if raw {
        let len = rng.below(160) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        return String::from_utf8_lossy(&bytes).into_owned();
    }
    let seeds = seeds();
    let seed = seeds[rng.below(seeds.len() as u64) as usize].clone();
    mutate_text(rng, seed, TOKENS)
}

/// `seed` mutated `1..8` times. Each step overwrites, inserts or deletes
/// a byte, splices in one of `tokens`, duplicates a slice or truncates.
/// Bytes that are not UTF-8 are replaced, since every reader takes `&str`.
fn mutate_text(rng: &mut TestRng, seed: String, tokens: &[&str]) -> String {
    let mut b = seed.into_bytes();
    for _ in 0..1 + rng.below(8) {
        let at = rng.below(b.len() as u64 + 1) as usize;
        match rng.below(6) {
            0 if at < b.len() => b[at] = rng.next_u64() as u8,
            1 => b.insert(at, rng.next_u64() as u8),
            2 if at < b.len() => {
                b.remove(at);
            }
            3 => {
                let t = tokens[rng.below(tokens.len() as u64) as usize];
                b.splice(at..at, t.bytes());
            }
            4 => {
                let len = rng.below(24) as usize;
                let piece: Vec<u8> = b[at..(at + len).min(b.len())].to_vec();
                b.splice(at..at, piece);
            }
            _ => b.truncate(at),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Raw random bytes one time in four, a mutated seed otherwise.
struct InputStrategy;

impl Strategy for InputStrategy {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let raw = rng.below(4) == 0;
        mutate(rng, raw)
    }
}

/// Raw random bytes one time in four, a mutated saved forest otherwise.
struct ForestStrategy;

impl Strategy for ForestStrategy {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        if rng.below(4) == 0 {
            mutate(rng, true)
        } else {
            mutate_text(rng, forest(), FOREST_TOKENS)
        }
    }
}

/// Run `f` and fail with `what` and the input if it panics.
fn no_panic<T>(what: &str, text: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => panic!("{what} panicked on {text:?}"),
    }
}

fn base<B: SessionBackend>(backend: B) -> Arc<SharedBase<B>> {
    publish_networks_on(backend, &[&adder()]).expect("publish")
}

/// One response line per request line, each an `ok`, `error` or
/// `aborted` JSON object.
fn check_batch<B: SessionBackend>(base: &Arc<SharedBase<B>>, text: &str) {
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let requests = lines.iter().filter(|l| !l.trim().is_empty()).count();
    let out = no_panic("run_batch", text, || {
        run_batch(base, &ServeConfig::default(), &lines)
    });
    assert_eq!(
        out.responses.len(),
        requests,
        "one response per request in {text:?}"
    );
    for resp in &out.responses {
        let status = parse_json(resp)
            .ok()
            .and_then(|v| v.get("status").and_then(|s| s.as_str()).map(str::to_string));
        assert!(
            matches!(status.as_deref(), Some("ok" | "error" | "aborted")),
            "bad response {resp:?} to {text:?}"
        );
    }
}

/// Every reader on one input.
fn check_readers(text: &str) {
    no_panic("parse_json", text, || drop(parse_json(text)));
    no_panic("parse_dimacs", text, || drop(parse_dimacs(text)));
    no_panic("parse_blif", text, || drop(parse_blif(text)));
    no_panic("parse_verilog", text, || drop(parse_verilog(text)));
}

/// `Bbdd::load` on one input: an error, or a forest that passes
/// `validate()` and whose roots save again.
fn check_load(text: &str) {
    if let Ok((m, roots)) = no_panic("Bbdd::load", text, || Bbdd::load(text)) {
        if let Err(e) = m.validate() {
            panic!("Bbdd::load accepted an invalid forest ({e}) from {text:?}");
        }
        let edges: Vec<_> = roots.iter().map(|&(_, e)| e).collect();
        assert!(m.try_save(&edges, &[]).is_ok(), "stale root from {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn readers_never_panic(input in InputStrategy) {
        check_readers(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn load_never_panics_and_returns_valid_forests(input in ForestStrategy) {
        check_load(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_batch_answers_every_request_on_all_backends(input in InputStrategy) {
        let nv = adder().num_inputs();
        check_batch(&base(Bbdd::new(nv)), &input);
        check_batch(&base(Robdd::new(nv)), &input);
        check_batch(&base(ParBbdd::new(nv, 2)), &input);
        check_batch(&base(ParRobdd::new(nv, 2)), &input);
    }
}

/// The valid seeds themselves parse, and every verb answers `ok`.
#[test]
fn seeds_are_valid() {
    assert!(parse_dimacs(DIMACS).is_ok());
    assert!(parse_blif(&write_blif(&adder())).is_ok());
    assert!(parse_verilog(&write_verilog(&adder())).is_ok());
    let (m, roots) = Bbdd::load(&forest()).expect("the saved forest loads");
    assert!(m.validate().is_ok());
    assert_eq!(roots.len(), 3);
    let lines: Vec<String> = REQUESTS.lines().map(str::to_string).collect();
    let out = run_batch(&base(Bbdd::new(3)), &ServeConfig::default(), &lines);
    assert_eq!(out.responses.len(), lines.len());
    assert_eq!((out.rejected, out.aborted), (0, 0), "{:?}", out.responses);
}

/// Inputs that once made a reader panic: each must now be a value or an
/// error, through every reader and the batch engine.
#[test]
fn fixed_cases_stay_errors_or_values() {
    let cases: &[&str] = &[
        // An id past f64's range was echoed back as `"id":inf`, which is
        // not JSON.
        "{\"op\":\"eval\",\"id\":1e9991,\"f\":\"cout\",\"assignment\":[true,false,true]}",
    ];
    for text in cases {
        check_readers(text);
        check_batch(&base(Bbdd::new(3)), text);
    }
}
