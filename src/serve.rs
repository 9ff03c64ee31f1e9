//! The serving front door: newline-delimited JSON requests over stdio or
//! TCP, answered by MVCC sessions forked off one published snapshot
//! (`ddcore::session`, library built by `logicnet::publish`).
//!
//! ## Protocol
//!
//! One request per line, one response line per request, always in request
//! order. Every request is a JSON object with an `"op"` field and
//! optionally `"id"` (echoed back verbatim) and `"budget"`
//! (`{"nodes":N,"ms":T}` — per-request overrides of the serve-wide
//! admission defaults; the request can *tighten or replace* limits but
//! never escape the server's cancellation token):
//!
//! ```text
//! {"op":"eval","f":"cout","assignment":[true,false,true]}
//! {"op":"eval","f":"cout","assignment":{"a":true,"cin":true}}
//! {"op":"sat_count","f":"cout"}
//! {"op":"node_count","f":"cout"}
//! {"op":"apply","how":"and","f":"cout","g":"s","store":"both"}
//! {"op":"quantify","kind":"exists","f":"cout","vars":["a",1]}
//! {"op":"compose","f":"cout","var":"a","g":"s"}
//! {"op":"cec","f":"golden.y","g":"revised.y"}
//! {"op":"load_cnf","name":"inst","text":"p cnf 3 2\n1 -2 0\n2 3 0\n","schedule":"bucket"}
//! {"op":"count","f":"inst","over":3,"slice":2}
//! {"op":"list"}
//! {"op":"stats"}
//! ```
//!
//! The two CNF verbs are the serving face of the `cnf` crate: `load_cnf`
//! parses a strict DIMACS instance from the `"text"` field, builds its
//! conjunction inside the session fork under the chosen clause schedule
//! (`input` / `bucket` / `force`, default `bucket`) and stores it under
//! `"name"`; `count` answers the exact model count of any visible
//! function over a declared variable universe (`"over"`, default the
//! manager width) as a decimal string. With `"slice":k` the count is
//! split into `2^k` cofactor sub-problems on the first `k` support
//! variables, each under a **fresh** budget minted from the request's
//! spec; aborted slices degrade the answer to a partial verdict carrying
//! the lower bound from the completed slices.
//!
//! Responses are `{"id":…,"status":"ok",…}` on success,
//! `{"id":…,"status":"aborted","reason":"node_budget","partial":true}`
//! when the request's budget stopped the operation (the session and the
//! shared base remain fully usable — a *partial verdict*, mirroring the
//! CLI's exit-code-3 convention), and `{"id":…,"status":"error",…}` for
//! malformed or unresolvable requests — among them a `budget` field that
//! is not a non-negative integer and a line longer than
//! [`MAX_LINE_BYTES`]. `sat_count` and the CEC
//! distinguishing count are decimal **strings** (they are `u128`; JSON
//! numbers cannot carry them losslessly).
//!
//! ## Batching and sessions
//!
//! [`run_batch`] fans a request list over `sessions` worker threads,
//! request `i` running on session `i mod sessions` — deterministic
//! assignment, responses reassembled in input order. Sessions are private
//! forks of the frozen base, so workers never contend and every answer is
//! bit-identical to running the same request sequence on one session (or
//! on a private manager): `"store"` bindings are session-local state, and
//! a later request sees a stored name only when it lands on the same
//! session (`j ≡ i (mod sessions)`).
//!
//! The JSON layer is hand-rolled (~150 lines) because the workspace has no
//! serde — the same choice the metrics registry made for its JSON export.

use cnf::{parse_dimacs, ClauseSchedule, Schedule};
use ddcore::boolop::BoolOp;
use ddcore::govern::{Admission, OpAbort};
use ddcore::obs::MetricsSnapshot;
use ddcore::session::{CecOutcome, Session, SessionBackend, SessionError, SharedBase};
use std::io::{BufRead, Read, Write};
use std::sync::Arc;
use std::time::Duration;

// ───────────────────────── minimal JSON ──────────────────────────────────

/// A parsed JSON value (the subset of JSON the protocol needs — no
/// exponent-form floats beyond what `f64` parsing accepts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for Json {
    /// Serializes back to compact JSON.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write!(f, "{}", json_string(s)),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(|j| j.to_string()).collect();
                write!(f, "[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{v}", json_string(k)))
                    .collect();
                write!(f, "{{{}}}", inner.join(","))
            }
        }
    }
}

/// Escape and quote a string for JSON output.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deepest array/object nesting [`parse_json`] accepts. Requests nest a
/// few levels; the cap keeps one hostile line from overflowing the stack
/// of the thread serving every session.
pub const MAX_JSON_DEPTH: usize = 128;

/// Longest request line the front doors accept, in bytes without the
/// line break. A longer line gets an `error` response; the readers keep
/// at most two bytes more of any line and skip the rest, so one hostile
/// line cannot make the server buffer it whole.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Read one request line into `line` without its line break, keeping at
/// most [`MAX_LINE_BYTES`] + 2 bytes of it. Returns `Ok(false)` at end of
/// input.
///
/// # Errors
/// The input's read error, or `InvalidData` for a line that is not UTF-8.
fn read_request_line(input: &mut dyn BufRead, line: &mut String) -> std::io::Result<bool> {
    let mut bytes = Vec::new();
    let limit = MAX_LINE_BYTES as u64 + 2;
    if (&mut *input).take(limit).read_until(b'\n', &mut bytes)? == 0 {
        return Ok(false);
    }
    if bytes.last() == Some(&b'\n') {
        bytes.pop();
    } else if bytes.len() as u64 == limit {
        input.skip_until(b'\n')?;
    }
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    *line = if bytes.len() > MAX_LINE_BYTES {
        // Perhaps cut mid-character; it is rejected for its length anyway.
        String::from_utf8_lossy(&bytes).into_owned()
    } else {
        String::from_utf8(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
    };
    Ok(true)
}

/// Parse one JSON value from `text` (must consume the whole input up to
/// trailing whitespace).
///
/// # Errors
/// Returns a position-tagged message on malformed input, and on nesting
/// deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}", pos = *pos))
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always a valid boundary walk).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("valid UTF-8 slice"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

// ───────────────────────── serve configuration ───────────────────────────

/// Serve-wide configuration shared by the stdio batch and TCP modes.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Concurrent sessions in batch mode (minimum 1).
    pub sessions: usize,
    /// Default per-request node-creation ceiling.
    pub node_limit: Option<u64>,
    /// Default per-request wall-clock allowance, milliseconds.
    pub time_limit_ms: Option<u64>,
}

impl ServeConfig {
    fn admission(&self) -> Admission {
        let mut a = Admission::unlimited();
        if let Some(n) = self.node_limit {
            a = a.with_node_limit(n);
        }
        if let Some(ms) = self.time_limit_ms {
            a = a.with_time_limit(Duration::from_millis(ms));
        }
        a
    }
}

/// `cnf.*` accounting from the CNF front-door verbs (`load_cnf` /
/// `count`), aggregated across every session of a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CnfServeStats {
    /// DIMACS instances built and stored by `load_cnf`.
    pub instances_loaded: u64,
    /// Clauses conjoined across all builds.
    pub clauses_scheduled: u64,
    /// Largest intermediate conjunction (nodes) seen by any build.
    pub conj_peak_nodes: u64,
    /// `count` requests answered (including partial verdicts).
    pub counts: u64,
    /// Cofactor slices counted to completion.
    pub slices_completed: u64,
    /// Cofactor slices stopped by their per-slice budget.
    pub slices_aborted: u64,
}

impl CnfServeStats {
    fn merge(&mut self, other: &CnfServeStats) {
        self.instances_loaded += other.instances_loaded;
        self.clauses_scheduled += other.clauses_scheduled;
        self.conj_peak_nodes = self.conj_peak_nodes.max(other.conj_peak_nodes);
        self.counts += other.counts;
        self.slices_completed += other.slices_completed;
        self.slices_aborted += other.slices_aborted;
    }
}

/// Outcome of one served batch: the response lines (input order) plus the
/// `serve.*` accounting.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// One response line per request line, in request order.
    pub responses: Vec<String>,
    /// Requests received (non-empty lines).
    pub requests: u64,
    /// Requests rejected before execution (malformed JSON, unknown op or
    /// function, invalid arguments).
    pub rejected: u64,
    /// Requests stopped by their budget (partial verdicts).
    pub aborted: u64,
    /// TCP connections ended by a read error (a reset socket, a line
    /// that is not UTF-8) or lost before serving (a failed `accept`, a
    /// socket that could not be split into a reader and a writer).
    pub read_errors: u64,
    /// CNF front-door accounting for the `cnf.*` metrics section.
    pub cnf: CnfServeStats,
}

impl ServeOutcome {
    /// `true` when at least one request returned a partial verdict — the
    /// CLI maps this onto its exit-code-3 convention.
    #[must_use]
    pub fn any_aborted(&self) -> bool {
        self.aborted > 0
    }
}

// ───────────────────────── request execution ─────────────────────────────

fn abort_name(a: OpAbort) -> &'static str {
    match a {
        OpAbort::NodeBudget => "node_budget",
        OpAbort::Deadline => "deadline",
        OpAbort::Cancelled => "cancelled",
    }
}

fn parse_boolop(name: &str) -> Option<BoolOp> {
    Some(match name {
        "and" => BoolOp::AND,
        "or" => BoolOp::OR,
        "xor" => BoolOp::XOR,
        "xnor" => BoolOp::XNOR,
        "nand" => BoolOp::NAND,
        "nor" => BoolOp::NOR,
        "implies" => BoolOp::IMPLIES,
        "and_not" => BoolOp::AND_NOT,
        _ => return None,
    })
}

/// What happened to one request, before rendering.
enum Reply {
    Ok(String),
    Aborted(OpAbort),
    /// A budget stopped part of the work but a usable lower bound
    /// survived (sliced counts): rendered as an aborted response that
    /// still carries a payload.
    Partial(OpAbort, String),
    Error(String),
}

/// The request's `budget` overrides `(nodes, ms)`: absent keeps the
/// serve-wide limit, a non-negative integer replaces it, anything else is
/// rejected by name (never silently unlimited).
fn budget_limits(spec: Option<&Json>) -> Result<(Option<u64>, Option<u64>), Reply> {
    let Some(spec) = spec else {
        return Ok((None, None));
    };
    if !matches!(spec, Json::Obj(_)) {
        return Err(Reply::Error("'budget' must be an object".into()));
    }
    let field = |key: &str| match spec.get(key) {
        None => Ok(None),
        Some(j) => j.as_u64().map(Some).ok_or_else(|| {
            Reply::Error(format!(
                "'budget.{key}' must be a non-negative integer, got {j}"
            ))
        }),
    };
    Ok((field("nodes")?, field("ms")?))
}

/// Execute one parsed request against a session. Returns the rendered
/// payload fields (without `id`/`status` framing). CNF front-door
/// accounting is accumulated into `tally`.
fn execute<B: SessionBackend>(
    session: &mut Session<B>,
    req: &Json,
    tally: &mut CnfServeStats,
) -> Reply {
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return Reply::Error("missing 'op' field".to_string()),
    };
    let (nodes, ms) = match budget_limits(req.get("budget")) {
        Ok(limits) => limits,
        Err(reply) => return reply,
    };
    let mut budget = session
        .admission()
        .mint_with(nodes, ms.map(Duration::from_millis));

    let fname = |key: &str| -> Result<String, Reply> {
        req.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| Reply::Error(format!("missing '{key}' field")))
    };
    let store = req.get("store").and_then(Json::as_str).map(str::to_string);

    let outcome = (|| -> Result<String, Reply> {
        Ok(match op {
            "eval" => {
                let f = fname("f")?;
                let assignment = parse_assignment(session, req.get("assignment"))?;
                let v = map_err(session.eval(&f, &assignment))?;
                format!("\"value\":{v}")
            }
            "sat_count" => {
                let f = fname("f")?;
                let n = map_err(session.sat_count(&f, &mut budget))?;
                format!("\"count\":\"{n}\"")
            }
            "node_count" => {
                let f = fname("f")?;
                let n = map_err(session.node_count(&f))?;
                format!("\"nodes\":{n}")
            }
            "apply" => {
                let how = fname("how")?;
                let op = parse_boolop(&how)
                    .ok_or_else(|| Reply::Error(format!("unknown operator '{how}'")))?;
                let f = fname("f")?;
                let g = fname("g")?;
                let n = map_err(session.apply(op, &f, &g, store.as_deref(), &mut budget))?;
                format!("\"nodes\":{n}")
            }
            "quantify" => {
                let exists = match req.get("kind").and_then(Json::as_str) {
                    None | Some("exists") => true,
                    Some("forall") => false,
                    Some(k) => return Err(Reply::Error(format!("unknown kind '{k}'"))),
                };
                let f = fname("f")?;
                let vars = parse_vars(session, req.get("vars"))?;
                let n =
                    map_err(session.quantify(exists, &f, &vars, store.as_deref(), &mut budget))?;
                format!("\"nodes\":{n}")
            }
            "compose" => {
                let f = fname("f")?;
                let g = fname("g")?;
                let var = match req.get("var") {
                    Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as usize,
                    Some(Json::Str(name)) => session
                        .base()
                        .library()
                        .input_index(name)
                        .ok_or_else(|| Reply::Error(format!("unknown input '{name}'")))?,
                    _ => return Err(Reply::Error("missing 'var' field".to_string())),
                };
                let n = map_err(session.compose(&f, var, &g, store.as_deref(), &mut budget))?;
                format!("\"nodes\":{n}")
            }
            "cec" => {
                let f = fname("f")?;
                let g = fname("g")?;
                let out = map_err(session.cec(&f, &g, &mut budget))?;
                render_cec(&out)
            }
            "load_cnf" => {
                let name = fname("name")?;
                let text = fname("text")?;
                let inst =
                    parse_dimacs(&text).map_err(|e| Reply::Error(format!("bad DIMACS: {e}")))?;
                if inst.num_vars > session.num_vars() {
                    return Err(Reply::Error(format!(
                        "instance declares {} vars but the base has {}",
                        inst.num_vars,
                        session.num_vars()
                    )));
                }
                let schedule = match req.get("schedule").and_then(Json::as_str) {
                    None => Schedule::default(),
                    Some(s) => s.parse::<Schedule>().map_err(Reply::Error)?,
                };
                let plan = schedule.plan(&inst);
                let (edge, stats) = map_err(session.build_raw(&mut budget, |m, b| {
                    cnf::try_build_cnf_raw(m, &inst, &plan, b)
                }))?;
                session.store(&name, edge);
                tally.instances_loaded += 1;
                tally.clauses_scheduled += stats.clauses_scheduled;
                tally.conj_peak_nodes = tally.conj_peak_nodes.max(stats.conj_peak_nodes);
                let built = map_err(session.node_count(&name))?;
                format!(
                    "\"name\":{},\"vars\":{},\"clauses\":{},\"nodes\":{built},\"schedule\":\"{schedule}\"",
                    json_string(&name),
                    inst.num_vars,
                    inst.num_clauses()
                )
            }
            "count" => {
                let f = fname("f")?;
                let over = match req.get("over") {
                    None => session.num_vars(),
                    Some(j) => j.as_u64().ok_or_else(|| {
                        Reply::Error("'over' must be a non-negative integer".into())
                    })? as usize,
                };
                let k = match req.get("slice") {
                    None => 0,
                    Some(j) => j.as_u64().ok_or_else(|| {
                        Reply::Error("'slice' must be a non-negative integer".into())
                    })? as usize,
                };
                if k == 0 {
                    let n = map_err(session.sat_count_over(&f, over, &mut budget))?;
                    tally.counts += 1;
                    format!("\"count\":\"{n}\",\"over\":{over}")
                } else {
                    if k > 20 {
                        return Err(Reply::Error("'slice' must be at most 20".into()));
                    }
                    let e = map_err(session.edge(&f))?;
                    let mut split = map_err(session.support(&f))?;
                    split.truncate(k);
                    if split.iter().any(|&v| v >= over) {
                        return Err(Reply::Error(format!(
                            "count over {over} vars is not exactly representable"
                        )));
                    }
                    let slices = 1usize << split.len();
                    let mut total: u128 = 0;
                    let mut completed = 0u64;
                    let mut aborted = 0u64;
                    let mut first_abort: Option<OpAbort> = None;
                    for idx in 0..slices {
                        // Each slice runs under a fresh budget minted from
                        // the request's spec: one runaway cofactor cannot
                        // starve its siblings.
                        let mut b = session
                            .admission()
                            .mint_with(nodes, ms.map(Duration::from_millis));
                        let r = session.build_raw(&mut b, |m, bb| {
                            let mut g = e;
                            for (i, &v) in split.iter().enumerate() {
                                g = m.try_restrict_edge(g, v, (idx >> i) & 1 == 1, bb)?;
                            }
                            m.try_sat_count_over_edge(g, over, bb)
                        });
                        match r {
                            Ok(Some(c)) => {
                                // The cofactor no longer depends on the
                                // split variables, so its count over the
                                // declared universe carries a factor of
                                // 2^k for them; dividing it out pins the
                                // slice's assignment exactly.
                                total += c >> split.len();
                                completed += 1;
                            }
                            Ok(None) => {
                                return Err(Reply::Error(format!(
                                    "count over {over} vars is not exactly representable"
                                )))
                            }
                            Err(SessionError::Aborted(a)) => {
                                aborted += 1;
                                first_abort.get_or_insert(a);
                            }
                            Err(other) => return Err(Reply::Error(other.to_string())),
                        }
                    }
                    tally.counts += 1;
                    tally.slices_completed += completed;
                    tally.slices_aborted += aborted;
                    let payload = format!(
                        "\"count\":\"{total}\",\"over\":{over},\"slices\":{slices},\
                         \"completed\":{completed},\"aborted\":{aborted}"
                    );
                    match first_abort {
                        None => payload,
                        Some(a) => return Err(Reply::Partial(a, payload)),
                    }
                }
            }
            "list" => {
                let inputs: Vec<String> = session
                    .base()
                    .library()
                    .inputs()
                    .iter()
                    .map(|n| json_string(n))
                    .collect();
                let functions: Vec<String> = session
                    .visible_names()
                    .iter()
                    .map(|n| json_string(n))
                    .collect();
                format!(
                    "\"inputs\":[{}],\"functions\":[{}]",
                    inputs.join(","),
                    functions.join(",")
                )
            }
            "stats" => {
                let t = session.base().tracker();
                format!(
                    "\"epoch\":{},\"session_nodes\":{},\"sessions_live\":{},\"published\":{}",
                    session.base().epoch(),
                    session.overlay_nodes(),
                    t.sessions_live(),
                    t.published(),
                )
            }
            other => return Err(Reply::Error(format!("unknown op '{other}'"))),
        })
    })();
    match outcome {
        Ok(payload) => Reply::Ok(payload),
        Err(r) => r,
    }
}

/// Map a [`SessionError`] onto the wire split: budget aborts are partial
/// verdicts, everything else is a rejection.
fn map_err<T>(r: Result<T, SessionError>) -> Result<T, Reply> {
    r.map_err(|e| match e {
        SessionError::Aborted(a) => Reply::Aborted(a),
        other => Reply::Error(other.to_string()),
    })
}

/// An assignment is either a positional bool array or an object keyed by
/// input name (unnamed inputs default to `false`).
fn parse_assignment<B: SessionBackend>(
    session: &Session<B>,
    v: Option<&Json>,
) -> Result<Vec<bool>, Reply> {
    let lib = session.base().library();
    match v {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|j| match j {
                Json::Bool(b) => Ok(*b),
                Json::Num(n) => Ok(*n != 0.0),
                _ => Err(Reply::Error("assignment entries must be booleans".into())),
            })
            .collect(),
        Some(Json::Obj(fields)) => {
            let mut out = vec![false; lib.inputs().len()];
            for (name, value) in fields {
                let i = lib
                    .input_index(name)
                    .ok_or_else(|| Reply::Error(format!("unknown input '{name}' in assignment")))?;
                out[i] =
                    matches!(value, Json::Bool(true)) || matches!(value, Json::Num(n) if *n != 0.0);
            }
            Ok(out)
        }
        _ => Err(Reply::Error("missing 'assignment' field".to_string())),
    }
}

/// Variables come as an array of indices and/or input names.
fn parse_vars<B: SessionBackend>(
    session: &Session<B>,
    v: Option<&Json>,
) -> Result<Vec<usize>, Reply> {
    let lib = session.base().library();
    match v {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|j| match j {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
                Json::Str(name) => lib
                    .input_index(name)
                    .ok_or_else(|| Reply::Error(format!("unknown input '{name}'"))),
                _ => Err(Reply::Error("variables must be indices or names".into())),
            })
            .collect(),
        _ => Err(Reply::Error("missing 'vars' field".to_string())),
    }
}

fn render_cec(out: &CecOutcome) -> String {
    if out.equivalent {
        "\"equivalent\":true".to_string()
    } else {
        let mut s = "\"equivalent\":false".to_string();
        if let Some(cex) = &out.counterexample {
            let bits: Vec<String> = cex.iter().map(bool::to_string).collect();
            s.push_str(&format!(",\"counterexample\":[{}]", bits.join(",")));
        }
        if let Some(d) = out.distinguishing {
            s.push_str(&format!(",\"distinguishing\":\"{d}\""));
        }
        s
    }
}

/// Frame one reply as a full response line.
fn render_response(id: Option<&Json>, reply: &Reply) -> String {
    let id_field = id.map_or_else(String::new, |j| format!("\"id\":{j},"));
    match reply {
        Reply::Ok(payload) => format!("{{{id_field}\"status\":\"ok\",{payload}}}"),
        Reply::Aborted(a) => format!(
            "{{{id_field}\"status\":\"aborted\",\"reason\":\"{}\",\"partial\":true}}",
            abort_name(*a)
        ),
        Reply::Partial(a, payload) => format!(
            "{{{id_field}\"status\":\"aborted\",\"reason\":\"{}\",\"partial\":true,{payload}}}",
            abort_name(*a)
        ),
        Reply::Error(msg) => format!(
            "{{{id_field}\"status\":\"error\",\"error\":{}}}",
            json_string(msg)
        ),
    }
}

/// Process one raw request line on a session. Returns the response line
/// plus (rejected, aborted) accounting flags.
fn serve_line<B: SessionBackend>(
    session: &mut Session<B>,
    line: &str,
    tally: &mut CnfServeStats,
) -> (String, bool, bool) {
    let mut sp = ddcore::obs::span(ddcore::obs::Op::ServeRequest);
    if line.len() > MAX_LINE_BYTES {
        let reply = Reply::Error(format!(
            "bad request: line longer than {MAX_LINE_BYTES} bytes"
        ));
        return (render_response(None, &reply), true, false);
    }
    let req = match parse_json(line) {
        Ok(r) => r,
        Err(e) => {
            let reply = Reply::Error(format!("bad request: {e}"));
            return (render_response(None, &reply), true, false);
        }
    };
    let reply = execute(session, &req, tally);
    sp.set_arg("overlay_nodes", session.overlay_nodes() as u64);
    let (rejected, aborted) = match &reply {
        Reply::Ok(_) => (false, false),
        Reply::Error(_) => (true, false),
        Reply::Aborted(_) | Reply::Partial(..) => (false, true),
    };
    (render_response(req.get("id"), &reply), rejected, aborted)
}

// ───────────────────────── batch engine ──────────────────────────────────

/// Serve a batch of request lines over `cfg.sessions` concurrent sessions
/// forked from `base` (request `i` → session `i mod sessions`), returning
/// responses in request order. Empty lines are skipped.
pub fn run_batch<B: SessionBackend>(
    base: &Arc<SharedBase<B>>,
    cfg: &ServeConfig,
    lines: &[String],
) -> ServeOutcome {
    let requests: Vec<(usize, &str)> = lines
        .iter()
        .map(String::as_str)
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .collect();
    let sessions = cfg.sessions.max(1);
    let mut outcome = ServeOutcome {
        requests: requests.len() as u64,
        ..ServeOutcome::default()
    };
    let mut indexed: Vec<(usize, String, bool, bool)> = if sessions == 1 {
        let mut session = base.session_with(cfg.admission());
        requests
            .iter()
            .map(|&(i, line)| {
                let (resp, rejected, aborted) = serve_line(&mut session, line, &mut outcome.cnf);
                (i, resp, rejected, aborted)
            })
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|w| {
                    let my: Vec<(usize, &str)> = requests
                        .iter()
                        .filter(|(i, _)| i % sessions == w)
                        .copied()
                        .collect();
                    let admission = cfg.admission();
                    scope.spawn(move || {
                        let mut session = base.session_with(admission);
                        let mut tally = CnfServeStats::default();
                        let rows = my
                            .into_iter()
                            .map(|(i, line)| {
                                let (resp, rejected, aborted) =
                                    serve_line(&mut session, line, &mut tally);
                                (i, resp, rejected, aborted)
                            })
                            .collect::<Vec<_>>();
                        (rows, tally)
                    })
                })
                .collect();
            let mut rows = Vec::new();
            for h in handles {
                let (mine, tally) = h.join().expect("serve worker panicked");
                outcome.cnf.merge(&tally);
                rows.extend(mine);
            }
            rows
        })
    };
    indexed.sort_unstable_by_key(|(i, ..)| *i);
    for (_, resp, rejected, aborted) in indexed {
        outcome.rejected += u64::from(rejected);
        outcome.aborted += u64::from(aborted);
        outcome.responses.push(resp);
    }
    outcome
}

/// Serve newline-delimited requests from `input` to `output` (the stdio
/// front door): the whole input is read, batched over `cfg.sessions`
/// sessions, and answered in order.
///
/// # Errors
/// Propagates I/O failures on the two streams.
pub fn serve_stream<B: SessionBackend>(
    base: &Arc<SharedBase<B>>,
    cfg: &ServeConfig,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> std::io::Result<ServeOutcome> {
    let mut lines = Vec::new();
    let mut line = String::new();
    while read_request_line(input, &mut line)? {
        lines.push(std::mem::take(&mut line));
    }
    let outcome = run_batch(base, cfg, &lines);
    for resp in &outcome.responses {
        writeln!(output, "{resp}")?;
    }
    output.flush()?;
    Ok(outcome)
}

/// Serve TCP connections: each connection gets its own session and a
/// streaming request/response loop (one response per line, flushed
/// immediately — no batching across a socket). `max_conns` bounds the
/// accept loop for tests; `None` serves until the process dies.
///
/// A failed `accept` (say `ECONNABORTED` or `EMFILE`) skips that one
/// connection and the server goes on; it is counted in
/// [`ServeOutcome::read_errors`] with the per-connection read errors.
///
/// # Errors
/// None: every failure ends one connection only.
pub fn serve_tcp<B: SessionBackend>(
    base: &Arc<SharedBase<B>>,
    cfg: &ServeConfig,
    listener: &std::net::TcpListener,
    max_conns: Option<usize>,
) -> std::io::Result<ServeOutcome> {
    Ok(serve_incoming(base, cfg, listener.incoming(), max_conns))
}

/// The accept loop of [`serve_tcp`] over any stream of accepted
/// connections. A connection that fails to arrive or to split into a
/// reader and a writer is counted in `read_errors`, skipped and not
/// counted towards `max_conns`.
fn serve_incoming<B: SessionBackend>(
    base: &Arc<SharedBase<B>>,
    cfg: &ServeConfig,
    incoming: impl Iterator<Item = std::io::Result<std::net::TcpStream>>,
    max_conns: Option<usize>,
) -> ServeOutcome {
    let mut total = ServeOutcome::default();
    let mut served = 0;
    for conn in incoming {
        let Ok((reader, writer)) = conn.and_then(|s| Ok((s.try_clone()?, s))) else {
            total.read_errors += 1;
            continue;
        };
        let mut session = base.session_with(cfg.admission());
        let mut reader = std::io::BufReader::new(reader);
        let mut writer = std::io::BufWriter::new(writer);
        serve_connection(&mut session, &mut reader, &mut writer, &mut total);
        served += 1;
        if let Some(max) = max_conns {
            if served >= max {
                break;
            }
        }
    }
    total
}

/// One connection's request/response loop on its session, tallied into
/// `total`. It ends at end of input, on a read error (counted in
/// `read_errors`) or when a response cannot be written.
fn serve_connection<B: SessionBackend>(
    session: &mut Session<B>,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
    total: &mut ServeOutcome,
) {
    let mut line = String::new();
    loop {
        match read_request_line(reader, &mut line) {
            Ok(true) => {}
            Ok(false) => return,
            Err(_) => return total.read_errors += 1,
        }
        if line.trim().is_empty() {
            continue;
        }
        total.requests += 1;
        let (resp, rejected, aborted) = serve_line(session, line.trim_end(), &mut total.cnf);
        total.rejected += u64::from(rejected);
        total.aborted += u64::from(aborted);
        if writeln!(writer, "{resp}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

// ───────────────────────── metrics assembly ──────────────────────────────

/// One metrics registry over the whole serving stack: the frozen backend's
/// own sections (`nodes.*`, `cache.*`, …), the lineage's `session.*` /
/// `epoch.*` sections, and the front door's `serve.*` section.
#[must_use]
pub fn serve_metrics<B: SessionBackend>(
    base: &SharedBase<B>,
    cfg: &ServeConfig,
    outcome: &ServeOutcome,
) -> MetricsSnapshot {
    let mut m = base.backend().observe();
    base.tracker().fill(&mut m);
    m.counter("serve.requests", outcome.requests);
    m.counter("serve.rejected", outcome.rejected);
    m.counter("serve.aborted", outcome.aborted);
    m.counter("serve.read_errors", outcome.read_errors);
    m.gauge("serve.sessions", cfg.sessions.max(1) as u64);
    m.counter("cnf.instances_loaded", outcome.cnf.instances_loaded);
    m.counter("cnf.clauses_scheduled", outcome.cnf.clauses_scheduled);
    m.gauge("cnf.conj_peak_nodes", outcome.cnf.conj_peak_nodes);
    m.counter("cnf.counts", outcome.cnf.counts);
    m.counter("cnf.slices_completed", outcome.cnf.slices_completed);
    m.counter("cnf.slices_aborted", outcome.cnf.slices_aborted);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbdd::Bbdd;
    use logicnet::publish::publish_networks;
    use logicnet::{GateOp, Network};

    fn adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let cin = net.add_input("cin");
        let p = net.add_gate(GateOp::Xor, &[a, b]);
        let s = net.add_gate(GateOp::Xor, &[p, cin]);
        let c = net.add_gate(GateOp::Maj, &[a, b, cin]);
        net.set_output("s", s);
        net.set_output("cout", c);
        net
    }

    fn base() -> Arc<SharedBase<Bbdd>> {
        publish_networks::<Bbdd>(&[&adder()]).unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let v = parse_json(r#"{"op":"eval","id":7,"x":[true,false,null,-2.5,"a\"b"]}"#).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("eval"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        let back = v.to_string();
        assert_eq!(parse_json(&back).unwrap(), v);
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("true false").is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_documented_depth() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&MAX_JSON_DEPTH.to_string()), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(parse_json(&objects).is_err());
    }

    /// A line nested 200 k deep used to overflow the stack and abort the
    /// whole server; now it is one error response and the batch goes on.
    #[test]
    fn deeply_nested_line_is_rejected_and_the_batch_continues() {
        let base = base();
        let deep = format!(
            r#"{{"op":"eval","id":1,"x":{}1{}}}"#,
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        let lines: Vec<String> = vec![
            deep,
            r#"{"op":"eval","id":2,"f":"cout","assignment":[true,true,false]}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        assert_eq!(out.requests, 2);
        assert_eq!(out.rejected, 1);
        assert!(out.responses[0].contains("\"status\":\"error\""));
        assert!(out.responses[0].contains("nesting deeper than 128 levels"));
        assert!(
            out.responses[1].contains("\"id\":2") && out.responses[1].contains("\"value\":true")
        );
    }

    #[test]
    fn batch_answers_in_order_with_ids() {
        let base = base();
        let lines: Vec<String> = vec![
            r#"{"op":"eval","id":1,"f":"cout","assignment":[true,true,false]}"#.into(),
            r#"{"op":"sat_count","id":2,"f":"cout"}"#.into(),
            r#"{"op":"list","id":3}"#.into(),
            r#"{"op":"nope","id":4}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        assert_eq!(out.requests, 4);
        assert_eq!(out.rejected, 1);
        assert_eq!(out.aborted, 0);
        assert!(
            out.responses[0].contains("\"id\":1") && out.responses[0].contains("\"value\":true")
        );
        assert!(out.responses[1].contains("\"count\":\"4\""));
        assert!(out.responses[2].contains("\"functions\":[\"s\",\"cout\"]"));
        assert!(out.responses[3].contains("\"status\":\"error\""));
    }

    #[test]
    fn named_assignment_and_vars() {
        let base = base();
        let lines: Vec<String> = vec![
            r#"{"op":"eval","f":"s","assignment":{"cin":true}}"#.into(),
            r#"{"op":"quantify","kind":"exists","f":"cout","vars":["a","b","cin"]}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        assert!(out.responses[0].contains("\"value\":true"));
        // ∃ over everything: cout is satisfiable → the 1-terminal, 0 nodes.
        assert!(out.responses[1].contains("\"nodes\":0"));
    }

    #[test]
    fn over_budget_request_is_partial_not_fatal() {
        let base = base();
        let lines: Vec<String> = vec![
            r#"{"op":"apply","id":1,"how":"and","f":"s","g":"cout","budget":{"nodes":1}}"#.into(),
            r#"{"op":"eval","id":2,"f":"s","assignment":[false,false,true]}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        assert_eq!(out.aborted, 1);
        assert!(out.any_aborted());
        assert!(out.responses[0].contains("\"status\":\"aborted\""));
        assert!(out.responses[0].contains("\"partial\":true"));
        // The session survived the abort: the next request still answers.
        assert!(out.responses[1].contains("\"value\":true"));
    }

    #[test]
    fn multi_session_batch_matches_single_session() {
        let base = base();
        let lines: Vec<String> = (0..24)
            .map(|i| match i % 4 {
                0 => format!(
                    r#"{{"op":"eval","f":"s","assignment":[{},{},{}]}}"#,
                    i % 2 == 0,
                    i % 3 == 0,
                    i % 5 == 0
                ),
                1 => r#"{"op":"sat_count","f":"cout"}"#.to_string(),
                2 => r#"{"op":"cec","f":"s","g":"cout"}"#.to_string(),
                _ => r#"{"op":"node_count","f":"s"}"#.to_string(),
            })
            .collect();
        let seq = run_batch(&base, &ServeConfig::default(), &lines);
        for sessions in [2, 3, 4] {
            let par = run_batch(
                &base,
                &ServeConfig {
                    sessions,
                    ..ServeConfig::default()
                },
                &lines,
            );
            assert_eq!(
                par.responses, seq.responses,
                "{sessions} sessions must answer bit-identically"
            );
        }
    }

    #[test]
    fn store_is_visible_on_the_same_session() {
        let base = base();
        let lines: Vec<String> = vec![
            r#"{"op":"apply","how":"or","f":"s","g":"cout","store":"either"}"#.into(),
            r#"{"op":"sat_count","f":"either"}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        assert!(out.responses[1].contains("\"count\":"));
        // Stored names never leak into the shared base.
        assert!(base.library().get("either").is_none());
    }

    #[test]
    fn serve_metrics_has_all_sections() {
        let base = base();
        let lines: Vec<String> =
            vec![r#"{"op":"apply","how":"and","f":"s","g":"cout","budget":{"nodes":1}}"#.into()];
        let cfg = ServeConfig::default();
        let out = run_batch(&base, &cfg, &lines);
        let m = serve_metrics(&base, &cfg, &out);
        assert_eq!(m.get("serve.requests"), Some(1));
        assert_eq!(m.get("serve.aborted"), Some(1));
        assert_eq!(m.get("epoch.current"), Some(1));
        assert_eq!(m.get("session.created"), Some(1));
        assert!(m.get("nodes.live").is_some() || m.get("nodes.created").is_some());
        let json = m.to_json();
        assert!(json.contains("\"serve\":{"));
        assert!(json.contains("\"session\":{"));
        assert!(json.contains("\"epoch\":{"));
    }

    #[test]
    fn load_cnf_and_count_roundtrip() {
        let base = base();
        let lines: Vec<String> = vec![
            r#"{"op":"load_cnf","id":1,"name":"inst","text":"p cnf 3 2\n1 -2 0\n2 3 0\n"}"#.into(),
            r#"{"op":"count","id":2,"f":"inst"}"#.into(),
            r#"{"op":"count","id":3,"f":"inst","over":3,"slice":2}"#.into(),
            r#"{"op":"count","id":4,"f":"inst","over":5}"#.into(),
            r#"{"op":"load_cnf","id":5,"name":"bad","text":"p cnf 3\n"}"#.into(),
            r#"{"op":"load_cnf","id":6,"name":"wide","text":"p cnf 9 1\n9 0\n"}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        // (x1 ∨ ¬x2) ∧ (x2 ∨ x3) has exactly 4 models over 3 variables.
        assert!(
            out.responses[0].contains("\"status\":\"ok\"")
                && out.responses[0].contains("\"clauses\":2")
        );
        assert!(out.responses[1].contains("\"count\":\"4\""));
        // Slicing on 2 support variables recombines to the same count.
        assert!(
            out.responses[2].contains("\"count\":\"4\"")
                && out.responses[2].contains("\"slices\":4")
                && out.responses[2].contains("\"aborted\":0")
        );
        // A wider declared universe scales the count by 2^(5-3).
        assert!(out.responses[3].contains("\"count\":\"16\""));
        // Malformed DIMACS and an instance wider than the base are errors.
        assert!(out.responses[4].contains("\"status\":\"error\""));
        assert!(out.responses[5].contains("\"status\":\"error\""));
        assert_eq!(out.cnf.instances_loaded, 1);
        assert_eq!(out.cnf.counts, 3);
        assert_eq!(out.cnf.slices_completed, 4);
        assert_eq!(out.cnf.slices_aborted, 0);
        let m = serve_metrics(&base, &ServeConfig::default(), &out);
        assert_eq!(m.get("cnf.instances_loaded"), Some(1));
        assert_eq!(m.get("cnf.clauses_scheduled"), Some(2));
        assert_eq!(m.get("cnf.slices_completed"), Some(4));
    }

    #[test]
    fn sliced_count_under_budget_is_a_partial_verdict() {
        let base = base();
        let lines: Vec<String> = vec![
            r#"{"op":"load_cnf","id":1,"name":"inst","text":"p cnf 3 2\n1 -2 0\n2 3 0\n"}"#.into(),
            r#"{"op":"count","id":2,"f":"inst","slice":1,"budget":{"nodes":1}}"#.into(),
            r#"{"op":"eval","id":3,"f":"inst","assignment":[true,true,true]}"#.into(),
        ];
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        assert_eq!(out.aborted, 1);
        // The partial verdict still carries the completed-slice lower bound.
        assert!(out.responses[1].contains("\"status\":\"aborted\""));
        assert!(out.responses[1].contains("\"partial\":true"));
        assert!(out.responses[1].contains("\"count\":\""));
        assert!(out.cnf.slices_aborted > 0);
        // The session survived: the loaded instance still evaluates.
        assert!(out.responses[2].contains("\"value\":true"));
    }

    /// A slice's budget also covers the cofactoring that precedes its
    /// count: with two checkpoints, the count of each one-variable
    /// cofactor fits, but restricting and counting together does not.
    #[test]
    fn sliced_count_budget_covers_the_restrict() {
        let base = base();
        let run = |nodes: u64| {
            let lines: Vec<String> = vec![
                r#"{"op":"load_cnf","id":1,"name":"inst","text":"p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"}"#.into(),
                format!(r#"{{"op":"count","id":2,"f":"inst","slice":1,"budget":{{"nodes":{nodes}}}}}"#),
            ];
            run_batch(&base, &ServeConfig::default(), &lines)
        };
        let out = run(2);
        assert!(out.responses[1].contains("\"status\":\"aborted\""));
        assert!(out.responses[1].contains("\"reason\":\"node_budget\""));
        assert_eq!(out.cnf.slices_aborted, 2);
        // One more checkpoint per slice and both slices complete.
        let out = run(3);
        assert!(out.responses[1].contains("\"count\":\"2\""));
        assert_eq!((out.cnf.slices_completed, out.cnf.slices_aborted), (2, 0));
    }

    #[test]
    fn load_cnf_schedules_agree() {
        let base = base();
        for schedule in ["input", "bucket", "force"] {
            let lines: Vec<String> = vec![
                format!(
                    r#"{{"op":"load_cnf","name":"i","text":"p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n","schedule":"{schedule}"}}"#
                ),
                r#"{"op":"count","f":"i","over":3}"#.into(),
            ];
            let out = run_batch(&base, &ServeConfig::default(), &lines);
            assert!(
                out.responses[0].contains(&format!("\"schedule\":\"{schedule}\"")),
                "schedule {schedule}: {}",
                out.responses[0]
            );
            assert!(
                out.responses[1].contains("\"count\":\"3\""),
                "schedule {schedule}: {}",
                out.responses[1]
            );
        }
    }

    #[test]
    fn tcp_roundtrip() {
        let base = base();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn({
            let base = Arc::clone(&base);
            move || serve_tcp(&base, &ServeConfig::default(), &listener, Some(1)).unwrap()
        });
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(
            b"{\"op\":\"eval\",\"id\":9,\"f\":\"cout\",\"assignment\":[true,true,true]}\n",
        )
        .unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"id\":9") && line.contains("\"value\":true"));
        drop(reader);
        drop(conn);
        let outcome = server.join().unwrap();
        assert_eq!(outcome.requests, 1);
    }

    #[test]
    fn failed_accept_skips_one_connection() {
        let base = base();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn({
            let base = Arc::clone(&base);
            move || {
                let aborted = std::io::Error::from(std::io::ErrorKind::ConnectionAborted);
                let incoming = std::iter::once(Err(aborted)).chain(listener.incoming());
                serve_incoming(&base, &ServeConfig::default(), incoming, Some(1))
            }
        });
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(format!("{}\n", eval_line(7)).as_bytes())
            .unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"id\":7") && line.contains("\"value\":true"));
        drop(reader);
        drop(conn);
        let outcome = server.join().unwrap();
        assert_eq!((outcome.requests, outcome.read_errors), (1, 1));
    }

    #[test]
    fn invalid_budget_fields_are_rejected_by_name() {
        let base = base();
        let eval = r#""op":"eval","f":"s","assignment":[false,false,true]"#;
        let cases = [
            (r#"{"nodes":-1}"#, Some("budget.nodes")),
            (r#"{"ms":1.5}"#, Some("budget.ms")),
            (r#"{"ms":1e400}"#, Some("budget.ms")),
            (r#"{"nodes":"10"}"#, Some("budget.nodes")),
            ("7", Some("'budget'")),
            (r#"{"nodes":1000,"ms":1000000000000000000}"#, None),
            ("{}", None),
        ];
        let lines: Vec<String> = cases
            .iter()
            .map(|(budget, _)| format!("{{{eval},\"budget\":{budget}}}"))
            .chain([format!("{{{eval}}}")])
            .collect();
        let out = run_batch(&base, &ServeConfig::default(), &lines);
        for ((budget, field), resp) in cases.iter().zip(&out.responses) {
            match field {
                Some(field) => assert!(
                    resp.contains("\"status\":\"error\"") && resp.contains(field),
                    "{budget}: {resp}"
                ),
                None => assert!(resp.contains("\"value\":true"), "{budget}: {resp}"),
            }
        }
        assert_eq!(out.rejected, 5);
        // The batch went on past the rejections.
        assert!(out.responses.last().unwrap().contains("\"value\":true"));
    }

    #[test]
    fn reader_keeps_a_bounded_prefix_of_long_lines() {
        let long = "x".repeat(3 * MAX_LINE_BYTES);
        let text = format!("{long}\r\nnext\r\nlast");
        let mut input = std::io::BufReader::with_capacity(1 << 12, text.as_bytes());
        let mut line = String::new();
        assert!(read_request_line(&mut input, &mut line).unwrap());
        assert_eq!(line.len(), MAX_LINE_BYTES + 2);
        assert!(read_request_line(&mut input, &mut line).unwrap());
        assert_eq!(line, "next");
        assert!(read_request_line(&mut input, &mut line).unwrap());
        assert_eq!(line, "last");
        assert!(!read_request_line(&mut input, &mut line).unwrap());
    }

    fn eval_line(id: u32) -> String {
        format!(r#"{{"op":"eval","id":{id},"f":"s","assignment":[false,false,true]}}"#)
    }

    #[test]
    fn over_long_line_in_a_batch_is_an_error_response() {
        let base = base();
        let text = format!(
            "{}\n{}\n{}\n",
            eval_line(1),
            "y".repeat(MAX_LINE_BYTES + 1),
            eval_line(2)
        );
        let mut output = Vec::new();
        let out = serve_stream(
            &base,
            &ServeConfig::default(),
            &mut text.as_bytes(),
            &mut output,
        )
        .unwrap();
        assert_eq!((out.requests, out.rejected), (3, 1));
        let responses: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert!(responses[0].contains("\"id\":1"));
        assert!(
            responses[1].contains("\"status\":\"error\"") && responses[1].contains("longer than"),
            "{}",
            responses[1]
        );
        assert!(responses[2].contains("\"id\":2") && responses[2].contains("\"value\":true"));
        // A line at the limit is read and parsed as usual.
        let mut at_limit = eval_line(3);
        at_limit.push_str(&" ".repeat(MAX_LINE_BYTES - at_limit.len()));
        let mut output = Vec::new();
        serve_stream(
            &base,
            &ServeConfig::default(),
            &mut at_limit.as_bytes(),
            &mut output,
        )
        .unwrap();
        assert!(String::from_utf8(output).unwrap().contains("\"id\":3"));
    }

    /// A reader that yields `data`, then fails like a reset socket.
    struct FailAfter<'a> {
        data: &'a [u8],
    }

    impl std::io::Read for FailAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.data.is_empty() {
                return Err(std::io::ErrorKind::ConnectionReset.into());
            }
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_errors_end_the_batch_or_the_connection() {
        let base = base();
        let text = format!("{}\n", eval_line(1));
        let err = serve_stream(
            &base,
            &ServeConfig::default(),
            &mut std::io::BufReader::new(FailAfter {
                data: text.as_bytes(),
            }),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        let err = serve_stream(
            &base,
            &ServeConfig::default(),
            &mut &b"\xff\xfe\n"[..],
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A connection answers what it read, then ends on the error.
        let mut session = base.session();
        let mut output = Vec::new();
        let mut total = ServeOutcome::default();
        serve_connection(
            &mut session,
            &mut std::io::BufReader::new(FailAfter {
                data: text.as_bytes(),
            }),
            &mut output,
            &mut total,
        );
        assert_eq!((total.requests, total.read_errors), (1, 1));
        assert!(String::from_utf8(output).unwrap().contains("\"id\":1"));
    }

    #[test]
    fn tcp_over_long_line_and_read_error() {
        let base = base();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn({
            let base = Arc::clone(&base);
            move || serve_tcp(&base, &ServeConfig::default(), &listener, Some(2)).unwrap()
        });
        // Connection 1: an over-long line is answered with an error and
        // the connection goes on.
        let conn = std::net::TcpStream::connect(addr).unwrap();
        let writer = std::thread::spawn({
            let mut conn = conn.try_clone().unwrap();
            move || {
                conn.write_all("z".repeat(2 * MAX_LINE_BYTES).as_bytes())
                    .unwrap();
                conn.write_all(format!("\n{}\n", eval_line(4)).as_bytes())
                    .unwrap();
            }
        });
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("longer than"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"id\":4") && line.contains("\"value\":true"));
        writer.join().unwrap();
        drop(reader);
        conn.shutdown(std::net::Shutdown::Both).unwrap();
        // Connection 2: a line that is not UTF-8 ends it as a read error.
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"\xff\xfe\n").unwrap();
        let outcome = server.join().unwrap();
        assert_eq!(outcome.requests, 2);
        assert_eq!(outcome.rejected, 1);
        assert_eq!(outcome.read_errors, 1);
    }
}
