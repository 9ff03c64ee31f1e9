//! The command-line face of the reproduction, mirroring the original EPFL
//! package's interface (§IV-B): read a flattened combinational network
//! (Verilog or BLIF), build the decision diagram with the file's variable
//! order, optionally sift, and emit a Verilog description of the built
//! diagram plus its log information.
//!
//! The manager is selected **at runtime** and the whole pipeline runs once
//! through the unified `ddcore::api` traits — there is one driver, not one
//! per backend:
//!
//! ```text
//! bbdd-cli [--backend B] [--threads N] [--sift] [--blif] [--dot] [--stats] <input> [output]
//! bbdd-cli --bench <table1-name> [output-file]      # use a generated benchmark
//! bbdd-cli serve [--sessions N] [--bench NAME]... [--listen ADDR] [files...]
//! bbdd-cli count [--schedule S] [--slice K] [--static-order H] <file.cnf>
//! ```
//!
//! where `B` is one of `bbdd` (default), `robdd`, `par-bbdd`, `par-robdd`.
//! The `serve` subcommand publishes the given networks as an immutable
//! snapshot and answers newline-delimited JSON requests (stdio batch or
//! TCP), one MVCC session per worker — see `bbdd_suite::serve`. The
//! `count` subcommand is the DIMACS front door: it reads a CNF file and
//! prints its exact model count (whole or sliced into cofactor
//! sub-problems) as one JSON line — see the `cnf` crate.

use bbdd::prelude::*;
use bbdd_suite::serve::{
    json_string, serve_metrics, serve_stream, serve_tcp, ServeConfig, ServeOutcome,
};
use cnf::{CnfOrder, CountError, Schedule};
use ddcore::dvo::DvoPolicy;
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::obs::MetricsSnapshot;
use ddcore::session::SessionBackend;
use logicnet::build::{build_network, try_build_network};
use logicnet::publish::{input_union, publish_networks_on};
use logicnet::{apply_static_order, blif, verilog, Network, Signal, StaticOrder};
use robdd::prelude::*;
use std::process::ExitCode;
use synthkit::rewrite::DiagramRewrite;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Bbdd,
    Robdd,
    ParBbdd,
    ParRobdd,
}

struct Options {
    backend: Backend,
    threads: Option<usize>,
    sift: bool,
    blif_in: bool,
    dot: bool,
    stats: bool,
    /// Print the full metrics registry (every section) after the run.
    metrics: bool,
    /// Write the metrics registry as JSON to this file.
    metrics_json: Option<String>,
    /// Record a structured trace and write Chrome trace_event JSON here.
    trace: Option<String>,
    /// Collect per-op latency histograms and print the profile report.
    profile: bool,
    /// Wall-clock budget for build + sift, in milliseconds.
    time_limit_ms: Option<u64>,
    /// Node-creation budget for build + sift.
    node_limit: Option<u64>,
    /// Pre-build static ordering heuristic.
    static_order: StaticOrder,
    /// Dynamic-reordering policy installed before the build.
    dvo: Option<DvoPolicy>,
    bench: Option<String>,
    input: Option<String>,
    output: Option<String>,
}

impl Options {
    /// One [`OpBudget`] spanning the whole request (build, then sift),
    /// or `None` when no limit flag was given — the un-governed pipeline
    /// stays byte-identical in that case.
    fn budget(&self) -> Option<OpBudget> {
        if self.time_limit_ms.is_none() && self.node_limit.is_none() {
            return None;
        }
        let mut b = OpBudget::unlimited();
        if let Some(ms) = self.time_limit_ms {
            b = b.with_deadline_in(std::time::Duration::from_millis(ms));
        }
        if let Some(n) = self.node_limit {
            b = b.with_node_limit(n);
        }
        Some(b)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bbdd-cli [--backend B] [--threads N] [--sift] [--blif] [--dot] [--stats]\n\
         \x20               [--static-order H] [--dvo S[:P]] [--time-limit MS] [--node-limit N]\n\
         \x20               <input-file> [output-file]\n\
         \x20      bbdd-cli [options] --bench <name> [output-file]\n\
         \x20      bbdd-cli serve --help       # the JSON request/response front door\n\
         \x20      bbdd-cli count --help       # exact model counting of DIMACS CNF\n\
         \n\
         Reads a flattened combinational network (structural Verilog by default,\n\
         BLIF with --blif), builds its decision diagram with the file variable\n\
         order, sifts when asked, and writes the rewritten Verilog netlist\n\
         (stdout or file). --dot emits Graphviz instead of Verilog; --bench uses\n\
         a Table-I benchmark generator instead of a file.\n\
         \n\
         --backend B      manager backend: bbdd (default), robdd, par-bbdd, par-robdd\n\
         --threads N      worker threads for the par-* backends (default: BBDD_THREADS or 4)\n\
         --static-order H pre-build structural ordering: none (default, file order),\n\
         \x20                fanin (output-cone DFS) or force (hypergraph placement)\n\
         --dvo S[:P]      install a dynamic-reordering policy before building.\n\
         \x20                S: full | window | windowN | pair;  P: never | threshN |\n\
         \x20                growth | growthF | nodesN (default growth2, e.g.\n\
         \x20                --dvo pair:growth2, --dvo window3:nodes10000)\n\
         --time-limit MS  wall-clock budget in milliseconds for build + sift; on\n\
         \x20                expiry, print partial stats and exit with status 3\n\
         --node-limit N   node-creation budget for build + sift; same abort behavior\n\
         --metrics        print the full metrics registry (cache/table/GC/roots/\n\
         \x20                dvo/govern sections) after the run\n\
         --metrics-json F write the metrics registry as JSON to file F\n\
         --trace F        record a structured event trace and write Chrome\n\
         \x20                trace_event JSON to F (open in Perfetto / about:tracing)\n\
         --profile        collect per-operation latency histograms and print the\n\
         \x20                profile report (log2 buckets + per-tag cache hit rates)"
    );
    ExitCode::from(2)
}

/// Exit status for a run stopped by its resource budget (distinct from
/// usage errors, 2, and I/O or parse failures, 1).
const EXIT_ABORTED: u8 = 3;

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        backend: Backend::Bbdd,
        threads: None,
        sift: false,
        blif_in: false,
        dot: false,
        stats: false,
        metrics: false,
        metrics_json: None,
        trace: None,
        profile: false,
        time_limit_ms: None,
        node_limit: None,
        static_order: StaticOrder::None,
        dvo: None,
        bench: None,
        input: None,
        output: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => match args.next().as_deref() {
                Some("bbdd") => opts.backend = Backend::Bbdd,
                Some("robdd") => opts.backend = Backend::Robdd,
                Some("par-bbdd") => opts.backend = Backend::ParBbdd,
                Some("par-robdd") => opts.backend = Backend::ParRobdd,
                _ => return Err(usage()),
            },
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.threads = Some(n),
                _ => return Err(usage()),
            },
            "--time-limit" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) => opts.time_limit_ms = Some(ms),
                None => return Err(usage()),
            },
            "--node-limit" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => opts.node_limit = Some(n),
                None => return Err(usage()),
            },
            "--static-order" => match args.next().and_then(|s| s.parse::<StaticOrder>().ok()) {
                Some(h) => opts.static_order = h,
                None => return Err(usage()),
            },
            "--dvo" => match args.next().and_then(|s| s.parse::<DvoPolicy>().ok()) {
                Some(p) => opts.dvo = Some(p),
                None => return Err(usage()),
            },
            "--sift" => opts.sift = true,
            "--blif" => opts.blif_in = true,
            "--dot" => opts.dot = true,
            "--stats" => opts.stats = true,
            "--metrics" => opts.metrics = true,
            "--metrics-json" => match args.next() {
                Some(f) => opts.metrics_json = Some(f),
                None => return Err(usage()),
            },
            "--trace" => match args.next() {
                Some(f) => opts.trace = Some(f),
                None => return Err(usage()),
            },
            "--profile" => opts.profile = true,
            "--bench" => match args.next() {
                Some(n) => opts.bench = Some(n),
                None => return Err(usage()),
            },
            "--help" | "-h" => return Err(usage()),
            _ if opts.input.is_none() => opts.input = Some(arg),
            _ if opts.output.is_none() => opts.output = Some(arg),
            _ => return Err(usage()),
        }
    }
    if opts.bench.is_none() && opts.input.is_none() {
        return Err(usage());
    }
    // With --bench the single positional argument is the output file.
    if opts.bench.is_some() && opts.output.is_none() {
        opts.output = opts.input.take();
    }
    Ok(opts)
}

fn load(opts: &Options) -> Result<Network, String> {
    if let Some(name) = &opts.bench {
        return benchgen::mcnc::generate(name)
            .ok_or_else(|| format!("unknown benchmark {name} (see Table I names)"));
    }
    let file = opts.input.as_deref().expect("checked in parse_args");
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    if opts.blif_in || file.ends_with(".blif") {
        blif::parse_blif(&text).map_err(|e| e.to_string())
    } else {
        verilog::parse_verilog(&text).map_err(|e| e.to_string())
    }
}

/// Emit the observability outputs — metrics registry (text and/or JSON),
/// profile report, Chrome trace file — on every exit path of [`run`],
/// abort included: a cut-short run is exactly when the trace and the
/// partial counters are most interesting.
fn emit_observability<M: DiagramRewrite>(mgr: &M, opts: &Options, tag: &str) {
    if opts.metrics {
        eprint!("{}", mgr.metrics().format());
    }
    if let Some(path) = &opts.metrics_json {
        match std::fs::write(path, mgr.metrics().to_json()) {
            Ok(()) => eprintln!("[{tag}] wrote metrics to {path}"),
            Err(e) => eprintln!("error: {path}: {e}"),
        }
    }
    if opts.profile {
        eprint!(
            "{}",
            ddcore::obs::format_profile(&ddcore::obs::profile_snapshot())
        );
    }
    if let Some(path) = &opts.trace {
        match std::fs::write(path, ddcore::obs::chrome_trace_json()) {
            Ok(()) => eprintln!(
                "[{tag}] wrote trace ({} events) to {path}",
                ddcore::obs::trace_events().len()
            ),
            Err(e) => eprintln!("error: {path}: {e}"),
        }
    }
}

/// Manager size for a netlist with `inputs` primary inputs: at least one
/// variable (a manager cannot be empty), and an error naming the limit
/// past [`ddcore::MAX_VARS`] instead of the managers' 16-bit assert.
fn manager_vars(inputs: usize) -> Result<usize, String> {
    if inputs > ddcore::MAX_VARS {
        return Err(format!(
            "{inputs} inputs, more than the {} variables a manager supports",
            ddcore::MAX_VARS
        ));
    }
    Ok(inputs.max(1))
}

/// The rewritten netlist of `roots` (the outputs of `net`), with the
/// source's port names. A netlist without inputs still needs a
/// one-variable manager, and the dump declares that variable as a port;
/// every output of such a netlist is constant, so the port is dropped
/// and the interface stays the source's.
fn rewrite<M: DiagramRewrite>(mgr: &M, net: &Network, roots: &[M::Function]) -> Network {
    let in_names: Vec<String> = net
        .inputs()
        .iter()
        .map(|&s| net.signal_name(s).to_string())
        .collect();
    let out_names: Vec<String> = net.outputs().iter().map(|(n, _)| n.clone()).collect();
    let dumped = mgr.dump_network(roots, &in_names, &out_names);
    if dumped.num_inputs() == in_names.len() {
        return dumped;
    }
    let constant = "no gate of a constant netlist reads an input";
    let mut out = Network::new(dumped.name());
    let mut sig: Vec<Option<Signal>> = vec![None; dumped.num_signals()];
    for g in dumped.gates() {
        let ins: Vec<Signal> = g
            .inputs
            .iter()
            .map(|s| sig[s.index()].expect(constant))
            .collect();
        let name = dumped.signal_name(g.output);
        sig[g.output.index()] = Some(out.add_named_gate(name, g.op, &ins));
    }
    for (port, s) in dumped.outputs() {
        out.set_output(port, sig[s.index()].expect(constant));
    }
    out
}

/// The whole pipeline, written once against the trait API: build, report,
/// optionally sift, and dump either DOT or the rewritten Verilog netlist.
/// `tag` labels the log lines with the selected backend.
fn run<M: DiagramRewrite>(mgr: &M, net: &Network, opts: &Options, tag: &str) -> ExitCode {
    let mut budget = opts.budget();
    // Static ordering and the dynamic-reordering policy both install
    // before the first node is built: the heuristic sets the initial
    // order, the policy arms the adaptive schedule the build's collection
    // gates poll.
    if opts.static_order != StaticOrder::None {
        match apply_static_order(mgr, net, opts.static_order) {
            Some(ord) => eprintln!("[{tag}] static order ({}): {ord:?}", opts.static_order),
            None => eprintln!(
                "[{tag}] --static-order {} ignored: this backend does not reorder",
                opts.static_order
            ),
        }
    }
    if let Some(policy) = opts.dvo {
        mgr.set_reorder_policy(Some(policy));
        eprintln!("[{tag}] dvo policy: {policy}");
    }
    let t0 = std::time::Instant::now();
    // The builder returns owned handles: the outputs are registered GC
    // roots from here on, so collection and sifting need no root lists.
    // With a limit flag the build runs governed; on abort the manager is
    // left consistent (registry balanced, partial results unreferenced),
    // so the partial stats below read a healthy manager.
    let roots = match &mut budget {
        None => build_network(mgr, net),
        Some(b) => match try_build_network(mgr, net, b) {
            Ok(r) => r,
            Err(aborted) => {
                eprintln!(
                    "[{tag}] aborted: {} ({}/{} gates built in {:.3}s)",
                    aborted.reason,
                    aborted.gates_built,
                    net.num_gates(),
                    t0.elapsed().as_secs_f64(),
                );
                eprint!("{}", mgr.metrics().format());
                mgr.gc();
                eprintln!("[{tag}] live nodes after GC: {}", mgr.live_nodes());
                emit_observability(mgr, opts, tag);
                return ExitCode::from(EXIT_ABORTED);
            }
        },
    };
    mgr.gc();
    let build_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "[{tag}] built: {} nodes in {build_s:.3}s ({} variable order)",
        mgr.shared_node_count(&roots),
        match opts.static_order {
            StaticOrder::None => "file".to_string(),
            h => h.to_string(),
        },
    );

    if opts.sift {
        let t1 = std::time::Instant::now();
        let sifted = match &mut budget {
            None => mgr.reorder(),
            Some(b) => match mgr.try_reorder(b) {
                Some(Err(reason)) => {
                    // Bounded sift restores a consistent order on abort;
                    // the built diagram is intact, but the request ran out
                    // of budget, so report and exit like the build abort.
                    eprintln!(
                        "[{tag}] aborted during sift: {reason} ({} nodes, order {:?})",
                        mgr.shared_node_count(&roots),
                        mgr.variable_order(),
                    );
                    eprint!("{}", mgr.metrics().format());
                    emit_observability(mgr, opts, tag);
                    return ExitCode::from(EXIT_ABORTED);
                }
                other => other.map(|r| r.expect("Err handled above")),
            },
        };
        match sifted {
            Some(_) => eprintln!(
                "[{tag}] sifted: {} nodes in {:.3}s; order {:?}",
                mgr.shared_node_count(&roots),
                t1.elapsed().as_secs_f64(),
                mgr.variable_order()
            ),
            None => eprintln!("[{tag}] --sift ignored: this backend does not reorder"),
        }
    }
    if opts.stats {
        // One backend-agnostic formatter over the metrics registry — the
        // same dotted names on all four backends (`stats_line` remains in
        // the raw API for edge-level debugging, but the CLI reports from
        // the registry only).
        eprint!("{}", mgr.metrics().format());
        if let Some(profile) = mgr.level_profile(&roots) {
            eprintln!("[{tag}] level profile: {profile:?}");
        }
    }

    let text = if opts.dot {
        let names: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
        mgr.to_dot(&roots, &names)
    } else {
        verilog::write_verilog(&rewrite(mgr, net, &roots))
    };
    match &opts.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[{tag}] wrote {path}");
        }
        None => print!("{text}"),
    }
    emit_observability(mgr, opts, tag);
    ExitCode::SUCCESS
}

// ───────────────────────── serve subcommand ──────────────────────────────

struct ServeOptions {
    backend: Backend,
    threads: Option<usize>,
    /// Concurrent sessions in batch mode.
    sessions: usize,
    blif_in: bool,
    /// Generated benchmarks to publish (repeatable).
    bench: Vec<String>,
    /// TCP listen address; stdio batch mode when absent.
    listen: Option<String>,
    /// Stop the TCP accept loop after this many connections (tests/smoke).
    max_conns: Option<usize>,
    node_limit: Option<u64>,
    time_limit_ms: Option<u64>,
    metrics: bool,
    metrics_json: Option<String>,
    trace: Option<String>,
    profile: bool,
    /// Network files to publish (repeatable).
    inputs: Vec<String>,
}

fn serve_usage() -> ExitCode {
    eprintln!(
        "usage: bbdd-cli serve [--backend B] [--threads N] [--sessions N] [--blif]\n\
         \x20                     [--node-limit N] [--time-limit MS] [--listen ADDR]\n\
         \x20                     [--max-conns N] [--metrics] [--metrics-json F]\n\
         \x20                     [--bench NAME]... [network-file]...\n\
         \n\
         Publishes the given networks (files and/or generated benchmarks) as one\n\
         immutable snapshot over the by-name union of their inputs — several\n\
         networks publish prefixed '<model>.<port>' functions — then answers\n\
         newline-delimited JSON requests, one response line per request, in\n\
         request order:\n\
         \n\
         \x20 {{\"op\":\"eval\",\"f\":\"cout\",\"assignment\":[true,false,true]}}\n\
         \x20 {{\"op\":\"sat_count\",\"f\":\"cout\",\"budget\":{{\"nodes\":10000,\"ms\":50}}}}\n\
         \x20 {{\"op\":\"apply\",\"how\":\"and\",\"f\":\"a\",\"g\":\"b\",\"store\":\"ab\"}}\n\
         \x20 {{\"op\":\"quantify\",\"kind\":\"exists\",\"f\":\"ab\",\"vars\":[\"x\",1]}}\n\
         \x20 {{\"op\":\"compose\"|\"cec\"|\"node_count\"|\"list\"|\"stats\", ...}}\n\
         \n\
         Responses carry \"status\":\"ok\"|\"aborted\"|\"error\"; a request stopped\n\
         by its budget is a partial verdict ('aborted') and makes the process\n\
         exit with status 3 once the batch completes — the session and the\n\
         shared snapshot stay fully usable throughout.\n\
         \n\
         --sessions N     concurrent sessions in batch mode; request i runs on\n\
         \x20                session i mod N (default 1). Stored names are\n\
         \x20                session-local state.\n\
         --node-limit N / --time-limit MS   default per-request budget\n\
         \x20                (a request's \"budget\" field overrides it)\n\
         --listen ADDR    serve TCP connections on ADDR (e.g. 127.0.0.1:7878),\n\
         \x20                one session per connection, instead of a stdio batch\n\
         --max-conns N    stop after N TCP connections (smoke tests)\n\
         --metrics / --metrics-json F   the full registry incl. the serve.*,\n\
         \x20                session.* and epoch.* sections, text or JSON"
    );
    ExitCode::from(2)
}

fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<ServeOptions, ExitCode> {
    let mut o = ServeOptions {
        backend: Backend::Bbdd,
        threads: None,
        sessions: 1,
        blif_in: false,
        bench: Vec::new(),
        listen: None,
        max_conns: None,
        node_limit: None,
        time_limit_ms: None,
        metrics: false,
        metrics_json: None,
        trace: None,
        profile: false,
        inputs: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => match args.next().as_deref() {
                Some("bbdd") => o.backend = Backend::Bbdd,
                Some("robdd") => o.backend = Backend::Robdd,
                Some("par-bbdd") => o.backend = Backend::ParBbdd,
                Some("par-robdd") => o.backend = Backend::ParRobdd,
                _ => return Err(serve_usage()),
            },
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => o.threads = Some(n),
                _ => return Err(serve_usage()),
            },
            "--sessions" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => o.sessions = n,
                _ => return Err(serve_usage()),
            },
            "--time-limit" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) => o.time_limit_ms = Some(ms),
                None => return Err(serve_usage()),
            },
            "--node-limit" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => o.node_limit = Some(n),
                None => return Err(serve_usage()),
            },
            "--max-conns" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => o.max_conns = Some(n),
                _ => return Err(serve_usage()),
            },
            "--listen" => match args.next() {
                Some(a) => o.listen = Some(a),
                None => return Err(serve_usage()),
            },
            "--bench" => match args.next() {
                Some(n) => o.bench.push(n),
                None => return Err(serve_usage()),
            },
            "--blif" => o.blif_in = true,
            "--metrics" => o.metrics = true,
            "--metrics-json" => match args.next() {
                Some(f) => o.metrics_json = Some(f),
                None => return Err(serve_usage()),
            },
            "--trace" => match args.next() {
                Some(f) => o.trace = Some(f),
                None => return Err(serve_usage()),
            },
            "--profile" => o.profile = true,
            "--help" | "-h" => return Err(serve_usage()),
            _ if arg.starts_with("--") => return Err(serve_usage()),
            _ => o.inputs.push(arg),
        }
    }
    if o.bench.is_empty() && o.inputs.is_empty() {
        return Err(serve_usage());
    }
    Ok(o)
}

fn load_serve_nets(o: &ServeOptions) -> Result<Vec<Network>, String> {
    let mut nets = Vec::new();
    for name in &o.bench {
        nets.push(
            benchgen::mcnc::generate(name)
                .ok_or_else(|| format!("unknown benchmark {name} (see Table I names)"))?,
        );
    }
    for file in &o.inputs {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let net = if o.blif_in || file.ends_with(".blif") {
            blif::parse_blif(&text).map_err(|e| e.to_string())?
        } else {
            verilog::parse_verilog(&text).map_err(|e| e.to_string())?
        };
        nets.push(net);
    }
    Ok(nets)
}

/// Publish, serve (stdio batch or TCP), report — written once against
/// [`SessionBackend`] and driven by all four managers.
fn serve_run<B: SessionBackend>(backend: B, nets: &[&Network], o: &ServeOptions) -> ExitCode {
    let base = match publish_networks_on(backend, nets) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServeConfig {
        sessions: o.sessions,
        node_limit: o.node_limit,
        time_limit_ms: o.time_limit_ms,
    };
    eprintln!(
        "[serve] published {} functions over {} inputs ({} nodes, epoch {})",
        base.library().len(),
        base.library().inputs().len(),
        base.backend().live_nodes(),
        base.epoch(),
    );
    let outcome: ServeOutcome = if let Some(addr) = &o.listen {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match listener.local_addr() {
            Ok(a) => eprintln!("[serve] listening on {a} (one session per connection)"),
            Err(_) => eprintln!("[serve] listening on {addr}"),
        }
        match serve_tcp(&base, &cfg, &listener, o.max_conns) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
        match serve_stream(&base, &cfg, &mut stdin.lock(), &mut stdout.lock()) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: stdin: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    eprintln!(
        "[serve] {} requests over {} session(s): {} ok, {} rejected, {} aborted, {} read errors",
        outcome.requests,
        cfg.sessions.max(1),
        outcome.requests - outcome.rejected - outcome.aborted,
        outcome.rejected,
        outcome.aborted,
        outcome.read_errors,
    );
    let m = serve_metrics(&base, &cfg, &outcome);
    if o.metrics {
        eprint!("{}", m.format());
    }
    if let Some(path) = &o.metrics_json {
        match std::fs::write(path, m.to_json()) {
            Ok(()) => eprintln!("[serve] wrote metrics to {path}"),
            Err(e) => eprintln!("error: {path}: {e}"),
        }
    }
    if o.profile {
        eprint!(
            "{}",
            ddcore::obs::format_profile(&ddcore::obs::profile_snapshot())
        );
    }
    if let Some(path) = &o.trace {
        match std::fs::write(path, ddcore::obs::chrome_trace_json()) {
            Ok(()) => eprintln!(
                "[serve] wrote trace ({} events) to {path}",
                ddcore::obs::trace_events().len()
            ),
            Err(e) => eprintln!("error: {path}: {e}"),
        }
    }
    if outcome.any_aborted() {
        ExitCode::from(EXIT_ABORTED)
    } else {
        ExitCode::SUCCESS
    }
}

fn serve_main(args: impl Iterator<Item = String>) -> ExitCode {
    let o = match parse_serve_args(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    if o.trace.is_some() {
        ddcore::obs::set_trace_enabled(true);
    }
    if o.profile {
        ddcore::obs::set_profile_enabled(true);
    }
    let nets_owned = match load_serve_nets(&o) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nets: Vec<&Network> = nets_owned.iter().collect();
    let n = match manager_vars(input_union(&nets).len()) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = o
        .threads
        .unwrap_or_else(|| ddcore::par::threads_from_env(4));
    match o.backend {
        Backend::Bbdd => serve_run(Bbdd::new(n), &nets, &o),
        Backend::Robdd => serve_run(Robdd::new(n), &nets, &o),
        Backend::ParBbdd => serve_run(ParBbdd::new(n, threads), &nets, &o),
        Backend::ParRobdd => serve_run(ParRobdd::new(n, threads), &nets, &o),
    }
}

// ───────────────────────── count subcommand ──────────────────────────────

struct CountOptions {
    backend: Backend,
    threads: Option<usize>,
    /// Clause-scheduling heuristic for the conjunction.
    schedule: Schedule,
    /// Slice the count into `2^k` cofactor sub-problems (0 = whole).
    slice: usize,
    /// Fan the slices out on the fork-join pool instead of sequentially.
    slice_par: bool,
    /// Pre-build static variable order derived from the CNF structure.
    static_order: CnfOrder,
    /// Dynamic-reordering policy installed before the build.
    dvo: Option<DvoPolicy>,
    time_limit_ms: Option<u64>,
    node_limit: Option<u64>,
    metrics: bool,
    metrics_json: Option<String>,
    input: String,
}

fn count_usage() -> ExitCode {
    eprintln!(
        "usage: bbdd-cli count [--backend B] [--threads N] [--schedule S] [--slice K]\n\
         \x20                     [--slice-par] [--static-order H] [--dvo S[:P]]\n\
         \x20                     [--time-limit MS] [--node-limit N] [--metrics]\n\
         \x20                     [--metrics-json F] <file.cnf>\n\
         \n\
         Reads a strict DIMACS CNF file, builds its conjunction under a clause\n\
         schedule, and prints the exact model count over the header-declared\n\
         variable universe as one JSON line on stdout (the count itself is a\n\
         decimal string — it is a u128).\n\
         \n\
         --backend B      manager backend: bbdd (default), robdd, par-bbdd, par-robdd\n\
         --threads N      worker threads for par-* backends and --slice-par\n\
         --schedule S     clause schedule: input (file order), bucket (default,\n\
         \x20                by top variable with a balanced conjunction tree), force\n\
         \x20                (clauses sorted by center of gravity under a FORCE placement)\n\
         --slice K        split into 2^K cofactor sub-problems on the K most\n\
         \x20                frequent variables, each counted in a private manager\n\
         \x20                under its own budget, recombined exactly; aborted\n\
         \x20                slices degrade the verdict to a partial lower bound\n\
         --slice-par      run the slices on the fork-join pool (default sequential)\n\
         --static-order H initial variable order from the CNF: none (default),\n\
         \x20                freq (descending occurrence) or force (hypergraph placement)\n\
         --dvo S[:P]      dynamic-reordering policy, as in the main command; fires\n\
         \x20                at the build's collection gates\n\
         --time-limit MS / --node-limit N   per-(slice-)build budget; a stopped\n\
         \x20                whole count exits 3, a partially sliced count reports\n\
         \x20                status \"partial\" and exits 3\n\
         --metrics / --metrics-json F   metrics registry incl. the cnf.* section"
    );
    ExitCode::from(2)
}

fn parse_count_args(args: impl Iterator<Item = String>) -> Result<CountOptions, ExitCode> {
    let mut o = CountOptions {
        backend: Backend::Bbdd,
        threads: None,
        schedule: Schedule::default(),
        slice: 0,
        slice_par: false,
        static_order: CnfOrder::default(),
        dvo: None,
        time_limit_ms: None,
        node_limit: None,
        metrics: false,
        metrics_json: None,
        input: String::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => match args.next().as_deref() {
                Some("bbdd") => o.backend = Backend::Bbdd,
                Some("robdd") => o.backend = Backend::Robdd,
                Some("par-bbdd") => o.backend = Backend::ParBbdd,
                Some("par-robdd") => o.backend = Backend::ParRobdd,
                _ => return Err(count_usage()),
            },
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => o.threads = Some(n),
                _ => return Err(count_usage()),
            },
            "--schedule" => match args.next().and_then(|s| s.parse::<Schedule>().ok()) {
                Some(s) => o.schedule = s,
                None => return Err(count_usage()),
            },
            "--slice" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(k) if k <= 20 => o.slice = k,
                _ => return Err(count_usage()),
            },
            "--slice-par" => o.slice_par = true,
            "--static-order" => match args.next().and_then(|s| s.parse::<CnfOrder>().ok()) {
                Some(h) => o.static_order = h,
                None => return Err(count_usage()),
            },
            "--dvo" => match args.next().and_then(|s| s.parse::<DvoPolicy>().ok()) {
                Some(p) => o.dvo = Some(p),
                None => return Err(count_usage()),
            },
            "--time-limit" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) => o.time_limit_ms = Some(ms),
                None => return Err(count_usage()),
            },
            "--node-limit" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => o.node_limit = Some(n),
                None => return Err(count_usage()),
            },
            "--metrics" => o.metrics = true,
            "--metrics-json" => match args.next() {
                Some(f) => o.metrics_json = Some(f),
                None => return Err(count_usage()),
            },
            "--help" | "-h" => return Err(count_usage()),
            _ if arg.starts_with("--") => return Err(count_usage()),
            _ if o.input.is_empty() => o.input = arg,
            _ => return Err(count_usage()),
        }
    }
    if o.input.is_empty() {
        return Err(count_usage());
    }
    Ok(o)
}

/// Snake-case abort names for the JSON stats line (matches the serve
/// protocol's `reason` vocabulary).
fn count_abort_name(a: OpAbort) -> &'static str {
    match a {
        OpAbort::NodeBudget => "node_budget",
        OpAbort::Deadline => "deadline",
        OpAbort::Cancelled => "cancelled",
    }
}

/// One per-(slice-)build budget from the limit flags.
fn count_budget(o: &CountOptions) -> OpBudget {
    let mut b = OpBudget::unlimited();
    if let Some(ms) = o.time_limit_ms {
        b = b.with_deadline_in(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = o.node_limit {
        b = b.with_node_limit(n);
    }
    b
}

/// Install the CNF-derived static order and the DVO policy on a fresh
/// manager, before its first node is built.
fn count_prep<M: FunctionManager>(mgr: &M, perm: Option<&Vec<usize>>, dvo: Option<DvoPolicy>) {
    if let Some(p) = perm {
        if p.len() == mgr.num_vars() && !mgr.set_order(p) {
            eprintln!("[count] --static-order ignored: this backend does not reorder");
        }
    }
    if let Some(policy) = dvo {
        mgr.set_reorder_policy(Some(policy));
    }
}

/// Emit the metrics registry with the `cnf.*` section appended. `base` is
/// the counting manager's own registry for whole counts, or an empty
/// snapshot for sliced counts (each slice had a private manager).
fn count_observability(
    mut base: MetricsSnapshot,
    o: &CountOptions,
    scheduled: u64,
    peak: u64,
    completed: u64,
    aborted: u64,
) {
    if !o.metrics && o.metrics_json.is_none() {
        return;
    }
    base.counter("cnf.clauses_scheduled", scheduled);
    base.gauge("cnf.conj_peak_nodes", peak);
    base.counter("cnf.slices_completed", completed);
    base.counter("cnf.slices_aborted", aborted);
    if o.metrics {
        eprint!("{}", base.format());
    }
    if let Some(path) = &o.metrics_json {
        match std::fs::write(path, base.to_json()) {
            Ok(()) => eprintln!("[count] wrote metrics to {path}"),
            Err(e) => eprintln!("error: {path}: {e}"),
        }
    }
}

/// The counting pipeline, written once against the trait API: whole-
/// instance or sliced, one JSON stats line on stdout, exit 3 on any
/// budget abort (whole) or partial verdict (sliced).
fn count_run<M, F>(make_mgr: F, inst: &cnf::Cnf, o: &CountOptions, tag: &'static str) -> ExitCode
where
    M: FunctionManager,
    F: Fn() -> M + Sync,
{
    let prefix = format!(
        "\"file\":{},\"backend\":\"{tag}\",\"vars\":{},\"clauses\":{},\
         \"schedule\":\"{}\",\"static_order\":\"{}\",\"slice\":{}",
        json_string(&o.input),
        inst.num_vars,
        inst.num_clauses(),
        o.schedule,
        o.static_order,
        o.slice,
    );
    let t0 = std::time::Instant::now();
    if o.slice == 0 {
        let mgr = make_mgr();
        let mut budget = count_budget(o);
        return match cnf::count_cnf(&mgr, inst, &o.schedule, &mut budget) {
            Ok((count, stats)) => {
                println!(
                    "{{{prefix},\"status\":\"ok\",\"count\":\"{count}\",\"slices\":1,\
                     \"completed\":1,\"aborted\":0,\"clauses_scheduled\":{},\"groups\":{},\
                     \"peak_nodes\":{},\"build_ms\":{}}}",
                    stats.clauses_scheduled,
                    stats.groups,
                    stats.conj_peak_nodes,
                    t0.elapsed().as_millis(),
                );
                count_observability(
                    mgr.metrics(),
                    o,
                    stats.clauses_scheduled,
                    stats.conj_peak_nodes,
                    1,
                    0,
                );
                ExitCode::SUCCESS
            }
            Err(CountError::Aborted {
                reason,
                clauses_done,
            }) => {
                println!(
                    "{{{prefix},\"status\":\"aborted\",\"reason\":\"{}\",\
                     \"clauses_done\":{clauses_done},\"build_ms\":{}}}",
                    count_abort_name(reason),
                    t0.elapsed().as_millis(),
                );
                count_observability(mgr.metrics(), o, clauses_done, 0, 0, 1);
                ExitCode::from(EXIT_ABORTED)
            }
            Err(CountError::Unrepresentable) => {
                eprintln!("error: count not representable in u128 (more than 127 variables)");
                ExitCode::FAILURE
            }
        };
    }
    if inst.num_vars > 127 {
        eprintln!("error: count not representable in u128 (more than 127 variables)");
        return ExitCode::FAILURE;
    }
    let sliced = if o.slice_par {
        let threads = o
            .threads
            .unwrap_or_else(|| ddcore::par::threads_from_env(4));
        cnf::count_sliced_par(
            threads,
            &make_mgr,
            || count_budget(o),
            inst,
            &o.schedule,
            o.slice,
        )
    } else {
        cnf::count_sliced(&make_mgr, || count_budget(o), inst, &o.schedule, o.slice)
    };
    let completed = sliced.completed() as u64;
    let aborted = sliced.aborted() as u64;
    let scheduled: u64 = sliced
        .slices
        .iter()
        .map(|s| s.stats.clauses_scheduled)
        .sum();
    let status = if sliced.partial { "partial" } else { "ok" };
    println!(
        "{{{prefix},\"status\":\"{status}\",\"count\":\"{}\",\"slices\":{},\
         \"completed\":{completed},\"aborted\":{aborted},\"clauses_scheduled\":{scheduled},\
         \"peak_nodes\":{},\"build_ms\":{}}}",
        sliced.total,
        sliced.slices.len(),
        sliced.peak_nodes(),
        t0.elapsed().as_millis(),
    );
    count_observability(
        MetricsSnapshot::new(tag),
        o,
        scheduled,
        sliced.peak_nodes(),
        completed,
        aborted,
    );
    if sliced.partial {
        ExitCode::from(EXIT_ABORTED)
    } else {
        ExitCode::SUCCESS
    }
}

fn count_main(args: impl Iterator<Item = String>) -> ExitCode {
    let o = match parse_count_args(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let text = match std::fs::read_to_string(&o.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: {e}", o.input);
            return ExitCode::FAILURE;
        }
    };
    let inst = match cnf::parse_dimacs(&text) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {}: {e}", o.input);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[count] {}: {} vars, {} clauses ({} schedule, {} order{})",
        o.input,
        inst.num_vars,
        inst.num_clauses(),
        o.schedule,
        o.static_order,
        if o.slice > 0 {
            format!(", 2^{} slices", o.slice)
        } else {
            String::new()
        },
    );
    let n = inst.num_vars.max(1);
    let perm = o.static_order.permutation(&inst);
    let threads = o
        .threads
        .unwrap_or_else(|| ddcore::par::threads_from_env(4));
    match o.backend {
        Backend::Bbdd => count_run(
            || {
                let mgr = BbddManager::with_vars(n);
                count_prep(&mgr, perm.as_ref(), o.dvo);
                mgr
            },
            &inst,
            &o,
            "bbdd",
        ),
        Backend::Robdd => count_run(
            || {
                let mgr = RobddManager::with_vars(n);
                count_prep(&mgr, perm.as_ref(), o.dvo);
                mgr
            },
            &inst,
            &o,
            "robdd",
        ),
        Backend::ParBbdd => count_run(
            || {
                let mgr = ParBbddManager::new(ParBbdd::new(n, threads));
                count_prep(&mgr, perm.as_ref(), o.dvo);
                mgr
            },
            &inst,
            &o,
            "par-bbdd",
        ),
        Backend::ParRobdd => count_run(
            || {
                let mgr = ParRobddManager::new(ParRobdd::new(n, threads));
                count_prep(&mgr, perm.as_ref(), o.dvo);
                mgr
            },
            &inst,
            &o,
            "par-robdd",
        ),
    }
}

fn main() -> ExitCode {
    let mut peek = std::env::args().skip(1).peekable();
    if peek.peek().map(String::as_str) == Some("serve") {
        peek.next();
        return serve_main(peek);
    }
    if peek.peek().map(String::as_str) == Some("count") {
        peek.next();
        return count_main(peek);
    }
    drop(peek);
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    // Flip the process-global observability switches before the first
    // manager exists so every span/histogram from the run is captured.
    if opts.trace.is_some() {
        ddcore::obs::set_trace_enabled(true);
    }
    if opts.profile {
        ddcore::obs::set_profile_enabled(true);
    }
    let net = match load(&opts) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let tag = match opts.backend {
        Backend::Bbdd => "bbdd",
        Backend::Robdd => "robdd",
        Backend::ParBbdd => "par-bbdd",
        Backend::ParRobdd => "par-robdd",
    };
    eprintln!(
        "[{tag}] {}: {} inputs, {} outputs, {} gates",
        net.name(),
        net.num_inputs(),
        net.num_outputs(),
        net.num_gates(),
    );

    let n = match manager_vars(net.num_inputs()) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {}: {e}", net.name());
            return ExitCode::FAILURE;
        }
    };
    let threads = opts
        .threads
        .unwrap_or_else(|| ddcore::par::threads_from_env(4));
    match opts.backend {
        Backend::Bbdd => run(&BbddManager::with_vars(n), &net, &opts, tag),
        Backend::Robdd => run(&RobddManager::with_vars(n), &net, &opts, tag),
        Backend::ParBbdd => run(
            &ParBbddManager::new(ParBbdd::new(n, threads)),
            &net,
            &opts,
            tag,
        ),
        Backend::ParRobdd => run(
            &ParRobddManager::new(ParRobdd::new(n, threads)),
            &net,
            &opts,
            tag,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logicnet::GateOp;

    #[test]
    fn oversized_netlists_are_an_error_naming_the_limit() {
        assert_eq!(manager_vars(0), Ok(1));
        assert_eq!(manager_vars(ddcore::MAX_VARS), Ok(ddcore::MAX_VARS));
        let err = manager_vars(70_000).unwrap_err();
        assert!(err.contains("70000") && err.contains("65534"), "{err}");
    }

    #[test]
    fn netlists_without_inputs_rewrite_without_ports() {
        let mut net = Network::new("consts");
        let one = net.add_gate(GateOp::Const1, &[]);
        let zero = net.add_gate(GateOp::Not, &[one]);
        net.set_output("y", one);
        net.set_output("z", zero);
        let mgr = BbddManager::with_vars(manager_vars(net.num_inputs()).unwrap());
        let roots = logicnet::build::build_network(&mgr, &net);
        let out = rewrite(&mgr, &net, &roots);
        assert_eq!(out.num_inputs(), 0);
        assert_eq!(out.simulate(&[]), vec![true, false]);
        assert!(verilog::write_verilog(&out).contains("module bbdd_rewrite (y, z)"));
    }
}
