//! The repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up, computes the reference answers outside every
//! timed section, then runs timed passes for `S` seconds and checks every
//! pass's outputs. Before each pass it times one more set-up, so the
//! set-ups sample the same stretch of time as the passes; `setup_s` is
//! their median. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` spends half the time on
//! untraced passes and half on passes with the trace ring on, and prints
//! the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

mod apply_n26;
mod cnf_count;
mod rec;
mod serve_mix;
mod table1;

use ddcore::obs;
use rec::{median, quantile, since, Counters, Layers, Pass};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark workload.
pub trait Workload {
    /// Compute the reference answers (untimed, after set-up).
    fn reference(&mut self);
    /// One timed pass, its outputs checked against the references.
    fn pass(&mut self) -> Pass;
    /// Extra per-layer measurements of the traced invocation, taken
    /// once, untraced, outside every pass.
    fn probe(&mut self, _untraced_run_s: f64) -> Layers {
        Layers::new()
    }
}

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Passes per untraced run at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Trace ring capacity: large enough that no traced pass drops events.
const TRACE_CAPACITY: usize = 1 << 24;

/// The workloads, by the names `--workload` takes.
const WORKLOADS: [&str; 4] = ["table1_sift", "cnf_count", "serve_mix", "apply_n26"];

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "table1_sift" => Box::new(table1::Table1::setup(seed)),
        "cnf_count" => Box::new(cnf_count::CnfCount::setup(seed)),
        "serve_mix" => Box::new(serve_mix::ServeMix::setup(seed)),
        _ => Box::new(apply_n26::ApplyN26::setup(seed)),
    }
}

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("first_s", "s"),
    ("second_s", "s"),
    ("first_nodes", "count"),
    ("second_nodes", "count"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Layer timers that partition a pass: their sum is the accounted time.
const PARTITION: [&str; 14] = [
    "verilog.parse_s",
    "build.s",
    "gc.call_s",
    "sift.s",
    "rewrite.dump_s",
    "verilog.write_s",
    "dimacs.parse_s",
    "schedule.plan_s",
    "conjoin.s",
    "satcount.s",
    "apply.s",
    "par.apply_s",
    "session.fork_s",
    "serve.request_s",
];

/// Counters reported per layer as they are.
const LAYER_COUNTERS: [&str; 20] = [
    "ops.apply",
    "nodes.created",
    "table.lookups",
    "table.resizes",
    "cache.lookups",
    "cache.evictions",
    "cache.invalidations",
    "gc.runs",
    "gc.nodes_freed",
    "ops.swaps",
    "table.tombstone_repairs",
    "cnf.clauses_scheduled",
    "par.recursions",
    "par.nodes_imported",
    "par.overlay_nodes",
    "par.tasks_executed",
    "par.tasks_stolen",
    "par.shard_contention",
    "cache.tear_misses",
    "session.nodes_reclaimed",
];

/// Trace spans reported as self time (`self.<op>_s`).
const SELF_TIMES: [(&str, &str); 7] = [
    ("apply", "self.apply_s"),
    ("reorder", "self.reorder_s"),
    ("build_network", "self.build_network_s"),
    ("sat_count", "self.sat_count_s"),
    ("par_task", "self.par_task_s"),
    ("session_fork", "self.session_fork_s"),
    ("serve_request", "self.serve_request_s"),
];

/// Every per-layer metric (`--trace 1`), with units. Layers a workload
/// does not pass through read 0.
fn per_layer_metrics() -> Vec<(&'static str, &'static str)> {
    let mut m: Vec<(&str, &str)> = PARTITION.iter().map(|&n| (n, "s")).collect();
    m.extend(LAYER_COUNTERS.iter().map(|&n| (n, "count")));
    m.extend(SELF_TIMES.iter().map(|&(_, n)| (n, "s")));
    m.extend(
        serve_mix::P50
            .iter()
            .chain(&serve_mix::P99)
            .map(|&n| (n, "us")),
    );
    m.extend([
        ("table.probes_per_lookup", "ratio"),
        ("cache.hit_ratio", "ratio"),
        ("sift.us_per_swap", "us"),
        ("gc.self_s", "s"),
        ("par.split_s", "s"),
        ("par.phase_s", "s"),
        ("par.phase_self_s", "s"),
        ("par.commit_s", "s"),
        ("par.commit_self_s", "s"),
        ("session.fork_us", "us"),
        ("session.fork_c1355_us", "us"),
        ("session.fork_c1908_us", "us"),
        ("session.nodes", "count"),
        ("session.op_us", "us"),
        ("json.decode_us", "us"),
        ("serve.other_us", "us"),
        ("unit.p50_ms", "ms"),
        ("unit.p99_ms", "ms"),
        ("layers.accounted_s", "s"),
        ("layers.residual_s", "s"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.events", "count"),
        ("trace.dropped", "count"),
    ]);
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload.clone_from(&value),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => match value.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Run passes until `seconds` have elapsed and at least `min` ran,
/// calling `time_setup` before each.
fn run_for(
    w: &mut dyn Workload,
    seconds: f64,
    min: usize,
    traced: bool,
    time_setup: &mut dyn FnMut(),
) -> Vec<(Pass, Layers)> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || since(t0) < seconds {
        time_setup();
        if traced {
            obs::trace_clear();
            obs::set_trace_enabled(true);
        }
        let pass = w.pass();
        let layers = if traced {
            obs::set_trace_enabled(false);
            trace_layers(&pass)
        } else {
            Layers::new()
        };
        out.push((pass, layers));
    }
    out
}

/// Per-layer values of one traced pass: its timers, its counters and
/// the trace ring's span rollup.
fn trace_layers(p: &Pass) -> Layers {
    let events = obs::trace_events();
    let (spans, unmatched) = rec::rollup(&events);
    let span = |op: &str| spans.get(op).copied().unwrap_or_default();
    let ctr = |name: &str| p.counter(name) as f64;
    let mut l = p.layers.clone();
    for name in LAYER_COUNTERS {
        l.insert(name, ctr(name));
    }
    for (op, name) in SELF_TIMES {
        l.insert(name, span(op).self_s);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    l.insert(
        "table.probes_per_lookup",
        ratio(ctr("table.probes"), ctr("table.lookups")),
    );
    l.insert(
        "cache.hit_ratio",
        ratio(ctr("cache.hits"), ctr("cache.lookups")),
    );
    let sift = l.get("sift.s").copied().unwrap_or(0.0);
    l.insert("sift.us_per_swap", ratio(sift * 1e6, ctr("ops.swaps")));
    l.insert("gc.self_s", span("gc").self_s);
    l.insert("par.phase_s", span("par_phase").incl_s);
    l.insert("par.phase_self_s", span("par_phase").self_s);
    l.insert("par.commit_s", span("par_commit").incl_s);
    l.insert("par.commit_self_s", span("par_commit").self_s);
    let par_apply = l.get("par.apply_s").copied().unwrap_or(0.0);
    if par_apply > 0.0 {
        l.insert(
            "par.split_s",
            par_apply - span("par_phase").incl_s - span("par_commit").incl_s,
        );
    }
    l.insert("session.fork_s", span("session_fork").incl_s);
    l.insert("serve.request_s", span("serve_request").incl_s);
    let accounted: f64 = PARTITION.iter().filter_map(|n| l.get(n)).sum();
    l.insert("layers.accounted_s", accounted);
    l.insert("layers.residual_s", p.run_s - accounted);
    l.insert("trace.events", events.len() as f64);
    l.insert("trace.dropped", obs::trace_dropped() as f64);
    l.insert("trace.unmatched", unmatched as f64);
    l
}

/// The source revision, read from `.git` when the checkout has one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.chars().take(12).collect(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn json_counters(c: &Counters) -> String {
    let fields: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "error: unknown workload '{}' (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }

    let mut w = setup(&args.workload, args.seed);
    w.reference();
    let mut setup_times = Vec::new();
    let mut time_setup = || {
        let t = Instant::now();
        let fresh = setup(&args.workload, args.seed);
        setup_times.push(since(t));
        drop(fresh);
    };

    let (untraced, traced) = if args.trace {
        obs::trace_set_capacity(TRACE_CAPACITY);
        let untraced = run_for(w.as_mut(), args.seconds / 2.0, 2, false, &mut time_setup);
        let traced = run_for(w.as_mut(), args.seconds / 2.0, 1, true, &mut time_setup);
        (untraced, traced)
    } else {
        let passes = run_for(w.as_mut(), args.seconds, MIN_PASSES, false, &mut time_setup);
        (passes, Vec::new())
    };
    let passes: Vec<&Pass> = untraced.iter().chain(&traced).map(|(p, _)| p).collect();

    // Work counters must repeat exactly, pass after pass, traced or not.
    let vector = &passes[0].counters;
    let deterministic = passes.iter().all(|p| &p.counters == vector);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    let med = |f: fn(&Pass) -> f64| {
        let v: Vec<f64> = untraced.iter().map(|(p, _)| f(p)).collect();
        median(&v)
    };
    let run_s = med(|p| p.run_s);
    let units: Vec<f64> = untraced
        .iter()
        .flat_map(|(p, _)| p.units_ms.iter().copied())
        .collect();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut trace_ok = true;
    if args.trace {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (_, layers) in &traced {
            for (&k, &v) in layers {
                values.entry(k).or_default().push(v);
            }
        }
        let traced_run_s = median(&traced.iter().map(|(p, _)| p.run_s).collect::<Vec<_>>());
        let mut layers: Layers = values.iter().map(|(&k, v)| (k, median(v))).collect();
        layers.extend(w.probe(run_s));
        layers.insert("unit.p50_ms", quantile(&units, 0.5));
        layers.insert("unit.p99_ms", quantile(&units, 0.99));
        layers.insert("trace.run_s", traced_run_s);
        layers.insert("trace.untraced_run_s", run_s);
        layers.insert("trace.overhead_s", traced_run_s - run_s);
        trace_ok = values["trace.dropped"].iter().all(|&d| d == 0.0)
            && values["trace.unmatched"].iter().all(|&u| u == 0.0);
        for (name, unit) in per_layer_metrics() {
            metrics.push((name, unit, layers.get(name).copied().unwrap_or(0.0)));
        }
        let rollup = rec::rollup(&obs::trace_events()).0;
        let selfs: Vec<String> = rollup
            .iter()
            .map(|(op, t)| {
                format!(
                    "\"{op}\":{{\"incl_s\":{},\"self_s\":{}}}",
                    t.incl_s, t.self_s
                )
            })
            .collect();
        println!("# last traced pass, all spans: {{{}}}", selfs.join(","));
    } else {
        let values = [
            median(&setup_times),
            run_s,
            med(|p| p.first_s),
            med(|p| p.second_s),
            med(|p| p.first_nodes as f64),
            med(|p| p.second_nodes as f64),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            rec::peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, v));
        }
        let per_pass: [(&str, fn(&Pass) -> f64); 3] = [
            ("run_s", |p| p.run_s),
            ("first_s", |p| p.first_s),
            ("second_s", |p| p.second_s),
        ];
        for (name, f) in per_pass {
            let runs: Vec<String> = untraced
                .iter()
                .map(|(p, _)| format!("{:.4}", f(p)))
                .collect();
            println!("# pass {name}: [{}]", runs.join(", "));
        }
    }

    println!(
        "# provenance: {{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"git_rev\":\"{}\",\
         \"rustc\":\"{}\",\"table_variant\":\"{}\",\"apply_n26_threads\":{},\"passes\":{},\
         \"setups\":{}}}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        git_rev(),
        rustc_version(),
        if cfg!(feature = "chained_tables") {
            "chained_tables"
        } else {
            "open_tables"
        },
        apply_n26::THREADS,
        passes.len(),
        setup_times.len(),
    );
    println!("# counters: {}", json_counters(vector));
    if !deterministic {
        eprintln!("error: work counters differ between passes of one seed");
        for p in &passes {
            eprintln!("  {}", json_counters(&p.counters));
        }
    }
    if failed > 0 {
        eprintln!("error: {failed} of {attempted} checked operations were wrong");
    }

    let mut out = String::new();
    for (name, unit, value) in &metrics {
        if !out.is_empty() {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{out}}}}}",
        failed == 0 && deterministic && trace_ok
    );
    ExitCode::SUCCESS
}
