//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Untraced (the default) runs the workload's registry entry through
//! the `speakup run <entry> --json` library path for `--seconds` and
//! prints the end-to-end metrics. `--trace 1` instead prints the
//! per-layer metrics: spans around the driver and runner calls, a
//! serial pass that times each run on its own, and the layer replays.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.

// Reading the host clock is this crate's job; the repository's
// clippy.toml bans it for the simulator crates.
#![allow(clippy::disallowed_methods)]

use speakup_exp::driver::{self, EntryRun};
use speakup_exp::registry::{self, RunOptions};
use speakup_exp::runner;
use speakup_exp::scenario::Scenario;
use speakup_net::time::SimDuration;
use speakup_perfbench::replay::{self, Pass, Replay};
use speakup_perfbench::trace::Tracer;
use speakup_perfbench::workload::{self, Workload, WORKLOADS};
use speakup_perfbench::{json_str, median, peak_rss_mb, Fingerprint};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `speakup run`'s own default seed.
const DEFAULT_SEED: u64 = 0x5ea4;
/// A second seed kept out of tuning, to recheck a claim on inputs the
/// change was not written against.
const HELD_OUT_SEED: u64 = 0x2006;
/// Fewest timed repetitions per run, however long each takes.
const MIN_REPS: usize = 3;
/// Share of the timed run spent sampling set-up time.
const SETUP_SHARE: f64 = 0.15;
/// Shortest set-up sample, seconds: grid passes repeat until one sample
/// lasts this long. The host's speed swings by up to 1.6× in phases of
/// a few hundred milliseconds, so a shorter sample lands in one phase
/// and the median of such samples jumps between phases.
const SETUP_SAMPLE_S: f64 = 0.25;
/// Most `driver.grid` spans the traced run records.
const GRID_SPANS: usize = 200;
/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         defaults: --seed {DEFAULT_SEED} (held-out recheck seed: {HELD_OUT_SEED}), --seconds 10, --trace 0",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One measured value of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How it was taken, for the human-readable line.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// One repetition: the entry from grid build to rendered JSON text.
struct Rep {
    wall_s: f64,
    run: EntryRun,
}

impl Rep {
    fn events(&self) -> u64 {
        self.run
            .reports
            .iter()
            .map(|r| r.shard_events.iter().sum::<u64>())
            .sum()
    }

    fn loop_s(&self) -> f64 {
        self.run.reports.iter().map(|r| r.wall_secs).sum()
    }

    fn events_per_s(&self) -> f64 {
        self.events() as f64 / self.loop_s()
    }
}

fn entry(w: &Workload) -> &'static registry::Entry {
    registry::find(w.entry).expect("every workload names a registry entry")
}

/// The JSON text `speakup run <entry> --json` prints.
fn render(run: &EntryRun, opts: &RunOptions) -> String {
    driver::entry_json(run, opts)
        .field("perf", driver::perf_json(run))
        .pretty()
}

/// An untraced repetition. `driver::execute` builds the grid, runs it on
/// the worker pool and renders the tables.
fn execute(w: &Workload, opts: &RunOptions) -> Rep {
    let start = Instant::now();
    let run = driver::execute(entry(w), opts);
    black_box(render(&run, opts));
    Rep {
        wall_s: start.elapsed().as_secs_f64(),
        run,
    }
}

/// A traced repetition: the same calls inside `driver.entry`, with
/// `driver.execute` and `driver.render` spans around them.
fn execute_traced(tr: &mut Tracer, w: &Workload, opts: &RunOptions) -> Rep {
    let (run, wall_s) = tr.span("driver.entry", |tr| {
        let (run, _) = tr.span("driver.execute", |_| driver::execute(entry(w), opts));
        tr.span("driver.render", |_| black_box(render(&run, opts)));
        run
    });
    Rep { wall_s, run }
}

/// Runs repetitions, checks each against the first, and tallies
/// failures (a panic or any failed check).
struct Checker<'a> {
    workload: &'a Workload,
    opts: &'a RunOptions,
    reference: Option<(String, u64)>,
    attempted: u64,
    failed: u64,
}

impl<'a> Checker<'a> {
    fn new(workload: &'a Workload, opts: &'a RunOptions) -> Self {
        Checker {
            workload,
            opts,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn run(&mut self, f: impl FnOnce() -> Rep) -> Option<Rep> {
        self.attempted += 1;
        let Ok(rep) = catch_unwind(AssertUnwindSafe(f)) else {
            self.failed += 1;
            eprintln!("check failed: repetition panicked");
            return None;
        };
        let mut failures = self.workload.check(&rep.run);
        let doc = driver::entry_json(&rep.run, self.opts).pretty();
        let events = rep.events();
        match &self.reference {
            None => self.reference = Some((doc, events)),
            Some((ref_doc, ref_events)) => {
                if *ref_doc != doc {
                    failures.push("deterministic report differs from the first repetition".into());
                }
                if *ref_events != events {
                    failures.push(format!(
                        "{events} events, first repetition had {ref_events}"
                    ));
                }
            }
        }
        for f in &failures {
            eprintln!("check failed: {f}");
        }
        if !failures.is_empty() {
            self.failed += 1;
        }
        Some(rep)
    }

    /// A replay counts as one attempted check; it fails if any pass's
    /// checksum differed from its first pass.
    fn replay(&mut self, name: &str, repeated: bool) {
        self.attempted += 1;
        if !repeated {
            self.failed += 1;
            eprintln!("check failed: {name} replay is not deterministic");
        }
    }
}

/// The workload's grid with every run cut to one simulated microsecond:
/// running one costs its set-up alone.
fn setup_scenarios(w: &Workload, seed: u64) -> Vec<Scenario> {
    let mut opts = w.options(seed);
    opts.duration = Some(SimDuration::from_micros(1));
    opts.jobs = Some(1);
    driver::execute(entry(w), &opts).scenarios
}

/// One set-up sample: host seconds to set up every run of the grid,
/// serially, averaged over as many passes as fill `SETUP_SAMPLE_S`.
fn setup_sample(short: &[Scenario]) -> f64 {
    let t = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        for sc in short {
            black_box(runner::run(sc));
        }
        passes += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(passes)
}

fn spread_note(v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {}, min {min:.6}, max {max:.6}", v.len())
}

fn show(m: &Metric) {
    println!("{:<22} {:>24} {:<5} {}", m.name, m.value, m.unit, m.note);
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let opts = w.options(args.seed);
    let short = setup_scenarios(w, args.seed);
    let mut checker = Checker::new(w, &opts);
    // The warm-up repetition is the reference the timed ones must
    // reproduce; its time is not counted.
    let reference = checker.run(|| execute(w, &opts));
    let (mut walls, mut rates, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_spent = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || (walls.len() < MIN_REPS && checker.failed == 0)
    {
        if let Some(rep) = checker.run(|| execute(w, &opts)) {
            walls.push(rep.wall_s);
            rates.push(rep.events_per_s());
        }
        // The host's speed drifts over seconds, so set-up is sampled
        // between repetitions across the whole run, not in one block.
        while setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            setup.push(setup_sample(&short));
            setup_spent += t.elapsed().as_secs_f64();
        }
    }
    let (share_gap, good_served) = reference.as_ref().map_or((0.0, 0.0), |r| {
        (w.share_gap(&r.run), workload::good_served_frac(&r.run))
    });
    let failed_frac = checker.failed as f64 / checker.attempted as f64;
    println!(
        "{}: {} timed repetitions of {} x {} s simulated, seed {}, jobs {}",
        w.name,
        walls.len(),
        reference.as_ref().map_or(0, |r| r.run.reports.len()),
        w.duration.as_secs_f64(),
        args.seed,
        workload::jobs()
    );
    // The result line carries failures as `failed`/`attempted`, so the
    // share that failed is shown here rather than as a result metric
    // (it reads 0 on correct code).
    show(&metric(
        "failed_frac",
        failed_frac,
        "frac",
        format!(
            "{} of {} repetitions failed a check",
            checker.failed, checker.attempted
        ),
    ));
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            metric("wall_s", median(&walls), "s", spread_note(&walls)),
            metric("events_per_s", median(&rates), "1/s", spread_note(&rates)),
            metric("setup_s", median(&setup), "s", spread_note(&setup)),
            metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of this process"),
            metric("share_gap", share_gap, "frac", "simulated, deterministic"),
            metric(
                "good_served_frac",
                good_served,
                "frac",
                "simulated, deterministic",
            ),
        ],
    }
}

/// Times `r` for at least `secs` (and three passes) after one warm-up
/// pass; returns ns per operation (median pass) and the first pass. The
/// replay is one attempted check: every pass must repeat the first.
fn time_replay(checker: &mut Checker, name: &str, r: &dyn Replay, secs: f64) -> (f64, Pass) {
    let first = r.pass();
    let mut samples = Vec::new();
    let mut repeated = true;
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let again = black_box(r.pass());
        samples.push(t.elapsed().as_secs_f64());
        repeated &= again == first;
    }
    checker.replay(name, repeated);
    (median(&samples) * 1e9 / first.ops as f64, first)
}

fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let opts = w.options(args.seed);
    let mut tr = Tracer::new();
    let mut checker = Checker::new(w, &opts);
    let Some(reference) = checker.run(|| execute(w, &opts)) else {
        return Outcome {
            attempted: checker.attempted,
            failed: checker.failed,
            metrics: Vec::new(),
        };
    };

    // The grid build on its own, outside the repetitions compared for
    // tracing overhead (`driver::execute` builds it again inside).
    let grid_start = Instant::now();
    for i in 0..GRID_SPANS {
        if i >= 3 && grid_start.elapsed().as_secs_f64() >= 0.1 {
            break;
        }
        tr.span("driver.grid", |_| black_box(entry(w).build_grid()));
    }

    // Untraced and traced repetitions alternate for half the budget;
    // the difference of their medians is the tracing overhead.
    let (mut plain, mut traced_walls, mut loops) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds / 2.0
        || (traced_walls.len() < 2 && checker.failed == 0)
    {
        if let Some(rep) = checker.run(|| execute(w, &opts)) {
            plain.push(rep.wall_s);
            loops.push(rep.loop_s());
        }
        if let Some(rep) = checker.run(|| execute_traced(&mut tr, w, &opts)) {
            traced_walls.push(rep.wall_s);
            loops.push(rep.loop_s());
        }
    }

    // Each run on its own, serially: a one-microsecond run for its
    // set-up, then the full run. What is neither set-up nor event loop
    // is report extraction.
    let (mut run_total, mut extract) = (0.0, 0.0);
    tr.span("runner.serial", |tr| {
        for sc in &reference.run.scenarios {
            let mut short = sc.clone();
            short.duration = SimDuration::from_micros(1);
            let (_, setup_i) = tr.span("runner.setup", |_| black_box(runner::run(&short)));
            let (report, run_i) = tr.span("runner.run", |_| runner::run(sc));
            run_total += run_i;
            extract += run_i - setup_i - report.wall_secs;
        }
    });

    // The replays, shaped by this workload's reference run. Digest and
    // cohort replays run only where the workload has replicas or
    // cohorts.
    let derived = w.derive(&reference.run);
    let shapes = &derived.shapes;
    let seed = args.seed;
    let mut replays: Vec<(&'static str, Box<dyn Replay>)> = vec![
        (
            "replay.event",
            Box::new(replay::event::script(&shapes.event, seed)),
        ),
        (
            "replay.link",
            Box::new(replay::link::script(&shapes.link, seed)),
        ),
        (
            "replay.tcp",
            Box::new(replay::tcp::script(&shapes.tcp, seed)),
        ),
        (
            "replay.auction",
            Box::new(replay::auction::script(&shapes.auction, seed)),
        ),
    ];
    if let Some(d) = &shapes.digest {
        replays.push(("replay.digest", Box::new(replay::digest::script(d, seed))));
    }
    if let Some(c) = &shapes.cohort {
        replays.push(("replay.cohort", Box::new(replay::cohort::script(c, seed))));
    }
    let slice = (args.seconds * 0.04).max(0.2);
    let mut ns = Vec::new();
    let mut event_ops = 0;
    for (name, r) in &replays {
        let ((per_op, first), _) =
            tr.span(name, |_| time_replay(&mut checker, name, r.as_ref(), slice));
        if *name == "replay.event" {
            event_ops = first.ops;
        }
        ns.push((*name, per_op));
    }
    let ns_of = |name: &str| ns.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let replay_ns = |name: &str| ns_of(name).expect("the replay ran");

    let path = std::path::Path::new(TRACE_DIR).join(format!("{}-{}.jsonl", w.name, args.seed));
    if let Err(e) = tr.write(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    println!(
        "spans ({} recorded, written to {}):",
        tr.spans().len(),
        path.display()
    );
    for (name, t) in tr.totals() {
        println!(
            "  {name:<16} n={:<5} total {:>10.6} s  self {:>10.6} s",
            t.count, t.total, t.self_time
        );
    }
    println!("replay parameters, derived from the reference run:");
    for p in &derived.params {
        println!("  {:<32} {:>14} {}", p.name, p.value, p.source.label());
    }

    // Outside-visible counts, all deterministic.
    let reports = &reference.run.reports;
    let events = reference.events();
    let sum = |f: &dyn Fn(&speakup_exp::RunReport) -> u64| reports.iter().map(f).sum::<u64>();
    let client_calls = sum(&|r| workload::dispatch(r, "client"));
    let thinner_calls = sum(&|r| workload::dispatch(r, "thinner"));
    let cohort_calls = sum(&|r| workload::dispatch(r, "cohort"));
    let all_calls = sum(&|r| r.dispatch_counts.iter().map(|&(_, c)| c).sum());
    let boxed = sum(&|r| workload::boxed_calls(r));
    let admissions = sum(&|r| r.allocation.good + r.allocation.bad);
    let issued = sum(&|r| r.good.issued + r.bad.issued);
    let payment_bytes = sum(&|r| r.payment_bytes_total);
    let drops = sum(&|r| r.thinner_drops);
    let utilization =
        reports.iter().map(|r| r.server_utilization).sum::<f64>() / reports.len() as f64;

    let loop_s = median(&loops);
    let queue_ops_per_event = event_ops as f64 / shapes.event.pops as f64;
    let segments = derived.segments;
    let mut parts = vec![
        (
            "queue",
            events as f64 * queue_ops_per_event * replay_ns("replay.event"),
        ),
        (
            "links",
            segments * derived.link_ops_per_segment * replay_ns("replay.link"),
        ),
        ("tcp", segments * replay_ns("replay.tcp")),
        (
            "thinner",
            thinner_calls as f64 * replay_ns("replay.auction"),
        ),
    ];
    if let Some(v) = ns_of("replay.digest") {
        parts.push(("digests", derived.merges * v));
    }
    if let Some(v) = ns_of("replay.cohort") {
        parts.push(("cohorts", cohort_calls as f64 * v));
    }
    println!(
        "event loop {loop_s:.6} s, estimated as outside-visible count x replay ns/op \
         (the replays' estimated shapes make this an estimate, not a measurement):"
    );
    let mut explained = 0.0;
    for (name, ns_total) in parts {
        let s = ns_total / 1e9;
        explained += s;
        println!("  {name:<8} {s:>10.6} s  ({:.1}%)", 100.0 * s / loop_s);
    }
    println!(
        "  rest     {:>10.6} s  ({:.1}%): not reached by any outside-visible count",
        loop_s - explained,
        100.0 * (loop_s - explained) / loop_s
    );
    // Per-layer metrics of layers only some workloads use: printed here,
    // and kept out of the result line, which carries the same metrics on
    // every workload.
    if let Some(v) = ns_of("replay.digest") {
        show(&metric("digest.ns_per_merge", v, "ns", "replay"));
    }
    if let Some(v) = ns_of("replay.cohort") {
        show(&metric("cohort.ns_per_call", v, "ns", "replay"));
    }

    let effective_jobs = workload::jobs().min(reports.len()).max(1) as f64;
    let execute_s = median(&tr.durations("driver.execute"));
    let plain_wall = median(&plain);
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            metric(
                "driver.grid_s",
                median(&tr.durations("driver.grid")),
                "s",
                "median span",
            ),
            metric(
                "driver.render_s",
                median(&tr.durations("driver.render")),
                "s",
                "median span",
            ),
            metric(
                "runner.loop_s",
                loop_s,
                "s",
                "median of sum of RunReport::wall_secs",
            ),
            metric(
                "runner.extract_s",
                extract,
                "s",
                "derived: run - setup - loop, serial pass",
            ),
            metric(
                "runner.pool_busy_frac",
                run_total / (effective_jobs * execute_s),
                "frac",
                format!("serial run time / ({effective_jobs} jobs x pool wall)"),
            ),
            metric("sim.events", events as f64, "count", "deterministic"),
            metric(
                "sim.ns_per_event",
                loop_s * 1e9 / events as f64,
                "ns",
                "loop / events",
            ),
            metric(
                "agents.client_calls",
                client_calls as f64,
                "count",
                "dispatch_counts",
            ),
            metric(
                "agents.thinner_calls",
                thinner_calls as f64,
                "count",
                "dispatch_counts",
            ),
            metric(
                "agents.cohort_calls",
                cohort_calls as f64,
                "count",
                "dispatch_counts",
            ),
            metric(
                "agents.thinner_share",
                thinner_calls as f64 / all_calls as f64,
                "frac",
                "thinner / all dispatches",
            ),
            metric("agents.boxed_calls", boxed as f64, "count", "must be 0"),
            metric("event.ns_per_op", replay_ns("replay.event"), "ns", "replay"),
            metric("link.ns_per_pkt", replay_ns("replay.link"), "ns", "replay"),
            metric("tcp.ns_per_seg", replay_ns("replay.tcp"), "ns", "replay"),
            metric(
                "auction.ns_per_call",
                replay_ns("replay.auction"),
                "ns",
                "replay",
            ),
            metric(
                "thinner.admissions",
                admissions as f64,
                "count",
                "served requests",
            ),
            metric("thinner.drops", drops as f64, "count", "deterministic"),
            metric(
                "thinner.payment_mb",
                payment_bytes as f64 / 1e6,
                "MB",
                "deterministic",
            ),
            metric(
                "thinner.admit_ratio",
                admissions as f64 / issued as f64,
                "frac",
                "admissions / requests issued",
            ),
            metric("server.utilization", utilization, "frac", "mean over runs"),
            metric(
                "loop_explained_frac",
                explained / loop_s,
                "frac",
                "estimate from partly estimated shapes; see breakdown above",
            ),
            metric(
                "trace.overhead_frac",
                (median(&traced_walls) - plain_wall) / plain_wall,
                "frac",
                format!(
                    "{} traced vs {} untraced repetitions",
                    traced_walls.len(),
                    plain.len()
                ),
            ),
        ],
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!("fingerprint {}", Fingerprint::take().to_json());
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let mut correct = out.failed == 0 && !out.metrics.is_empty();
    let mut fields = Vec::new();
    for m in &out.metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            0.0
        };
        show(m);
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}
