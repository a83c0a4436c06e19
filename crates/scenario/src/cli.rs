//! The `scenario` command-line tool.
//!
//! ```text
//! scenario list
//! scenario run --suite paper [--seeds N] [--workers N] [--shards N]
//!              [--out FILE] [--records FILE.jsonl] [--no-records]
//!              [--events FILE.jsonl] [--profile FILE.json]
//!              [--table METRIC]
//! scenario trace EVENTS.jsonl [--out trace.json]
//! ```
//!
//! `run` prints the suite's deterministic JSON summary to stdout (and
//! optionally a file): byte-identical across repeated invocations, worker
//! counts, shard counts and pool sizes. `--workers N` is a **global
//! thread budget**: the CLI builds one persistent
//! [`Runtime`](ga_simnet::runtime::Runtime) pool of N threads, and both
//! sweep-level parallelism (concurrent runs) and intra-run parallelism
//! (`--shards`) draw from it — never more than N threads total, enforced
//! by the pool rather than estimated. `--shards N` shards each run's
//! `Simulation::step` across N of those threads (default 1, serial);
//! concurrent runs are scaled down to `workers / shards` so the two
//! levels share the budget — only for suites whose scenarios actually
//! step the simulator; pure-computation suites keep the whole budget and
//! the ignored flag is noted on stderr. `--records FILE` streams one JSON line per run to
//! FILE as runs complete (stable job order), without holding the records
//! in memory. `--table METRIC` appends a cross-run convergence table
//! (one row per scenario/grid point: parameter values, pass rate, and
//! p50/p90/p99 of METRIC — `rounds` for rounds-to-stop) so E4-style
//! plots read straight off the CLI output; a METRIC that no scenario
//! carries is an error (exit 1, after the summary) that names the
//! available ones. No wall-clock figure ever enters a summary, so
//! summaries stay reproducible; throughput is measured from outside, by
//! `benchmark/run.sh`.
//!
//! `--events FILE` switches the deterministic telemetry event plane on
//! for every run and streams one JSON line per retained event to FILE
//! (grouped per run, runs in stable job order): round boundaries,
//! per-message deliveries and drops with reasons, schedule firings,
//! corruption applications, scrambles, and the stabilization probe's
//! legality flips. The file is **byte-identical** across worker counts,
//! shard counts and pool sizes — it lives on the same deterministic plane
//! as the summary. Each run's ring retains its last 4096 events; the
//! runs that produced more are named in one stderr warning (scenario,
//! seed, events lost), so a file holding only tails never passes for a
//! complete one.
//! `--profile FILE` writes wall-clock pool/step timing (per-step latency
//! histogram, the step's phase times — which sum to `step_ns` — and
//! batch/task times) to FILE; timing
//! is the *other* plane — it never appears in summaries, records, or
//! event streams. `scenario trace` converts an `--events` JSONL file to
//! Chrome trace-event JSON loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`: one process group per run, one track per
//! simulated process, round spans plus instant markers.
//!
//! Exit codes: 0 = every verdict passed, 2 = the suite ran but some
//! verdict failed (e.g. censored stabilize points — frontier charted,
//! tool healthy), 1 = real errors (usage, unknown suite or `--table`
//! metric, I/O).
//!
//! `scenario list` names every suite: `paper` (the e1–e8 experiment
//! ports), `authority` (the §3.3 distributed-authority plays — honest,
//! selfish-cluster, mute, churn, and a noise adversary placed per seed
//! by `PlacementStrategy::RandomF`), `stabilize` (the recovery frontier:
//! scheduled corruption over a loss × intensity × n grid; run it with
//! `--table rounds_to_stabilize` — censored points surface as failed
//! verdicts, so exit code 2 there means "frontier charted", not
//! "suite broken"), `unsupportive` (the recurring-corruption frontier,
//! exit 2 by design too), `examples`, `smoke` (the tier-1 gate) and
//! `sparse` (large-n quiescent wavefronts, the tier-1 timeout smoke).

use std::io::Write;

use ga_simnet::runtime::Runtime;
use ga_simnet::telemetry::{ProfileData, Profiler, StepPhase, TelemetryConfig};

use crate::json::Json;
use crate::record::event_json;
use crate::suites;
use crate::sweep::{Job, ScenarioSummary, SweepSummary};

/// Entry point; returns the process exit code (0 = all verdicts passed,
/// 2 = verdict failures, 1 = real errors: usage, unknown suite or table
/// metric, I/O).
pub fn main(args: Vec<String>) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => match args.get(1) {
            Some(extra) => usage(&format!("list takes no arguments: {extra}")),
            None => write_stdout(&list()).map_or_else(|code| code, |()| 0),
        },
        Some("run") => match Options::parse(&args[1..]) {
            Ok(opts) => run(&opts),
            Err(err) => usage(&err),
        },
        Some("trace") => trace(&args[1..]),
        Some("--help") | Some("-h") | None => usage("expected a subcommand"),
        Some(other) => usage(&format!("unknown subcommand: {other}")),
    }
}

struct Options {
    suite: String,
    seeds: Option<u64>,
    workers: usize,
    /// Every run's step is sharded this many ways (default 1, serial).
    shards: usize,
    out: Option<String>,
    records: bool,
    record_sink: Option<String>,
    /// Events JSONL destination: switches the deterministic telemetry
    /// event plane on and streams one line per retained event.
    events: Option<String>,
    /// Profile JSON destination: wall-clock pool/step timing (the
    /// non-deterministic plane; never part of summaries or events).
    profile: Option<String>,
    /// Metric to render as a cross-run convergence table (`rounds` for
    /// rounds-to-stop).
    table: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            suite: "paper".to_string(),
            seeds: None,
            workers: default_workers(),
            shards: 1,
            out: None,
            records: true,
            record_sink: None,
            events: None,
            profile: None,
            table: None,
        };
        let mut seen: Vec<&str> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            // A repeated option would otherwise keep its last value.
            if seen.contains(&args[i].as_str()) {
                return Err(format!("{} given twice", args[i]));
            }
            seen.push(&args[i]);
            let take = |i: usize| -> Result<&String, String> {
                args.get(i + 1)
                    .ok_or_else(|| format!("{} needs a value", args[i]))
            };
            match args[i].as_str() {
                "--suite" => {
                    opts.suite = take(i)?.clone();
                    i += 2;
                }
                "--seeds" => {
                    let seeds: u64 = take(i)?
                        .parse()
                        .map_err(|_| "--seeds needs an integer".to_string())?;
                    if seeds == 0 {
                        return Err("--seeds must be positive".into());
                    }
                    opts.seeds = Some(seeds);
                    i += 2;
                }
                "--workers" => {
                    opts.workers = take(i)?
                        .parse()
                        .map_err(|_| "--workers needs an integer".to_string())?;
                    if opts.workers == 0 {
                        return Err("--workers must be positive".into());
                    }
                    i += 2;
                }
                "--shards" => {
                    let shards: usize = take(i)?
                        .parse()
                        .map_err(|_| "--shards needs an integer".to_string())?;
                    if shards == 0 {
                        return Err("--shards must be positive".into());
                    }
                    opts.shards = shards;
                    i += 2;
                }
                "--out" => {
                    opts.out = Some(take(i)?.clone());
                    i += 2;
                }
                "--records" => {
                    opts.record_sink = Some(take(i)?.clone());
                    i += 2;
                }
                "--no-records" => {
                    opts.records = false;
                    i += 1;
                }
                "--events" => {
                    opts.events = Some(take(i)?.clone());
                    i += 2;
                }
                "--profile" => {
                    opts.profile = Some(take(i)?.clone());
                    i += 2;
                }
                "--table" => {
                    opts.table = Some(take(i)?.clone());
                    i += 2;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }

    /// Sweep-level worker count under the global budget: `--workers` is
    /// the size of the one shared [`Runtime`] pool, and each concurrent
    /// run occupies `--shards` of it (runs × shards ≤ workers, with at
    /// least one run) — the remaining pool threads serve the runs' nested
    /// shard batches.
    ///
    /// Suites whose scenarios cannot shard (pure-computation ports) keep
    /// the full budget — carving it up would slow the sweep for nothing —
    /// and a warning flags the ignored `--shards`.
    fn sweep_workers(&self, suite: &suites::Suite) -> usize {
        let shards = self.shards;
        if shards == 1 {
            return self.workers;
        }
        let shardable = suite.scenarios().iter().any(|s| s.supports_sharding());
        if !shardable {
            eprintln!(
                "note: suite `{}` has no simulator-backed scenarios; --shards {shards} is ignored",
                suite.name
            );
            return self.workers;
        }
        (self.workers / shards).max(1)
    }
}

/// Worker default: the machine's parallelism, capped — sweeps are CPU
/// bound and runs are short, so more threads than cores only adds noise.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

fn usage(err: &str) -> i32 {
    eprintln!("error: {err}");
    eprintln!();
    eprintln!("usage: scenario <list | run | trace> [options]");
    eprintln!("  list                      show every named suite");
    eprintln!("  run   --suite NAME        run a suite, print its JSON summary");
    eprintln!("        [--seeds N]         seeds per scenario (default: suite plan)");
    eprintln!("        [--workers N]       global thread budget, N >= 1 (default:");
    eprintln!("                            min(cores, 16)): one persistent worker pool");
    eprintln!("                            of N threads serves both concurrent runs and");
    eprintln!("                            each run's sharded step loop — never more");
    eprintln!("                            than N threads in total");
    eprintln!("        [--shards N]        pool threads per run's step loop (default:");
    eprintln!("                            1, serial;");
    eprintln!("                            for simulator suites, concurrent runs scale");
    eprintln!("                            to workers/shards inside the same budget)");
    eprintln!("        [--out FILE]        also write the summary to FILE");
    eprintln!("        [--records FILE]    stream one JSONL record per run to FILE");
    eprintln!("        [--no-records]      aggregates only, omit per-run records");
    eprintln!("        [--events FILE]     enable the deterministic event plane and");
    eprintln!("                            stream one JSONL event per line to FILE");
    eprintln!("                            (byte-identical at any workers/shards/pool)");
    eprintln!("        [--profile FILE]    write wall-clock pool/step timing JSON to");
    eprintln!("                            FILE (never folded into summaries/events)");
    eprintln!("        [--table METRIC]    append a convergence-vs-param table of METRIC");
    eprintln!("                            ('rounds' for rounds-to-stop percentiles;");
    eprintln!("                            a METRIC no scenario carries is an error)");
    eprintln!("  trace EVENTS.jsonl        convert an --events file to Chrome trace-event");
    eprintln!("        [--out FILE]        JSON (Perfetto/chrome://tracing); stdout");
    eprintln!("                            unless --out is given");
    eprintln!();
    eprintln!("exit codes: 0 = all verdicts passed, 2 = verdict failures, 1 = errors");
    1
}

/// Writes `text` to stdout, the one way the CLI does. A reader that has
/// gone (`scenario list | true`) makes the write fail: that is exit 1
/// with one line on stderr, as for any other file, not a panic.
fn write_stdout(text: &str) -> Result<(), i32> {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|_| {
            eprintln!("error: cannot write stdout");
            1
        })
}

/// What `scenario list` prints: every suite and its scenarios.
fn list() -> String {
    let mut text = String::from("available suites:\n");
    for suite in suites::all() {
        let n = suite.scenarios().len();
        text += &format!(
            "  {:<10} {:>2} scenarios × {} seeds — {}\n",
            suite.name, n, suite.default_seeds, suite.description
        );
        for scenario in suite.scenarios() {
            text += &format!("             - {}\n", scenario.name());
        }
    }
    text
}

/// Refuses a `--seeds` value whose sweep cannot exist, before any job is
/// built: the seed range must end inside `u64`, and the sweep engine
/// materialises `scenarios × seeds` jobs up front, so that list must have
/// a length and fit in memory. Without this the range wraps to an empty
/// sweep that exits 0, or the job list aborts the process. Returns the
/// number of jobs.
fn check_seed_plan(suite: &suites::Suite, seeds: Option<u64>) -> Result<usize, String> {
    let count = seeds.unwrap_or(suite.default_seeds);
    if suite.seed_base.checked_add(count).is_none() {
        return Err(format!(
            "--seeds {count} runs past the last seed (suite `{}` starts at seed {})",
            suite.name, suite.seed_base
        ));
    }
    let scenarios = suite.scenarios().len();
    let too_many = || format!("--seeds {count} makes too many runs ({scenarios} scenarios each)");
    let jobs = usize::try_from(count)
        .ok()
        .and_then(|count| scenarios.checked_mul(count))
        .ok_or_else(too_many)?;
    Vec::<Job>::new()
        .try_reserve_exact(jobs)
        .map_err(|_| too_many())?;
    Ok(jobs)
}

fn run(opts: &Options) -> i32 {
    let Some(suite) = suites::find(&opts.suite) else {
        return usage(&format!(
            "unknown suite: {} (try `scenario list`)",
            opts.suite
        ));
    };
    let jobs = match check_seed_plan(&suite, opts.seeds) {
        Ok(jobs) => jobs,
        Err(err) => return usage(&err),
    };
    // The one pool behind the whole invocation: concurrent runs and their
    // sharded step loops all draw from these `--workers` threads — capped
    // at what the plan can occupy (every job running at once with all its
    // shards), so an oversized budget spawns no thread it cannot use.
    let occupiable = jobs.saturating_mul(opts.shards);
    let runtime = Runtime::new(opts.workers.min(occupiable));
    // Timing plane: attach a profiler to the pool so batch/task/step wall
    // clock accumulates while the sweep runs. Snapshotted to --profile
    // after the sweep; never folded into the summary.
    let profiler = opts.profile.as_ref().map(|_| Profiler::new());
    if let Some(profiler) = &profiler {
        runtime.attach_profiler(profiler.clone());
    }
    // Deterministic plane: --events switches every run's event sink on.
    let telemetry = opts.events.as_ref().map(|_| TelemetryConfig::default());
    let mut failures: Vec<String> = Vec::new();
    // Runs whose event ring overflowed, for the one warning below.
    let mut truncated: Vec<String> = Vec::new();
    let streaming = opts.record_sink.is_some() || opts.events.is_some();
    let summary = if streaming {
        // Stream one JSONL line per run record (and per event) as runs
        // complete, in stable job order; records are dropped after
        // writing, so the sweep's memory stays bounded regardless of
        // seed count.
        let open = |path: &Option<String>| -> Result<
            Option<(String, std::io::BufWriter<std::fs::File>)>,
            i32,
        > {
            let Some(path) = path else { return Ok(None) };
            match std::fs::File::create(path) {
                Ok(file) => Ok(Some((path.clone(), std::io::BufWriter::new(file)))),
                Err(err) => {
                    eprintln!("error: cannot create {path}: {err}");
                    Err(1)
                }
            }
        };
        let mut records_out = match open(&opts.record_sink) {
            Ok(out) => out,
            Err(code) => return code,
        };
        let mut events_out = match open(&opts.events) {
            Ok(out) => out,
            Err(code) => return code,
        };
        let mut io_err: Option<(String, std::io::Error)> = None;
        let mut sink = |_i: usize, record: &crate::record::RunRecord| {
            if !record.verdict.passed() {
                failures.push(format!("{} (seed {})", record.scenario, record.seed));
            }
            if let (Some((path, out)), None) = (&mut records_out, &io_err) {
                if let Err(err) = writeln!(out, "{}", record.to_json().render()) {
                    io_err = Some((path.clone(), err));
                }
            }
            if let (Some((path, out)), None) = (&mut events_out, &io_err) {
                truncated.extend(truncation_note(record));
                for event in &record.events {
                    let line = event_json(&record.scenario, record.seed, event).render();
                    if let Err(err) = writeln!(out, "{line}") {
                        io_err = Some((path.clone(), err));
                        break;
                    }
                }
            }
        };
        let summary = suite.run_stream_on(
            &runtime,
            opts.seeds,
            opts.sweep_workers(&suite),
            opts.shards,
            telemetry.as_ref(),
            &mut sink,
        );
        for sink_out in [&mut records_out, &mut events_out].into_iter().flatten() {
            let (path, out) = sink_out;
            if io_err.is_none() {
                if let Err(err) = out.flush() {
                    io_err = Some((path.clone(), err));
                }
            }
        }
        if let Some((path, err)) = io_err {
            eprintln!("error: cannot write {path}: {err}");
            return 1;
        }
        if !truncated.is_empty() {
            eprintln!(
                "warning: --events is incomplete: the event ring overwrote the \
                 oldest events of {} run(s): {}",
                truncated.len(),
                truncated.join(", ")
            );
        }
        summary
    } else {
        let summary = suite.run_on(
            &runtime,
            opts.seeds,
            opts.sweep_workers(&suite),
            opts.shards,
        );
        failures = summary
            .records
            .iter()
            .filter(|r| !r.verdict.passed())
            .map(|r| format!("{} (seed {})", r.scenario, r.seed))
            .collect();
        summary
    };
    // A streamed sweep already wrote the records; the summary embeds them
    // only when they were retained and not suppressed.
    let json = summary
        .to_json(opts.records && opts.record_sink.is_none())
        .render();
    if let Err(code) = write_stdout(&format!("{json}\n")) {
        return code;
    }
    if let Some(path) = &opts.out {
        if let Err(err) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {err}");
            return 1;
        }
    }
    if let Some(path) = &opts.profile {
        let data = profiler.as_ref().expect("profiler built with --profile");
        let json = profile_json(&data.snapshot()).render();
        if let Err(err) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {err}");
            return 1;
        }
        eprintln!("wrote {path}");
    }
    if let Some(metric) = &opts.table {
        match render_table(&summary, metric) {
            Ok(table) => {
                if let Err(code) = write_stdout(&table) {
                    return code;
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                return 1;
            }
        }
    }
    if summary.all_passed() {
        0
    } else {
        eprintln!("verdict failures: {}", failures.join(", "));
        2
    }
}

/// `scenario (seed N): K events lost, M kept` for a run whose event ring
/// overflowed, so that an `--events` file holding only the tail of a run
/// never passes for a complete one; `None` for a run that kept every
/// event.
fn truncation_note(record: &crate::record::RunRecord) -> Option<String> {
    (record.events_overwritten > 0).then(|| {
        format!(
            "{} (seed {}): {} events lost, {} kept",
            record.scenario,
            record.seed,
            record.events_overwritten,
            record.events.len()
        )
    })
}

/// Serializes a [`ProfileData`] snapshot — the timing plane's output
/// file. Wall-clock derived, so (unlike everything else the CLI writes)
/// two invocations of the same sweep produce *different* profiles.
fn profile_json(data: &ProfileData) -> Json {
    let mut fields = vec![
        ("steps", Json::Uint(data.steps)),
        ("step_ns", Json::Uint(data.step_ns)),
        (
            "step_ns_mean",
            Json::Num(if data.steps == 0 {
                0.0
            } else {
                data.step_ns as f64 / data.steps as f64
            }),
        ),
        (
            "step_hist_log2_ns",
            Json::Arr(data.step_hist.iter().map(|&c| Json::Uint(c)).collect()),
        ),
    ];
    // The step's phases, in execution order; they sum to `step_ns`.
    fields.extend(
        StepPhase::ALL
            .iter()
            .map(|&phase| (phase.label(), Json::Uint(data.phase(phase)))),
    );
    fields.extend([
        ("batches", Json::Uint(data.batches)),
        ("batch_ns", Json::Uint(data.batch_ns)),
        ("tasks", Json::Uint(data.tasks)),
        ("task_queue_ns", Json::Uint(data.task_queue_ns)),
        ("task_busy_ns", Json::Uint(data.task_busy_ns)),
    ]);
    Json::obj(fields)
}

/// `scenario trace EVENTS.jsonl [--out FILE]` — converts an `--events`
/// JSONL stream to Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). Each `(scenario, seed)` run becomes a
/// process group; inside it, track 0 carries the run-level timeline
/// (round spans, schedule firings, corruption, legality flips) and track
/// `p + 1` carries process `p`'s deliveries, drops and scrambles as
/// instant markers. Timestamps are synthetic — `round × 1000 µs` — since
/// the simulator's rounds are logical time.
fn trace(args: &[String]) -> i32 {
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if out.is_some() {
                    return usage("--out given twice");
                }
                let Some(path) = args.get(i + 1) else {
                    return usage("--out needs a value");
                };
                out = Some(path.clone());
                i += 2;
            }
            flag if flag.starts_with('-') => {
                return usage(&format!("unknown argument: {flag}"));
            }
            path => {
                if input.is_some() {
                    return usage("trace takes exactly one events file");
                }
                input = Some(path.to_string());
                i += 1;
            }
        }
    }
    let Some(input) = input else {
        return usage("trace needs an events JSONL file (from `scenario run --events`)");
    };
    let body = match std::fs::read_to_string(&input) {
        Ok(body) => body,
        Err(err) => {
            eprintln!("error: cannot read {input}: {err}");
            return 1;
        }
    };
    let (json, count) = match chrome_trace(&body) {
        Ok(converted) => converted,
        Err(err) => {
            eprintln!("error: {input}: {err}");
            return 1;
        }
    };
    let rendered = json.render();
    match &out {
        Some(path) => {
            if let Err(err) = std::fs::write(path, format!("{rendered}\n")) {
                eprintln!("error: cannot write {path}: {err}");
                return 1;
            }
            eprintln!("wrote {path} ({count} trace events)");
        }
        None => {
            if let Err(code) = write_stdout(&format!("{rendered}\n")) {
                return code;
            }
        }
    }
    0
}

/// Microseconds per simulated round on the synthetic trace timeline.
const TRACE_ROUND_US: u64 = 1000;

/// Pure conversion behind [`trace`]: events JSONL in, Chrome trace-event
/// JSON plus the emitted trace-event count out. Deterministic — the
/// output is a pure function of the input bytes, so byte-identical event
/// files convert to byte-identical traces.
fn chrome_trace(body: &str) -> Result<(Json, usize), String> {
    // (scenario, seed) → pid, in first-appearance order.
    let mut runs: Vec<(String, u64)> = Vec::new();
    // (pid, tid) pairs already given a thread_name metadata record.
    let mut named_tracks: Vec<(u64, u64)> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    let mut meta: Vec<Json> = Vec::new();

    let instant = |name: String, ts: u64, pid: u64, tid: u64, args: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("name", Json::Str(name)),
            ("ph", Json::str("i")),
            ("s", Json::str("t")),
            ("ts", Json::Uint(ts)),
            ("pid", Json::Uint(pid)),
            ("tid", Json::Uint(tid)),
        ];
        if !args.is_empty() {
            fields.push(("args", Json::obj(args)));
        }
        Json::obj(fields)
    };

    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Json::parse(line).map_err(|err| format!("line {}: {err}", lineno + 1))?;
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| format!("line {}: missing `{key}`", lineno + 1))
        };
        let scenario = field("scenario")?
            .as_str()
            .ok_or_else(|| format!("line {}: `scenario` is not a string", lineno + 1))?;
        let seed = field("seed")?
            .as_u64()
            .ok_or_else(|| format!("line {}: `seed` is not an integer", lineno + 1))?;
        let kind = field("kind")?
            .as_str()
            .ok_or_else(|| format!("line {}: `kind` is not a string", lineno + 1))?;
        let round = field("round")?
            .as_u64()
            .ok_or_else(|| format!("line {}: `round` is not an integer", lineno + 1))?;

        let run = (scenario.to_string(), seed);
        let pid = match runs.iter().position(|r| *r == run) {
            Some(index) => index as u64 + 1,
            None => {
                runs.push(run);
                let pid = runs.len() as u64;
                meta.push(Json::obj(vec![
                    ("name", Json::str("process_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Uint(pid)),
                    (
                        "args",
                        Json::obj(vec![("name", Json::str(format!("{scenario} seed={seed}")))]),
                    ),
                ]));
                pid
            }
        };
        let mut track = |tid: u64| {
            if !named_tracks.contains(&(pid, tid)) {
                named_tracks.push((pid, tid));
                let name = if tid == 0 {
                    "run".to_string()
                } else {
                    format!("process {}", tid - 1)
                };
                meta.push(Json::obj(vec![
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Uint(pid)),
                    ("tid", Json::Uint(tid)),
                    ("args", Json::obj(vec![("name", Json::Str(name))])),
                ]));
            }
            tid
        };

        let start = round * TRACE_ROUND_US;
        let mid = start + TRACE_ROUND_US / 2;
        let u64_field = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("line {}: `{key}` is not an integer", lineno + 1))
        };
        match kind {
            "round_start" => {} // The span is emitted at round_end.
            "round_end" => {
                let delivered = u64_field("delivered")?;
                events.push(Json::obj(vec![
                    ("name", Json::str(format!("round {round}"))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Uint(start)),
                    ("dur", Json::Uint(TRACE_ROUND_US)),
                    ("pid", Json::Uint(pid)),
                    ("tid", Json::Uint(track(0))),
                    (
                        "args",
                        Json::obj(vec![("delivered", Json::Uint(delivered))]),
                    ),
                ]));
            }
            "delivered" => {
                let (from, to) = (u64_field("from")?, u64_field("to")?);
                events.push(instant(
                    format!("recv {from}→{to}"),
                    mid,
                    pid,
                    track(to + 1),
                    vec![
                        ("from", Json::Uint(from)),
                        ("bytes", Json::Uint(u64_field("bytes")?)),
                    ],
                ));
            }
            "dropped" => {
                let (from, to) = (u64_field("from")?, u64_field("to")?);
                let reason = field("reason")?
                    .as_str()
                    .ok_or_else(|| format!("line {}: `reason` is not a string", lineno + 1))?
                    .to_string();
                events.push(instant(
                    format!("drop {from}→{to} ({reason})"),
                    mid,
                    pid,
                    track(to + 1),
                    vec![("reason", Json::Str(reason))],
                ));
            }
            "schedule_fired" => {
                let action = field("action")?
                    .as_str()
                    .ok_or_else(|| format!("line {}: `action` is not a string", lineno + 1))?;
                events.push(instant(
                    format!("schedule: {action}"),
                    start,
                    pid,
                    track(0),
                    Vec::new(),
                ));
            }
            "corruption_applied" => {
                events.push(instant(
                    "corruption".to_string(),
                    start,
                    pid,
                    track(0),
                    vec![
                        ("targets", Json::Uint(u64_field("targets")?)),
                        ("dropped", Json::Uint(u64_field("dropped")?)),
                    ],
                ));
            }
            "scrambled" => {
                let id = u64_field("id")?;
                events.push(instant(
                    "scrambled".to_string(),
                    mid,
                    pid,
                    track(id + 1),
                    Vec::new(),
                ));
            }
            "legality_flip" => {
                let legal = field("legal")?
                    .as_bool()
                    .ok_or_else(|| format!("line {}: `legal` is not a bool", lineno + 1))?;
                events.push(instant(
                    if legal { "legal again" } else { "illegal" }.to_string(),
                    mid,
                    pid,
                    track(0),
                    vec![("legal", Json::Bool(legal))],
                ));
            }
            other => return Err(format!("line {}: unknown event kind `{other}`", lineno + 1)),
        }
    }

    let count = events.len();
    let mut all = meta;
    all.extend(events);
    let trace = Json::obj(vec![
        ("traceEvents", Json::Arr(all)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    Ok((trace, count))
}

/// Renders the cross-run convergence table: one row per scenario (i.e.
/// per grid point), with a column per swept parameter axis, the pass
/// ("convergence") rate, and the p50/p90/p99 of `metric` — `rounds`
/// selects the rounds-to-stop percentiles the summary always carries;
/// any other name selects that probe metric (absent values render `-`).
/// Rows keep the summary's deterministic first-appearance order, so the
/// table is as byte-stable as the JSON above it. A metric that no
/// scenario carries is an error naming the ones they do, so a typo never
/// reads as a column nobody emitted.
fn render_table(summary: &SweepSummary, metric: &str) -> Result<String, String> {
    if metric != "rounds" && summary.scenarios.iter().all(|s| s.metric(metric).is_none()) {
        let mut available = vec!["rounds"];
        for m in summary.scenarios.iter().flat_map(|s| &s.metrics) {
            if !available.contains(&m.name.as_str()) {
                available.push(&m.name);
            }
        }
        return Err(format!(
            "no scenario carries metric {metric}; available: {}",
            available.join(", ")
        ));
    }
    let mut axes: Vec<&str> = Vec::new();
    for s in &summary.scenarios {
        for (name, _) in &s.params {
            if !axes.contains(&name.as_str()) {
                axes.push(name);
            }
        }
    }
    let percentiles = |s: &ScenarioSummary| -> Option<(f64, f64, f64)> {
        if metric == "rounds" {
            Some((s.rounds_p50, s.rounds_p90, s.rounds_p99))
        } else {
            s.metric(metric).map(|m| (m.p50, m.p90, m.p99))
        }
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header = vec!["scenario".to_string()];
    header.extend(axes.iter().map(|a| a.to_string()));
    for col in ["runs", "rate", "p50", "p90", "p99"] {
        header.push(col.to_string());
    }
    rows.push(header);
    for s in &summary.scenarios {
        let mut row = vec![s.name.clone()];
        for axis in &axes {
            row.push(
                s.params
                    .iter()
                    .find(|(n, _)| n == axis)
                    .map(|&(_, v)| v.to_string())
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        row.push(s.runs.to_string());
        let rate = if s.runs == 0 {
            0.0
        } else {
            s.passed as f64 / s.runs as f64
        };
        row.push(format!("{rate:.2}"));
        match percentiles(s) {
            Some((p50, p90, p99)) => {
                // f64 Display renders integral values without a trailing
                // `.0` (`40`, not `40.0`), so round counts read cleanly.
                row.extend([p50.to_string(), p90.to_string(), p99.to_string()]);
            }
            None => row.extend(["-".to_string(), "-".to_string(), "-".to_string()]),
        }
        rows.push(row);
    }

    let columns = rows[0].len();
    let widths: Vec<usize> = (0..columns)
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = format!("table: {metric} (p50/p90/p99) by scenario\n");
    for row in &rows {
        let mut line = String::new();
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            if c == 0 {
                line.push_str(&format!("{cell:<width$}", width = widths[c]));
            } else {
                line.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_full_option_set() {
        let opts = Options::parse(&args(&[
            "--suite",
            "smoke",
            "--seeds",
            "5",
            "--workers",
            "3",
            "--shards",
            "2",
            "--out",
            "x.json",
            "--records",
            "runs.jsonl",
            "--no-records",
        ]))
        .unwrap();
        assert_eq!(opts.suite, "smoke");
        assert_eq!(opts.seeds, Some(5));
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.shards, 2);
        assert_eq!(opts.out.as_deref(), Some("x.json"));
        assert_eq!(opts.record_sink.as_deref(), Some("runs.jsonl"));
        assert!(!opts.records);
    }

    #[test]
    fn an_overflowed_event_ring_is_counted_and_warned_about() {
        use crate::prelude::*;
        let spec = ScenarioSpec::new("flood", TopologyFamily::Ring(4), |_, _| {
            Box::new(Flood::default())
        })
        .max_rounds(3);
        let run = |events_capacity| {
            let config = TelemetryConfig { events_capacity };
            spec.run_telemetry(7, 0, &Runtime::new(1), Some(&config))
        };
        let whole = run(4096);
        assert_eq!(whole.events_overwritten, 0);
        assert_eq!(truncation_note(&whole), None, "a whole stream is silent");

        let tail = run(8);
        let lost = whole.events.len() - 8;
        assert_eq!(tail.events, whole.events[lost..], "the ring keeps the tail");
        assert_eq!(tail.events_overwritten, lost as u64);
        assert_eq!(
            truncation_note(&tail),
            Some(format!("flood (seed 7): {lost} events lost, 8 kept"))
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Options::parse(&args(&["--seeds"])).is_err());
        assert!(Options::parse(&args(&["--workers", "0"])).is_err());
        assert!(Options::parse(&args(&["--shards", "0"])).is_err());
        assert!(Options::parse(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn removed_flags_and_subcommand_are_usage_errors() {
        for gone in [
            &["run", "--suite", "smoke", "--repr", "sparse"][..],
            &["run", "--suite", "smoke", "--no-plan-cache"],
            &["bench"],
            &["bench", "--suite", "bench64"],
        ] {
            assert_eq!(main(args(gone)), 1, "{gone:?}");
        }
    }

    #[test]
    fn extra_and_repeated_arguments_are_usage_errors() {
        // `list` used to ignore what followed it and exit 0.
        assert_eq!(main(args(&["list", "extra"])), 1);
        // A repeated option used to keep its last value: `--suite smoke
        // --suite paper` ran `paper`, `--seeds 1 --seeds 3` ran 3 seeds.
        for repeated in [
            &["--suite", "smoke", "--suite", "paper"][..],
            &["--seeds", "1", "--seeds", "3"],
            &["--no-records", "--suite", "smoke", "--no-records"],
        ] {
            let err = Options::parse(&args(repeated)).err().unwrap();
            assert_eq!(err, format!("{} given twice", repeated[0]));
            let mut run = args(&["run"]);
            run.extend(args(repeated));
            assert_eq!(main(run), 1, "{repeated:?}");
        }
        // `trace F --out a --out b` used to write only `b`.
        let dir = std::env::temp_dir().join("ga-scenario-cli-trace-twice");
        std::fs::create_dir_all(&dir).unwrap();
        let (events, a, b) = (dir.join("events.jsonl"), dir.join("a"), dir.join("b"));
        std::fs::write(&events, "").unwrap();
        let path = |p: &std::path::Path| p.to_str().unwrap().to_string();
        let code = main(vec![
            "trace".into(),
            path(&events),
            "--out".into(),
            path(&a),
            "--out".into(),
            path(&b),
        ]);
        assert_eq!(code, 1);
        assert!(!a.exists() && !b.exists(), "no file is written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeds_that_cannot_make_a_sweep_are_usage_errors() {
        // Zero seeds used to run one silently.
        assert_eq!(main(args(&["run", "--suite", "smoke", "--seeds", "0"])), 1);
        // `authority` starts at seed 40: the range used to wrap to an
        // empty sweep that exited 0.
        let max = u64::MAX.to_string();
        assert_eq!(
            main(args(&["run", "--suite", "authority", "--seeds", &max])),
            1
        );
        // `smoke` starts at seed 0, so the range fits, but 9 × (2^64 − 1)
        // jobs have no length: this used to panic with capacity overflow.
        assert_eq!(main(args(&["run", "--suite", "smoke", "--seeds", &max])), 1);
        // 9 × 2^60 jobs have a length and no allocation: the byte size
        // overflows on every host (`--seeds 4000000000`, 96 GB of jobs,
        // is the same refusal wherever the allocator says no).
        let huge = (1u64 << 60).to_string();
        assert_eq!(
            main(args(&[
                "run",
                "--suite",
                "smoke",
                "--seeds",
                &huge,
                "--no-records"
            ])),
            1
        );
        let suite = suites::find("smoke").unwrap();
        assert!(check_seed_plan(&suite, None).is_ok());
        assert!(check_seed_plan(&suite, Some(1000)).is_ok());
        let err = check_seed_plan(&suite, Some(1 << 60)).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn defaults() {
        let opts = Options::parse(&[]).unwrap();
        assert_eq!(opts.suite, "paper");
        assert_eq!(opts.seeds, None);
        assert!(opts.records);
        assert!(opts.workers >= 1);
        assert_eq!(opts.shards, 1);
        assert!(opts.record_sink.is_none());
    }

    #[test]
    fn worker_budget_is_divided_by_shards_for_shardable_suites() {
        // smoke is simulator-backed (shards engage); paper is pure
        // computation (the budget split would be pure loss).
        let smoke = suites::find("smoke").unwrap();
        let paper = suites::find("paper").unwrap();
        let mut opts = Options::parse(&args(&["--workers", "8", "--shards", "4"])).unwrap();
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.sweep_workers(&smoke), 2);
        assert_eq!(
            opts.sweep_workers(&paper),
            8,
            "non-sharding suites keep the whole budget"
        );
        opts.shards = 16;
        assert_eq!(
            opts.sweep_workers(&smoke),
            1,
            "budget never starves the sweep"
        );
        opts.shards = 3;
        assert_eq!(
            opts.sweep_workers(&smoke),
            2,
            "integer division rounds down"
        );
        opts.shards = 1;
        assert_eq!(
            opts.sweep_workers(&smoke),
            8,
            "serial keeps the whole budget"
        );
        assert_eq!(opts.sweep_workers(&paper), 8);
    }

    #[test]
    fn run_streams_jsonl_records_in_stable_order() {
        let dir = std::env::temp_dir().join("ga-scenario-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let path_str = path.to_str().unwrap().to_string();

        let code = main(args(&[
            "run",
            "--suite",
            "smoke",
            "--seeds",
            "2",
            "--workers",
            "4",
            "--records",
            &path_str,
        ]));
        assert_eq!(code, 0);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        let scenarios = suites::find("smoke").unwrap().scenarios().len();
        assert_eq!(lines.len(), scenarios * 2, "one JSONL line per run");
        assert!(lines.iter().all(|l| l.starts_with("{\"scenario\":")));

        // Another invocation (different worker split) must write the
        // identical file: streaming preserves job order. A budget no
        // machine has threads for is capped at what the plan can occupy.
        let path2 = dir.join("records2.jsonl");
        let path2_str = path2.to_str().unwrap().to_string();
        for workers in ["1", "99999"] {
            let code = main(args(&[
                "run",
                "--suite",
                "smoke",
                "--seeds",
                "2",
                "--workers",
                workers,
                "--records",
                &path2_str,
            ]));
            assert_eq!(code, 0, "workers={workers}");
            assert_eq!(
                body,
                std::fs::read_to_string(&path2).unwrap(),
                "workers={workers}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_profile_and_trace_round_trip() {
        let dir = std::env::temp_dir().join("ga-scenario-cli-events-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (events, events2, profile, trace) = (
            path("events.jsonl"),
            path("events2.jsonl"),
            path("prof.json"),
            path("trace.json"),
        );

        let code = main(args(&[
            "run",
            "--suite",
            "smoke",
            "--seeds",
            "1",
            "--workers",
            "4",
            "--shards",
            "2",
            "--no-records",
            "--events",
            &events,
            "--profile",
            &profile,
        ]));
        assert_eq!(code, 0);
        let body = std::fs::read_to_string(&events).unwrap();
        assert!(!body.is_empty(), "smoke runs emit telemetry events");
        assert!(body.lines().all(|l| l.starts_with("{\"scenario\":")));

        // A serial invocation writes the byte-identical event stream.
        let code = main(args(&[
            "run",
            "--suite",
            "smoke",
            "--seeds",
            "1",
            "--workers",
            "1",
            "--no-records",
            "--events",
            &events2,
        ]));
        assert_eq!(code, 0);
        assert_eq!(body, std::fs::read_to_string(&events2).unwrap());

        // The profile is valid JSON on the timing plane: shape asserted,
        // values wall-clock.
        let prof = Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        assert!(prof.get("steps").and_then(Json::as_u64).unwrap() > 0);
        assert!(prof.get("tasks").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            prof.get("step_hist_log2_ns")
                .and_then(Json::as_arr)
                .unwrap()
                .len(),
            ga_simnet::telemetry::STEP_HIST_BUCKETS
        );

        // `trace` converts the stream to non-empty Chrome trace JSON.
        let code = main(args(&["trace", &events, "--out", &trace]));
        assert_eq!(code, 0);
        let converted = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let trace_events = converted.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(
            trace_events.len() > body.lines().count() / 2,
            "spans + instants cover the stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_rejects_missing_and_malformed_input() {
        assert_eq!(main(args(&["trace"])), 1, "no input file is an error");
        let dir = std::env::temp_dir().join("ga-scenario-cli-trace-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let code = main(args(&["trace", bad.to_str().unwrap()]));
        assert_eq!(code, 1, "malformed events are an error, not a verdict");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_suite_is_usage_error() {
        // Usage/selection mistakes are *errors* (1); exit 2 is reserved
        // for verdict failures on an otherwise healthy invocation.
        let code = main(args(&["run", "--suite", "no-such-suite"]));
        assert_eq!(code, 1);
    }

    #[test]
    fn parse_table_option() {
        let opts = Options::parse(&args(&["--table", "rounds"])).unwrap();
        assert_eq!(opts.table.as_deref(), Some("rounds"));
        assert!(Options::parse(&args(&["--table"])).is_err());
        assert!(Options::parse(&[]).unwrap().table.is_none());
    }

    #[test]
    fn table_reads_params_rate_and_percentiles_off_the_summary() {
        use crate::record::{RunRecord, Verdict};
        // Two grid points over p, three seeds each; seeds diverge in
        // rounds, p=0.3 fails one verdict, and only p=0.1 emits "conv".
        let mut records = Vec::new();
        for (p, fail_seed) in [(0.1, None), (0.3, Some(2))] {
            for seed in 0..3u64 {
                let mut r = RunRecord::new(format!("lossy[p={p}]"), seed);
                r.params = vec![("p".to_string(), p)];
                r.rounds = 10 + seed;
                if fail_seed == Some(seed) {
                    r.verdict = Verdict::Fail("x".into());
                }
                if p == 0.1 {
                    r.metric("conv", 5.0 + seed as f64);
                }
                records.push(r);
            }
        }
        let summary = SweepSummary::new("t", records);

        let rounds = render_table(&summary, "rounds").unwrap();
        let lines: Vec<&str> = rounds.lines().collect();
        assert_eq!(lines[0], "table: rounds (p50/p90/p99) by scenario");
        assert!(lines[1].starts_with("scenario"));
        assert!(lines[1].contains("p  runs  rate  p50  p90  p99"));
        // p=0.1: all pass, rounds 10/11/12 → p50 11, p90/p99 12.
        assert!(lines[2].contains("lossy[p=0.1]"));
        assert!(lines[2].contains("0.1"));
        assert!(
            lines[2].ends_with("3  1.00   11   12   12"),
            "{:?}",
            lines[2]
        );
        // p=0.3: one failed verdict → rate 0.67.
        assert!(lines[3].contains("0.67"));

        // A probe metric present only on p=0.1: the other row renders '-'.
        let conv = render_table(&summary, "conv").unwrap();
        let lines: Vec<&str> = conv.lines().collect();
        assert!(
            lines[2].ends_with("3  1.00    6    7    7"),
            "{:?}",
            lines[2]
        );
        assert!(lines[3].ends_with("-    -    -"), "{:?}", lines[3]);
    }

    #[test]
    fn a_table_metric_no_scenario_carries_is_an_error_naming_the_available_ones() {
        use crate::record::RunRecord;
        let mut r = RunRecord::new("probe", 0);
        r.metric("conv", 5.0);
        let summary = SweepSummary::new("t", vec![r, RunRecord::new("bare", 0)]);
        assert_eq!(
            render_table(&summary, "cnov"),
            Err("no scenario carries metric cnov; available: rounds, conv".to_string())
        );
        // The summary still goes to stdout; the typo is exit 1, not a
        // table of dashes under exit 0.
        let run = |metric| {
            main(args(&[
                "run", "--suite", "smoke", "--seeds", "1", "--table", metric,
            ]))
        };
        assert_eq!(run("no_such_metric"), 1);
        assert_eq!(run("leaf_heard"), 0);
    }
}
