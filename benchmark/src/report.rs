//! `ga-benchmark all`: every workload in its own process — the timed run,
//! then the traced run — merged into one JSON document and one table.

use std::process::{Command, Stdio};

use ga_scenario::json::Json;

use crate::harness::{suite_seed, BASE_SECONDS};
use crate::metrics::{Home, PER_LAYER};
use crate::{out_dir, WORKLOADS};

/// `--quick` runs this fraction of the ops: a smoke test of the harness.
const QUICK_DIVISOR: f64 = 100.0;

/// The release profile of `benchmark/Cargo.toml`, as stamped in headers.
const PROFILE: &str = "release: opt-level=3, lto=thin, debug=false";

/// Runs one workload in a child process and returns its last two lines
/// of output: what it printed beside its metrics, and its result.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}): {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let mut parse_next = |what: &str| {
        Json::parse(lines.next().unwrap_or("")).map_err(|e| format!("{workload} {what} line: {e}"))
    };
    let result = parse_next("result")?;
    let notes = parse_next("notes")?;
    Ok((notes, result))
}

fn env_or_unknown(key: &str) -> Json {
    Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".into()))
}

/// The run header: enough to tell two reports apart.
fn header(seed: u64, quick: bool, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ops = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), Json::Uint(w.ops_for(seconds) as u64)))
        .collect();
    Json::obj(vec![
        ("git_rev", env_or_unknown("GA_BENCH_GIT_REV")),
        ("rustc", env_or_unknown("GA_BENCH_RUSTC")),
        ("nproc", Json::Uint(nproc as u64)),
        ("profile", Json::str(PROFILE)),
        ("seed", Json::Uint(seed)),
        ("suite_seed", Json::Uint(suite_seed(seed))),
        ("seconds", Json::Num(seconds)),
        ("ops", Json::Obj(ops)),
        ("quick", Json::Bool(quick)),
    ])
}

/// Prints a result's metrics. Of a traced run's ledger only the rows
/// taken from the workload's own ops are shown; the probed rest stays in
/// `report.json`.
fn print_metrics(result: &Json, own: Home) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, entry) in metrics {
        let probed = PER_LAYER
            .iter()
            .any(|d| d.name == name && d.home != own && d.home != Home::Run);
        if probed {
            continue;
        }
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<32} {value:>16.6} {unit}");
    }
}

/// The timed run's own `run.*` rows: the full-length ones.
fn print_notes(notes: &Json) {
    let Some(Json::Obj(notes)) = notes.get("notes") else {
        return;
    };
    for (name, value) in notes {
        let value = value.as_f64().unwrap_or(0.0);
        println!("  {name:<32} {value:>16.6} (timed run)");
    }
}

fn failed_of(result: &Json) -> u64 {
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
    failed.max(u64::from(!correct))
}

/// Runs everything, prints the table, writes `out/report.json`; an error
/// if any run could not finish or any correctness check failed.
pub fn run_all(seed: u64, quick: bool) -> Result<(), String> {
    let seconds = if quick {
        BASE_SECONDS / QUICK_DIVISOR
    } else {
        BASE_SECONDS
    };
    let header = header(seed, quick, seconds);
    println!("header {}", header.render());
    if quick {
        println!("QUICK RUN: 1/{QUICK_DIVISOR} of the ops. These numbers are not for comparison.");
    }

    let mut failed = 0;
    let mut rows = Vec::new();
    for spec in &WORKLOADS {
        eprintln!("== {}: timed run", spec.name);
        let (timed_notes, timed) = child(spec.name, seed, seconds, false)?;
        eprintln!("== {}: traced run", spec.name);
        let (_, traced) = child(spec.name, seed, seconds, true)?;
        failed += failed_of(&timed) + failed_of(&traced);

        let count = |result: &Json, key| result.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "\n{}: {} ops attempted, {} failed (traced run: {} attempted, {} failed)",
            spec.name,
            count(&timed, "attempted"),
            count(&timed, "failed"),
            count(&traced, "attempted"),
            count(&traced, "failed"),
        );
        print_metrics(&timed, spec.home);
        print_notes(&timed_notes);
        print_metrics(&traced, spec.home);
        rows.push(Json::obj(vec![
            ("name", Json::str(spec.name)),
            ("timed", timed),
            ("timed_notes", timed_notes),
            ("traced", traced),
        ]));
    }

    let report = Json::obj(vec![("header", header), ("workloads", Json::Arr(rows))]);
    let path = out_dir().join("report.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, report.render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nreport: {}", path.display());
    if quick {
        println!("QUICK RUN: these numbers are not for comparison.");
    }
    if failed > 0 {
        return Err(format!("{failed} correctness checks failed"));
    }
    Ok(())
}
