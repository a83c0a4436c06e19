//! The repo benchmark. `run.sh` builds this and passes its arguments on.
//!
//! One run of one workload (what `BENCHMARK.json`'s command starts):
//!
//! ```text
//! ga-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Every workload, timed then traced, each in its own process:
//!
//! ```text
//! ga-benchmark all [--seed N] [--quick]
//! ```

mod flood;
mod harness;
mod metrics;
mod play;
mod procstat;
mod report;
mod span;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use ga_scenario::json::Json;

use harness::{Outcome, BASE_SECONDS};
use metrics::Home;

/// The four workloads, in report order.
pub const WORKLOADS: [harness::Spec; 4] = [play::N4F1, play::N10F3, sweep::SMALL, flood::RING100K];

/// Ops in a probe of a workload that is not the traced run's own.
const PROBE_PLAYS: usize = 400;
const PROBE_SWEEPS: usize = 16;
const PROBE_ROUNDS: usize = 12;

/// Where the trace files and the merged report go: `benchmark/out` of
/// the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    All { seed: u64, quick: bool },
}

const USAGE: &str = "usage: ga-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     ga-benchmark all [--seed N] [--quick]";

fn parse(args: &[String]) -> Result<Command, String> {
    let all = args.first().is_some_and(|a| a == "all");
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut rest = args[usize::from(all)..].iter();
    while let Some(flag) = rest.next() {
        if all && flag == "--quick" {
            quick = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                );
            }
            "--workload" if !all => workload = Some(value.clone()),
            "--seconds" if !all => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" if !all => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if all {
        return Ok(Command::All {
            seed: seed.unwrap_or(1),
            quick,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    Ok(Command::Run(RunArgs {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(BASE_SECONDS),
        trace: trace.unwrap_or(false),
    }))
}

/// Runs one workload in this process.
fn run(args: &RunArgs) -> Result<Outcome, String> {
    let seed = args.seed;
    let own = args.workload.as_str();
    if own.starts_with("play_") {
        play::preflight(harness::suite_seed(seed))?;
    }
    let play_n4f1 = || play::Play::set_up(4, 1, seed);
    let play_n10f3 = || play::Play::set_up(10, 3, seed);
    let sweep_small = || sweep::Sweep::set_up(seed);
    let flood_ring100k = || flood::FloodRing::set_up(seed);
    let mut outcome = match own {
        "play_n4f1" => run_own(&play::N4F1, args, play_n4f1),
        "play_n10f3" => run_own(&play::N10F3, args, play_n10f3),
        "sweep_small" => run_own(&sweep::SMALL, args, sweep_small),
        "flood_ring100k" => run_own(&flood::RING100K, args, flood_ring100k),
        other => unreachable!("{other} passed the argument check"),
    }?;
    if !args.trace {
        return Ok(outcome);
    }

    // The rest of the ledger, from short probes of the other workloads
    // (the two plays share their layers, so one play stands for both).
    let home = WORKLOADS
        .iter()
        .find(|w| w.name == own)
        .map(|w| w.home)
        .expect("the workload passed the argument check");
    let ledger = &mut outcome.metrics;
    let mut probes = Vec::new();
    if home != Home::Play {
        probes.push(harness::probe(PROBE_PLAYS, play_n4f1, ledger));
    }
    if home != Home::Sweep {
        probes.push(harness::probe(PROBE_SWEEPS, sweep_small, ledger));
    }
    if home != Home::Flood {
        probes.push(harness::probe(PROBE_ROUNDS, flood_ring100k, ledger));
    }
    for (attempted, failed) in probes {
        outcome.attempted += attempted;
        outcome.failed += failed;
    }
    Ok(outcome)
}

/// The invocation's own workload: the timed run, or the traced run with
/// its spans written to `trace_<workload>.json`.
fn run_own<W: harness::Workload>(
    spec: &harness::Spec,
    args: &RunArgs,
    make: impl Fn() -> W,
) -> Result<Outcome, String> {
    if !args.trace {
        return Ok(harness::run_timed(spec, args.seconds, make));
    }
    let (outcome, recorder) = harness::run_traced(spec, args.seconds, make);
    let path = out_dir().join(format!("trace_{}.json", spec.name));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| recorder.write_json(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Err(why) => Err(format!("{why}\n{USAGE}")),
        Ok(Command::All { seed, quick }) => report::run_all(seed, quick),
        Ok(Command::Run(args)) => run(&args).map(|outcome| {
            for (def, value) in outcome.metrics.rows() {
                println!("{:<32} {value:>16.6} {}", def.name, def.unit);
            }
            for (name, value) in &outcome.notes {
                println!("{name:<32} {value:>16.6}");
            }
            println!("{}", notes_json(&outcome).render());
            println!("{}", result_json(&outcome).render());
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ga-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

/// The line before the result line: what the run printed beside its
/// metrics, for `aa.sh` and the report.
fn notes_json(outcome: &Outcome) -> Json {
    let notes = outcome
        .notes
        .iter()
        .map(|&(name, value)| (name.to_string(), Json::Num(value)))
        .collect();
    Json::obj(vec![("notes", Json::Obj(notes))])
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .rows()
        .map(|(def, value)| {
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(def.unit)),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Uint(outcome.attempted)),
        ("failed", Json::Uint(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Def, END_TO_END, PER_LAYER};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_arguments_parse() {
        let parsed = parse(&args(
            "--workload play_n4f1 --seed 9 --seconds 20 --trace 1",
        ));
        assert_eq!(
            parsed,
            Ok(Command::Run(RunArgs {
                workload: "play_n4f1".into(),
                seed: 9,
                seconds: 20.0,
                trace: true,
            }))
        );
        assert_eq!(
            parse(&args("all --quick --seed 3")),
            Ok(Command::All {
                seed: 3,
                quick: true
            })
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload play_n4f1 --seed -1",
            "--workload play_n4f1 --seconds 0",
            "--workload play_n4f1 --seconds nan",
            "--workload play_n4f1 --trace 2",
            "--workload play_n4f1 --seed",
            "--workload play_n4f1 --quick",
            "all --workload play_n4f1",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} must be refused");
        }
    }

    /// `BENCHMARK.json` and the binary name the same workloads and
    /// metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let entries = doc.get(key).and_then(Json::as_arr).expect(key);
            entries
                .iter()
                .map(|e| {
                    let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let defined = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), defined(&END_TO_END));
        assert_eq!(listed("per_layer"), defined(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let specs: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, specs);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(BASE_SECONDS)
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut metrics = metrics::Ledger::new(&END_TO_END);
        metrics.set("ops_per_s_best", 12.5);
        let line = result_json(&Outcome {
            attempted: 10,
            failed: 1,
            metrics,
            notes: Vec::new(),
        })
        .render();
        assert!(line.starts_with(
            r#"{"correct":false,"attempted":10,"failed":1,"metrics":{"ops_per_s_best":{"value":12.5,"unit":"ops/s"},"#
        ));
        let doc = Json::parse(&line).expect("valid JSON");
        let Some(Json::Obj(fields)) = doc.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(fields.len(), END_TO_END.len());
    }
}
