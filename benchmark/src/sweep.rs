//! `sweep_small`: one op is the `smoke` suite then the `unsupportive`
//! suite, each swept serially, summarised and rendered to JSON — what
//! `scenario run --suite …` does, minus process start.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ga_scenario::record::{RunRecord, Scenario};
use ga_scenario::spec::TopologyFamily;
use ga_scenario::suites::{self, Suite};
use ga_scenario::sweep::{jobs_for, run_jobs_on, sweep_on, SweepSummary};
use ga_simnet::prelude::*;

#[cfg(test)]
use crate::harness::SUITE_SEEDS;
use crate::harness::{ns_per_call, suite_seed, Counters, Segment, Spec, Workload};
use crate::metrics::{Home, Ledger};
use crate::span::{Recorder, Span, ROOT};
use crate::stats::{mean_at, middle_half};

/// 59 short runs on n ≤ 16 with loss, churn, partitions, colluders and
/// recurring corruption: the work is `ga-scenario` itself.
pub const SMALL: Spec = Spec {
    name: "sweep_small",
    home: Home::Sweep,
    base_ops: 3_200,
    setups: 251,
};

/// Runs one op must make: 9 scenarios × 3 seeds + 16 × 2.
const RUNS_PER_OP: u64 = 59;

/// The two suites of one op, in order, with the seeds each runs at.
struct Plan {
    suite: Suite,
    seeds: Range<u64>,
}

fn plans(seed: u64) -> [Plan; 2] {
    let offset = suite_seed(seed);
    ["smoke", "unsupportive"].map(|name| {
        let suite = suites::find(name).expect("the suite is registered");
        let first = suite.seed_base + offset;
        Plan {
            seeds: first..first + suite.default_seeds,
            suite,
        }
    })
}

/// What one suite of an op produced.
struct Output {
    summary: SweepSummary,
    json: String,
}

/// The first op's outputs, which every later op must reproduce.
struct Reference {
    json: [String; 2],
    unsupportive_passed: u64,
}

/// The two suites, the reference outputs and the counters.
pub struct Sweep {
    plans: [Plan; 2],
    runtime: Runtime,
    last: Option<[Output; 2]>,
    reference: Reference,
    counters: Counters,
    names: Option<Names>,
}

/// Span name ids used by the traced op.
struct Names {
    op: u16,
    spec_build: u16,
    dispatch: [u16; 2],
    /// `scenario.run/<name>`, per suite and scenario position.
    run: [Vec<u16>; 2],
    aggregate: u16,
    to_json: u16,
    render: u16,
}

impl Sweep {
    /// Resolves the suites and runs the warm-up op, whose outputs become
    /// the reference.
    ///
    /// # Panics
    ///
    /// Panics if the warm-up op fails its check.
    pub fn set_up(seed: u64) -> Sweep {
        let mut sweep = Sweep {
            plans: plans(seed),
            runtime: Runtime::serial(),
            last: None,
            reference: Reference {
                json: [String::new(), String::new()],
                unsupportive_passed: 0,
            },
            counters: Counters::default(),
            names: None,
        };
        sweep.op();
        let [smoke, unsupportive] = sweep.last.as_ref().expect("the op left its outputs");
        sweep.reference = Reference {
            json: [smoke.json.clone(), unsupportive.json.clone()],
            unsupportive_passed: unsupportive.summary.passed(),
        };
        assert!(sweep.check(), "the warm-up sweep is correct");
        sweep
    }
}

impl Workload for Sweep {
    fn op(&mut self) {
        let runtime = &self.runtime;
        self.last = Some(self.plans.each_ref().map(|plan| {
            let summary = sweep_on(
                runtime,
                plan.suite.name,
                &plan.suite.scenarios(),
                plan.seeds.clone(),
                1,
                1,
            );
            let json = summary.to_json(true).render();
            Output { summary, json }
        }));
    }

    fn op_traced(&mut self, rec: &mut Recorder, op: u32) {
        let names = self.names.take().unwrap_or_else(|| Names {
            op: rec.intern("op"),
            spec_build: rec.intern("scenario.spec_build"),
            dispatch: [
                rec.intern("sweep.dispatch/smoke"),
                rec.intern("sweep.dispatch/unsupportive"),
            ],
            run: self.plans.each_ref().map(|plan| {
                let scenarios = plan.suite.scenarios();
                let names = scenarios
                    .iter()
                    .map(|s| format!("scenario.run/{}", s.name()));
                names.map(|name| rec.intern(&name)).collect()
            }),
            aggregate: rec.intern("summary.aggregate"),
            to_json: rec.intern("summary.to_json"),
            render: rec.intern("summary.render"),
        });
        let parent = rec.open(names.op, ROOT, op);
        let mut outputs = Vec::with_capacity(2);
        for (which, plan) in self.plans.iter().enumerate() {
            // `sweep_on` taken apart into its three public steps, so each
            // gets a span; the scenarios time their own runs.
            let span = rec.open(names.spec_build, parent, op);
            let log = Arc::new(Mutex::new(Vec::with_capacity(RUNS_PER_OP as usize)));
            let scenarios: Vec<Arc<dyn Scenario>> = plan
                .suite
                .scenarios()
                .into_iter()
                .enumerate()
                .map(|(index, inner)| {
                    Arc::new(TimedScenario {
                        inner,
                        index,
                        epoch: rec.epoch(),
                        log: Arc::clone(&log),
                    }) as Arc<dyn Scenario>
                })
                .collect();
            rec.close(span);

            let dispatch = rec.open(names.dispatch[which], parent, op);
            let jobs = jobs_for(&scenarios, plan.seeds.clone());
            let mut records = Vec::with_capacity(jobs.len());
            run_jobs_on(&self.runtime, &jobs, 1, 1, None, &mut |_, r| {
                records.push(r)
            });
            rec.close(dispatch);
            for (scenario, start_ns, end_ns) in log.lock().expect("no run panicked").drain(..) {
                rec.push(Span {
                    name: names.run[which][scenario],
                    start_ns,
                    end_ns,
                    parent: dispatch,
                    op,
                });
            }

            let span = rec.open(names.aggregate, parent, op);
            let summary = SweepSummary::new(plan.suite.name, records);
            rec.close(span);
            let span = rec.open(names.to_json, parent, op);
            let tree = summary.to_json(true);
            rec.close(span);
            let span = rec.open(names.render, parent, op);
            let json = tree.render();
            drop(tree);
            rec.close(span);
            outputs.push(Output { summary, json });
        }
        rec.close(parent);
        self.names = Some(names);
        self.last = Some(
            outputs
                .try_into()
                .unwrap_or_else(|_| unreachable!("one output per suite")),
        );
    }

    fn check(&mut self) -> bool {
        let Some([smoke, unsupportive]) = self.last.take() else {
            return false;
        };
        for record in smoke
            .summary
            .records
            .iter()
            .chain(&unsupportive.summary.records)
        {
            self.counters.bytes += record.messages.bytes;
            self.counters.rounds += record.rounds;
            self.counters.messages += record.messages.delivered;
        }
        smoke.summary.all_passed()
            && smoke.summary.runs() + unsupportive.summary.runs() == RUNS_PER_OP
            && unsupportive.summary.passed() == self.reference.unsupportive_passed
            && smoke.json == self.reference.json[0]
            && unsupportive.json == self.reference.json[1]
    }

    fn counters(&self) -> Counters {
        self.counters
    }

    fn spans_per_op(&self) -> usize {
        // The op, and per suite: build, dispatch, three summary steps and
        // one span per run.
        1 + 2 * 5 + RUNS_PER_OP as usize
    }

    fn layers(&mut self, traced: &Segment, rec: &Recorder, ledger: &mut Ledger) {
        // Every part is a mean over the middle half of the traced ops by
        // duration, so the parts add up to those ops' mean time.
        let parts = Parts::of(rec, traced.ops());
        let typical = middle_half(&traced.op_ns);
        let ms = |column: &[u64]| mean_at(&typical, |op| column[op]) / 1e6;
        ledger.set("scenario.spec_build_ms", ms(&parts.spec_build));
        ledger.set("scenario.run_ms.smoke", ms(&parts.runs[0]));
        ledger.set("scenario.run_ms.unsupportive", ms(&parts.runs[1]));
        ledger.set("sweep.dispatch_ms", ms(&parts.dispatch));
        ledger.set("summary.aggregate_ms", ms(&parts.aggregate));
        ledger.set("summary.to_json_ms", ms(&parts.to_json));
        ledger.set("summary.render_ms", ms(&parts.render));

        let rounds = traced.per_op(traced.counters.rounds);
        ledger.set(
            "scenario.us_per_round",
            (ms(&parts.runs[0]) + ms(&parts.runs[1])) * 1e3 / rounds,
        );
        ledger.set("scenario.rounds_per_run", rounds / RUNS_PER_OP as f64);
        ledger.set(
            "scenario.msgs_per_run",
            traced.per_op(traced.counters.messages) / RUNS_PER_OP as f64,
        );
        ledger.set(
            "summary.json_bytes",
            self.reference.json.iter().map(String::len).sum::<usize>() as f64,
        );

        // The topology families the two suites build, one of each shape.
        let families = [
            TopologyFamily::Complete(8),
            TopologyFamily::Ring(12),
            TopologyFamily::Star(9),
            TopologyFamily::Grid(3, 3),
        ];
        let per_four = ns_per_call(31, 64, || {
            for family in &families {
                std::hint::black_box(family.build(0));
            }
        });
        ledger.set(
            "scenario.topology_build_us",
            per_four / families.len() as f64 / 1e3,
        );
    }
}

/// Per traced op, the nanoseconds under each span name (both suites
/// added together, except the runs).
struct Parts {
    spec_build: Vec<u64>,
    /// Self time of the two dispatch spans: `run_jobs_on` minus the runs.
    dispatch: Vec<u64>,
    /// Σ run spans, `[smoke, unsupportive]`.
    runs: [Vec<u64>; 2],
    aggregate: Vec<u64>,
    to_json: Vec<u64>,
    render: Vec<u64>,
}

impl Parts {
    fn of(rec: &Recorder, ops: usize) -> Parts {
        let zeros = || vec![0u64; ops];
        let mut parts = Parts {
            spec_build: zeros(),
            dispatch: zeros(),
            runs: [zeros(), zeros()],
            aggregate: zeros(),
            to_json: zeros(),
            render: zeros(),
        };
        let own = rec.self_times();
        for (i, span) in rec.spans().iter().enumerate() {
            let op = span.op as usize;
            let name = rec.name(span.name);
            match name {
                "op" => {}
                "scenario.spec_build" => parts.spec_build[op] += span.duration_ns(),
                "summary.aggregate" => parts.aggregate[op] += span.duration_ns(),
                "summary.to_json" => parts.to_json[op] += span.duration_ns(),
                "summary.render" => parts.render[op] += span.duration_ns(),
                "sweep.dispatch/smoke" | "sweep.dispatch/unsupportive" => {
                    parts.dispatch[op] += own[i];
                }
                _ => {
                    assert!(name.starts_with("scenario.run/"), "unknown span {name}");
                    let suite = rec.name(rec.spans()[span.parent as usize].name);
                    let which = usize::from(suite == "sweep.dispatch/unsupportive");
                    parts.runs[which][op] += span.duration_ns();
                }
            }
        }
        parts
    }
}

/// A scenario that notes when each of its runs started and ended.
struct TimedScenario {
    inner: Arc<dyn Scenario>,
    /// Position in the suite.
    index: usize,
    epoch: Instant,
    log: RunLog,
}

/// `(scenario index, start_ns, end_ns)` of every run, in finishing order.
type RunLog = Arc<Mutex<Vec<(usize, u64, u64)>>>;

impl Scenario for TimedScenario {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, seed: u64) -> RunRecord {
        self.run_on(seed, 0, &Runtime::serial())
    }

    fn run_on(&self, seed: u64, shards: usize, runtime: &Runtime) -> RunRecord {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let record = self.inner.run_on(seed, shards, runtime);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .expect("no run panicked")
            .push((self.index, start_ns, end_ns));
        record
    }

    fn supports_sharding(&self) -> bool {
        self.inner.supports_sharding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_traced_op_gives_the_same_outputs_and_its_parts_add_up() {
        let mut sweep = Sweep::set_up(0);
        let ops = 9;
        let mut rec = Recorder::with_capacity(ops * sweep.spans_per_op());
        for op in 0..ops {
            sweep.op_traced(&mut rec, op as u32);
            assert!(sweep.check(), "traced op {op} reproduces the reference");
        }
        assert_eq!(rec.spans().len(), ops * sweep.spans_per_op());

        // spec build + dispatch + runs + aggregate + to_json + render
        // cover the op within 2 %: what an op span keeps for itself is
        // the recorder's work between two parts. Judged on the median op,
        // since a pre-empted gap says nothing about the instrumentation.
        let own = rec.self_times();
        let mut uncovered: Vec<f64> = rec
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == ROOT)
            .map(|(i, s)| own[i] as f64 / s.duration_ns() as f64)
            .collect();
        uncovered.sort_by(f64::total_cmp);
        assert!(
            uncovered[ops / 2] < 0.02,
            "ops keep {uncovered:?} of their time outside every part"
        );

        // The same through the reported parts.
        let op_ns: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(Span::duration_ns)
            .collect();
        let typical = middle_half(&op_ns);
        let parts = Parts::of(&rec, ops);
        let mean = |column: &[u64]| mean_at(&typical, |op| column[op]);
        let total = mean(&parts.spec_build)
            + mean(&parts.dispatch)
            + mean(&parts.runs[0])
            + mean(&parts.runs[1])
            + mean(&parts.aggregate)
            + mean(&parts.to_json)
            + mean(&parts.render);
        let whole = mean(&op_ns);
        assert!(
            (total / whole - 1.0).abs() < 0.02,
            "parts sum to {total} ns against an op of {whole} ns"
        );
    }

    #[test]
    fn an_output_that_differs_from_the_first_fails_the_check() {
        let mut sweep = Sweep::set_up(3);
        sweep.op();
        assert!(sweep.check());
        assert!(!sweep.check(), "no op, no outputs");
        sweep.op();
        sweep.reference.json[1].push(' ');
        assert!(!sweep.check(), "one byte off is a failure");
    }

    /// The claim behind [`SUITE_SEEDS`]: whatever `--seed` is given, the
    /// `smoke` runs it selects pass their verdicts.
    #[test]
    fn every_suite_seed_passes_the_smoke_verdicts() {
        let smoke = suites::find("smoke").expect("registered");
        let last = smoke.seed_base + SUITE_SEEDS - 1 + smoke.default_seeds;
        for scenario in smoke.scenarios() {
            for seed in smoke.seed_base..last {
                let record = scenario.run_on(seed, 1, &Runtime::serial());
                assert!(
                    record.verdict.passed(),
                    "{} at seed {seed}: {:?}",
                    record.scenario,
                    record.verdict
                );
            }
        }
    }

    #[test]
    fn a_seed_moves_both_suites_off_their_first_seed_together() {
        let [smoke, unsupportive] = plans(SUITE_SEEDS + 5);
        assert_eq!(smoke.seeds, 5..8);
        assert_eq!(unsupportive.seeds, 85..87);
    }
}
