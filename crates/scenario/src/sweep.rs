//! The deterministic parallel sweep engine.
//!
//! A sweep fans scenarios out over seed ranges (and, via [`ParamGrid`],
//! parameter grids) as worker-loop tasks on a persistent
//! [`Runtime`] pool — the same pool every run's sharded
//! `Simulation::step` draws from, so a thread budget is one number shared
//! by inter-run and intra-run parallelism. Determinism is structural, not
//! incidental:
//!
//! * every job is a pure function of `(scenario, seed)` — scenarios derive
//!   all randomness from the seed;
//! * jobs are enumerated in a fixed order and each worker writes its
//!   result into the job's own slot, so the record vector is independent
//!   of which worker ran what and of completion order;
//! * aggregation folds records in job order, fixing float summation order.
//!
//! Consequently the summary JSON is **byte-identical** at any worker
//! count, any pool size, and across process invocations — verified by
//! `tests/determinism.rs` and re-checked by `scripts/tier1.sh`.
//!
//! Nested submission is safe by the runtime's contract (see
//! [`ga_simnet::runtime`]): a sweep worker's job may itself submit shard
//! batches; even at a total budget of 1 the nesting runs inline and never
//! deadlocks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ga_simnet::runtime::{BatchTask, Runtime};
use ga_simnet::telemetry::TelemetryConfig;

use crate::json::Json;
use crate::record::{RunRecord, Scenario};

/// A parameter grid: named axes, swept as a cartesian product in axis
/// order (first axis outermost).
#[derive(Debug, Clone, Default)]
pub struct ParamGrid {
    axes: Vec<(String, Vec<f64>)>,
}

impl ParamGrid {
    /// An empty grid (one point with no parameters).
    pub fn new() -> ParamGrid {
        ParamGrid::default()
    }

    /// Adds an axis (builder-style).
    #[must_use]
    pub fn axis(mut self, name: impl Into<String>, values: impl Into<Vec<f64>>) -> ParamGrid {
        self.axes.push((name.into(), values.into()));
        self
    }

    /// Enumerates every grid point in deterministic order.
    pub fn points(&self) -> Vec<Vec<(String, f64)>> {
        let mut points: Vec<Vec<(String, f64)>> = vec![Vec::new()];
        for (name, values) in &self.axes {
            points = points
                .into_iter()
                .flat_map(|point| {
                    values.iter().map(move |&v| {
                        let mut p = point.clone();
                        p.push((name.clone(), v));
                        p
                    })
                })
                .collect();
        }
        points
    }
}

/// Expands `grid` × `make` into one scenario per grid point, with the
/// point's values stamped into the scenario name (`base[k=v,...]`) and
/// into every record's `params`.
pub fn expand_grid<S: Scenario + 'static>(
    base: &str,
    grid: &ParamGrid,
    make: impl Fn(&[(String, f64)]) -> S,
) -> Vec<Arc<dyn Scenario>> {
    grid.points()
        .into_iter()
        .map(|point| {
            let inner = make(&point);
            Arc::new(GridPoint {
                name: grid_point_name(base, &point),
                params: point,
                inner,
            }) as Arc<dyn Scenario>
        })
        .collect()
}

fn grid_point_name(base: &str, point: &[(String, f64)]) -> String {
    if point.is_empty() {
        return base.to_string();
    }
    let params: Vec<String> = point.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{base}[{}]", params.join(","))
}

/// A scenario bound to one grid point.
struct GridPoint<S: Scenario> {
    name: String,
    params: Vec<(String, f64)>,
    inner: S,
}

impl<S: Scenario> GridPoint<S> {
    fn stamp(&self, mut record: RunRecord) -> RunRecord {
        record.scenario = self.name.clone();
        record.params = self.params.clone();
        record
    }
}

impl<S: Scenario> Scenario for GridPoint<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, seed: u64) -> RunRecord {
        self.stamp(self.inner.run(seed))
    }

    fn run_on(&self, seed: u64, shards: usize, runtime: &Runtime) -> RunRecord {
        self.stamp(self.inner.run_on(seed, shards, runtime))
    }

    fn run_telemetry(
        &self,
        seed: u64,
        shards: usize,
        runtime: &Runtime,
        telemetry: Option<&TelemetryConfig>,
    ) -> RunRecord {
        self.stamp(self.inner.run_telemetry(seed, shards, runtime, telemetry))
    }

    fn supports_sharding(&self) -> bool {
        self.inner.supports_sharding()
    }
}

/// One unit of sweep work.
#[derive(Clone)]
pub struct Job {
    /// The scenario to run.
    pub scenario: Arc<dyn Scenario>,
    /// The seed to run it at.
    pub seed: u64,
}

/// Enumerates `scenarios × seeds` in deterministic (scenario-major) order.
pub fn jobs_for(
    scenarios: &[Arc<dyn Scenario>],
    seeds: impl Iterator<Item = u64> + Clone,
) -> Vec<Job> {
    scenarios
        .iter()
        .flat_map(|s| {
            seeds.clone().map(move |seed| Job {
                scenario: Arc::clone(s),
                seed,
            })
        })
        .collect()
}

/// A streaming consumer of finished records: called with `(job index,
/// record)` strictly in job order, as soon as every earlier job has also
/// finished — the contiguous-prefix rule that lets million-run sweeps
/// write stable-order JSONL while the sweep is still running.
pub type RecordSink<'a> = &'a mut (dyn FnMut(usize, &RunRecord) + Send);

/// Reorder ring shared by the sweep workers: `slots[i % window]` parks
/// jobs that finished ahead of the emission cursor (`next_emit` = first
/// job not yet handed to the consumer), and `emitting` marks that one
/// worker is currently draining the ready prefix **outside** the lock.
struct ReorderRing {
    slots: Vec<Option<RunRecord>>,
    next_emit: usize,
    emitting: bool,
    /// Set when any worker panics, so workers parked on the backpressure
    /// condvar abort instead of waiting for a slot that will never fill.
    poisoned: bool,
}

/// Drop guard armed for the whole life of a sweep worker: if the worker
/// unwinds (a panicking scenario run, sink, or consumer), mark the ring
/// poisoned and wake every parked worker so the sweep panics outward
/// instead of deadlocking on the gap the dead worker leaves behind.
struct PoisonOnPanic<'a> {
    ring: &'a Mutex<ReorderRing>,
    cursor_advanced: &'a Condvar,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The ring mutex may itself be poisoned by another worker's
            // panic; the flag write is still safe.
            self.ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .poisoned = true;
            self.cursor_advanced.notify_all();
        }
    }
}

/// How far ahead of the emission cursor workers may run before blocking.
/// This — not the sweep size — bounds the records held in memory, which
/// is what lets `--records` JSONL sweeps run at any seed count.
fn reorder_window(workers: usize, jobs: usize) -> usize {
    (workers * 4).max(16).min(jobs).max(1)
}

/// The executor behind the sweeps:
/// `workers` worker-loop tasks are submitted to `runtime` (so sweep-level
/// parallelism shares the pool's thread budget with everything else),
/// `shards` is passed to every scenario as the intra-run parallelism hint
/// ([`Scenario::run_on`] — sharded runs submit *nested* batches to the
/// same pool), `telemetry` switches the deterministic event plane on for
/// every run ([`Scenario::run_telemetry`] — the per-run event streams ride
/// in [`RunRecord::events`] and are themselves knob-independent), and
/// `consume` receives every record **owned, in job order**.
///
/// Two properties make the streaming path scale:
///
/// * **Bounded memory.** Finished records park in a fixed-size reorder
///   ring ([`reorder_window`]); a worker that runs further ahead than the
///   window blocks until the cursor catches up, so in-flight records
///   never exceed `window + workers` regardless of sweep size.
/// * **Emission outside the lock.** The worker that fills the gap at the
///   cursor takes the whole ready prefix out of the ring, releases the
///   slot lock, and only then runs the consumer (sink I/O included) — the
///   `emitting` flag keeps emitters exclusive and ordered, and other
///   workers keep computing instead of queueing behind the sink.
///
/// Everything the consumer observes is independent of all three knobs:
/// `runtime`/`workers`/`shards` change wall-clock time only.
///
/// Parking on the ring's backpressure condvar inside a pool task is safe
/// under the runtime's nested-submission contract: the worker owning the
/// cursor gap is *running* (never parked), so the wait is always
/// satisfied by a live task.
///
/// # Panics
///
/// Propagates panics from scenario runs: the panicking worker poisons the
/// reorder ring and wakes every parked worker (see [`PoisonOnPanic`]), so
/// the whole sweep drains and re-raises instead of deadlocking on the
/// never-filled slot.
pub fn run_jobs_on(
    runtime: &Runtime,
    jobs: &[Job],
    workers: usize,
    shards: usize,
    telemetry: Option<&TelemetryConfig>,
    consume: &mut (dyn FnMut(usize, RunRecord) + Send),
) {
    let workers = workers.clamp(1, jobs.len().max(1));
    let window = reorder_window(workers, jobs.len());
    let next = AtomicUsize::new(0);
    let ring = Mutex::new(ReorderRing {
        slots: (0..window).map(|_| None).collect(),
        next_emit: 0,
        emitting: false,
        poisoned: false,
    });
    let cursor_advanced = Condvar::new();
    // The consumer is one `&mut`; the `emitting` flag already keeps users
    // exclusive, but the mutex is what proves it to the compiler.
    let consume = Mutex::new(consume);

    let worker_tasks: Vec<BatchTask<'_>> = (0..workers)
        .map(|_| {
            let (ring, cursor_advanced, next, consume) = (&ring, &cursor_advanced, &next, &consume);
            Box::new(move || {
                let _guard = PoisonOnPanic {
                    ring,
                    cursor_advanced,
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let record = job
                        .scenario
                        .run_telemetry(job.seed, shards, runtime, telemetry);

                    let mut state = ring.lock().expect("no panicked worker");
                    // Backpressure: never overwrite a slot still awaiting
                    // emission one lap behind. The worker owning the cursor
                    // gap never waits here (its i < next_emit + window), so
                    // the prefix always eventually fills — unless that worker
                    // panicked, which poisons the ring and wakes us.
                    while !state.poisoned && i >= state.next_emit + window {
                        state = cursor_advanced.wait(state).expect("no panicked worker");
                    }
                    assert!(!state.poisoned, "a sweep worker panicked");
                    state.slots[i % window] = Some(record);
                    if state.emitting {
                        // The active emitter will pick this up on its next
                        // drain pass.
                        continue;
                    }
                    state.emitting = true;
                    loop {
                        let base = state.next_emit;
                        let mut batch = Vec::new();
                        loop {
                            let slot = state.next_emit % window;
                            let Some(ready) = state.slots[slot].take() else {
                                break;
                            };
                            batch.push(ready);
                            state.next_emit += 1;
                        }
                        if batch.is_empty() {
                            state.emitting = false;
                            break;
                        }
                        drop(state);
                        cursor_advanced.notify_all();
                        {
                            let mut consume = consume.lock().expect("no panicked consumer");
                            for (offset, record) in batch.into_iter().enumerate() {
                                consume(base + offset, record);
                            }
                        }
                        state = ring.lock().expect("no panicked worker");
                    }
                }
            }) as BatchTask<'_>
        })
        .collect();
    runtime.run_batch(worker_tasks);

    let state = ring.into_inner().expect("no panicked worker");
    debug_assert_eq!(state.next_emit, jobs.len(), "every job was consumed");
}

/// Nearest-rank percentile (`q` in `(0, 1]`) over values pre-sorted by
/// `f64::total_cmp` — a deterministic order even in the presence of
/// equal or non-finite values, so summary JSON stays byte-stable.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(p50, p90, p99)` of `values`, which arrive in job order and are
/// sorted on a copy here.
fn percentiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.90),
        percentile(&sorted, 0.99),
    )
}

/// One metric's aggregate across the runs that emitted it.
///
/// Metrics need not appear in every run (a probe may only report
/// `rounds_to_converge` on converged seeds), so the mean and percentiles
/// are over [`runs`](MetricAgg::runs), not the scenario's run count.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAgg {
    /// Metric name.
    pub name: String,
    /// Mean over the emitting runs.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Median (nearest-rank 50th percentile).
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Number of runs that emitted the metric.
    pub runs: u64,
}

impl MetricAgg {
    /// Aggregates one metric's values (in job order).
    fn from_values(name: String, values: &[f64]) -> MetricAgg {
        // Sum in job order so the mean is bit-identical to the serial fold.
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let (p50, p90, p99) = percentiles(values);
        MetricAgg {
            name,
            mean,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            p50,
            p90,
            p99,
            runs: values.len() as u64,
        }
    }
}

/// Per-scenario aggregates plus the records behind them.
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Sweep-parameter values shared by this scenario's runs (a grid
    /// point's axis values, in axis order; empty off-grid) — what lets
    /// cross-run tables plot aggregates against parameters without
    /// re-parsing scenario names. Not serialized into summary JSON.
    pub params: Vec<(String, f64)>,
    /// Number of runs.
    pub runs: u64,
    /// Runs whose verdict passed.
    pub passed: u64,
    /// Mean rounds per run.
    pub mean_rounds: f64,
    /// Median rounds per run (nearest rank).
    pub rounds_p50: f64,
    /// 90th-percentile rounds per run (nearest rank).
    pub rounds_p90: f64,
    /// 99th-percentile rounds per run (nearest rank).
    pub rounds_p99: f64,
    /// Mean loss-model drop rate.
    pub mean_drop_rate: f64,
    /// Per-metric aggregates, in first-appearance order.
    pub metrics: Vec<MetricAgg>,
}

impl ScenarioSummary {
    /// Looks an aggregate up by metric name.
    pub fn metric(&self, name: &str) -> Option<&MetricAgg> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Incremental, order-sensitive aggregation state for one scenario.
#[derive(Debug, Default)]
struct ScenarioGather {
    name: String,
    /// Axis values stamped on the scenario's records (taken from the
    /// first one; identical across a grid point's runs by construction).
    params: Vec<(String, f64)>,
    passed: u64,
    rounds: Vec<f64>,
    drop_rate_sum: f64,
    /// Per-metric values in job order, keyed in first-appearance order.
    metrics: Vec<(String, Vec<f64>)>,
}

impl ScenarioGather {
    fn finish(self) -> ScenarioSummary {
        let runs = self.rounds.len() as u64;
        let n = self.rounds.len().max(1) as f64;
        let (rounds_p50, rounds_p90, rounds_p99) = if self.rounds.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            percentiles(&self.rounds)
        };
        ScenarioSummary {
            name: self.name,
            params: self.params,
            runs,
            passed: self.passed,
            mean_rounds: self.rounds.iter().sum::<f64>() / n,
            rounds_p50,
            rounds_p90,
            rounds_p99,
            mean_drop_rate: self.drop_rate_sum / n,
            metrics: self
                .metrics
                .into_iter()
                .map(|(name, values)| MetricAgg::from_values(name, &values))
                .collect(),
        }
    }
}

/// Streaming aggregator: folds records **in job order** into per-scenario
/// summaries without retaining the records themselves — the memory-bounded
/// path behind both [`SweepSummary::new`] and the record-sink sweeps.
#[derive(Debug, Default)]
struct SummaryBuilder {
    scenarios: Vec<ScenarioGather>,
}

impl SummaryBuilder {
    /// An empty aggregator.
    pub fn new() -> SummaryBuilder {
        SummaryBuilder::default()
    }

    /// Folds one record in; callers must push in job order.
    pub fn push(&mut self, record: &RunRecord) {
        let entry = match self
            .scenarios
            .iter_mut()
            .find(|s| s.name == record.scenario)
        {
            Some(entry) => entry,
            None => {
                self.scenarios.push(ScenarioGather {
                    name: record.scenario.clone(),
                    params: record.params.clone(),
                    ..ScenarioGather::default()
                });
                self.scenarios.last_mut().expect("just pushed")
            }
        };
        entry.passed += u64::from(record.verdict.passed());
        entry.rounds.push(record.rounds as f64);
        entry.drop_rate_sum += record.messages.lossy_drop_rate;
        for (name, value) in &record.metrics {
            match entry.metrics.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(*value),
                None => entry.metrics.push((name.clone(), vec![*value])),
            }
        }
    }

    /// Finishes aggregation. `records` may be empty (streaming sweeps that
    /// already wrote them to a sink) or the full job-ordered record vector.
    pub fn finish(self, name: impl Into<String>, records: Vec<RunRecord>) -> SweepSummary {
        let mut total_runs = 0;
        let scenarios: Vec<ScenarioSummary> = self
            .scenarios
            .into_iter()
            .map(|g| {
                let s = g.finish();
                total_runs += s.runs;
                s
            })
            .collect();
        SweepSummary {
            name: name.into(),
            total_runs,
            records,
            scenarios,
        }
    }
}

/// The aggregated outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Suite or sweep name.
    pub name: String,
    /// Total runs aggregated (kept separately from `records`, which a
    /// streaming sweep leaves empty).
    total_runs: u64,
    /// All run records, in job order — empty when the sweep streamed them
    /// to a [`RecordSink`] instead of retaining them.
    pub records: Vec<RunRecord>,
    /// Per-scenario aggregates, in first-appearance order.
    pub scenarios: Vec<ScenarioSummary>,
}

impl SweepSummary {
    /// Aggregates `records` (already in job order).
    pub fn new(name: impl Into<String>, records: Vec<RunRecord>) -> SweepSummary {
        let mut builder = SummaryBuilder::new();
        for r in &records {
            builder.push(r);
        }
        builder.finish(name, records)
    }

    /// Total runs.
    pub fn runs(&self) -> u64 {
        self.total_runs
    }

    /// Runs whose verdict passed.
    pub fn passed(&self) -> u64 {
        self.scenarios.iter().map(|s| s.passed).sum()
    }

    /// Whether every run passed.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.runs()
    }

    /// Serializes the summary. With `include_records`, every per-run
    /// record is embedded; aggregates are always present.
    pub fn to_json(&self, include_records: bool) -> Json {
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name.clone())),
                    ("runs", Json::Uint(s.runs)),
                    ("passed", Json::Uint(s.passed)),
                    ("mean_rounds", Json::Num(s.mean_rounds)),
                    ("rounds_p50", Json::Num(s.rounds_p50)),
                    ("rounds_p90", Json::Num(s.rounds_p90)),
                    ("rounds_p99", Json::Num(s.rounds_p99)),
                    ("mean_drop_rate", Json::Num(s.mean_drop_rate)),
                    (
                        "metrics",
                        Json::Obj(
                            s.metrics
                                .iter()
                                .map(|m| {
                                    (
                                        m.name.clone(),
                                        Json::obj(vec![
                                            ("mean", Json::Num(m.mean)),
                                            ("min", Json::Num(m.min)),
                                            ("max", Json::Num(m.max)),
                                            ("p50", Json::Num(m.p50)),
                                            ("p90", Json::Num(m.p90)),
                                            ("p99", Json::Num(m.p99)),
                                            ("runs", Json::Uint(m.runs)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();

        let mut fields = vec![
            ("suite", Json::str(self.name.clone())),
            ("runs", Json::Uint(self.runs())),
            ("passed", Json::Uint(self.passed())),
            ("scenarios", Json::Arr(scenarios)),
        ];
        if include_records {
            fields.push((
                "records",
                Json::Arr(self.records.iter().map(RunRecord::to_json).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// Runs `scenarios × seeds` on `workers` threads of the process-wide
/// [`Runtime::global`] pool and aggregates: the plain form of
/// [`sweep_on`], every run serial.
pub fn sweep(
    name: &str,
    scenarios: &[Arc<dyn Scenario>],
    seeds: std::ops::Range<u64>,
    workers: usize,
) -> SweepSummary {
    sweep_on(&Runtime::global(), name, scenarios, seeds, workers, 1)
}

/// Runs `scenarios × seeds` and aggregates, drawing both the `workers`
/// sweep workers and every run's shard tasks from `runtime` — one pool,
/// one thread budget. `shards` is every run's `Simulation::step` shard
/// hint ([`Scenario::run_on`]; 1 = serial). The summary is byte-identical
/// at any `(pool size, workers, shards)` combination.
pub fn sweep_on(
    runtime: &Runtime,
    name: &str,
    scenarios: &[Arc<dyn Scenario>],
    seeds: std::ops::Range<u64>,
    workers: usize,
    shards: usize,
) -> SweepSummary {
    let jobs = jobs_for(scenarios, seeds);
    let records = {
        let mut records = Vec::with_capacity(jobs.len());
        run_jobs_on(runtime, &jobs, workers, shards, None, &mut |_, r| {
            records.push(r)
        });
        records
    };
    SweepSummary::new(name, records)
}

/// The streaming sweep: every finished record is handed to `sink` in job
/// order and then **dropped** — the summary aggregates incrementally and
/// carries no `records`, so memory stays bounded by the out-of-order
/// window regardless of sweep size. With `telemetry` set the
/// deterministic event plane is on for every run, and the sink reads each
/// run's events off [`RunRecord::events`] before the record is dropped.
#[allow(clippy::too_many_arguments)]
pub fn sweep_stream_on(
    runtime: &Runtime,
    name: &str,
    scenarios: &[Arc<dyn Scenario>],
    seeds: std::ops::Range<u64>,
    workers: usize,
    shards: usize,
    telemetry: Option<&TelemetryConfig>,
    sink: RecordSink<'_>,
) -> SweepSummary {
    let jobs = jobs_for(scenarios, seeds);
    let mut builder = SummaryBuilder::new();
    let mut consume = |i: usize, record: RunRecord| {
        sink(i, &record);
        builder.push(&record);
    };
    run_jobs_on(runtime, &jobs, workers, shards, telemetry, &mut consume);
    builder.finish(name, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FnScenario;

    fn toy(name: &'static str) -> Arc<dyn Scenario> {
        Arc::new(FnScenario::new(name, move |seed| {
            let mut r = RunRecord::new(name, seed);
            r.rounds = seed + 1;
            r.metric("x", seed as f64);
            r
        }))
    }

    #[test]
    fn grid_points_cartesian_in_order() {
        let grid = ParamGrid::new().axis("p", [0.0, 0.5]).axis("n", [4.0]);
        let points = grid.points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], vec![("p".into(), 0.0), ("n".into(), 4.0)]);
        assert_eq!(points[1], vec![("p".into(), 0.5), ("n".into(), 4.0)]);
        assert_eq!(ParamGrid::new().points(), vec![Vec::new()]);
    }

    #[test]
    fn expanded_grid_stamps_names_and_params() {
        let grid = ParamGrid::new().axis("p", [0.25]);
        let scenarios = expand_grid("base", &grid, |point| {
            let p = point[0].1;
            FnScenario::new("inner", move |seed| {
                let mut r = RunRecord::new("inner", seed);
                r.metric("p", p);
                r
            })
        });
        assert_eq!(scenarios[0].name(), "base[p=0.25]");
        let r = scenarios[0].run(1);
        assert_eq!(r.scenario, "base[p=0.25]");
        assert_eq!(r.params, vec![("p".to_string(), 0.25)]);
    }

    #[test]
    fn job_order_is_scenario_major() {
        let jobs = jobs_for(&[toy("a"), toy("b")], 0..3);
        let order: Vec<(String, u64)> = jobs
            .iter()
            .map(|j| (j.scenario.name().to_string(), j.seed))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".into(), 0),
                ("a".into(), 1),
                ("a".into(), 2),
                ("b".into(), 0),
                ("b".into(), 1),
                ("b".into(), 2),
            ]
        );
    }

    /// Every record of `jobs`, in job order, off the global pool.
    fn collect(jobs: &[Job], workers: usize) -> Vec<RunRecord> {
        let mut records = Vec::with_capacity(jobs.len());
        run_jobs_on(&Runtime::global(), jobs, workers, 0, None, &mut |_, r| {
            records.push(r)
        });
        records
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let scenarios = vec![toy("a"), toy("b"), toy("c")];
        let jobs = jobs_for(&scenarios, 0..5);
        let one = collect(&jobs, 1);
        for workers in [2, 4, 8, 64] {
            assert_eq!(collect(&jobs, workers), one, "workers={workers}");
        }
    }

    #[test]
    fn summary_aggregates_in_order() {
        let summary = sweep("s", &[toy("a"), toy("b")], 0..4, 2);
        assert_eq!(summary.runs(), 8);
        assert!(summary.all_passed());
        assert_eq!(summary.scenarios.len(), 2);
        let a = &summary.scenarios[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.runs, 4);
        assert!(
            (a.mean_rounds - 2.5).abs() < 1e-12,
            "seeds 0..4 → rounds 1..5"
        );
        let x = a.metric("x").unwrap();
        assert!((x.mean - 1.5).abs() < 1e-12);
        assert_eq!((x.min, x.max, x.runs), (0.0, 3.0, 4));
    }

    #[test]
    fn partial_metrics_average_over_emitting_runs_only() {
        // "conv" is only emitted on even seeds; its mean must be over the
        // emitting runs, and stay inside [min, max].
        let scenario: Arc<dyn Scenario> = Arc::new(FnScenario::new("partial", |seed| {
            let mut r = RunRecord::new("partial", seed);
            if seed % 2 == 0 {
                r.metric("conv", 10.0 + seed as f64);
            }
            r
        }));
        let summary = sweep("s", &[scenario], 0..4, 2);
        let conv = summary.scenarios[0].metric("conv").unwrap();
        assert_eq!(conv.runs, 2, "seeds 0 and 2 emit");
        assert!((conv.mean - 11.0).abs() < 1e-12, "(10 + 12) / 2");
        assert!(conv.min <= conv.mean && conv.mean <= conv.max);
        assert!(summary.scenarios[0].metric("missing").is_none());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let (p50, p90, p99) = percentiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((p50, p90, p99), (3.0, 5.0, 5.0));
        assert_eq!(percentiles(&[7.0]), (7.0, 7.0, 7.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentiles(&hundred), (50.0, 90.0, 99.0));
    }

    #[test]
    fn percentiles_single_element_and_all_equal_are_pinned() {
        // Nearest-rank on degenerate inputs: a single element is every
        // percentile, and all-equal vectors collapse to that value.
        assert_eq!(percentiles(&[0.0]), (0.0, 0.0, 0.0));
        assert_eq!(percentiles(&[2.5, 2.5, 2.5]), (2.5, 2.5, 2.5));
        // Two elements: rank ceil(0.5·2)=1 → first, ceil(0.9·2)=2 → last.
        assert_eq!(percentiles(&[1.0, 2.0]), (1.0, 2.0, 2.0));
        // Negative and unsorted input sorts before ranking.
        assert_eq!(percentiles(&[3.0, -1.0]), (-1.0, 3.0, 3.0));
    }

    #[test]
    fn summary_builder_with_no_records_is_empty() {
        // The empty-metric-vector edge: finishing an untouched builder
        // must produce a well-formed, renderable summary with zero runs
        // (and trivially all_passed), not divide by zero.
        let summary = SummaryBuilder::new().finish("empty", Vec::new());
        assert_eq!(summary.runs(), 0);
        assert_eq!(summary.passed(), 0);
        assert!(summary.all_passed(), "vacuously true");
        assert!(summary.scenarios.is_empty());
        let json = summary.to_json(true).render();
        assert!(json.contains("\"runs\":0"));
        assert!(json.contains("\"records\":[]"));
    }

    #[test]
    fn summary_builder_single_run_and_metricless_records() {
        // One record, no metrics: rounds percentiles pin to that run and
        // the metrics object stays empty rather than inventing entries.
        let mut builder = SummaryBuilder::new();
        let mut r = RunRecord::new("solo", 3);
        r.rounds = 9;
        builder.push(&r);
        let summary = builder.finish("s", Vec::new());
        let solo = &summary.scenarios[0];
        assert_eq!((solo.runs, solo.passed), (1, 1));
        assert_eq!(solo.mean_rounds, 9.0);
        assert_eq!(
            (solo.rounds_p50, solo.rounds_p90, solo.rounds_p99),
            (9.0, 9.0, 9.0)
        );
        assert!(solo.metrics.is_empty());
        assert!(solo.metric("anything").is_none());
    }

    #[test]
    fn summary_builder_all_equal_metric_values() {
        // All-equal metric values: mean, min, max and every percentile
        // must coincide exactly (no float drift from the fold order).
        let mut builder = SummaryBuilder::new();
        for seed in 0..5 {
            let mut r = RunRecord::new("const", seed);
            r.rounds = 4;
            r.metric("x", 1.25);
            builder.push(&r);
        }
        let summary = builder.finish("s", Vec::new());
        let x = summary.scenarios[0].metric("x").unwrap();
        assert_eq!(
            (x.mean, x.min, x.max, x.p50, x.p90, x.p99),
            (1.25, 1.25, 1.25, 1.25, 1.25, 1.25)
        );
        assert_eq!(x.runs, 5);
    }

    #[test]
    fn summary_carries_percentiles() {
        // Seeds 0..10 → metric x = seed, rounds = seed + 1.
        let summary = sweep("s", &[toy("a")], 0..10, 3);
        let a = &summary.scenarios[0];
        assert_eq!((a.rounds_p50, a.rounds_p90, a.rounds_p99), (5.0, 9.0, 10.0));
        let x = a.metric("x").unwrap();
        assert_eq!((x.p50, x.p90, x.p99), (4.0, 8.0, 9.0));
        assert!(x.min <= x.p50 && x.p50 <= x.p90 && x.p90 <= x.p99 && x.p99 <= x.max);
        let json = summary.to_json(false).render();
        assert!(json.contains("\"rounds_p50\":5"));
        assert!(json.contains("\"p99\":9"));
    }

    #[test]
    fn streamed_records_arrive_in_job_order_and_summary_matches() {
        let scenarios = vec![toy("a"), toy("b")];
        let batch = sweep("s", &scenarios, 0..6, 4);
        for workers in [1, 3, 8] {
            let mut seen: Vec<(usize, String, u64)> = Vec::new();
            let mut sink = |i: usize, r: &RunRecord| {
                seen.push((i, r.scenario.clone(), r.seed));
            };
            let streamed = sweep_stream_on(
                &Runtime::global(),
                "s",
                &scenarios,
                0..6,
                workers,
                1,
                None,
                &mut sink,
            );
            assert_eq!(
                seen.iter().map(|(i, _, _)| *i).collect::<Vec<_>>(),
                (0..12).collect::<Vec<_>>(),
                "workers={workers}: emission is in job order"
            );
            assert_eq!(
                seen.iter()
                    .map(|(_, s, seed)| (s.clone(), *seed))
                    .collect::<Vec<_>>(),
                batch
                    .records
                    .iter()
                    .map(|r| (r.scenario.clone(), r.seed))
                    .collect::<Vec<_>>()
            );
            assert!(streamed.records.is_empty(), "streaming retains no records");
            assert_eq!(streamed.runs(), batch.runs());
            assert_eq!(
                streamed.to_json(false).render(),
                batch.to_json(false).render(),
                "streaming aggregation matches batch aggregation"
            );
        }
    }

    #[test]
    fn ordered_emission_survives_ring_wraparound() {
        // 500 jobs through an 8-worker executor (reorder window 32) wrap
        // the ring many times; emission must stay exactly job-ordered and
        // lose nothing to backpressure.
        let scenarios = vec![toy("a")];
        let jobs = jobs_for(&scenarios, 0..500);
        assert!(reorder_window(8, jobs.len()) < jobs.len());
        let mut indexes = Vec::new();
        run_jobs_on(&Runtime::global(), &jobs, 8, 1, None, &mut |i, r| {
            assert_eq!(r.seed, i as u64, "slot {i} holds its own job's record");
            indexes.push(i);
        });
        assert_eq!(indexes, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_run_propagates_instead_of_hanging() {
        // A panicked job leaves a permanent gap at the emission cursor;
        // the poison flag must wake parked workers so the batch drains
        // and the runtime re-raises the panic rather than deadlock the
        // sweep on the never-filled slot.
        let bomb: Arc<dyn Scenario> = Arc::new(FnScenario::new("bomb", |seed| {
            assert_ne!(seed, 10, "boom");
            RunRecord::new("bomb", seed)
        }));
        let jobs = jobs_for(&[bomb], 0..200);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            collect(&jobs, 8);
        }));
        assert!(outcome.is_err(), "the seed-10 panic must propagate");
    }

    #[test]
    fn reorder_window_is_bounded_and_positive() {
        assert_eq!(reorder_window(1, 0), 1);
        assert_eq!(reorder_window(1, 5), 5);
        assert_eq!(reorder_window(4, 1_000_000), 16);
        assert_eq!(reorder_window(16, 1_000_000), 64);
    }

    #[test]
    fn sharded_sweep_summary_is_byte_identical() {
        let scenarios = vec![toy("a"), toy("b")];
        let baseline = sweep("s", &scenarios, 0..4, 2).to_json(true).render();
        for shards in [2, 4] {
            assert_eq!(
                sweep_on(&Runtime::global(), "s", &scenarios, 0..4, 2, shards)
                    .to_json(true)
                    .render(),
                baseline,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn summary_json_identical_across_worker_counts() {
        let scenarios = vec![toy("a"), toy("b")];
        let render = |workers| {
            sweep("det", &scenarios, 0..6, workers)
                .to_json(true)
                .render()
        };
        let baseline = render(1);
        assert_eq!(render(2), baseline);
        assert_eq!(render(8), baseline);
    }
}
