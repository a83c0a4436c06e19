//! # ga-scenario — declarative scenarios and a deterministic sweep engine
//!
//! The paper's claims are statements over *families* of executions:
//! topologies × adversary mixes × fault schedules × churn × seeds. This
//! crate turns "run the protocol under environment X and check claim Y"
//! into data:
//!
//! * [`ScenarioSpec`](spec::ScenarioSpec) — a builder-style description of
//!   a simulator execution family: topology family, delivery model,
//!   adversary/colluder placement, a churn/fault
//!   [`Schedule`](ga_simnet::schedule::Schedule), the protocol under test
//!   and stop/verdict predicates. [`run(seed)`](record::Scenario::run)
//!   is a pure function of the seed.
//! * [`sweep`] — fans scenarios out over seed ranges and
//!   [`ParamGrid`](sweep::ParamGrid)s across a persistent
//!   [`Runtime`](ga_simnet::runtime::Runtime) worker pool — the same pool
//!   each run's sharded `Simulation::step` draws from, so one `--workers`
//!   budget covers both levels. Each run derives all randomness from its
//!   seed and lands in its own result slot, so aggregated
//!   [`SweepSummary`](sweep::SweepSummary) JSON is **byte-identical at
//!   any worker count and pool size**.
//! * [`suites`] — named suites for the `scenario` CLI: `paper` (the e1–e8
//!   experiment ports, see [`ports`]), `authority` (the §3.3 distributed-
//!   authority plays, see [`authority`]), `stabilize` (the recovery
//!   frontier, see [`stabilize`]), `unsupportive` (recurring corruption,
//!   see [`unsupportive`]), `examples`, `smoke`, `sparse`.
//! * [`spec::PlacementStrategy`] — seed-derived adversary placement
//!   families (`RandomF`, `WorstCaseByDegree`), so one spec covers every
//!   adversary position instead of one pinned id.
//!
//! ## Entry points: one full form per layer
//!
//! Every layer runs one way. The three execution knobs — the pool, the
//! per-run shard hint, the event plane — are arguments of the layer's
//! full form; the plain form beside it is a one-line call of the full
//! form on [`Runtime::global`](ga_simnet::runtime::Runtime::global) with
//! no shard hint. None of the knobs changes a record, a summary or an
//! event stream.
//!
//! | layer | plain | full | full, streaming / events |
//! | --- | --- | --- | --- |
//! | one run ([`Scenario`](record::Scenario)) | `run(seed)` | `run_on(seed, shards, &runtime)` | `run_telemetry(seed, shards, &runtime, telemetry)` |
//! | a sweep ([`sweep`]) | `sweep(name, scenarios, seeds, workers)` | `sweep_on(&runtime, …, workers, shards)` | `sweep_stream_on(&runtime, …, workers, shards, telemetry, sink)` |
//! | a named suite ([`Suite`](suites::Suite)) | `run(seeds, workers)` | `run_on(&runtime, seeds, workers, shards)` | `run_stream_on(&runtime, seeds, workers, shards, telemetry, sink)` |
//!
//! Under the sweeps, [`jobs_for`](sweep::jobs_for) enumerates
//! `scenarios × seeds` and [`run_jobs_on`](sweep::run_jobs_on) executes a
//! job list, handing records to a consumer in job order.
//!
//! ## Stabilization probes and the recovery frontier
//!
//! Self-stabilization claims are recovery-time statements, so
//! [`ScenarioSpec::stabilization`](spec::ScenarioSpec::stabilization)
//! makes the measurement declarative: the spec schedules a
//! [`CorruptionFamily`](ga_simnet::fault::CorruptionFamily) (a
//! [`ScheduledAction::Corrupt`](ga_simnet::schedule::ScheduledAction)
//! entry — corruption is spec data, exactly like churn) and declares the
//! protocol's *legal set* as a predicate. The probe evaluates legality
//! after every round and emits
//!
//! * `rounds_to_stabilize = last_illegal_round − corruption_round` when
//!   the run ends legal, and
//! * `censored = 1` (and **no** `rounds_to_stabilize`) when the budget
//!   runs out while the state is still illegal — percentiles aggregate
//!   over emitting runs only, so a diverged run never masquerades as a
//!   slow one.
//!
//! `scenario run --suite stabilize --table rounds_to_stabilize` renders
//! the frontier: each row is one `loss × corruption-intensity × n` grid
//! point, the `rate` column is the fraction of runs that stabilized
//! (censored runs fail their verdict) and the p50/p90/p99 columns are
//! stabilization-time percentiles over the runs that recovered. Reading
//! it: at `loss=0` the legal sets are closed, so rates are `1.00` and the
//! percentiles are pure recovery times; as loss and intensity grow the
//! percentiles widen and the rate falls below one — that boundary is the
//! protocol's stabilization frontier. See [`stabilize`].
//!
//! ## Telemetry: the two-plane rule
//!
//! Observability follows `ga_simnet::telemetry`'s split. The
//! *deterministic event plane* — per-message deliveries/drops, schedule
//! firings, corruption, scrambles, and the stabilization probe's legality
//! flips — rides in [`RunRecord::events`](record::RunRecord::events)
//! (enable via [`Scenario::run_telemetry`](record::Scenario::run_telemetry)
//! or `scenario run --events FILE`, render lines with
//! [`record::event_json`]) and is byte-identical at any workers × shards ×
//! pool combination. The *timing plane* — wall-clock step/merge/batch
//! profiles ([`Profiler`](ga_simnet::telemetry::Profiler), `--profile
//! FILE`) — is a side channel that never feeds summaries, records or
//! events. Per-round observables that must survive aggregation go through
//! [`ScenarioSpec::round_metric`](spec::ScenarioSpec::round_metric) and
//! the built-in `inbox_depth_mean`/`quiescent_mean` metrics instead.
//! `scenario trace events.jsonl` converts an event stream to Chrome
//! trace-event JSON loadable in Perfetto.
//!
//! ## Quickstart
//!
//! Flood a lossy ring and check the observed drop rate tracks the model:
//!
//! ```
//! use ga_scenario::prelude::*;
//!
//! let spec = ScenarioSpec::new(
//!     "lossy_ring",
//!     TopologyFamily::Ring(8),
//!     |_id, _n| Box::new(Flood::default()) as Box<dyn Process>,
//! )
//! .delivery(Delivery::Lossy { p: 0.25 })
//! .max_rounds(40)
//! .verdict(|_sim, record| {
//!     Verdict::check(
//!         (record.messages.lossy_drop_rate - 0.25).abs() < 0.2,
//!         "drop rate should track p",
//!     )
//! });
//!
//! // One run is a pure function of the seed…
//! let record = spec.run(7);
//! assert!(record.verdict.passed());
//! assert_eq!(record, spec.run(7));
//!
//! // …and a sweep aggregates many runs deterministically: the JSON is
//! // byte-identical no matter how many workers execute it.
//! let scenarios: Vec<std::sync::Arc<dyn Scenario>> = vec![std::sync::Arc::new(spec)];
//! let summary = sweep("demo", &scenarios, 0..8, 4);
//! assert_eq!(summary.runs(), 8);
//! assert_eq!(
//!     summary.to_json(true).render(),
//!     sweep("demo", &scenarios, 0..8, 1).to_json(true).render(),
//! );
//! ```
//!
//! Churn and faults are data too — a hub outage with recovery:
//!
//! ```
//! use ga_scenario::prelude::*;
//!
//! let spec = ScenarioSpec::new(
//!     "hub_outage",
//!     TopologyFamily::Star(6),
//!     |id, _n| Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>,
//! )
//! .schedule(
//!     Schedule::new()
//!         .at(2, ScheduledAction::Disconnect(ProcessId(0)))
//!         .at(6, ScheduledAction::Reconnect(ProcessId(0), (1..6).map(ProcessId).collect())),
//! )
//! .max_rounds(20)
//! .stop_when(|sim| ga_scenario::workload::gossip_agreed(sim, 0..6));
//!
//! assert!(spec.run(0).stopped_at.is_some(), "gossip survives the outage");
//! ```

pub mod authority;
pub mod bfs;
pub mod cli;
pub mod json;
pub mod ports;
pub mod record;
pub mod spec;
pub mod stabilize;
pub mod suites;
pub mod sweep;
pub mod unsupportive;
pub mod workload;

/// Convenient glob import for scenario authors.
pub mod prelude {
    pub use crate::bfs::BfsTree;
    pub use crate::record::{event_json, FnScenario, MessageStats, RunRecord, Scenario, Verdict};
    pub use crate::spec::{PlacementStrategy, Role, ScenarioSpec, TopologyFamily};
    pub use crate::suites::Suite;
    pub use crate::sweep::{
        expand_grid, sweep, sweep_on, sweep_stream_on, MetricAgg, ParamGrid, RecordSink,
        SweepSummary,
    };
    pub use crate::workload::{Flood, MaxGossip};
    pub use ga_simnet::prelude::*;
    pub use ga_simnet::sim::Delivery;
}
