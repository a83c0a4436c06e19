//! Structured per-run results: [`RunRecord`], [`Verdict`] and the
//! [`Scenario`] abstraction the sweep engine executes.

use ga_simnet::runtime::Runtime;
use ga_simnet::telemetry::{Event, TelemetryConfig};
use ga_simnet::trace::Trace;

use crate::json::Json;

/// Did the run support the claim the scenario encodes?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The claim held.
    Pass,
    /// The claim failed; the string says which check broke.
    Fail(String),
}

impl Verdict {
    /// Pass if `ok`, otherwise a failure carrying `why`.
    pub fn check(ok: bool, why: &str) -> Verdict {
        if ok {
            Verdict::Pass
        } else {
            Verdict::Fail(why.to_string())
        }
    }

    /// Combines two verdicts: the first failure wins.
    #[must_use]
    pub fn and(self, other: Verdict) -> Verdict {
        match self {
            Verdict::Pass => other,
            fail => fail,
        }
    }

    /// Whether the verdict is a pass.
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

/// Message accounting lifted out of a simulation [`Trace`] (all zero for
/// scenarios that do not run the simulator).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStats {
    /// Messages delivered.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Drops: destination not a neighbor.
    pub dropped_no_link: u64,
    /// Drops: loss model.
    pub dropped_lossy: u64,
    /// Drops: transient-fault injection.
    pub dropped_fault: u64,
    /// Observed loss-model drop rate in `[0, 1]`.
    pub lossy_drop_rate: f64,
}

impl MessageStats {
    /// Extracts the counters from a trace.
    pub fn from_trace(trace: &Trace) -> MessageStats {
        MessageStats {
            delivered: trace.messages_delivered,
            bytes: trace.bytes_delivered,
            dropped_no_link: trace.messages_dropped_no_link,
            dropped_lossy: trace.messages_dropped_lossy,
            dropped_fault: trace.messages_dropped_fault,
            lossy_drop_rate: trace.lossy_drop_rate(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("delivered", Json::Uint(self.delivered)),
            ("bytes", Json::Uint(self.bytes)),
            ("dropped_no_link", Json::Uint(self.dropped_no_link)),
            ("dropped_lossy", Json::Uint(self.dropped_lossy)),
            ("dropped_fault", Json::Uint(self.dropped_fault)),
            ("lossy_drop_rate", Json::Num(self.lossy_drop_rate)),
        ])
    }
}

/// The structured result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Scenario name (including any parameter suffix).
    pub scenario: String,
    /// The seed this run derived all randomness from.
    pub seed: u64,
    /// Sweep-parameter values for this run, in axis order.
    pub params: Vec<(String, f64)>,
    /// Rounds executed (0 for non-simulator scenarios).
    pub rounds: u64,
    /// Round at which the stop predicate held, if one was set and held.
    pub stopped_at: Option<u64>,
    /// The scenario's claim, checked against this run.
    pub verdict: Verdict,
    /// Named measurements, in the order the scenario emitted them.
    pub metrics: Vec<(String, f64)>,
    /// Message accounting.
    pub messages: MessageStats,
    /// Deterministic telemetry events retained by the run's
    /// [`EventSink`](ga_simnet::telemetry::EventSink) ring, oldest first.
    /// Empty unless the run executed with the event plane enabled
    /// ([`Scenario::run_telemetry`]). Deliberately **not** part of
    /// [`to_json`](RunRecord::to_json) — the event stream has its own
    /// channel (`scenario run --events`, rendered via [`event_json`]) so
    /// record/summary JSON stays unchanged whether or not events are on.
    pub events: Vec<Event>,
    /// Events the run's ring overwrote before [`events`](RunRecord::events)
    /// was taken: non-zero means `events` is only the run's last
    /// `capacity` events. Like `events`, not part of
    /// [`to_json`](RunRecord::to_json).
    pub events_overwritten: u64,
}

impl RunRecord {
    /// A blank record for `scenario` at `seed`; scenarios fill the rest in.
    pub fn new(scenario: impl Into<String>, seed: u64) -> RunRecord {
        RunRecord {
            scenario: scenario.into(),
            seed,
            params: Vec::new(),
            rounds: 0,
            stopped_at: None,
            verdict: Verdict::Pass,
            metrics: Vec::new(),
            messages: MessageStats::default(),
            events: Vec::new(),
            events_overwritten: 0,
        }
    }

    /// Appends a named measurement.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Looks up a metric by name.
    pub fn get_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Folds `verdict` into the record (first failure wins).
    pub fn require(&mut self, ok: bool, why: &str) -> &mut Self {
        self.verdict =
            std::mem::replace(&mut self.verdict, Verdict::Pass).and(Verdict::check(ok, why));
        self
    }

    /// Serializes the record.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scenario", Json::str(self.scenario.clone())),
            ("seed", Json::Uint(self.seed)),
        ];
        if !self.params.is_empty() {
            fields.push((
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ));
        }
        fields.push(("rounds", Json::Uint(self.rounds)));
        fields.push((
            "stopped_at",
            match self.stopped_at {
                Some(r) => Json::Uint(r),
                None => Json::Null,
            },
        ));
        fields.push((
            "verdict",
            match &self.verdict {
                Verdict::Pass => Json::str("pass"),
                Verdict::Fail(why) => Json::str(format!("fail: {why}")),
            },
        ));
        fields.push((
            "metrics",
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        fields.push(("messages", self.messages.to_json()));
        Json::obj(fields)
    }
}

/// Renders one deterministic telemetry event as a JSON object for the
/// `--events` JSONL stream, stamped with its run coordinates. Field order
/// is fixed, so the rendered stream inherits the event plane's
/// byte-identity across workers × shards × pool size.
pub fn event_json(scenario: &str, seed: u64, event: &Event) -> Json {
    let mut fields = vec![
        ("scenario", Json::str(scenario)),
        ("seed", Json::Uint(seed)),
        ("kind", Json::str(event.kind())),
        ("round", Json::Uint(event.round())),
    ];
    match event {
        Event::RoundStart { .. } => {}
        Event::RoundEnd { delivered, .. } => {
            fields.push(("delivered", Json::Uint(*delivered)));
        }
        Event::Delivered {
            from, to, bytes, ..
        } => {
            fields.push(("from", Json::Uint(from.index() as u64)));
            fields.push(("to", Json::Uint(to.index() as u64)));
            fields.push(("bytes", Json::Uint(*bytes as u64)));
        }
        Event::Dropped {
            from, to, reason, ..
        } => {
            fields.push(("from", Json::Uint(from.index() as u64)));
            fields.push(("to", Json::Uint(to.index() as u64)));
            fields.push(("reason", Json::str(reason.label())));
        }
        Event::ScheduleFired { action, .. } => {
            fields.push(("action", Json::str(*action)));
        }
        Event::CorruptionApplied {
            targets, dropped, ..
        } => {
            fields.push(("targets", Json::Uint(*targets as u64)));
            fields.push(("dropped", Json::Uint(*dropped)));
        }
        Event::Scrambled { id, .. } => {
            fields.push(("id", Json::Uint(id.index() as u64)));
        }
        Event::LegalityFlip { legal, .. } => {
            fields.push(("legal", Json::Bool(*legal)));
        }
    }
    Json::obj(fields)
}

/// Anything the sweep engine can execute: a named, seedable, pure
/// computation producing a [`RunRecord`].
///
/// Implementations must be pure functions of `(self, seed)` — no ambient
/// randomness, clocks or I/O — so records are identical no matter which
/// worker thread executes them and sweeps aggregate deterministically.
pub trait Scenario: Send + Sync {
    /// Scenario name (stable; used in summaries and CLI selection).
    fn name(&self) -> &str;

    /// Executes one run: the plain form, on the process-wide pool with no
    /// shard hint.
    fn run(&self, seed: u64) -> RunRecord;

    /// Executes one run with an intra-run parallelism hint, drawing that
    /// parallelism from `runtime`: simulator-backed scenarios shard
    /// `Simulation::step` across `shards` threads of the pool (1 = serial).
    /// The sweep engine calls this so one persistent pool backs both the
    /// sweep's workers and every run's sharded stepping (`--workers` is
    /// one global thread budget).
    ///
    /// Shards and pool are execution knobs, never semantic ones — the
    /// record must be identical at every shard count and on every pool
    /// (sharded stepping is byte-identical to serial, see
    /// `ga_simnet::sim::Simulation::step`). The default ignores both,
    /// which is trivially conformant for pure computations.
    fn run_on(&self, seed: u64, shards: usize, runtime: &Runtime) -> RunRecord {
        let _ = (shards, runtime);
        self.run(seed)
    }

    /// [`run_on`](Scenario::run_on) with the deterministic telemetry
    /// event plane switched on: simulator-backed scenarios attach an
    /// [`EventSink`](ga_simnet::telemetry::EventSink) sized by `telemetry`
    /// and return the retained events in
    /// [`RunRecord::events`]. `None` (or the default implementation,
    /// which is trivially conformant for pure computations that step no
    /// simulator) leaves the event plane off and `events` empty. Events
    /// are part of the deterministic plane — the stream must be identical
    /// at every shard count and on every pool, like the record itself.
    fn run_telemetry(
        &self,
        seed: u64,
        shards: usize,
        runtime: &Runtime,
        telemetry: Option<&TelemetryConfig>,
    ) -> RunRecord {
        let _ = telemetry;
        self.run_on(seed, shards, runtime)
    }

    /// Whether [`run_on`](Scenario::run_on) actually honors the
    /// shard hint (default false — pure computations step no simulator).
    /// Sweep frontends use this to avoid carving a thread budget up for
    /// sharding that would buy nothing.
    fn supports_sharding(&self) -> bool {
        false
    }
}

/// A [`Scenario`] defined by a closure — the porting vehicle for
/// experiments that are direct computations rather than simulator runs.
pub struct FnScenario {
    name: String,
    f: Box<dyn Fn(u64) -> RunRecord + Send + Sync>,
}

impl FnScenario {
    /// Wraps `f` as a scenario. The closure receives the seed and must
    /// stamp it into the returned record.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(u64) -> RunRecord + Send + Sync + 'static,
    ) -> FnScenario {
        FnScenario {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Scenario for FnScenario {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, seed: u64) -> RunRecord {
        (self.f)(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_combinators() {
        assert!(Verdict::check(true, "x").passed());
        assert!(!Verdict::check(false, "x").passed());
        assert_eq!(
            Verdict::Pass.and(Verdict::Fail("a".into())),
            Verdict::Fail("a".into())
        );
        assert_eq!(
            Verdict::Fail("first".into()).and(Verdict::Fail("second".into())),
            Verdict::Fail("first".into()),
            "first failure wins"
        );
    }

    #[test]
    fn record_builds_and_serializes() {
        let mut r = RunRecord::new("demo", 7);
        r.metric("x", 1.5)
            .require(true, "ok")
            .require(false, "boom");
        assert_eq!(r.get_metric("x"), Some(1.5));
        assert_eq!(r.verdict, Verdict::Fail("boom".into()));
        let s = r.to_json().render();
        assert!(s.contains("\"scenario\":\"demo\""));
        assert!(s.contains("\"seed\":7"));
        assert!(s.contains("\"x\":1.5"));
        assert!(s.contains("fail: boom"));
        assert!(!s.contains("params"), "empty params omitted");
    }

    #[test]
    fn fn_scenario_runs() {
        let s = FnScenario::new("f", |seed| {
            let mut r = RunRecord::new("f", seed);
            r.metric("seed2", (seed * 2) as f64);
            r
        });
        assert_eq!(s.name(), "f");
        assert_eq!(s.run(3).get_metric("seed2"), Some(6.0));
    }
}
