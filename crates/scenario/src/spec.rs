//! The declarative, simulator-backed [`ScenarioSpec`].
//!
//! A spec composes everything a simnet execution family needs — topology
//! family, delivery model, adversary/colluder placement, a churn/fault
//! [`Schedule`], the protocol under test, and stop/verdict predicates —
//! into one `Clone + Send + Sync` value. [`Scenario::run`] on it is a pure
//! function of `(spec, seed)`, which is what lets the sweep engine fan a
//! spec out across threads and still produce byte-identical aggregates.

use std::sync::Arc;

use ga_simnet::adversary::{ByzantineProcess, Equivocator, RandomNoise, Silent};
use ga_simnet::colluding::Cabal;
use ga_simnet::prelude::*;
use ga_simnet::rng::labeled_rng;
use ga_simnet::runtime::Runtime;
use ga_simnet::sim::Delivery;
use ga_simnet::telemetry::{Event, TelemetryConfig};
use rand::seq::SliceRandom;

use crate::record::{MessageStats, RunRecord, Scenario, Verdict};

/// A family of communication graphs, instantiated per run.
///
/// Randomized families derive their graph from the run seed, so two runs
/// of the same spec at the same seed see the same wires.
#[derive(Debug, Clone)]
pub enum TopologyFamily {
    /// `Topology::complete(n)`.
    Complete(usize),
    /// `Topology::ring(n)`.
    Ring(usize),
    /// `Topology::star(n)` — hub is processor 0.
    Star(usize),
    /// `Topology::grid(w, h)`.
    Grid(usize, usize),
    /// `Topology::random_k_connected(n, k, extra_p)`, seeded per run.
    RandomK {
        /// Processors.
        n: usize,
        /// Minimum degree / backbone connectivity.
        k: usize,
        /// Extra-edge probability.
        extra_p: f64,
    },
    /// Explicit edge list.
    Edges {
        /// Processors.
        n: usize,
        /// Undirected edges.
        edges: Vec<(usize, usize)>,
    },
}

impl TopologyFamily {
    /// Number of processors every instance of the family has.
    pub fn len(&self) -> usize {
        match self {
            TopologyFamily::Complete(n)
            | TopologyFamily::Ring(n)
            | TopologyFamily::Star(n)
            | TopologyFamily::RandomK { n, .. }
            | TopologyFamily::Edges { n, .. } => *n,
            TopologyFamily::Grid(w, h) => w * h,
        }
    }

    /// Whether the family is empty (never, by constructor contracts).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instantiates the graph for one run.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (same contracts as the underlying
    /// [`Topology`] constructors).
    pub fn build(&self, seed: u64) -> Topology {
        match self {
            TopologyFamily::Complete(n) => Topology::complete(*n),
            TopologyFamily::Ring(n) => Topology::ring(*n),
            TopologyFamily::Star(n) => Topology::star(*n),
            TopologyFamily::Grid(w, h) => Topology::grid(*w, *h),
            TopologyFamily::RandomK { n, k, extra_p } => {
                let mut rng = labeled_rng(seed, "scenario-topology");
                Topology::random_k_connected(*n, *k, *extra_p, &mut rng)
            }
            TopologyFamily::Edges { n, edges } => {
                Topology::from_edges(*n, edges).expect("spec edge list is valid")
            }
        }
    }
}

/// A Byzantine role assigned to a processor by the spec.
#[derive(Debug, Clone)]
pub enum Role {
    /// Crash/omission: never sends.
    Silent,
    /// Random byte strings every round.
    Noise {
        /// Maximum payload length (exclusive).
        max_len: usize,
    },
    /// Different fixed payloads to even/odd neighbors.
    Equivocator {
        /// Payload for even-indexed neighbors.
        a: Vec<u8>,
        /// Payload for odd-indexed neighbors.
        b: Vec<u8>,
    },
    /// Member of the run's shared [`Cabal`]: all colluders broadcast one
    /// coordinated per-round lie.
    Colluder,
}

/// A seed-derived adversary placement family.
///
/// Per-id placements ([`ScenarioSpec::adversary`]) pin Byzantine
/// processors to fixed positions; a strategy instead picks them per run
/// from the run's graph and seed, so one spec covers the whole
/// adversary-position family. Strategies resolve after the fixed
/// placements and the last write per id wins.
#[derive(Debug, Clone)]
pub enum PlacementStrategy {
    /// Exactly these per-id placements — what `adversary`/`colluders`
    /// append, factored out as data.
    Fixed(Vec<(usize, Role)>),
    /// `f` distinct processors drawn uniformly from the run seed.
    RandomF {
        /// Number of adversaries to place.
        f: usize,
        /// The role each drawn processor plays.
        role: Role,
    },
    /// The `f` highest-degree processors of the run's graph (ties go to
    /// the lower id) — the worst case for protocols leaning on
    /// well-connected relays.
    WorstCaseByDegree {
        /// Number of adversaries to place.
        f: usize,
        /// The role each picked processor plays.
        role: Role,
    },
}

impl PlacementStrategy {
    /// Resolves the family to concrete per-id placements for one run
    /// (ascending id order). Pure in `(self, topology, seed, salt)`;
    /// `salt` decorrelates the random draws of multiple strategies on
    /// one spec ([`ScenarioSpec::place`] passes the strategy's index),
    /// so two `RandomF` families never shadow each other's picks.
    pub fn resolve(&self, topology: &Topology, seed: u64, salt: u64) -> Vec<(usize, Role)> {
        let place = |mut ids: Vec<usize>, f: usize, role: &Role| {
            ids.truncate(f.min(topology.len()));
            ids.sort_unstable();
            ids.into_iter().map(|id| (id, role.clone())).collect()
        };
        match self {
            PlacementStrategy::Fixed(placements) => placements.clone(),
            PlacementStrategy::RandomF { f, role } => {
                let mut ids: Vec<usize> = (0..topology.len()).collect();
                let label = format!("scenario-placement-{salt}");
                ids.shuffle(&mut labeled_rng(seed, &label));
                place(ids, *f, role)
            }
            PlacementStrategy::WorstCaseByDegree { f, role } => {
                let ids: Vec<usize> = topology
                    .top_k_by_degree(*f)
                    .into_iter()
                    .map(|id| id.index())
                    .collect();
                place(ids, *f, role)
            }
        }
    }
}

type ProtocolFactory = Arc<dyn Fn(ProcessId, usize, u64) -> Box<dyn Process> + Send + Sync>;
type StopPredicate = Arc<dyn Fn(&Simulation) -> bool + Send + Sync>;
type VerdictFn = Arc<dyn Fn(&Simulation, &RunRecord) -> Verdict + Send + Sync>;
type ProbeFn = Arc<dyn Fn(&Simulation, &mut RunRecord) + Send + Sync>;
type LegalFn = Arc<dyn Fn(&Simulation) -> bool + Send + Sync>;
type RoundMetricFn = Arc<dyn Fn(&Simulation) -> f64 + Send + Sync>;

/// A per-round legality probe measuring recovery after scheduled
/// corruption — see [`ScenarioSpec::stabilization`] and
/// [`ScenarioSpec::stabilization_episodes`].
#[derive(Clone)]
struct StabilizationProbe {
    /// The rounds the spec's corruption bursts fire at, ascending and
    /// deduplicated. Each opens one measurement *episode*: the window from
    /// its burst to the next burst (or the end of the run), with the burst
    /// round as that episode's `rounds_to_stabilize` origin.
    corruption_rounds: Vec<u64>,
    /// The legitimacy predicate of the protocol's state space.
    legal: LegalFn,
}

/// A declarative description of a family of simulator executions.
///
/// Built with chained setters; executed through its [`Scenario`] impl
/// ([`run`](Scenario::run) and the fuller forms beside it).
/// See the crate docs for a complete example.
#[derive(Clone)]
pub struct ScenarioSpec {
    name: String,
    topology: TopologyFamily,
    delivery: Delivery,
    placements: Vec<(usize, Role)>,
    strategies: Vec<PlacementStrategy>,
    schedule: Schedule,
    max_rounds: u64,
    protocol: ProtocolFactory,
    stop: Option<StopPredicate>,
    verdict: Option<VerdictFn>,
    probe: Option<ProbeFn>,
    stabilization: Option<StabilizationProbe>,
    round_metrics: Vec<(String, RoundMetricFn)>,
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .field("delivery", &self.delivery)
            .field("placements", &self.placements)
            .field("max_rounds", &self.max_rounds)
            .finish_non_exhaustive()
    }
}

impl ScenarioSpec {
    /// Starts a spec: `name`, the graph family, and the protocol factory
    /// (called once per honest processor per run).
    pub fn new(
        name: impl Into<String>,
        topology: TopologyFamily,
        protocol: impl Fn(ProcessId, usize) -> Box<dyn Process> + Send + Sync + 'static,
    ) -> ScenarioSpec {
        Self::new_seeded(name, topology, move |id, n, _seed| protocol(id, n))
    }

    /// Like [`new`](ScenarioSpec::new), but the protocol factory also
    /// receives the run seed — for protocols whose processes derive
    /// per-run randomness (commitment nonces, PRG streams) from it.
    pub fn new_seeded(
        name: impl Into<String>,
        topology: TopologyFamily,
        protocol: impl Fn(ProcessId, usize, u64) -> Box<dyn Process> + Send + Sync + 'static,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            topology,
            delivery: Delivery::Reliable,
            placements: Vec::new(),
            strategies: Vec::new(),
            schedule: Schedule::new(),
            max_rounds: 100,
            protocol: Arc::new(protocol),
            stop: None,
            verdict: None,
            probe: None,
            stabilization: None,
            round_metrics: Vec::new(),
        }
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the spec (used when a sweep stamps parameter values into
    /// scenario names).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the delivery model (default reliable).
    #[must_use]
    pub fn delivery(mut self, delivery: Delivery) -> Self {
        self.delivery = delivery;
        self
    }

    /// Assigns a Byzantine `role` to processor `id`. Re-assigning the
    /// same id overrides the earlier role (last write wins).
    #[must_use]
    pub fn adversary(mut self, id: usize, role: Role) -> Self {
        Self::assign(&mut self.placements, id, role);
        self
    }

    /// Assigns [`Role::Colluder`] to every listed processor (they share
    /// one cabal per run; last write per id wins).
    #[must_use]
    pub fn colluders(mut self, ids: impl IntoIterator<Item = usize>) -> Self {
        for id in ids {
            Self::assign(&mut self.placements, id, Role::Colluder);
        }
        self
    }

    /// Adds a seed-derived adversary placement family, resolved against
    /// each run's graph and seed and overlaid on the fixed
    /// `adversary`/`colluders` placements (last write per id wins).
    #[must_use]
    pub fn place(mut self, strategy: PlacementStrategy) -> Self {
        self.strategies.push(strategy);
        self
    }

    /// Upserts a placement: one role per id, the latest assignment wins.
    fn assign(placements: &mut Vec<(usize, Role)>, id: usize, role: Role) {
        match placements.iter_mut().find(|(existing, _)| *existing == id) {
            Some((_, slot)) => *slot = role,
            None => placements.push((id, role)),
        }
    }

    /// Concrete per-id placements for one run: the fixed list overlaid
    /// with every strategy's seed-resolved picks, in insertion order.
    fn resolve_placements(&self, topology: &Topology, seed: u64) -> Vec<(usize, Role)> {
        let mut placements = self.placements.clone();
        for (salt, strategy) in self.strategies.iter().enumerate() {
            for (id, role) in strategy.resolve(topology, seed, salt as u64) {
                Self::assign(&mut placements, id, role);
            }
        }
        placements
    }

    /// Attaches the churn/fault schedule.
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the round budget (default 100).
    #[must_use]
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Sets a stop predicate: the run ends as soon as it holds (checked
    /// before every pulse), recording the round in
    /// [`RunRecord::stopped_at`].
    #[must_use]
    pub fn stop_when(mut self, stop: impl Fn(&Simulation) -> bool + Send + Sync + 'static) -> Self {
        self.stop = Some(Arc::new(stop));
        self
    }

    /// Sets the verdict predicate, evaluated on the final state (the
    /// record already carries rounds/stop/trace data and probe metrics).
    #[must_use]
    pub fn verdict(
        mut self,
        verdict: impl Fn(&Simulation, &RunRecord) -> Verdict + Send + Sync + 'static,
    ) -> Self {
        self.verdict = Some(Arc::new(verdict));
        self
    }

    /// Sets a probe that extracts extra metrics from the final state
    /// (runs before the verdict predicate).
    #[must_use]
    pub fn probe(
        mut self,
        probe: impl Fn(&Simulation, &mut RunRecord) + Send + Sync + 'static,
    ) -> Self {
        self.probe = Some(Arc::new(probe));
        self
    }

    /// Samples `f` after every pulse and emits the mean of the samples as
    /// metric `name` — the vehicle for per-round observables that final-
    /// state probes cannot reconstruct (live-play counts, queue depths).
    /// Sampled metrics are part of the deterministic plane: `f` must be a
    /// pure function of the simulation state. Every run also emits the
    /// built-in round metrics `inbox_depth_mean` (mean pending messages
    /// after each pulse) and `quiescent_mean` (mean count of processes
    /// with an empty inbox).
    #[must_use]
    pub fn round_metric(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&Simulation) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.round_metrics.push((name.into(), Arc::new(f)));
        self
    }

    /// Attaches a stabilization probe measuring recovery from the
    /// corruption the spec schedules at `corruption_round` — the
    /// single-episode form of
    /// [`stabilization_episodes`](Self::stabilization_episodes).
    ///
    /// `legal` — the protocol's legitimacy predicate — is evaluated after
    /// every pulse, and the run tracks the *last illegal round*. If the
    /// final state is legal the run emits
    ///
    /// * `rounds_to_stabilize` = `last_illegal_round − corruption_round`
    ///   (saturating; `0` when no post-corruption round was ever illegal),
    /// * `censored` = `0`.
    ///
    /// If the budget runs out while the state is still illegal the run is
    /// **censored**: it emits only `censored = 1` and *no*
    /// `rounds_to_stabilize` — the sweep aggregator computes percentiles
    /// over emitting runs only, so a diverged run can never masquerade as
    /// a slow one. Both metrics land before the [`probe`](Self::probe) and
    /// [`verdict`](Self::verdict) callbacks, which may read them.
    #[must_use]
    pub fn stabilization(
        self,
        corruption_round: u64,
        legal: impl Fn(&Simulation) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.stabilization_episodes([corruption_round], legal)
    }

    /// Attaches a stabilization probe measuring recovery from *recurring*
    /// corruption: one measurement episode per burst in
    /// `corruption_rounds` (sorted and deduplicated; must be non-empty).
    ///
    /// Episode `i` spans the pulses from burst `i` up to (excluding) burst
    /// `i + 1`; the last episode runs to the end of the run, and pulses
    /// before the first burst fold into episode 0, preserving the
    /// single-episode semantics of [`stabilization`](Self::stabilization).
    /// Each episode is scored independently, against the state at its
    /// window's last pulse:
    ///
    /// * recovered — the window ends legal: the episode emits one
    ///   `rounds_to_stabilize` value, `last_illegal_in_window − burst`
    ///   (saturating; `0` for an episode that never went illegal). Every
    ///   per-episode value feeds the sweep percentiles, so p50/p90/p99
    ///   aggregate over *episodes*, not runs.
    /// * censored — the window closes (next burst lands, or the budget
    ///   runs out) while the state is still illegal: no value is emitted
    ///   for it. Back-to-back bursts with no legal pulse between them are
    ///   censored episodes, not slow ones.
    /// * unscored — a burst after the last executed pulse never opens its
    ///   window (scheduled past the budget, or the run stopped early):
    ///   neither a value nor a censoring. Episode 0 is always scored.
    ///
    /// The run then emits `censored` = the number of censored episodes
    /// (`0` iff every opened episode recovered) and `legal_fraction` =
    /// the fraction of executed pulses whose state was legal — the run's
    /// availability over the measurement window, the natural summary when
    /// corruption re-fires forever and "fully stabilized" stops being the
    /// interesting question.
    #[must_use]
    pub fn stabilization_episodes(
        mut self,
        corruption_rounds: impl IntoIterator<Item = u64>,
        legal: impl Fn(&Simulation) -> bool + Send + Sync + 'static,
    ) -> Self {
        let mut rounds: Vec<u64> = corruption_rounds.into_iter().collect();
        rounds.sort_unstable();
        rounds.dedup();
        assert!(
            !rounds.is_empty(),
            "stabilization_episodes requires at least one corruption round"
        );
        self.stabilization = Some(StabilizationProbe {
            corruption_rounds: rounds,
            legal: Arc::new(legal),
        });
        self
    }

    /// Number of processors per run.
    pub fn n(&self) -> usize {
        self.topology.len()
    }

    fn role_process(role: &Role, cabal: &Cabal) -> Box<dyn Process> {
        match role {
            Role::Silent => Box::new(ByzantineProcess::new(Box::new(Silent))),
            Role::Noise { max_len } => Box::new(ByzantineProcess::new(Box::new(RandomNoise {
                max_len: *max_len,
            }))),
            Role::Equivocator { a, b } => Box::new(ByzantineProcess::new(Box::new(Equivocator {
                payload_a: a.clone().into(),
                payload_b: b.clone().into(),
            }))),
            Role::Colluder => Box::new(cabal.member()),
        }
    }

    /// The one execution path behind every [`Scenario`] entry point of a
    /// spec. Pure: equal seeds give equal records, at every `shards` and
    /// on every `runtime`; `telemetry` adds [`RunRecord::events`] and
    /// changes nothing else.
    fn run_inner(
        &self,
        seed: u64,
        shards: usize,
        runtime: &Runtime,
        telemetry: Option<&TelemetryConfig>,
    ) -> RunRecord {
        let topology = self.topology.build(seed);
        let n = topology.len();
        let placements = self.resolve_placements(&topology, seed);
        // The cabal's per-round lies derive from the run seed, so records
        // stay a pure function of (spec, seed) and colluders split across
        // step shards tell identical lies.
        let cabal = Cabal::seeded(seed);
        let mut builder = Simulation::builder(topology)
            .seed(seed)
            .delivery(self.delivery)
            .schedule(self.schedule.clone())
            .shards(shards)
            .runtime(runtime.clone());
        if let Some(cfg) = telemetry {
            builder = builder.telemetry(*cfg);
        }
        // Timing plane: if the pool carries a profiler, per-step wall
        // clock flows into that side channel. It is never read back into
        // the record.
        if let Some(profiler) = runtime.profiler() {
            builder = builder.profiler(profiler);
        }
        let mut sim =
            builder.build_with(
                |id| match placements.iter().find(|(byz, _)| *byz == id.index()) {
                    Some((_, role)) => Self::role_process(role, &cabal),
                    None => (self.protocol)(id, n, seed),
                },
            );

        let mut record = RunRecord::new(self.name.clone(), seed);
        // One manual loop mirroring `run_until` (stop checked before each
        // pulse, once more after the budget) so the per-round samplers —
        // round metrics, the stabilization legality probe — see every
        // pulse on every execution path.
        let mut stopped = None;
        // Per-episode stabilization state: `episode` indexes the burst
        // whose measurement window the current pulse falls in,
        // `episode_last_illegal` tracks the last illegal pulse inside that
        // window, and closed windows accumulate into `recoveries` /
        // `censored_episodes` (see `stabilization_episodes`).
        let mut episode = 0usize;
        let mut episode_last_illegal: Option<u64> = None;
        let mut recoveries: Vec<u64> = Vec::new();
        let mut censored_episodes = 0u64;
        let mut legal_pulses = 0u64;
        // The legal set is the resting state; a run is presumed inside it
        // until a post-pulse probe says otherwise, so the first flip
        // event marks the entry into illegality.
        let mut prev_legal = true;
        let mut sampled = 0u64;
        let mut inbox_depth_sum = 0.0;
        let mut quiescent_sum = 0.0;
        let mut metric_sums = vec![0.0f64; self.round_metrics.len()];
        for executed in 0..self.max_rounds {
            if let Some(stop) = &self.stop {
                if stop(&sim) {
                    stopped = Some(executed);
                    break;
                }
            }
            sim.step();
            // step() already advanced the round counter; the pulse just
            // executed is the previous one.
            let pulse = sim.round().value() - 1;
            sampled += 1;
            inbox_depth_sum += sim.pending_messages() as f64;
            quiescent_sum += sim.quiescent_processes() as f64;
            for (sum, (_, f)) in metric_sums.iter_mut().zip(&self.round_metrics) {
                *sum += f(&sim);
            }
            if let Some(stab) = &self.stabilization {
                let bursts = &stab.corruption_rounds;
                // Reaching the next burst round closes the current
                // episode's window: score it against the state after the
                // *previous* pulse (this pulse already reflects the new
                // burst, which fires at the start of its round).
                while episode + 1 < bursts.len() && pulse >= bursts[episode + 1] {
                    if prev_legal {
                        recoveries.push(
                            episode_last_illegal.map_or(0, |l| l.saturating_sub(bursts[episode])),
                        );
                    } else {
                        censored_episodes += 1;
                    }
                    episode += 1;
                    episode_last_illegal = None;
                }
                let legal = (stab.legal)(&sim);
                if legal {
                    legal_pulses += 1;
                } else {
                    episode_last_illegal = Some(pulse);
                }
                if legal != prev_legal {
                    prev_legal = legal;
                    if let Some(sink) = sim.events_mut() {
                        sink.push(Event::LegalityFlip {
                            round: pulse,
                            legal,
                        });
                    }
                }
            }
        }
        if stopped.is_none() {
            if let Some(stop) = &self.stop {
                if stop(&sim) {
                    stopped = Some(self.max_rounds);
                }
            }
        }
        record.stopped_at = stopped;
        if let Some(stab) = &self.stabilization {
            // The run's end closes the current episode; later bursts never
            // opened their windows and stay unscored. A diverged episode
            // emits no rounds_to_stabilize, keeping it out of the
            // stabilization-time percentiles.
            if (stab.legal)(&sim) {
                recoveries.push(
                    episode_last_illegal
                        .map_or(0, |l| l.saturating_sub(stab.corruption_rounds[episode])),
                );
            } else {
                censored_episodes += 1;
            }
            for recovery in &recoveries {
                record.metric("rounds_to_stabilize", *recovery as f64);
            }
            record.metric("censored", censored_episodes as f64);
            record.metric(
                "legal_fraction",
                if sampled == 0 {
                    1.0
                } else {
                    legal_pulses as f64 / sampled as f64
                },
            );
        }
        record.rounds = sim.round().value();
        record.messages = MessageStats::from_trace(sim.trace());
        let mean = |sum: f64| {
            if sampled == 0 {
                0.0
            } else {
                sum / sampled as f64
            }
        };
        record.metric("inbox_depth_mean", mean(inbox_depth_sum));
        record.metric("quiescent_mean", mean(quiescent_sum));
        for ((name, _), sum) in self.round_metrics.iter().zip(&metric_sums) {
            record.metric(name.clone(), mean(*sum));
        }
        if let Some(probe) = &self.probe {
            probe(&sim, &mut record);
        }
        record.verdict = match &self.verdict {
            Some(verdict) => verdict(&sim, &record),
            None => Verdict::Pass,
        };
        // Taking the events resets the ring's loss counter: read it first.
        record.events_overwritten = sim.events_mut().map_or(0, |sink| sink.overwritten());
        record.events = sim.take_events();
        record
    }
}

impl Scenario for ScenarioSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, seed: u64) -> RunRecord {
        self.run_on(seed, 0, &Runtime::global())
    }

    fn run_on(&self, seed: u64, shards: usize, runtime: &Runtime) -> RunRecord {
        self.run_inner(seed, shards, runtime, None)
    }

    /// The retained events (plus the spec's own [`Event::LegalityFlip`]
    /// markers from the stabilization probe) land in
    /// [`RunRecord::events`].
    fn run_telemetry(
        &self,
        seed: u64,
        shards: usize,
        runtime: &Runtime,
        telemetry: Option<&TelemetryConfig>,
    ) -> RunRecord {
        self.run_inner(seed, shards, runtime, telemetry)
    }

    fn supports_sharding(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Flood;

    fn flood_spec(topology: TopologyFamily) -> ScenarioSpec {
        ScenarioSpec::new("flood", topology, |_, _| Box::new(Flood::default())).max_rounds(10)
    }

    #[test]
    fn same_seed_same_record() {
        let spec = flood_spec(TopologyFamily::RandomK {
            n: 12,
            k: 4,
            extra_p: 0.2,
        })
        .delivery(Delivery::Lossy { p: 0.3 });
        assert_eq!(spec.run(5), spec.run(5));
        assert_ne!(
            spec.run(5).messages,
            spec.run(6).messages,
            "different seeds give different lossy traces"
        );
    }

    #[test]
    fn topology_families_build() {
        for family in [
            TopologyFamily::Complete(4),
            TopologyFamily::Ring(5),
            TopologyFamily::Star(4),
            TopologyFamily::Grid(3, 2),
            TopologyFamily::RandomK {
                n: 8,
                k: 3,
                extra_p: 0.1,
            },
            TopologyFamily::Edges {
                n: 3,
                edges: vec![(0, 1), (1, 2)],
            },
        ] {
            let n = family.len();
            assert!(!family.is_empty());
            let t = family.build(1);
            assert_eq!(t.len(), n);
            assert!(t.is_connected());
        }
    }

    #[test]
    fn adversaries_and_schedule_shape_the_run() {
        // Complete(5) with a silent processor: everyone else hears 3 per
        // round instead of 4.
        let spec = flood_spec(TopologyFamily::Complete(5))
            .adversary(4, Role::Silent)
            .probe(|sim, record| {
                let heard = sim
                    .process_as::<Flood>(ProcessId(0))
                    .map(|f| f.heard)
                    .unwrap_or(0);
                record.metric("p0_heard", heard as f64);
            });
        let r = spec.run(0);
        // 9 full delivery rounds × 3 speaking neighbors.
        assert_eq!(r.get_metric("p0_heard"), Some(27.0));

        // Disconnecting the silent node instead changes nothing for p0.
        let spec2 = flood_spec(TopologyFamily::Complete(5))
            .adversary(4, Role::Silent)
            .schedule(Schedule::new().at(0, ScheduledAction::Disconnect(ProcessId(4))))
            .probe(|sim, record| {
                let heard = sim
                    .process_as::<Flood>(ProcessId(0))
                    .map(|f| f.heard)
                    .unwrap_or(0);
                record.metric("p0_heard", heard as f64);
            });
        assert_eq!(spec2.run(0).get_metric("p0_heard"), Some(27.0));
    }

    #[test]
    fn stop_predicate_records_round() {
        let spec = flood_spec(TopologyFamily::Complete(3))
            .max_rounds(50)
            .stop_when(|sim| {
                sim.process_as::<Flood>(ProcessId(0))
                    .map(|f| f.heard >= 4)
                    .unwrap_or(false)
            });
        let r = spec.run(0);
        assert_eq!(r.stopped_at, Some(3), "2 msgs/round from round 1 on");
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn colluders_share_one_lie() {
        let spec = flood_spec(TopologyFamily::Complete(4))
            .colluders([2, 3])
            .max_rounds(4)
            .probe(|sim, record| {
                record.metric("delivered", sim.trace().messages_delivered as f64);
            });
        let r = spec.run(3);
        assert!(r.verdict.passed());
        assert!(r.messages.delivered > 0);
    }

    #[test]
    fn verdict_failure_is_reported() {
        let spec = flood_spec(TopologyFamily::Ring(4))
            .verdict(|_, record| Verdict::check(record.rounds > 100, "too few rounds"));
        assert_eq!(spec.run(0).verdict, Verdict::Fail("too few rounds".into()));
    }

    #[test]
    fn duplicate_adversary_is_last_write_wins() {
        // Regression: re-assigning an id used to be silently ignored
        // because role lookup took the first match. p0 on Complete(3)
        // hears 1/round if processor 2 stays Silent, 2/round once the
        // later Equivocator assignment actually overrides it.
        let heard = |spec: ScenarioSpec| {
            spec.max_rounds(10)
                .probe(|sim, r| {
                    let heard = sim
                        .process_as::<Flood>(ProcessId(0))
                        .map(|f| f.heard)
                        .unwrap_or(0);
                    r.metric("p0_heard", heard as f64);
                })
                .run(0)
                .get_metric("p0_heard")
        };
        let overridden = flood_spec(TopologyFamily::Complete(3))
            .adversary(2, Role::Silent)
            .adversary(
                2,
                Role::Equivocator {
                    a: vec![1],
                    b: vec![2],
                },
            );
        assert_eq!(heard(overridden), Some(18.0), "9 delivery rounds × 2");
        let silent = flood_spec(TopologyFamily::Complete(3)).adversary(2, Role::Silent);
        assert_eq!(heard(silent), Some(9.0), "9 delivery rounds × 1");
        // colluders() participates in the same upsert rule.
        let spec = flood_spec(TopologyFamily::Complete(4))
            .adversary(3, Role::Silent)
            .colluders([3]);
        assert_eq!(spec.placements.len(), 1);
        assert!(matches!(spec.placements[0], (3, Role::Colluder)));
    }

    #[test]
    fn placement_strategies_resolve_deterministically() {
        let star = TopologyFamily::Star(9).build(0);
        let hub = PlacementStrategy::WorstCaseByDegree {
            f: 1,
            role: Role::Silent,
        };
        let resolved = hub.resolve(&star, 5, 0);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].0, 0, "the star's hub is the max-degree pick");

        let complete = TopologyFamily::Complete(12).build(0);
        let random = PlacementStrategy::RandomF {
            f: 3,
            role: Role::Silent,
        };
        let a = random.resolve(&complete, 7, 0);
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "ascending ids");
        assert_eq!(
            a.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            random
                .resolve(&complete, 7, 0)
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>(),
            "same seed, same picks"
        );
        let distinct: std::collections::HashSet<Vec<usize>> = (0..8)
            .map(|seed| {
                random
                    .resolve(&complete, seed, 0)
                    .iter()
                    .map(|(id, _)| *id)
                    .collect()
            })
            .collect();
        assert!(distinct.len() > 1, "the family varies across seeds");
        // Oversized f clamps to n.
        let all = PlacementStrategy::RandomF {
            f: 99,
            role: Role::Silent,
        }
        .resolve(&complete, 0, 0);
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn stacked_random_strategies_are_decorrelated() {
        // Two RandomF families on one spec draw from salt-distinct RNG
        // streams, so the second must not simply shadow the first's
        // picks on every seed (they'd collide and last-write-wins would
        // erase the first family entirely).
        let spec = flood_spec(TopologyFamily::Complete(12))
            .place(PlacementStrategy::RandomF {
                f: 1,
                role: Role::Silent,
            })
            .place(PlacementStrategy::RandomF {
                f: 1,
                role: Role::Noise { max_len: 4 },
            });
        let topology = TopologyFamily::Complete(12).build(0);
        let both = (0..8).any(|seed| spec.resolve_placements(&topology, seed).len() == 2);
        assert!(both, "salted draws place two distinct adversaries");
    }

    #[test]
    fn strategy_placements_shape_the_run() {
        // Silencing the star's hub by degree cuts every leaf off.
        let spec = flood_spec(TopologyFamily::Star(8))
            .place(PlacementStrategy::WorstCaseByDegree {
                f: 1,
                role: Role::Silent,
            })
            .probe(|sim, r| {
                let heard = sim
                    .process_as::<Flood>(ProcessId(1))
                    .map(|f| f.heard)
                    .unwrap_or(99);
                r.metric("leaf_heard", heard as f64);
            });
        assert_eq!(spec.run(3).get_metric("leaf_heard"), Some(0.0));
    }

    fn gossip_recovery_spec() -> ScenarioSpec {
        // Ring(6): a scrambled maximum takes up to diameter (3) rounds to
        // re-propagate, so the stabilization time is visibly non-zero.
        ScenarioSpec::new("stab", TopologyFamily::Ring(6), |id, _| {
            Box::new(crate::workload::MaxGossip::new(id.index() as u64))
        })
        .schedule(Schedule::new().at(
            5,
            ScheduledAction::Corrupt(
                CorruptionFamily {
                    targets: CorruptionTargets::All,
                    corrupt_messages_p: 0.0,
                    drop_messages_p: 0.0,
                    garbage_messages: 0,
                    salt: 1,
                },
                Recurrence::Once,
            ),
        ))
        .max_rounds(20)
        .stabilization(5, |sim| crate::workload::gossip_agreed(sim, 0..6))
    }

    #[test]
    fn stabilization_probe_measures_recovery() {
        let r = gossip_recovery_spec().run(3);
        assert_eq!(r.get_metric("censored"), Some(0.0));
        let rts = r.get_metric("rounds_to_stabilize").expect("emitted");
        assert!(
            (1.0..=5.0).contains(&rts),
            "ring gossip re-agrees within a few propagation rounds, got {rts}"
        );
        assert_eq!(gossip_recovery_spec().run(3), r, "pure in the seed");
    }

    #[test]
    fn stabilization_censors_diverged_runs() {
        // gossip_agreed over an id range including a non-gossiper is
        // always false: the run can never re-enter the legal set.
        let r = ScenarioSpec::new("stab", TopologyFamily::Complete(5), |id, _| {
            Box::new(crate::workload::MaxGossip::new(id.index() as u64))
        })
        .max_rounds(8)
        .stabilization(2, |_| false)
        .run(0);
        assert_eq!(r.get_metric("censored"), Some(1.0));
        assert_eq!(
            r.get_metric("rounds_to_stabilize"),
            None,
            "a diverged run must not masquerade as a slow one"
        );
    }

    #[test]
    fn stabilization_without_illegal_rounds_reports_zero() {
        // No corruption scheduled and the predicate always holds.
        let r = ScenarioSpec::new("stab", TopologyFamily::Complete(3), |id, _| {
            Box::new(crate::workload::MaxGossip::new(id.index() as u64))
        })
        .max_rounds(6)
        .stabilization(2, |_| true)
        .run(0);
        assert_eq!(r.get_metric("rounds_to_stabilize"), Some(0.0));
        assert_eq!(r.get_metric("censored"), Some(0.0));
    }

    fn bfs_episode_spec(
        schedule: Schedule,
        bursts: impl IntoIterator<Item = u64>,
        max_rounds: u64,
    ) -> ScenarioSpec {
        ScenarioSpec::new("episodes", TopologyFamily::Ring(8), |id, _| {
            Box::new(crate::bfs::BfsTree::new(id))
        })
        .schedule(schedule)
        .max_rounds(max_rounds)
        .stabilization_episodes(bursts, crate::bfs::bfs_tree_legal)
    }

    fn total_scramble() -> CorruptionFamily {
        // Scramble every register *and* wipe the in-flight claims: with the
        // channels intact, one BfsTree pulse re-adopts the pre-burst claims
        // and the scramble never becomes observable.
        CorruptionFamily {
            targets: CorruptionTargets::All,
            corrupt_messages_p: 0.0,
            drop_messages_p: 1.0,
            garbage_messages: 0,
            salt: 2,
        }
    }

    #[test]
    fn recurring_bursts_score_one_episode_each() {
        // Bursts at 10 and 25, far enough apart for full recovery: two
        // rounds_to_stabilize values, no censoring, and availability
        // strictly between 0 and 1.
        let recurrence = Recurrence::Every {
            period: 15,
            until: 30,
        };
        let r = bfs_episode_spec(
            Schedule::new().at(10, ScheduledAction::Corrupt(total_scramble(), recurrence)),
            recurrence.firing_rounds(10),
            60,
        )
        .run(1);
        let recoveries: Vec<f64> = r
            .metrics
            .iter()
            .filter(|(n, _)| n == "rounds_to_stabilize")
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(recoveries.len(), 2, "one recovery per episode: {r:?}");
        let bound = crate::bfs::certified_bound(&Topology::ring(8)).unwrap() as f64;
        assert!(
            recoveries.iter().all(|&v| v >= 1.0 && v <= bound),
            "recoveries within the certified bound: {recoveries:?}"
        );
        assert_eq!(r.get_metric("censored"), Some(0.0));
        let legal = r.get_metric("legal_fraction").unwrap();
        assert!(legal > 0.0 && legal < 1.0, "legal_fraction {legal}");
    }

    #[test]
    fn corruption_at_round_zero_measures_from_the_first_pulse() {
        let r = bfs_episode_spec(
            Schedule::new().at(
                0,
                ScheduledAction::Corrupt(total_scramble(), Recurrence::Once),
            ),
            [0],
            40,
        )
        .run(1);
        assert_eq!(r.get_metric("censored"), Some(0.0));
        let rts = r.get_metric("rounds_to_stabilize").unwrap();
        let bound = crate::bfs::certified_bound(&Topology::ring(8)).unwrap() as f64;
        assert!(
            rts >= 1.0 && rts <= bound,
            "round-0 burst measured from pulse 0, got {rts}"
        );
    }

    #[test]
    fn burst_after_the_budget_leaves_its_episode_unscored() {
        // Second burst at 300 never fires inside the 40-round budget: the
        // run emits exactly one recovery and no censoring for the ghost
        // episode.
        let r = bfs_episode_spec(
            Schedule::new().at(
                10,
                ScheduledAction::Corrupt(total_scramble(), Recurrence::Once),
            ),
            [10, 300],
            40,
        )
        .run(1);
        let recoveries = r
            .metrics
            .iter()
            .filter(|(n, _)| n == "rounds_to_stabilize")
            .count();
        assert_eq!(recoveries, 1, "the unopened episode emits nothing");
        assert_eq!(
            r.get_metric("censored"),
            Some(0.0),
            "an unopened episode is not censored either"
        );
    }

    #[test]
    fn back_to_back_bursts_censor_the_squeezed_episodes() {
        // Re-firing every round leaves no legal pulse between bursts on a
        // diameter-4 ring: every closed episode is censored. The final
        // episode gets a recovery tail after `until`, so the run still
        // ends legal and emits exactly one recovery.
        let recurrence = Recurrence::Every {
            period: 1,
            until: 20,
        };
        let r = bfs_episode_spec(
            Schedule::new().at(10, ScheduledAction::Corrupt(total_scramble(), recurrence)),
            recurrence.firing_rounds(10),
            60,
        )
        .run(1);
        let recoveries = r
            .metrics
            .iter()
            .filter(|(n, _)| n == "rounds_to_stabilize")
            .count();
        assert_eq!(
            r.get_metric("censored"),
            Some(10.0),
            "episodes with zero legal pulses between bursts are censored: {r:?}"
        );
        assert_eq!(recoveries, 1, "only the final episode recovers");
        let legal = r.get_metric("legal_fraction").unwrap();
        assert!(
            legal < 0.8,
            "sustained bursts depress availability: {legal}"
        );
    }

    #[test]
    fn seeded_protocol_factory_receives_the_run_seed() {
        let spec =
            ScenarioSpec::new_seeded("seeded", TopologyFamily::Complete(4), |id, _n, seed| {
                Box::new(crate::workload::MaxGossip::new(
                    seed * 10 + id.index() as u64,
                )) as Box<dyn Process>
            })
            .max_rounds(5)
            .probe(|sim, r| {
                let v = sim
                    .process_as::<crate::workload::MaxGossip>(ProcessId(0))
                    .map(|p| p.current)
                    .unwrap_or(0);
                r.metric("converged_max", v as f64);
            });
        assert_eq!(spec.run(2).get_metric("converged_max"), Some(23.0));
        assert_eq!(spec.run(5).get_metric("converged_max"), Some(53.0));
    }
}
