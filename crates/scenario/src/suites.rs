//! Named scenario suites: the registry behind `scenario list` / `scenario
//! run --suite <name>`.
//!
//! * **paper** — the e1–e8 experiment ports and the legislative election
//!   (see [`crate::ports`]).
//! * **authority** — §3.3 distributed-authority plays: honest,
//!   selfish-cluster, mute, churn, noise (see [`crate::authority`]).
//! * **stabilize** — the self-stabilization recovery frontier: scheduled
//!   corruption families swept over loss × intensity × n with
//!   stabilization-time probes (see [`crate::stabilize`]).
//! * **unsupportive** — the recurring-corruption frontier: the BFS
//!   spanning-tree workload under period × intensity burst trains, each
//!   episode's recovery checked against its certified topology bound
//!   (see [`crate::unsupportive`]).
//! * **examples** — ports of the repository's `examples/` walkthroughs.
//! * **smoke** — fast simulator-backed specs exercising every declarative
//!   axis: topology families, lossy delivery, adversaries, colluders,
//!   churn schedules (healable partitions included) and transient faults.
//!   Wired into `scripts/tier1.sh`.
//! * **sparse** — large-n quiescent relay wavefronts (4k grid, 64k ring):
//!   the tier-1 timeout smoke for O(active) stepping.

use std::sync::Arc;

use ga_simnet::prelude::*;
use ga_simnet::runtime::Runtime;
use ga_simnet::sim::Delivery;

use crate::authority;
use crate::ports;
use crate::record::{Scenario, Verdict};
use crate::spec::{PlacementStrategy, Role, ScenarioSpec, TopologyFamily};
use crate::stabilize;
use crate::sweep::{self, ParamGrid, SweepSummary};
use crate::unsupportive;
use crate::workload::{gossip_agreed, relay_fired, Flood, MaxGossip, Relay};

/// A named, described set of scenarios with a default seed plan.
#[derive(Clone)]
pub struct Suite {
    /// Registry name (`scenario run --suite <name>`).
    pub name: &'static str,
    /// One-line description for `scenario list`.
    pub description: &'static str,
    /// First seed of the default range.
    pub seed_base: u64,
    /// Default number of seeds per scenario.
    pub default_seeds: u64,
    build: fn() -> Vec<Arc<dyn Scenario>>,
}

impl Suite {
    /// Instantiates the suite's scenarios.
    pub fn scenarios(&self) -> Vec<Arc<dyn Scenario>> {
        (self.build)()
    }

    /// The seed range of a run over `seeds` seeds per scenario (default
    /// plan if `None`; never fewer than one).
    ///
    /// # Panics
    ///
    /// Panics if the range would end past `u64::MAX` — the CLI refuses
    /// such a `--seeds` before it gets here.
    fn seeds(&self, seeds: Option<u64>) -> std::ops::Range<u64> {
        let count = seeds.unwrap_or(self.default_seeds).max(1);
        let end = self
            .seed_base
            .checked_add(count)
            .expect("seed_base + seeds fits in u64");
        self.seed_base..end
    }

    /// Runs the suite over `seeds` seeds (default plan if `None`) on
    /// `workers` threads of the process-wide [`Runtime::global`] pool:
    /// the plain form of [`run_on`](Suite::run_on), every run serial.
    pub fn run(&self, seeds: Option<u64>, workers: usize) -> SweepSummary {
        self.run_on(&Runtime::global(), seeds, workers, 1)
    }

    /// Runs the suite drawing sweep workers *and* every run's shard tasks
    /// from `runtime` — the CLI builds one pool from `--workers` and
    /// passes it here, so the flag is a true global thread budget.
    /// `shards` is each run's `Simulation::step` shard hint (1 = serial).
    /// Summaries are byte-identical at any `(pool, workers, shards)` combination.
    pub fn run_on(
        &self,
        runtime: &Runtime,
        seeds: Option<u64>,
        workers: usize,
        shards: usize,
    ) -> SweepSummary {
        sweep::sweep_on(
            runtime,
            self.name,
            &self.scenarios(),
            self.seeds(seeds),
            workers,
            shards,
        )
    }

    /// [`run_on`](Suite::run_on) that streams every record to `sink` (in
    /// job order) instead of retaining them in the summary, optionally
    /// with the deterministic event plane on for every run (`telemetry` —
    /// see [`sweep::sweep_stream_on`]).
    pub fn run_stream_on(
        &self,
        runtime: &Runtime,
        seeds: Option<u64>,
        workers: usize,
        shards: usize,
        telemetry: Option<&TelemetryConfig>,
        sink: sweep::RecordSink<'_>,
    ) -> SweepSummary {
        sweep::sweep_stream_on(
            runtime,
            self.name,
            &self.scenarios(),
            self.seeds(seeds),
            workers,
            shards,
            telemetry,
            sink,
        )
    }
}

/// Every registered suite.
pub fn all() -> Vec<Suite> {
    vec![
        Suite {
            name: "paper",
            description:
                "e1-e8 experiment ports and the election: every figure/theorem artifact as a verdict",
            seed_base: 2010,
            default_seeds: 2,
            build: paper,
        },
        Suite {
            name: "authority",
            description:
                "§3.3 distributed-authority plays: honest, selfish-cluster, mute, churn, noise",
            seed_base: 40,
            default_seeds: 2,
            build: authority::suite,
        },
        Suite {
            name: "stabilize",
            description:
                "recovery frontier: scheduled corruption × loss × n with stabilization-time probes",
            seed_base: 60,
            default_seeds: 2,
            build: stabilize::suite,
        },
        Suite {
            name: "unsupportive",
            description:
                "recurring-corruption frontier: BFS tree recovery per burst vs its certified bound",
            seed_base: 80,
            default_seeds: 2,
            build: unsupportive::suite,
        },
        Suite {
            name: "examples",
            description: "ports of the examples/ walkthroughs (quickstart, audit, consortium)",
            seed_base: 2010,
            default_seeds: 2,
            build: examples,
        },
        Suite {
            name: "smoke",
            description: "fast simulator specs covering every declarative axis (tier-1 gate)",
            seed_base: 0,
            default_seeds: 3,
            build: smoke,
        },
        Suite {
            name: "sparse",
            description:
                "large-n quiescent relay wavefronts: O(active) stepping on 4k/64k sparse graphs",
            seed_base: 100,
            default_seeds: 1,
            build: sparse,
        },
    ]
}

/// Looks a suite up by name.
pub fn find(name: &str) -> Option<Suite> {
    all().into_iter().find(|s| s.name == name)
}

fn paper() -> Vec<Arc<dyn Scenario>> {
    vec![
        ports::e1_fig1_port(),
        ports::e2_pom_port(),
        ports::e3_rra_port(),
        ports::e4_ssba_port(),
        ports::e5_virus_port(),
        ports::e6_overhead_port(),
        ports::e7_dynamics_port(),
        ports::e8_cadence_port(),
        ports::legislative_election_port(),
    ]
}

fn examples() -> Vec<Arc<dyn Scenario>> {
    vec![
        ports::quickstart_port(),
        ports::manipulation_audit_port(),
        ports::rra_consortium_port(),
    ]
}

fn gossip(id: ProcessId, _n: usize) -> Box<dyn Process> {
    Box::new(MaxGossip::new(id.index() as u64))
}

fn flood(_id: ProcessId, _n: usize) -> Box<dyn Process> {
    Box::new(Flood::default())
}

fn smoke() -> Vec<Arc<dyn Scenario>> {
    let mut scenarios: Vec<Arc<dyn Scenario>> = Vec::new();

    // Reliable flood on a complete graph: exact delivery accounting.
    scenarios.push(Arc::new(
        ScenarioSpec::new("smoke_flood_complete", TopologyFamily::Complete(8), flood)
            .max_rounds(20)
            .verdict(|_, r| {
                Verdict::check(
                    r.messages.delivered == 8 * 7 * 20 && r.messages.dropped_lossy == 0,
                    "complete reliable flood must deliver degree × rounds",
                )
            }),
    ));

    // Lossy ring, swept over the drop probability via a parameter grid:
    // the observed drop rate must track the configured one.
    scenarios.extend(sweep::expand_grid(
        "smoke_lossy_ring",
        &ParamGrid::new().axis("p", [0.1, 0.3]),
        |point| {
            let p = point[0].1;
            ScenarioSpec::new("smoke_lossy_ring", TopologyFamily::Ring(12), flood)
                .delivery(Delivery::Lossy { p })
                .max_rounds(40)
                .verdict(move |_, r| {
                    Verdict::check(
                        (r.messages.lossy_drop_rate - p).abs() < 0.15
                            && r.messages.dropped_lossy > 0,
                        "observed drop rate should track the configured p",
                    )
                })
        },
    ));

    // Star churn: the hub dies at round 3 and recovers at round 8; gossip
    // must still reach the fixpoint before the budget.
    scenarios.push(Arc::new(
        ScenarioSpec::new("smoke_star_hub_churn", TopologyFamily::Star(9), gossip)
            .schedule(
                Schedule::new()
                    .at(3, ScheduledAction::Disconnect(ProcessId(0)))
                    .at(
                        8,
                        ScheduledAction::Reconnect(ProcessId(0), (1..9).map(ProcessId).collect()),
                    ),
            )
            .max_rounds(24)
            .stop_when(|sim| {
                gossip_agreed(sim, 0..9)
                    && sim
                        .process_as::<MaxGossip>(ProcessId(0))
                        .map(|p| p.current == 8)
                        .unwrap_or(false)
            })
            .verdict(|_, r| {
                Verdict::check(
                    r.stopped_at.is_some(),
                    "gossip should reach the fixpoint after the hub recovers",
                )
            }),
    ));

    // Grid with a mid-run total transient fault: self-stabilization means
    // the gossipers re-agree afterwards, and the fault's channel wipe is
    // visible in the drop accounting.
    scenarios.push(Arc::new(
        ScenarioSpec::new(
            "smoke_grid_fault_recovery",
            TopologyFamily::Grid(4, 4),
            gossip,
        )
        .schedule(Schedule::new().at(
            6,
            ScheduledAction::Corrupt(CorruptionFamily::total(1), Recurrence::Once),
        ))
        .max_rounds(40)
        .verdict(|sim, r| {
            Verdict::check(
                gossip_agreed(sim, 0..16),
                "gossip must re-agree after the fault",
            )
            .and(Verdict::check(
                r.messages.dropped_fault > 0,
                "the fault's channel wipe should be accounted",
            ))
        }),
    ));

    // Colluders whose coordinated 9-byte lies never decode: honest
    // gossipers must ignore them and agree on the honest maximum.
    scenarios.push(Arc::new(
        ScenarioSpec::new("smoke_colluders", TopologyFamily::Complete(7), gossip)
            .colluders([5, 6])
            .max_rounds(10)
            .verdict(|sim, _| {
                let honest_max = sim.process_as::<MaxGossip>(ProcessId(0)).map(|p| p.current);
                Verdict::check(
                    gossip_agreed(sim, 0..5) && honest_max == Some(4),
                    "honest gossipers should agree on the honest maximum",
                )
            }),
    ));

    // Edge-level partition churn: a healable bisection splits the
    // complete graph into two silent halves at round 0 and rejoins them
    // at round 6. The lower half can only learn the global maximum (id 9,
    // in the upper half) after the heal, so convergence is provably
    // delayed past it.
    scenarios.push(Arc::new(
        ScenarioSpec::new("smoke_partition_heal", TopologyFamily::Complete(10), gossip)
            .schedule(Schedule::new().bisect(&Topology::complete(10), 0, 6))
            .max_rounds(30)
            .stop_when(|sim| {
                gossip_agreed(sim, 0..10)
                    && sim
                        .process_as::<MaxGossip>(ProcessId(0))
                        .map(|p| p.current == 9)
                        .unwrap_or(false)
            })
            .verdict(|_, r| {
                Verdict::check(
                    r.stopped_at.is_some_and(|round| round > 6),
                    "the halves must re-agree on the global max only after the heal",
                )
            }),
    ));

    // Worst-case-by-degree placement: the star's hub is the max-degree
    // vertex, so the strategy must silence it and cut every leaf off.
    scenarios.push(Arc::new(
        ScenarioSpec::new("smoke_worst_case_hub", TopologyFamily::Star(8), flood)
            .place(PlacementStrategy::WorstCaseByDegree {
                f: 1,
                role: Role::Silent,
            })
            .max_rounds(10)
            .probe(|sim, record| {
                let heard = sim
                    .process_as::<Flood>(ProcessId(1))
                    .map(|f| f.heard)
                    .unwrap_or(99);
                record.metric("leaf_heard", heard as f64);
            })
            .verdict(|_, r| {
                Verdict::check(
                    r.get_metric("leaf_heard") == Some(0.0),
                    "silencing the hub by degree must cut every leaf off",
                )
            }),
    ));

    // A well-formed equivocator: different lies to even/odd neighbors.
    // Max-gossip absorbs the disagreement — everyone converges to the
    // larger lie.
    scenarios.push(Arc::new(
        ScenarioSpec::new("smoke_equivocator", TopologyFamily::Complete(6), gossip)
            .adversary(
                5,
                Role::Equivocator {
                    a: MaxGossip::encode(100),
                    b: MaxGossip::encode(200),
                },
            )
            .max_rounds(10)
            .verdict(|sim, _| {
                let v = sim.process_as::<MaxGossip>(ProcessId(0)).map(|p| p.current);
                Verdict::check(
                    gossip_agreed(sim, 0..5) && v == Some(200),
                    "gossip should converge on the equivocator's larger lie",
                )
            }),
    ));

    scenarios
}

fn relay(id: ProcessId, _n: usize) -> Box<dyn Process> {
    Box::new(if id.index() == 0 {
        Relay::source()
    } else {
        Relay::default()
    })
}

/// Large-n sparse scenarios: the populations where O(n)-per-round
/// scanning stops being viable (a 64k ring would spend its whole round
/// budget stepping idle processes) and quiescence-aware stepping is what
/// keeps rounds proportional to the token wavefront.
fn sparse() -> Vec<Arc<dyn Scenario>> {
    vec![
        // 64×64 grid, run to full coverage: the far corner is the last
        // process the wavefront reaches (Manhattan eccentricity 126), so
        // its firing is an O(1) stop probe implying everyone fired.
        Arc::new(
            ScenarioSpec::new("sparse_relay_grid4096", TopologyFamily::Grid(64, 64), relay)
                .max_rounds(200)
                .stop_when(|sim| {
                    sim.process_as::<Relay>(ProcessId(4095))
                        .is_some_and(|p| p.fired)
                })
                .verdict(|sim, r| {
                    Verdict::check(
                        relay_fired(sim, 0..4096) == 4096,
                        "the wavefront must cover the whole grid",
                    )
                    .and(Verdict::check(
                        r.stopped_at == Some(127),
                        "coverage exactly at the corner's eccentricity + 1",
                    ))
                }),
        ),
        // 65536-ring smoke: far too wide to cross in a test budget, so run
        // a fixed 64 rounds and check the two wavefront arms advanced one
        // hop per round — 1 source + 2×63 relays fired.
        Arc::new(
            ScenarioSpec::new("sparse_relay_ring65536", TopologyFamily::Ring(65536), relay)
                .max_rounds(64)
                .verdict(|sim, _| {
                    Verdict::check(
                        relay_fired(sim, 0..65536) == 127,
                        "both wavefront arms must advance one hop per round",
                    )
                }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_finds_every_suite() {
        for suite in all() {
            assert!(find(suite.name).is_some());
            assert!(!suite.scenarios().is_empty());
        }
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn paper_suite_has_all_nine_ports() {
        let names: Vec<String> = find("paper")
            .unwrap()
            .scenarios()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(names.len(), 9);
        for e in 1..=8 {
            assert!(
                names.iter().any(|n| n.starts_with(&format!("e{e}_"))),
                "missing e{e} port in {names:?}"
            );
        }
        assert!(names.iter().any(|n| n == "legislative_election"));
    }

    #[test]
    fn smoke_suite_passes_at_default_plan() {
        let summary = find("smoke").unwrap().run(None, 4);
        assert!(
            summary.all_passed(),
            "smoke failures: {:?}",
            summary
                .records
                .iter()
                .filter(|r| !r.verdict.passed())
                .map(|r| (&r.scenario, r.seed, &r.verdict))
                .collect::<Vec<_>>()
        );
        assert_eq!(summary.runs(), 9 * 3, "9 scenarios × 3 seeds");
    }

    #[test]
    fn authority_suite_passes_at_one_seed() {
        let summary = find("authority").unwrap().run(Some(1), 4);
        assert_eq!(summary.runs(), 5, "5 play families");
        assert!(
            summary.all_passed(),
            "authority failures: {:?}",
            summary
                .records
                .iter()
                .filter(|r| !r.verdict.passed())
                .map(|r| (&r.scenario, r.seed, &r.verdict))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn stabilize_suite_is_registered_with_full_frontier() {
        let suite = find("stabilize").unwrap();
        assert_eq!(suite.seed_base, 60);
        let scenarios = suite.scenarios();
        assert_eq!(scenarios.len(), 27, "2 families × 12 points + 3 ports");
        // The benign edge of the frontier and every port must pass; the
        // harsh (lossy, high-intensity) points are allowed to censor —
        // that is the frontier the suite exists to chart.
        let summary = suite.run(Some(1), 4);
        assert_eq!(summary.runs(), 27);
        for r in &summary.records {
            if r.scenario.contains("[loss=0,") || r.scenario.starts_with("stabilize_port_") {
                assert!(
                    r.verdict.passed(),
                    "{} failed at seed {}: {:?}",
                    r.scenario,
                    r.seed,
                    r.verdict
                );
            }
        }
    }

    #[test]
    fn unsupportive_suite_charts_the_censoring_frontier() {
        let suite = find("unsupportive").unwrap();
        assert_eq!(suite.seed_base, 80);
        let summary = suite.run(Some(1), 4);
        assert_eq!(summary.runs(), 16, "2 families × 8 grid points");
        // Slow periods must pass their certified-bound verdicts; the
        // fast-period, full-intensity corner must censor — that censoring
        // boundary is the frontier the suite exists to chart.
        for r in &summary.records {
            if r.scenario.contains("[period=15,") {
                assert!(
                    r.verdict.passed(),
                    "{} failed at seed {}: {:?}",
                    r.scenario,
                    r.seed,
                    r.verdict
                );
            }
            if r.scenario.contains("[period=2,c=1]") {
                assert!(!r.verdict.passed(), "{} must censor", r.scenario);
            }
        }
    }

    #[test]
    fn sparse_suite_passes_at_default_plan() {
        let summary = find("sparse").unwrap().run(None, 2);
        assert_eq!(summary.runs(), 2, "2 scenarios × 1 seed");
        assert!(
            summary.all_passed(),
            "sparse failures: {:?}",
            summary
                .records
                .iter()
                .filter(|r| !r.verdict.passed())
                .map(|r| (&r.scenario, r.seed, &r.verdict))
                .collect::<Vec<_>>()
        );
    }
}
