//! The `stabilize` suite: scheduled corruption, stabilization-time
//! probes, and the lossy frontier of the paper's recovery claims.
//!
//! Self-stabilization (§2) promises convergence from *any* configuration.
//! The suite states that promise as data: every scenario schedules a
//! [`CorruptionFamily`] at a fixed round, declares the protocol's legal
//! set as a predicate, and lets the [`stabilization`] probe measure
//! `rounds_to_stabilize` — with explicit censoring when the budget runs
//! out, so a diverged run never masquerades as a slow one.
//!
//! Two frontier families sweep a `loss × corruption-intensity × n` grid:
//!
//! * **stabilize_ssba** — the §3.1 self-stabilizing Byzantine agreement
//!   composition ([`SsbaProcess`]); legal = all clocks equal.
//! * **stabilize_pulse** — the §3.3 common pulse generator
//!   ([`ClockProcess`]); legal = all clock values equal.
//!
//! At `loss = 0` both legal sets are closed (an all-equal configuration
//! keeps its quorum every round), so every run stabilizes and the
//! percentiles read as pure recovery times. Under loss the legal set is
//! *not* closed — quorum misses knock synchronized clocks apart for a
//! round or two — so `rounds_to_stabilize` grows toward the budget and
//! harsh grid points censor: that widening band *is* the stabilization
//! frontier the table renders.
//!
//! Three `stabilize_port_*` scenarios port the historical
//! `tests/self_stabilization.rs` integration experiments into the suite,
//! so the same machinery (sweeps, percentiles, byte-identical parallel
//! summaries) covers them too.
//!
//! With `--events` the probe also narrates recovery on the deterministic
//! event plane: every legality transition lands as a
//! [`LegalityFlip`](ga_simnet::telemetry::Event::LegalityFlip) event, so
//! a `scenario trace` render shows the illegal window between the
//! corruption instant and re-entry into the legal set. Censored runs fail
//! their verdicts, which the CLI reports as exit code 2 — distinct from
//! exit code 1, which is reserved for real errors.
//!
//! [`stabilization`]: crate::spec::ScenarioSpec::stabilization

use std::sync::Arc;

use ga_agreement::consensus::OmConsensus;
use ga_agreement::om;
use ga_clocksync::harness::{measure_convergence_with, run_ssba};
use ga_clocksync::process::ClockProcess;
use ga_clocksync::ssba::SsbaProcess;
use ga_games::congestion;
use ga_simnet::prelude::*;
use ga_simnet::sim::Delivery;
use game_authority::distributed::AuthorityCluster;

use crate::authority::{min_plays, play_records};
use crate::record::{FnScenario, RunRecord, Scenario, Verdict};
use crate::spec::{ScenarioSpec, TopologyFamily};
use crate::sweep::{expand_grid, ParamGrid};

/// The round every frontier scenario fires its corruption at — late
/// enough for a clean start to have synchronized first, so the probe
/// measures recovery, not initial convergence.
const CORRUPTION_ROUND: u64 = 12;

/// Round budget for the frontier families. Clean-start synchronization
/// for n ∈ {4, 7} takes a handful of rounds in expectation, so a run
/// still illegal after 240 rounds is diverged-for-the-budget, not slow.
const ROUND_BUDGET: u64 = 240;

/// Decorrelates the suite's corruption draws from any other family a
/// spec might schedule.
const SALT: u64 = 0x57AB_112E;

/// The single corruption knob `c ∈ (0, 1]` mapped onto a family:
/// scramble `ceil(c · n)` seed-chosen processes and corrupt/drop each
/// in-flight message with probability `c`.
fn corruption(n: usize, c: f64) -> CorruptionFamily {
    let k = ((c * n as f64).ceil() as usize).clamp(1, n);
    CorruptionFamily::intensity(k, c, SALT)
}

/// Axis lookup inside an [`expand_grid`] point.
fn param(point: &[(String, f64)], name: &str) -> f64 {
    point
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .expect("grid axis present")
}

/// `loss = 0` means reliable delivery, not `Lossy {{ p: 0.0 }}` — the
/// closed-legal-set baseline should not pay the lossy code path.
fn delivery(loss: f64) -> Delivery {
    if loss > 0.0 {
        Delivery::Lossy { p: loss }
    } else {
        Delivery::Reliable
    }
}

/// The frontier grid: delivery loss rate × corruption intensity × n.
fn frontier_grid() -> ParamGrid {
    ParamGrid::new()
        .axis("loss", [0.0, 0.05, 0.15])
        .axis("c", [0.3, 1.0])
        .axis("n", [4.0, 7.0])
}

/// Pass = the run re-entered the legal set within the budget. Censored
/// runs fail their verdict, which is what the frontier table's pass-rate
/// column counts.
fn stabilized_verdict(_sim: &Simulation, record: &RunRecord) -> Verdict {
    Verdict::check(
        record.get_metric("censored") == Some(0.0),
        "stabilized within the round budget",
    )
}

/// Legal set of both frontier families: every process is a `P` and all
/// their clocks hold one value.
fn clocks_agree<P: 'static>(sim: &Simulation, n: usize, clock: fn(&P) -> u64) -> bool {
    let mut value = None;
    (0..n).all(|id| {
        sim.process_as::<P>(ProcessId(id))
            .is_some_and(|p| *value.get_or_insert(clock(p)) == clock(p))
    })
}

/// §3.1 SSBA over the frontier grid.
fn ssba_family() -> Vec<Arc<dyn Scenario>> {
    expand_grid("stabilize_ssba", &frontier_grid(), |point| {
        let loss = param(point, "loss");
        let c = param(point, "c");
        let n = param(point, "n") as usize;
        let f = (n - 1) / 3;
        let modulus = om::rounds(f) + 2;
        ScenarioSpec::new(
            "stabilize_ssba",
            TopologyFamily::Complete(n),
            move |id, _| {
                Box::new(SsbaProcess::new(
                    n,
                    f,
                    modulus,
                    OmConsensus::new(id.index(), n, f),
                    1 + id.index() as u64,
                ))
            },
        )
        .delivery(delivery(loss))
        .schedule(Schedule::new().at(
            CORRUPTION_ROUND,
            ScheduledAction::Corrupt(corruption(n, c), Recurrence::Once),
        ))
        .max_rounds(ROUND_BUDGET)
        .stabilization(CORRUPTION_ROUND, move |sim| {
            clocks_agree(sim, n, SsbaProcess::<OmConsensus>::clock_value)
        })
        .verdict(stabilized_verdict)
    })
}

/// §3.3 common pulse generator over the frontier grid.
fn pulse_family() -> Vec<Arc<dyn Scenario>> {
    expand_grid("stabilize_pulse", &frontier_grid(), |point| {
        let loss = param(point, "loss");
        let c = param(point, "c");
        let n = param(point, "n") as usize;
        let f = (n - 1) / 3;
        ScenarioSpec::new(
            "stabilize_pulse",
            TopologyFamily::Complete(n),
            move |_, _| Box::new(ClockProcess::new(n, f, 8, 0)),
        )
        .delivery(delivery(loss))
        .schedule(Schedule::new().at(
            CORRUPTION_ROUND,
            ScheduledAction::Corrupt(corruption(n, c), Recurrence::Once),
        ))
        .max_rounds(ROUND_BUDGET)
        .stabilization(CORRUPTION_ROUND, move |sim| {
            clocks_agree(sim, n, ClockProcess::value)
        })
        .verdict(stabilized_verdict)
    })
}

/// Port of `clock_sync_converges_from_arbitrary_states_across_seeds`:
/// the Theorem 1 clock converges from a seed-scrambled start, measured
/// in pulses. Censors (and fails) on budget exhaustion.
pub fn clock_convergence_port() -> Arc<dyn Scenario> {
    Arc::new(FnScenario::new(
        "stabilize_port_clock_convergence",
        |seed| {
            let budget = 200_000;
            let mut record = RunRecord::new("stabilize_port_clock_convergence", seed);
            match measure_convergence_with(4, 1, 1, 8, seed, budget) {
                Some(pulses) => {
                    record.rounds = pulses;
                    record.metric("convergence_pulses", pulses as f64);
                    record.metric("censored", 0.0);
                }
                None => {
                    record.rounds = budget;
                    record.metric("censored", 1.0);
                }
            }
            let converged = record.get_metric("censored") == Some(0.0);
            record.require(converged, "clock converges within the pulse budget");
            record
        },
    ))
}

/// Port of `ssba_closure_after_midrun_fault`: a total transient fault at
/// pulse 150 must leave every honest log sharing a 2-decision suffix.
pub fn ssba_closure_port() -> Arc<dyn Scenario> {
    Arc::new(FnScenario::new("stabilize_port_ssba_closure", |seed| {
        let mut record = RunRecord::new("stabilize_port_ssba_closure", seed);
        let report = run_ssba(4, 1, 1, 1200, Some(150), seed);
        record.rounds = report.pulses;
        let agreements = report.logs.iter().map(Vec::len).min().unwrap_or(0);
        record.metric("agreements", agreements as f64);
        record.require(
            report.common_suffix(2),
            "honest logs share a 2-decision suffix after the fault",
        );
        record
    }))
}

/// Legal set of the authority-recovery port: the *latest* play record is
/// identical everywhere. (The full logs intentionally stay out of the
/// predicate: a solo play appended mid-chaos diverges the append-only
/// logs forever, but the latest-play view heals as soon as the next
/// synchronized play lands everywhere.)
fn last_plays_agree(sim: &Simulation, n: usize) -> bool {
    let mut reference = None;
    for id in 0..n {
        let Some(records) = play_records(sim, id) else {
            return false;
        };
        if *reference.get_or_insert(records.last()) != records.last() {
            return false;
        }
    }
    true
}

/// Port of `distributed_authority_recovers_and_keeps_agreeing`: a full
/// §3.3 cluster is corrupted wholesale (every process scrambled, every
/// in-flight message dropped) after three plays; it must re-enter the
/// agreeing state and keep completing plays.
pub fn authority_recovery_port() -> Arc<dyn Scenario> {
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1);
    let period = cluster.play_len();
    let corruption_round = period * 3 + 1;
    let family = CorruptionFamily {
        targets: CorruptionTargets::All,
        corrupt_messages_p: 0.0,
        drop_messages_p: 1.0,
        garbage_messages: 0,
        salt: SALT,
    };
    Arc::new(
        ScenarioSpec::new_seeded(
            "stabilize_port_authority_recovery",
            TopologyFamily::Complete(n),
            move |id, _, seed| cluster.process(id.index(), seed),
        )
        .schedule(Schedule::new().at(
            corruption_round,
            ScheduledAction::Corrupt(family, Recurrence::Once),
        ))
        .max_rounds(period * 56)
        .stabilization(corruption_round, move |sim| last_plays_agree(sim, n))
        .probe(move |sim, record| {
            record.metric("plays", min_plays(sim, 0..n) as f64);
        })
        .verdict(move |sim, record| {
            stabilized_verdict(sim, record).and(Verdict::check(
                min_plays(sim, 0..n) > 3,
                "plays keep completing after recovery",
            ))
        }),
    )
}

/// The `stabilize` suite: both frontier families plus the three ports.
pub fn suite() -> Vec<Arc<dyn Scenario>> {
    let mut scenarios = ssba_family();
    scenarios.extend(pulse_family());
    scenarios.push(clock_convergence_port());
    scenarios.push(ssba_closure_port());
    scenarios.push(authority_recovery_port());
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape() {
        let scenarios = suite();
        // 3 loss × 2 c × 2 n per family, two families, three ports.
        assert_eq!(scenarios.len(), 12 + 12 + 3);
        assert!(scenarios.iter().all(|s| s.name().starts_with("stabilize_")));
    }

    #[test]
    fn corruption_intensity_scales_targets() {
        assert!(matches!(
            corruption(4, 0.3).targets,
            CorruptionTargets::RandomK(2)
        ));
        assert!(matches!(
            corruption(7, 1.0).targets,
            CorruptionTargets::RandomK(7)
        ));
        assert!(
            matches!(corruption(4, 0.01).targets, CorruptionTargets::RandomK(1)),
            "at least one victim"
        );
    }

    #[test]
    fn benign_frontier_points_stabilize() {
        // loss = 0: the legal set is closed, so every seed must recover
        // (censored = 0) and report a finite stabilization time.
        for scenario in suite() {
            if !scenario.name().contains("[loss=0,") {
                continue;
            }
            for seed in [60, 61] {
                let r = scenario.run(seed);
                assert_eq!(
                    r.get_metric("censored"),
                    Some(0.0),
                    "{} censored at seed {seed}",
                    scenario.name()
                );
                assert!(
                    r.verdict.passed(),
                    "{} failed at seed {seed}: {:?}",
                    scenario.name(),
                    r.verdict
                );
                assert!(r.get_metric("rounds_to_stabilize").is_some());
            }
        }
    }

    #[test]
    fn corruption_actually_perturbs_the_frontier_runs() {
        // At full intensity the probe must see at least one illegal
        // round, i.e. a strictly positive stabilization time.
        let scenarios = suite();
        let full = scenarios
            .iter()
            .find(|s| s.name() == "stabilize_pulse[loss=0,c=1,n=4]")
            .expect("grid point exists");
        let positive = (60..70).any(|seed| {
            full.run(seed)
                .get_metric("rounds_to_stabilize")
                .is_some_and(|r| r > 0.0)
        });
        assert!(positive, "total corruption desynchronizes some seed");
    }

    #[test]
    fn ports_pass_at_suite_seeds() {
        for port in [
            clock_convergence_port(),
            ssba_closure_port(),
            authority_recovery_port(),
        ] {
            for seed in [60, 61] {
                let r = port.run(seed);
                assert!(
                    r.verdict.passed(),
                    "{} failed at seed {seed}: {:?}",
                    port.name(),
                    r.verdict
                );
            }
        }
    }

    #[test]
    fn frontier_runs_are_pure_and_shard_invariant() {
        let scenarios = suite();
        let point = scenarios
            .iter()
            .find(|s| s.name() == "stabilize_ssba[loss=0.05,c=1,n=4]")
            .expect("grid point exists");
        let serial = point.run_on(60, 1, &Runtime::global());
        assert_eq!(point.run(60), serial, "pure in the seed");
        assert_eq!(
            point.run_on(60, 4, &Runtime::global()),
            serial,
            "corruption draws are (seed, id, round) anchored, not visit-ordered"
        );
    }
}
