//! The `unsupportive` suite: recovery under *recurring* corruption.
//!
//! The `stabilize` suite measures recovery from a single transient burst.
//! Dolev & Herman's "unsupportive environments" model (arXiv cs/0105013)
//! is harsher: faults keep re-firing while the system is still converging,
//! and the interesting quantity becomes the *critical re-fire frequency*
//! — the corruption period below which the system is re-corrupted faster
//! than it can recover and never stabilizes between bursts.
//!
//! This suite charts that frontier with the [`BfsTree`] spanning-tree
//! workload, whose recovery time has a *certified* topology bound
//! ([`certified_bound`], after Altisen & Bozga, arXiv 2502.17035) — so the
//! verdicts here check measured recoveries against a theorem instead of
//! merely plotting them. Two families of known diameter 4 (`ring(8)` and
//! `grid(3, 3)`) sweep corruption **period × intensity** via a single
//! recurring [`ScheduledAction::Corrupt`] entry
//! ([`Recurrence::Every`] — one schedule entry, re-armed lazily at fire
//! time), and the stabilization probe scores one episode per burst:
//!
//! * `period > certified_bound` — every episode recovers; each emits one
//!   `rounds_to_stabilize`, the verdict checks all of them against the
//!   bound, and `censored = 0`.
//! * `period ≲ recovery time` — episodes are squeezed shut while still
//!   illegal and **censored**; the verdict fails (exit code 2, tolerated
//!   by the tooling: a censored frontier point is the finding, not an
//!   error) and `legal_fraction` records how little availability
//!   survives sustained bursts.
//!
//! Render the frontier with
//! `scenario run --suite unsupportive --table rounds_to_stabilize`: the
//! `rate` column is the fraction of runs whose episodes all recovered
//! within the bound, and the percentiles aggregate per-episode recovery
//! times. `--events` + `scenario trace` shows the same story as
//! `LegalityFlip` runs between `corruption_applied` marks.

use std::sync::Arc;

use ga_simnet::prelude::*;

use crate::bfs::{bfs_tree_legal, certified_bound, BfsTree};
use crate::record::{RunRecord, Scenario, Verdict};
use crate::spec::{ScenarioSpec, TopologyFamily};
use crate::sweep::{expand_grid, ParamGrid};

/// The round the first burst fires at — late enough for the clean-start
/// tree to have converged, so episode 0 measures recovery, not initial
/// convergence.
const BURST_START: u64 = 8;

/// Last round (inclusive) a re-fire may be scheduled at: every period in
/// the grid gets at least three bursts inside the window.
const BURST_UNTIL: u64 = 38;

/// Round budget: the burst window plus a recovery tail longer than any
/// certified bound in the suite, so the *final* episode is never censored
/// by the budget — only by the next burst, which is the frontier.
const ROUND_BUDGET: u64 = 60;

/// Decorrelates this suite's corruption draws from every other family.
const SALT: u64 = 0xD01E_0BF5;

/// The corruption intensity knob `c ∈ (0, 1]`: scramble `ceil(c · n)`
/// seed-chosen registers and corrupt/drop each in-flight claim with
/// probability `c`. (The channel degradation is what makes a register
/// scramble observable to [`BfsTree`] at all — with the claims intact one
/// pulse re-adopts the pre-burst distances.)
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

/// The period × intensity grid. Periods straddle the certified bound
/// (6 rounds for both topologies): 2 and 4 re-fire faster than a full
/// recovery, 8 and 15 leave room — the censoring boundary between them is
/// the critical re-fire frequency the suite charts.
fn frontier_grid() -> ParamGrid {
    ParamGrid::new()
        .axis("period", [2.0, 4.0, 8.0, 15.0])
        .axis("c", [0.25, 1.0])
}

/// Verdict: every opened episode recovered between bursts *and* every
/// measured recovery sits within the certified topology bound.
fn certified_verdict(bound: u64) -> impl Fn(&Simulation, &RunRecord) -> Verdict + Clone {
    move |_sim: &Simulation, record: &RunRecord| {
        let within = record
            .metrics
            .iter()
            .filter(|(name, _)| name == "rounds_to_stabilize")
            .all(|(_, v)| *v <= bound as f64);
        Verdict::check(
            record.get_metric("censored") == Some(0.0),
            "every episode recovers before the next burst",
        )
        .and(Verdict::check(
            within,
            "every recovery within the certified bound",
        ))
    }
}

/// One frontier family over `topology` (a fixed graph of known diameter).
fn family(
    name: &'static str,
    family: TopologyFamily,
    topology: Topology,
) -> Vec<Arc<dyn Scenario>> {
    let bound = certified_bound(&topology)
        .expect("frontier topologies are connected and therefore have a certified bound");
    let n = topology.len();
    expand_grid(name, &frontier_grid(), move |point| {
        let period = param(point, "period") as u64;
        let c = param(point, "c");
        let recurrence = Recurrence::Every {
            period,
            until: BURST_UNTIL,
        };
        ScenarioSpec::new(name, family.clone(), |id, _| Box::new(BfsTree::new(id)))
            .schedule(Schedule::new().at(
                BURST_START,
                ScheduledAction::Corrupt(corruption(n, c), recurrence),
            ))
            .max_rounds(ROUND_BUDGET)
            .stabilization_episodes(recurrence.firing_rounds(BURST_START), bfs_tree_legal)
            .verdict(certified_verdict(bound))
    })
}

/// Every scenario of the `unsupportive` suite: the ring and grid frontier
/// families (2 × 8 grid points).
pub fn suite() -> Vec<Arc<dyn Scenario>> {
    let mut scenarios = family(
        "unsupportive_ring",
        TopologyFamily::Ring(8),
        Topology::ring(8),
    );
    scenarios.extend(family(
        "unsupportive_grid",
        TopologyFamily::Grid(3, 3),
        Topology::grid(3, 3),
    ));
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape() {
        let scenarios = suite();
        assert_eq!(
            scenarios.len(),
            16,
            "2 families × 4 periods × 2 intensities"
        );
        assert!(scenarios
            .iter()
            .any(|s| s.name() == "unsupportive_ring[period=2,c=1]"));
        assert!(scenarios
            .iter()
            .any(|s| s.name() == "unsupportive_grid[period=15,c=0.25]"));
    }

    #[test]
    fn slow_periods_pass_the_certified_bound_at_suite_seeds() {
        // period 15 > bound 6: every episode recovers and every recovery
        // is within the certified bound, at both default suite seeds.
        for scenario in suite() {
            if !scenario.name().contains("[period=15,") {
                continue;
            }
            for seed in [80, 81] {
                let r = scenario.run(seed);
                assert!(
                    r.verdict.passed(),
                    "{} seed {seed}: {:?}",
                    scenario.name(),
                    r.verdict
                );
                assert_eq!(r.get_metric("censored"), Some(0.0));
                let recoveries: Vec<f64> = r
                    .metrics
                    .iter()
                    .filter(|(n, _)| n == "rounds_to_stabilize")
                    .map(|(_, v)| *v)
                    .collect();
                assert_eq!(recoveries.len(), 3, "one per burst at 8, 23, 38");
                assert!(recoveries.iter().any(|&v| v > 0.0), "bursts actually hurt");
            }
        }
    }

    #[test]
    fn fast_periods_at_full_intensity_censor() {
        // period 2 at c = 1 re-corrupts faster than any recovery: the
        // squeezed episodes censor, the verdict fails (the charted
        // frontier) and availability collapses.
        for name in [
            "unsupportive_ring[period=2,c=1]",
            "unsupportive_grid[period=2,c=1]",
        ] {
            let scenario = suite()
                .into_iter()
                .find(|s| s.name() == name)
                .expect("grid point exists");
            let r = scenario.run(80);
            assert!(!r.verdict.passed(), "{name} must censor");
            assert!(r.get_metric("censored").unwrap() >= 10.0, "{r:?}");
            let legal = r.get_metric("legal_fraction").unwrap();
            assert!(
                legal < 0.5,
                "availability collapses under period 2: {legal}"
            );
        }
    }

    #[test]
    fn frontier_runs_are_pure_and_shard_invariant() {
        let scenario = suite()
            .into_iter()
            .find(|s| s.name() == "unsupportive_ring[period=4,c=1]")
            .unwrap();
        let a = scenario.run(80);
        assert_eq!(a, scenario.run(80), "pure in the seed");
        assert_eq!(
            a,
            scenario.run_on(80, 4, &Runtime::global()),
            "shards never change it"
        );
    }
}
