//! §3.3 distributed-authority plays as scenario specs — the `authority`
//! suite.
//!
//! The fully distributed game authority (clock-scheduled BA activations,
//! commit/reveal plays, executive punishment —
//! [`game_authority::distributed`]) used to wire its own complete-graph
//! simulator, locking the paper's centerpiece out of the sweep/shard/
//! record machinery. Here every §3.3 play family is a [`ScenarioSpec`]:
//! the spec owns topology, delivery, churn schedule and run seed, and the
//! [`AuthorityCluster`] contributes only process construction. Stop and
//! verdict predicates are stated over the [`PlayRecord`]s the processors
//! accumulate, so `scenario run --suite authority --workers W --shards S`
//! produces byte-identical summaries at any `(W, S)`.
//!
//! Variants:
//!
//! * **honest** — all agents best-respond; plays complete foul-free and
//!   identically everywhere.
//! * **selfish_cluster** — two agents play worst responses (§3.2's foul);
//!   both are convicted in the first audited play and the survivors keep
//!   agreeing.
//! * **mute** — a lazy free-rider never commits; it is convicted
//!   immediately and play continues without it.
//! * **churn** — a scheduled disconnect silences an honest agent mid-play
//!   (it is convicted as absent, §3.3's dropped demand) and the survivors
//!   keep completing identical plays after the reconnect.
//! * **noise** — a simnet-level noise adversary, placed per seed by
//!   [`PlacementStrategy::RandomF`], spews random bytes instead of
//!   following the protocol; the authority convicts whichever position it
//!   landed on.

use std::sync::Arc;

use ga_games::congestion;
use ga_simnet::prelude::*;
use game_authority::agent::Behavior;
use game_authority::distributed::{records_agree, AuthorityCluster, AuthorityProcess, PlayRecord};

use crate::record::{Scenario, Verdict};
use crate::spec::{PlacementStrategy, Role, ScenarioSpec, TopologyFamily};

/// Play records of processor `id`, if it runs the authority protocol
/// (`None` for simnet-level adversaries occupying the slot).
pub fn play_records(sim: &Simulation, id: usize) -> Option<&[PlayRecord]> {
    sim.process_as::<AuthorityProcess>(ProcessId(id))
        .map(AuthorityProcess::records)
}

/// Smallest completed-play count across the authority processors in
/// `ids` (non-authority slots are skipped).
pub fn min_plays(sim: &Simulation, ids: impl IntoIterator<Item = usize>) -> u64 {
    ids.into_iter()
        .filter_map(|id| play_records(sim, id))
        .map(|records| records.len() as u64)
        .min()
        .unwrap_or(0)
}

/// The base spec for a cluster: complete graph, stop once every
/// authority processor finished `plays` plays, standard probe metrics
/// (`plays`, `punished`, `last_fouls` at the first authority slot).
fn authority_spec(name: &str, cluster: AuthorityCluster, plays: u64) -> ScenarioSpec {
    let n = cluster.n();
    let period = cluster.play_len();
    let factory = cluster.clone();
    ScenarioSpec::new_seeded(name, TopologyFamily::Complete(n), move |id, _n, seed| {
        factory.process(id.index(), seed)
    })
    .max_rounds(period * (plays + 2))
    .stop_when(move |sim| min_plays(sim, 0..n) >= plays)
    // Per-round observable: how many plays the slowest authority
    // processor has completed, sampled after every pulse (its mean rises
    // with play throughput — a run stalling mid-play shows up here even
    // when the final `plays` count looks healthy).
    .round_metric("live_plays", move |sim| min_plays(sim, 0..n) as f64)
    .probe(move |sim, record| {
        record.metric("plays", min_plays(sim, 0..n) as f64);
        if let Some(witness) = (0..n).find(|&id| play_records(sim, id).is_some()) {
            let p = sim
                .process_as::<AuthorityProcess>(ProcessId(witness))
                .expect("witness is an authority processor");
            let punished = p.punished().iter().filter(|&&p| p).count();
            record.metric("punished", punished as f64);
            let last_fouls = p.records().last().map_or(0, |rec| rec.fouls);
            record.metric("last_fouls", last_fouls as f64);
        }
    })
}

/// All agents honest: every play completes foul-free and identically.
fn honest() -> Arc<dyn Scenario> {
    let n = 4;
    Arc::new(
        authority_spec(
            "authority_honest",
            AuthorityCluster::new(congestion(n), 1),
            3,
        )
        .verdict(move |sim, record| {
            Verdict::check(record.stopped_at.is_some(), "3 plays within the budget")
                .and(Verdict::check(
                    records_agree(sim, 0..n),
                    "identical play records everywhere",
                ))
                .and(Verdict::check(
                    play_records(sim, 0).is_some_and(|r| r.iter().all(|rec| rec.fouls == 0)),
                    "honest plays carry no fouls",
                ))
        }),
    )
}

/// §3.2's selfish cluster: agents 5 and 6 play worst responses. Play 0
/// has no previous outcome (no best-response obligation); play 1 exposes
/// and convicts both, and the five honest survivors keep agreeing.
///
/// The cluster stays inside the fault budget, `f = 2`, hence `n = 7`, so
/// its two processors could as well be Byzantine ones; the goldens pin
/// that size. Liveness does not need it: conviction stops at the game
/// layer, and the clock keeps ticking past `f` convicted agents
/// (`convicting_more_than_f_selfish_agents_keeps_the_clock` in
/// `game_authority::distributed`).
fn selfish_cluster() -> Arc<dyn Scenario> {
    let n = 7;
    let cluster = AuthorityCluster::new(congestion(n), 2)
        .mode(5, Behavior::worst_response())
        .mode(6, Behavior::worst_response());
    Arc::new(
        authority_spec("authority_selfish_cluster", cluster, 3).verdict(move |sim, record| {
            let caught = play_records(sim, 0).is_some_and(|r| {
                r.len() >= 2 && r[0].fouls == 0 && r[1].fouls & 0b110_0000 == 0b110_0000
            });
            let survivors_clean = (0..5).all(|i| {
                sim.process_as::<AuthorityProcess>(ProcessId(i))
                    .is_some_and(|p| p.punished()[5] && p.punished()[6] && !p.punished()[i])
            });
            Verdict::check(record.stopped_at.is_some(), "3 plays within the budget")
                .and(Verdict::check(
                    caught,
                    "the cluster must be convicted in the first audited play",
                ))
                .and(Verdict::check(
                    survivors_clean,
                    "every survivor disconnects exactly the cluster",
                ))
                .and(Verdict::check(
                    records_agree(sim, 0..n),
                    "identical play records everywhere",
                ))
        }),
    )
}

/// A lazy free-rider: participates in agreement but never commits or
/// reveals. Convicted as missing in play 0; the survivors play on.
fn mute() -> Arc<dyn Scenario> {
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1).mode(3, Behavior::silent());
    Arc::new(
        authority_spec("authority_mute", cluster, 3).verdict(move |sim, record| {
            let records = play_records(sim, 0).unwrap_or(&[]);
            Verdict::check(record.stopped_at.is_some(), "3 plays within the budget")
                .and(Verdict::check(
                    records.first().is_some_and(|rec| rec.fouls & 0b1000 != 0),
                    "the mute agent is convicted in play 0",
                ))
                .and(Verdict::check(
                    records.last().is_some_and(|rec| rec.fouls & 0b0111 == 0),
                    "the survivors play on foul-free",
                ))
                .and(Verdict::check(
                    records_agree(sim, 0..n),
                    "identical play records everywhere",
                ))
        }),
    )
}

/// Churn: a scheduled disconnect silences honest agent 3 during play 1,
/// so the executive drops its demand (it is convicted as absent) and the
/// survivors keep completing identical plays after the reconnect.
fn churn() -> Arc<dyn Scenario> {
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1);
    let period = cluster.play_len();
    Arc::new(
        authority_spec("authority_churn", cluster, 4)
            .schedule(
                Schedule::new()
                    .at(period + 1, ScheduledAction::Disconnect(ProcessId(3)))
                    .at(
                        period * 2 + 1,
                        ScheduledAction::Reconnect(ProcessId(3), (0..3).map(ProcessId).collect()),
                    ),
            )
            .stop_when(move |sim| min_plays(sim, 0..3) >= 4)
            .verdict(move |sim, record| {
                let convicted = (0..3).all(|i| {
                    sim.process_as::<AuthorityProcess>(ProcessId(i))
                        .is_some_and(|p| p.punished()[3] && !p.punished()[i])
                });
                Verdict::check(record.stopped_at.is_some(), "4 plays within the budget")
                    .and(Verdict::check(
                        convicted,
                        "the disconnected agent's demand is dropped (convicted as absent)",
                    ))
                    .and(Verdict::check(
                        records_agree(sim, 0..3),
                        "the survivors agree on every play",
                    ))
            }),
    )
}

/// A simnet-level noise adversary — random bytes, no protocol — placed
/// per run seed by [`PlacementStrategy::RandomF`], so one spec covers
/// the whole adversary-position family. The honest majority convicts
/// whichever position it landed on.
fn noise() -> Arc<dyn Scenario> {
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1);
    Arc::new(
        authority_spec("authority_noise", cluster, 3)
            .place(PlacementStrategy::RandomF {
                f: 1,
                role: Role::Noise { max_len: 24 },
            })
            .verdict(move |sim, record| {
                let Some(noisy) = (0..n).find(|&id| play_records(sim, id).is_none()) else {
                    return Verdict::Fail("no noise slot placed".into());
                };
                let honest: Vec<usize> = (0..n).filter(|&id| id != noisy).collect();
                let convicted = honest.iter().all(|&i| {
                    sim.process_as::<AuthorityProcess>(ProcessId(i))
                        .is_some_and(|p| p.punished()[noisy] && !p.punished()[i])
                });
                Verdict::check(record.stopped_at.is_some(), "3 plays within the budget")
                    .and(Verdict::check(
                        convicted,
                        "the noise position is convicted wherever it lands",
                    ))
                    .and(Verdict::check(
                        records_agree(sim, honest.iter().copied()),
                        "the honest majority agrees on every play",
                    ))
            }),
    )
}

/// The `authority` suite: every §3.3 play family as a spec.
pub fn suite() -> Vec<Arc<dyn Scenario>> {
    vec![honest(), selfish_cluster(), mute(), churn(), noise()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_passes_across_seeds() {
        for scenario in suite() {
            for seed in [40, 41] {
                let record = scenario.run(seed);
                assert!(
                    record.verdict.passed(),
                    "{} failed at seed {seed}: {:?}",
                    scenario.name(),
                    record.verdict
                );
                assert!(record.get_metric("plays").unwrap_or(0.0) >= 3.0);
            }
        }
    }

    #[test]
    fn records_are_shard_invariant() {
        // The authority's per-process randomness is all (seed, id, round)
        // derived, so intra-run sharding must not change a single play.
        for scenario in suite() {
            let serial = scenario.run_on(40, 1, &Runtime::global());
            for shards in [2, 4] {
                assert_eq!(
                    scenario.run_on(40, shards, &Runtime::global()),
                    serial,
                    "{} diverged at {shards} shards",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn helpers_skip_non_authority_slots() {
        let spec = ScenarioSpec::new("helper_probe", TopologyFamily::Complete(3), |_, _| {
            Box::new(crate::workload::Flood::default())
        })
        .max_rounds(2)
        .probe(|sim, r| {
            r.metric("min_plays", min_plays(sim, 0..3) as f64);
            r.metric("agree", f64::from(records_agree(sim, 0..3)));
        });
        let record = spec.run(0);
        assert_eq!(record.get_metric("min_plays"), Some(0.0));
        assert_eq!(record.get_metric("agree"), Some(1.0), "vacuously true");
    }
}
