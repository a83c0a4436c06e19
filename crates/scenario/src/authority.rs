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

use std::io::{self, Write};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use ga_games::congestion;
use ga_simnet::prelude::*;
use game_authority::agent::Behavior;
use game_authority::distributed::{records_agree, AuthorityCluster, AuthorityProcess, PlayRecord};

use crate::json::Json;
use crate::record::{RunRecord, Scenario, Verdict};
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

/// A configuration's spec and the ids whose agents deviate in it. Each
/// builder sets those agents' modes or schedule from the same list it
/// returns, so the two cannot fall out of step.
type Configuration = (ScenarioSpec, &'static [usize]);

/// All agents honest: every play completes foul-free and identically.
fn honest(plays: u64) -> Configuration {
    let n = 4;
    let spec = authority_spec(
        "authority_honest",
        AuthorityCluster::new(congestion(n), 1),
        plays,
    )
    .verdict(move |sim, record| {
        Verdict::check(record.stopped_at.is_some(), &within_budget(plays))
            .and(Verdict::check(
                records_agree(sim, 0..n),
                "identical play records everywhere",
            ))
            .and(Verdict::check(
                play_records(sim, 0).is_some_and(|r| r.iter().all(|rec| rec.fouls == 0)),
                "honest plays carry no fouls",
            ))
    });
    (spec, &[])
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
fn selfish_cluster(plays: u64) -> Configuration {
    const SELFISH: &[usize] = &[5, 6];
    let n = 7;
    let cluster = SELFISH
        .iter()
        .fold(AuthorityCluster::new(congestion(n), 2), |cluster, &id| {
            cluster.mode(id, Behavior::worst_response())
        });
    let spec =
        authority_spec("authority_selfish_cluster", cluster, plays).verdict(move |sim, record| {
            let caught = play_records(sim, 0).is_some_and(|r| {
                r.len() >= 2 && r[0].fouls == 0 && r[1].fouls & 0b110_0000 == 0b110_0000
            });
            let survivors_clean = (0..5).all(|i| {
                sim.process_as::<AuthorityProcess>(ProcessId(i))
                    .is_some_and(|p| SELFISH.iter().all(|&id| p.punished()[id]) && !p.punished()[i])
            });
            Verdict::check(record.stopped_at.is_some(), &within_budget(plays))
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
        });
    (spec, SELFISH)
}

/// A lazy free-rider: participates in agreement but never commits or
/// reveals. Convicted as missing in play 0; the survivors play on.
fn mute(plays: u64) -> Configuration {
    const MUTE: &[usize] = &[3];
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1).mode(MUTE[0], Behavior::silent());
    let spec = authority_spec("authority_mute", cluster, plays).verdict(move |sim, record| {
        let records = play_records(sim, 0).unwrap_or(&[]);
        Verdict::check(record.stopped_at.is_some(), &within_budget(plays))
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
    });
    (spec, MUTE)
}

/// Churn: a scheduled disconnect silences honest agent 3 during play 1,
/// so the executive drops its demand (it is convicted as absent) and the
/// survivors keep completing identical plays after the reconnect.
fn churn(plays: u64) -> Configuration {
    const ABSENT: &[usize] = &[3];
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1);
    let period = cluster.play_len();
    let absent = ProcessId(ABSENT[0]);
    let spec = authority_spec("authority_churn", cluster, plays)
        .schedule(
            Schedule::new()
                .at(period + 1, ScheduledAction::Disconnect(absent))
                .at(
                    period * 2 + 1,
                    ScheduledAction::Reconnect(absent, (0..3).map(ProcessId).collect()),
                ),
        )
        .stop_when(move |sim| min_plays(sim, 0..3) >= plays)
        .verdict(move |sim, record| {
            let convicted = (0..3).all(|i| {
                sim.process_as::<AuthorityProcess>(ProcessId(i))
                    .is_some_and(|p| p.punished()[3] && !p.punished()[i])
            });
            Verdict::check(record.stopped_at.is_some(), &within_budget(plays))
                .and(Verdict::check(
                    convicted,
                    "the disconnected agent's demand is dropped (convicted as absent)",
                ))
                .and(Verdict::check(
                    records_agree(sim, 0..3),
                    "the survivors agree on every play",
                ))
        });
    (spec, ABSENT)
}

/// A simnet-level noise adversary — random bytes, no protocol — placed
/// per run seed by [`PlacementStrategy::RandomF`], so one spec covers
/// the whole adversary-position family. The honest majority convicts
/// whichever position it landed on.
fn noise(plays: u64) -> Configuration {
    let n = 4;
    let cluster = AuthorityCluster::new(congestion(n), 1);
    let spec = authority_spec("authority_noise", cluster, plays)
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
            Verdict::check(record.stopped_at.is_some(), &within_budget(plays))
                .and(Verdict::check(
                    convicted,
                    "the noise position is convicted wherever it lands",
                ))
                .and(Verdict::check(
                    records_agree(sim, honest.iter().copied()),
                    "the honest majority agrees on every play",
                ))
        });
    (spec, &[])
}

fn within_budget(plays: u64) -> String {
    format!("{plays} plays within the budget")
}

/// The `authority` suite: every §3.3 play family as a spec, three plays
/// each (four under churn, whose second play loses agent 3).
pub fn suite() -> Vec<Arc<dyn Scenario>> {
    [honest(3), selfish_cluster(3), mute(3), churn(4), noise(3)]
        .into_iter()
        .map(|(spec, _)| Arc::new(spec) as Arc<dyn Scenario>)
        .collect()
}

/// Writes what every authority processor decided in the suite's five
/// configurations, each run for `plays` plays at every one of `seeds`, as
/// JSON lines in configuration, seed and processor order:
///
/// * one line per `(scenario, seed, processor, play)`: the outcome profile
///   it recorded and the agreed foul mask;
/// * then one line per `(scenario, seed, processor)`: the agents it has
///   punished by the end of the run, and `records_agree`, whether every
///   processor of an honest agent recorded the same plays (one value per
///   run, repeated on each of its lines).
///
/// Lines are keyed by play index, never by pulse, and a processor's
/// records past `plays` are left out, so a change to the wire, the
/// encoding, the schedule or the speed leaves every line as it is, and a
/// change to a decision names the play, the processor and the field that
/// moved. A simnet-level adversary slot records nothing and has no line.
/// `tests/golden/authority_plays.jsonl` holds this at seeds 0–7 and 10
/// plays.
pub fn write_plays(out: &mut impl Write, plays: u64, seeds: Range<u64>) -> io::Result<()> {
    // The noise slot runs no authority processor, so it deviates in no
    // authority id.
    let configurations = [honest, selfish_cluster, mute, churn, noise].map(|build| build(plays));
    for (spec, deviants) in configurations {
        let lines = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&lines);
        let spec = spec.probe(move |sim, record| {
            let mut lines = sink.lock().expect("one run at a time");
            decisions(&mut lines, sim, record, plays, deviants);
        });
        for seed in seeds.clone() {
            spec.run(seed);
            let mut lines = lines.lock().expect("the run is over");
            out.write_all(lines.as_bytes())?;
            lines.clear();
        }
    }
    Ok(())
}

/// [`write_plays`]'s lines for one finished run.
fn decisions(
    lines: &mut String,
    sim: &Simulation,
    record: &RunRecord,
    plays: u64,
    deviants: &[usize],
) {
    let ids: Vec<usize> = (0..sim.len())
        .filter(|&id| play_records(sim, id).is_some())
        .collect();
    let honest = ids.iter().copied().filter(|id| !deviants.contains(id));
    let agree = records_agree(sim, honest);
    let head = |id: usize| {
        vec![
            ("scenario", Json::str(&record.scenario)),
            ("seed", Json::Uint(record.seed)),
            ("processor", Json::Uint(id as u64)),
        ]
    };
    let line = |lines: &mut String, fields| {
        lines.push_str(&Json::obj(fields).render());
        lines.push('\n');
    };
    for &id in &ids {
        let p = sim
            .process_as::<AuthorityProcess>(ProcessId(id))
            .expect("an authority slot");
        for (play, rec) in p.records().iter().take(plays as usize).enumerate() {
            let outcome = rec.outcome.actions().iter();
            let mut fields = head(id);
            fields.extend([
                ("play", Json::Uint(play as u64)),
                (
                    "outcome",
                    Json::Arr(outcome.map(|&a| Json::Uint(a as u64)).collect()),
                ),
                ("fouls", Json::Uint(rec.fouls)),
            ]);
            line(lines, fields);
        }
    }
    for &id in &ids {
        let p = sim
            .process_as::<AuthorityProcess>(ProcessId(id))
            .expect("an authority slot");
        let punished = (0..p.punished().len()).filter(|&agent| p.punished()[agent]);
        let mut fields = head(id);
        fields.extend([
            (
                "punished",
                Json::Arr(punished.map(|a| Json::Uint(a as u64)).collect()),
            ),
            ("records_agree", Json::Bool(agree)),
        ]);
        line(lines, fields);
    }
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
