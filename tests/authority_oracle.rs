//! The centralized reference engine (`Authority`) as the oracle for the
//! distributed protocol (`AuthorityProcess`): same game, same behaviours,
//! fault-free complete graph.
//!
//! Compared: the outcome sequence while nobody is convicted, and each
//! play's convictions (the distributed agreed foul mask against the
//! reference report's `punished` set). Not compared: outcomes from a
//! conviction on — the reference publishes none, the distributed executive
//! substitutes the null action for the disconnected agent, by design.

use std::sync::Arc;

use game_authority_suite::authority::agent::Behavior;
use game_authority_suite::authority::authority::{Authority, AuthorityConfig, RoundReport};
use game_authority_suite::authority::distributed::{
    build_authority_sim, AgentMode, AuthorityCluster, AuthorityProcess, PlayRecord,
};
use game_authority_suite::game_theory::game::{ClosureGame, Game};
use game_authority_suite::simnet::prelude::*;

const PLAYS: u64 = 4;

/// An `n`-agent, 2-action congestion game: cost = #agents on my resource.
fn congestion(n: usize) -> Arc<dyn Game + Send + Sync> {
    Arc::new(ClosureGame::new("cong", n, vec![2; n], |agent, p| {
        let mine = p.action(agent);
        p.actions().iter().filter(|&&a| a == mine).count() as f64
    }))
}

/// `PLAYS` plays of the distributed authority; the records every honest
/// processor holds (asserted identical).
fn distributed(n: usize, f: usize, modes: &[AgentMode], seed: u64) -> Vec<PlayRecord> {
    let game = congestion(n);
    let play_len = AuthorityCluster::new(game.clone(), f).play_len();
    let mut sim = build_authority_sim(game, modes.to_vec(), f, seed);
    sim.run(play_len * PLAYS + 1);
    let records = |i: usize| {
        sim.process_as::<AuthorityProcess>(ProcessId(i))
            .unwrap()
            .records()
    };
    let honest: Vec<usize> = (0..n).filter(|&i| modes[i] == AgentMode::Honest).collect();
    for &i in &honest {
        assert_eq!(records(i), records(honest[0]), "p{i} disagrees");
    }
    assert_eq!(records(honest[0]).len() as u64, PLAYS);
    records(honest[0]).to_vec()
}

/// `PLAYS` plays of the centralized reference.
fn reference(n: usize, behaviors: Vec<Behavior>) -> Vec<RoundReport> {
    let game = congestion(n);
    Authority::new(game.as_ref(), behaviors, AuthorityConfig::default()).play(PLAYS)
}

fn mask_of(agents: &[usize]) -> u64 {
    agents.iter().fold(0, |m, a| m | 1 << a)
}

#[test]
fn all_honest_plays_produce_the_reference_outcome_sequence() {
    for (n, f) in [(4, 1), (5, 1), (7, 2)] {
        let reports = reference(n, vec![Behavior::honest_pure(0); n]);
        for seed in [1, 2] {
            let records = distributed(n, f, &vec![AgentMode::Honest; n], seed);
            for (rec, rep) in records.iter().zip(&reports) {
                assert_eq!(Some(&rec.outcome), rep.outcome.as_ref(), "n={n}");
                assert_eq!(rec.fouls, 0);
                assert!(rep.punished.is_empty());
            }
        }
    }
}

#[test]
fn one_deviant_is_convicted_in_the_same_play_as_in_the_reference() {
    let n = 4;
    // The distributed deviants commit to their first-play action 0 (the
    // out-of-range one to the smallest illegal action, 2).
    let pairs = [
        (AgentMode::Mute, Behavior::silent()),
        (AgentMode::EquivocalReveal, Behavior::equivocator(0, 1)),
        (AgentMode::OutOfRangeReveal, Behavior::illegal(2)),
    ];
    for (mode, behavior) in pairs {
        for deviant in 0..n {
            let mut modes = vec![AgentMode::Honest; n];
            modes[deviant] = mode;
            let mut behaviors = vec![Behavior::honest_pure(0); n];
            behaviors[deviant] = behavior.clone();

            let records = distributed(n, 1, &modes, 7);
            let reports = reference(n, behaviors);
            assert_eq!(reports[0].punished, [deviant], "{mode:?}: the oracle");
            for (play, (rec, rep)) in records.iter().zip(&reports).enumerate() {
                assert_eq!(
                    rec.fouls,
                    mask_of(&rep.punished),
                    "{mode:?} at agent {deviant}, play {play}"
                );
            }
        }
    }
}
