//! The centralized reference engine (`Authority`) as the oracle for the
//! distributed protocol (`AuthorityProcess`): same game, same behaviour
//! vector, fault-free complete graph.
//!
//! Compared: each play's convictions (the distributed agreed foul mask
//! against the reference report's `punished` set), and the outcome of
//! every play before the first conviction. Not compared: outcomes from a
//! conviction on — the reference voids the play, the distributed executive
//! substitutes the null action for the disconnected agent, by design.

use game_authority_suite::authority::agent::Behavior;
use game_authority_suite::authority::authority::{Authority, AuthorityConfig, RoundReport};
use game_authority_suite::authority::distributed::{
    build_authority_sim, records_agree, AuthorityCluster, AuthorityProcess, PlayRecord,
};
use game_authority_suite::games::congestion;
use game_authority_suite::simnet::prelude::*;

const PLAYS: u64 = 4;

/// `PLAYS` plays of the distributed authority; the records every honest
/// processor holds (asserted equal).
fn distributed(f: usize, behaviors: &[Behavior], seed: u64) -> Vec<PlayRecord> {
    let n = behaviors.len();
    let cluster = AuthorityCluster::new(congestion(n), f).modes(behaviors.to_vec());
    let mut sim = build_authority_sim(&cluster, seed);
    sim.run(cluster.play_len() * PLAYS + 1);
    let honest: Vec<usize> = (0..n).filter(|&i| behaviors[i].is_honest()).collect();
    assert!(
        records_agree(&sim, honest.iter().copied()),
        "honest processors disagree: {behaviors:?}"
    );
    let records = sim
        .process_as::<AuthorityProcess>(ProcessId(honest[0]))
        .unwrap()
        .records();
    assert_eq!(records.len() as u64, PLAYS);
    records.to_vec()
}

/// `PLAYS` plays of the centralized reference.
fn reference(behaviors: &[Behavior]) -> Vec<RoundReport> {
    let game = congestion(behaviors.len());
    Authority::new(
        game.as_ref(),
        behaviors.to_vec(),
        AuthorityConfig::default(),
    )
    .play(PLAYS)
}

fn mask_of(agents: &[usize]) -> u64 {
    agents.iter().fold(0, |m, a| m | 1 << a)
}

/// Runs both engines on `behaviors`, compares them play by play and
/// returns the reference's reports.
fn assert_engines_agree(f: usize, behaviors: &[Behavior], seed: u64) -> Vec<RoundReport> {
    let records = distributed(f, behaviors, seed);
    let reports = reference(behaviors);
    let mut convicted = false;
    for (play, (rec, rep)) in records.iter().zip(&reports).enumerate() {
        assert_eq!(
            rec.fouls,
            mask_of(&rep.punished),
            "convictions of {behaviors:?}, play {play}"
        );
        convicted |= !rep.punished.is_empty();
        if !convicted {
            assert_eq!(
                Some(&rec.outcome),
                rep.outcome.as_ref(),
                "outcome of {behaviors:?}, play {play}"
            );
        }
    }
    reports
}

#[test]
fn all_honest_plays_produce_the_reference_outcome_sequence() {
    for (n, f) in [(4, 1), (5, 1), (7, 2)] {
        for seed in [1, 2] {
            let reports = assert_engines_agree(f, &vec![Behavior::honest_pure(0); n], seed);
            for (play, rep) in reports.iter().enumerate() {
                assert!(rep.punished.is_empty(), "n={n}, play {play}");
            }
        }
    }
}

#[test]
fn one_deviant_is_convicted_in_the_same_play_as_in_the_reference() {
    let n = 4;
    // The play the reference convicts the deviant in. The worst responder
    // plays action 0, a best response, until there is an outcome to answer;
    // the framer accuses agent 0 with one vote, below the f + 1 quorum, and
    // is convicted in neither engine.
    let deviants = [
        (Behavior::silent(), Some(0)),
        (Behavior::equivocator(0, 1), Some(0)),
        (Behavior::illegal(2), Some(0)),
        (Behavior::no_reveal(0), Some(0)),
        (Behavior::worst_response(), Some(1)),
        (Behavior::framer(0), None),
    ];
    for (deviant, convicted_in) in deviants {
        for at in 0..n {
            let mut behaviors = vec![Behavior::honest_pure(0); n];
            behaviors[at] = deviant.clone();
            let reports = assert_engines_agree(1, &behaviors, 7);
            let first = reports.iter().position(|rep| !rep.punished.is_empty());
            assert_eq!(first, convicted_in, "{deviant:?} at {at}: the oracle");
            if let Some(play) = first {
                assert_eq!(
                    reports[play].punished,
                    [at],
                    "{deviant:?} at {at}: the oracle"
                );
            }
        }
    }
}

#[test]
fn two_deviants_at_seven_agents_match_the_reference() {
    let n = 7;
    // The reference voids every play from a conviction on, so it never
    // judges a best response again: the worst responder, caught only
    // against a previous outcome, is paired with the framer, whom neither
    // engine convicts.
    // Each pair with the play of the reference's first conviction and whom
    // it convicts.
    let pairs = [
        (
            (1, Behavior::silent()),
            (5, Behavior::equivocator(0, 1)),
            0,
            vec![1, 5],
        ),
        (
            (0, Behavior::worst_response()),
            (6, Behavior::framer(3)),
            1,
            vec![0],
        ),
        (
            (2, Behavior::no_reveal(0)),
            (4, Behavior::illegal(2)),
            0,
            vec![2, 4],
        ),
    ];
    for ((a, first), (b, second), play, convicted) in pairs {
        let mut behaviors = vec![Behavior::honest_pure(0); n];
        behaviors[a] = first;
        behaviors[b] = second;
        let reports = assert_engines_agree(2, &behaviors, 9);
        let at = reports.iter().position(|rep| !rep.punished.is_empty());
        assert_eq!(at, Some(play), "{behaviors:?}: the oracle");
        assert_eq!(
            reports[play].punished, convicted,
            "{behaviors:?}: the oracle"
        );
    }
}
