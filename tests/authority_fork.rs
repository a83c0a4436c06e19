//! The fork test: can a deviant that sends different processors different
//! things make the honest processors of the distributed authority record
//! different plays?
//!
//! Two point-to-point deviants, each at every position, each aimed at a
//! mask of at most `f` honest processors: `SelectiveReveal` withholds its
//! reveal from the mask, `SplitCommit` sends the mask a commitment to a
//! second opening. A mask of at most `f` accusers is below the conviction
//! quorum, so neither deviant is convicted; what is asserted is
//! [`records_agree`] over the honest ids after `PLAYS` plays at `(4, 1)`
//! and `(7, 2)`.
//!
//! `SplitCommit` holds: every processor receives the same reveal, and the
//! outcome is built from reveals. `SelectiveReveal` forks: the processors
//! it withheld from record the null action where the others record the
//! revealed one, from the first play whose revealed action is not 0 on.
//! Its property and the smallest case are ignored until ROADMAP item 1(c)
//! makes the outcome an agreed value.

use game_authority_suite::authority::agent::Behavior;
use game_authority_suite::authority::distributed::{
    build_authority_sim, records_agree, AuthorityCluster, AuthorityProcess, PlayRecord,
};
use game_authority_suite::games::congestion;
use game_authority_suite::simnet::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PLAYS: u64 = 4;

/// The sizes the fork test runs at, as `(n, f)`.
const SIZES: [(usize, usize); 2] = [(4, 1), (7, 2)];

/// A mask of at most `f` processors of `n`, none of them `at`, drawn
/// from `draw`.
fn victims(n: usize, f: usize, at: usize, draw: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(draw);
    let mut others: Vec<usize> = (0..n).filter(|&i| i != at).collect();
    let k = rng.gen_range(0..=f);
    for i in 0..k {
        let j = rng.gen_range(i..others.len());
        others.swap(i, j);
    }
    others[..k].iter().fold(0, |mask, &i| mask | 1 << i)
}

/// `PLAYS` plays of an `(n, f)` authority in which agent `at` plays
/// `deviant`: `None` if the honest processors' records agree, else the
/// first play two of them record differently.
fn fork(n: usize, f: usize, at: usize, deviant: Behavior, seed: u64) -> Option<usize> {
    let mut behaviors = vec![Behavior::honest_pure(0); n];
    behaviors[at] = deviant;
    let cluster = AuthorityCluster::new(congestion(n), f).modes(behaviors);
    let mut sim = build_authority_sim(&cluster, seed);
    sim.run(cluster.play_len() * PLAYS + 1);
    let honest = (0..n).filter(|&i| i != at);
    let records: Vec<&[PlayRecord]> = honest
        .clone()
        .map(|i| {
            sim.process_as::<AuthorityProcess>(ProcessId(i))
                .unwrap()
                .records()
        })
        .collect();
    assert!(
        records.iter().all(|r| r.len() as u64 == PLAYS),
        "plays complete"
    );
    if records_agree(&sim, honest) {
        return None;
    }
    (0..PLAYS as usize).find(|&play| records.windows(2).any(|w| w[0][play] != w[1][play]))
}

/// Runs `deviant(mask)` at every position of the `(n, f)` authority, each
/// with its own mask of at most `f` victims; the first fork found, as
/// `(position, mask, play)`.
fn fork_at_any_position(
    size: usize,
    draw: u64,
    seed: u64,
    deviant: fn(u64) -> Behavior,
) -> Option<(usize, u64, usize)> {
    let (n, f) = SIZES[size];
    (0..n).find_map(|at| {
        let mask = victims(n, f, at, draw ^ at as u64);
        fork(n, f, at, deviant(mask), seed).map(|play| (at, mask, play))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A commitment split between two halves never forks the records.
    #[test]
    fn split_commit_never_forks_the_honest_records(size in 0usize..2,
                                                   draw in any::<u64>(),
                                                   seed in any::<u64>()) {
        let fork = fork_at_any_position(size, draw, seed, Behavior::split_commit);
        prop_assert_eq!(fork, None, "(position, mask, play) = {:?} at {:?}", fork, SIZES[size]);
    }

    /// A reveal withheld from at most `f` processors never forks the
    /// records.
    #[test]
    #[ignore = "fork: ROADMAP item 1(c)"]
    fn selective_reveal_never_forks_the_honest_records(size in 0usize..2,
                                                       draw in any::<u64>(),
                                                       seed in any::<u64>()) {
        let fork = fork_at_any_position(size, draw, seed, Behavior::selective_reveal);
        prop_assert_eq!(fork, None, "(position, mask, play) = {:?} at {:?}", fork, SIZES[size]);
    }
}

/// The smallest selective-reveal fork: at `(4, 1)`, agent 3 withholds its
/// reveal from processor 0 alone. Play 0's outcome is all zeros; in play 1
/// every agent best-responds with action 1, and processor 0, which never
/// sees agent 3's reveal, records the null action for it.
#[test]
#[ignore = "fork: ROADMAP item 1(c)"]
fn a_reveal_withheld_from_one_processor_does_not_fork_the_records() {
    let play = fork(4, 1, 3, Behavior::selective_reveal(1 << 0), 1);
    assert_eq!(play, None, "the records fork in play {play:?}");
}
