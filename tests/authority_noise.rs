//! Random bytes against the distributed authority's one frame a pulse.
//!
//! A frame opens with the sender's clock claim as a varint, so nearly
//! every string of random bytes reads as a claim of some value, and the
//! rest of it as a body that names no phase or is cut short. `f`
//! processors that send random bytes every pulse are Byzantine clock votes
//! as well as noise. They must not stall the synchronized honest clocks,
//! which the `n − f` honest votes carry through every pulse, and they must
//! not fork the honest records.

use game_authority_suite::authority::distributed::{
    records_agree, AuthorityCluster, AuthorityProcess,
};
use game_authority_suite::games::congestion;
use game_authority_suite::simnet::adversary::{ByzantineProcess, RandomNoise};
use game_authority_suite::simnet::prelude::*;
use proptest::prelude::*;

const PLAYS: u64 = 4;

/// Runs `PLAYS` plays of an `(n, f)` authority whose processors in `noisy`
/// send up to 47 random bytes to every peer every pulse, and names the
/// first thing that went wrong: a pulse at which the honest clocks, equal
/// from the start, did not step together, or honest records that are not
/// `PLAYS` plays, the same everywhere.
fn noise_failure(n: usize, f: usize, noisy: u64, seed: u64) -> Option<String> {
    let cluster = AuthorityCluster::new(congestion(n), f);
    let modulus = cluster.play_len();
    let honest: Vec<usize> = (0..n).filter(|&i| noisy >> i & 1 == 0).collect();
    let mut sim = Simulation::builder(Topology::complete(n))
        .seed(seed)
        .build_with(|id| {
            if noisy >> id.index() & 1 != 0 {
                Box::new(ByzantineProcess::new(Box::new(RandomNoise { max_len: 48 })))
            } else {
                cluster.process(id.index(), seed)
            }
        });
    let clocks = |sim: &Simulation| -> Vec<u64> {
        honest
            .iter()
            .map(|&i| {
                sim.process_as::<AuthorityProcess>(ProcessId(i))
                    .unwrap()
                    .clock_value()
            })
            .collect()
    };
    // The first pulse hears nothing, and every clock stays at 0.
    sim.step();
    let mut expected = 0;
    for pulse in 1..=PLAYS * modulus {
        sim.step();
        expected = (expected + 1) % modulus;
        let now = clocks(&sim);
        if now != vec![expected; honest.len()] {
            return Some(format!(
                "pulse {pulse}: honest clocks {now:?}, {expected} expected"
            ));
        }
    }
    let plays = honest.iter().all(|&i| {
        sim.process_as::<AuthorityProcess>(ProcessId(i))
            .unwrap()
            .records()
            .len() as u64
            == PLAYS
    });
    if !plays || !records_agree(&sim, honest.iter().copied()) {
        return Some(format!("the honest records are not {PLAYS} equal plays"));
    }
    None
}

/// `f` distinct processors of `n`, drawn from `draw`.
fn noisy_mask(n: usize, f: usize, mut draw: u64) -> u64 {
    let mut mask = 0u64;
    while (mask.count_ones() as usize) < f {
        mask |= 1 << (draw % n as u64);
        draw = draw
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 1;
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f_noisy_processors_neither_stall_the_clocks_nor_fork_the_records(
        draw in any::<u64>(),
        seed in any::<u64>(),
    ) {
        for (n, f) in [(4, 1), (7, 2)] {
            let noisy = noisy_mask(n, f, draw);
            prop_assert_eq!(noise_failure(n, f, noisy, seed), None, "n={} f={} noisy={:#b}", n, f, noisy);
        }
    }
}
