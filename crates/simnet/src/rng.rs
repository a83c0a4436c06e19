//! Deterministic randomness derivation.
//!
//! Every random draw in a simulation is derived from the run seed plus the
//! consumer's coordinates `(process, round)` (or a label for harness-level
//! draws). Two consequences:
//!
//! * runs are exactly reproducible from the seed, and
//! * a process's randomness is independent of scheduling order — inserting a
//!   trace or reordering iteration cannot perturb results.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ids::{ProcessId, Round};

/// SplitMix64 finalizer — enough mixing to decorrelate seed coordinates.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the RNG a process uses during one pulse.
pub fn process_rng(seed: u64, id: ProcessId, round: Round) -> StdRng {
    let mut material = [0u8; 32];
    let a = mix(seed ^ 0xA11C_E000_0000_0001);
    let b = mix(a ^ (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let c = mix(b ^ round.value());
    let d = mix(c);
    material[..8].copy_from_slice(&a.to_le_bytes());
    material[8..16].copy_from_slice(&b.to_le_bytes());
    material[16..24].copy_from_slice(&c.to_le_bytes());
    material[24..].copy_from_slice(&d.to_le_bytes());
    StdRng::from_seed(material)
}

/// Derives an RNG from numeric coordinates: a `domain` separating the
/// consumer (loss model, fault injection, ...) and a per-use `index`
/// (typically the round number).
///
/// This is the hot-path sibling of [`labeled_rng`]: no string formatting or
/// hashing, just integer mixing — suitable for per-round derivation inside
/// [`Simulation::step`](crate::sim::Simulation::step).
pub fn labeled_rng_u64(seed: u64, domain: u64, index: u64) -> StdRng {
    let mut material = [0u8; 32];
    let a = mix(seed ^ mix(domain));
    let b = mix(a ^ index);
    let c = mix(b);
    let d = mix(c);
    material[..8].copy_from_slice(&a.to_le_bytes());
    material[8..16].copy_from_slice(&b.to_le_bytes());
    material[16..24].copy_from_slice(&c.to_le_bytes());
    material[24..].copy_from_slice(&d.to_le_bytes());
    StdRng::from_seed(material)
}

/// Derives an RNG from a `domain` plus **two** numeric coordinates — the
/// two-coordinate sibling of [`labeled_rng_u64`], for consumers keyed by
/// `(round, process)` rather than a single index.
///
/// The scheduler's loss model uses this to give every sender its own
/// per-round loss stream: a sender's drops depend only on its coordinates,
/// not on how many messages other senders routed first, which is what
/// keeps sharded stepping (see
/// [`Simulation::step`](crate::sim::Simulation::step)) byte-identical to
/// serial stepping.
pub fn labeled_rng_u64_pair(seed: u64, domain: u64, a: u64, b: u64) -> StdRng {
    let mut material = [0u8; 32];
    let x = mix(seed ^ mix(domain));
    let y = mix(x ^ a);
    let z = mix(y ^ b);
    let w = mix(z);
    material[..8].copy_from_slice(&x.to_le_bytes());
    material[8..16].copy_from_slice(&y.to_le_bytes());
    material[16..24].copy_from_slice(&z.to_le_bytes());
    material[24..].copy_from_slice(&w.to_le_bytes());
    StdRng::from_seed(material)
}

/// Derives an RNG for a labelled harness purpose (fault injection, workload
/// generation) independent of any process stream.
pub fn labeled_rng(seed: u64, label: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the label
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut material = [0u8; 32];
    let a = mix(seed ^ h);
    let b = mix(a);
    let c = mix(b);
    let d = mix(c);
    material[..8].copy_from_slice(&a.to_le_bytes());
    material[8..16].copy_from_slice(&b.to_le_bytes());
    material[16..24].copy_from_slice(&c.to_le_bytes());
    material[24..].copy_from_slice(&d.to_le_bytes());
    StdRng::from_seed(material)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_coordinates_same_stream() {
        let mut a = process_rng(1, ProcessId(2), Round(3));
        let mut b = process_rng(1, ProcessId(2), Round(3));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_process_different_stream() {
        let mut a = process_rng(1, ProcessId(2), Round(3));
        let mut b = process_rng(1, ProcessId(3), Round(3));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_round_different_stream() {
        let mut a = process_rng(1, ProcessId(2), Round(3));
        let mut b = process_rng(1, ProcessId(2), Round(4));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = process_rng(1, ProcessId(2), Round(3));
        let mut b = process_rng(2, ProcessId(2), Round(3));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn numeric_domains_separate_streams() {
        let mut a = labeled_rng_u64(7, 1, 0);
        let mut b = labeled_rng_u64(7, 2, 0);
        let mut c = labeled_rng_u64(7, 1, 1);
        assert_ne!(a.next_u64(), b.next_u64(), "domains separate streams");
        assert_ne!(
            labeled_rng_u64(7, 1, 0).next_u64(),
            c.next_u64(),
            "indices separate streams"
        );
        assert_eq!(
            labeled_rng_u64(7, 1, 0).next_u64(),
            labeled_rng_u64(7, 1, 0).next_u64(),
            "derivation is deterministic"
        );
    }

    #[test]
    fn pair_coordinates_separate_streams() {
        let mut base = labeled_rng_u64_pair(7, 1, 2, 3);
        assert_eq!(
            base.next_u64(),
            labeled_rng_u64_pair(7, 1, 2, 3).next_u64(),
            "derivation is deterministic"
        );
        for (seed, domain, a, b) in [(8, 1, 2, 3), (7, 2, 2, 3), (7, 1, 9, 3), (7, 1, 2, 9)] {
            assert_ne!(
                labeled_rng_u64_pair(7, 1, 2, 3).next_u64(),
                labeled_rng_u64_pair(seed, domain, a, b).next_u64(),
                "every coordinate separates streams"
            );
        }
        // Swapping the coordinates must not collide either.
        assert_ne!(
            labeled_rng_u64_pair(7, 1, 2, 3).next_u64(),
            labeled_rng_u64_pair(7, 1, 3, 2).next_u64()
        );
    }

    #[test]
    fn labels_separate_streams() {
        let mut a = labeled_rng(7, "faults");
        let mut b = labeled_rng(7, "workload");
        assert_ne!(a.next_u64(), b.next_u64());
        let mut a2 = labeled_rng(7, "faults");
        assert_eq!(labeled_rng(7, "faults").next_u64(), a2.next_u64());
    }
}
