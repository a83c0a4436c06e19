//! Property-based tests of the Byzantine agreement substrate and the
//! cryptographic primitives — the invariants everything above relies on.

use ga_agreement::consensus::OmConsensus;
use ga_agreement::eig::LevelPayload;
use ga_agreement::executor::{honest_agreement, run_pure_instances};
use ga_agreement::harness::{run_consensus_with, Backend, Misbehavior};
use ga_agreement::traits::BaInstance;
use ga_agreement::wire::put_section;
use game_authority_suite::crypto::commitment::{Commitment, Opening};
use game_authority_suite::crypto::prg::{CommittedPrg, Prg};
use proptest::prelude::*;

/// The round-0 frame of an OM consensus in which source `from` announces
/// `value`: its one part, behind the part header.
fn announcement_frame(from: usize, value: u64) -> Vec<u8> {
    let mut frame = Vec::new();
    put_section(&mut frame, from as u64, |out| {
        let mut announcement = LevelPayload::new(out, 1, 1);
        announcement.push(Some(value));
        announcement.finish();
    });
    frame
}

/// Whether [`announcement_frame`] is a frame receivers act on — an
/// equivocation built from it is well-formed, not one more kind of noise.
/// In a consensus with no relay round (`f = 0`), where the agreed vector
/// is what the announcements said: delivered by `from` in round 1 it sets
/// `from`'s entry; delivered by anyone else, or a round early, it does
/// not.
fn announcement_frame_is_well_formed(n: usize, from: usize, value: u64) -> bool {
    let frame = announcement_frame(from, value);
    let (me, other) = ((from + 1) % n, (from + 2) % n);
    let entry = |sender: usize, round: u64| {
        let mut consensus = OmConsensus::new(me, n, 0);
        consensus.begin(0);
        for r in 0..2 {
            let inbox: &[(usize, &[u8])] = if r == round { &[(sender, &frame)] } else { &[] };
            consensus.step(r, inbox, &mut Vec::new());
        }
        consensus.vector()[from]
    };
    entry(from, 1) == Some(value) && entry(other, 1) == Some(0) && entry(from, 0) == Some(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Commitments bind: any differing value/nonce fails verification.
    #[test]
    fn commitment_binding(value in proptest::collection::vec(any::<u8>(), 0..64),
                          other in proptest::collection::vec(any::<u8>(), 0..64),
                          nonce in any::<[u8; 32]>(),
                          other_nonce in any::<[u8; 32]>()) {
        let (c, o) = Commitment::commit(&value, nonce);
        prop_assert!(c.verify(&value, &o).is_ok());
        if other != value {
            prop_assert!(c.verify(&other, &o).is_err());
        }
        if other_nonce != nonce {
            prop_assert!(c.verify(&value, &Opening::from_nonce(other_nonce)).is_err());
        }
    }

    /// The committed PRG audit accepts exactly the honest transcript.
    #[test]
    fn committed_prg_audit(seed in any::<[u8; 32]>(),
                           nonce in any::<[u8; 32]>(),
                           rounds in 1usize..24,
                           flip in 0usize..24) {
        let mut cp = CommittedPrg::new(seed, nonce);
        let w = vec![0.5, 0.5];
        let mut transcript: Vec<(Vec<f64>, usize)> =
            (0..rounds).map(|_| (w.clone(), cp.sample(&w))).collect();
        prop_assert!(CommittedPrg::verify_samples(cp.commitment(), cp.reveal(), &transcript).is_ok());
        let i = flip % rounds;
        transcript[i].1 = 1 - transcript[i].1;
        prop_assert!(CommittedPrg::verify_samples(cp.commitment(), cp.reveal(), &transcript).is_err());
    }

    /// OM consensus at full resilience, n in 4..=10 with f = ⌊(n−1)/3⌋
    /// Byzantine processors that garble everything they send; half the
    /// time the first of them opens with a well-formed equivocation (a
    /// different announced value per destination) instead. The honest
    /// processors agree on the whole interactive-consistency vector —
    /// the equivocator's entry included — and decide the common input.
    #[test]
    fn om_agreement_under_garbling(n in 4usize..=10,
                                   byz_seed in any::<u64>(),
                                   common in 1u64..100) {
        let f = (n - 1) / 3;
        let byz: Vec<usize> = (n - f..n).collect();
        let equivocator = (byz_seed & 1 == 1).then_some(byz[0]);
        let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
        let inputs: Vec<u64> = (0..n).map(|_| common).collect();
        if let Some(from) = equivocator {
            prop_assert!(announcement_frame_is_well_formed(n, from, 1002));
        }
        let mut salt = byz_seed;
        let (instances, _) = run_pure_instances(instances, &inputs, |from: usize, r: u64, to: usize, _p: &[u8]| {
            if r == 0 && Some(from) == equivocator {
                Some(announcement_frame(from, 1000 + to as u64 % 3))
            } else if byz.contains(&from) {
                salt = salt.wrapping_mul(6364136223846793005).wrapping_add(r ^ to as u64);
                Some(salt.to_be_bytes().to_vec())
            } else {
                None
            }
        });
        let decided: Vec<Option<u64>> = instances.iter().map(|i| i.decided()).collect();
        prop_assert!(honest_agreement(&decided, &byz, Some(common)));
        let vector = instances[0].vector();
        for honest in 0..n - f {
            prop_assert_eq!(instances[honest].vector(), vector.clone(), "p{}'s vector", honest);
            prop_assert_eq!(vector[honest], Some(common), "validity for source {}", honest);
        }
    }

    /// Deterministic PRG streams never collide across seeds (sanity over
    /// random pairs).
    #[test]
    fn prg_streams_distinct(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        prop_assume!(a != b);
        prop_assert_ne!(Prg::new(a).next_block(), Prg::new(b).next_block());
    }
}

#[test]
fn every_backend_tolerates_its_threshold_with_crashes() {
    for backend in Backend::ALL {
        for n in [7usize, 9] {
            let f = backend.max_faults(n).min(2);
            if f == 0 {
                continue;
            }
            let byz: Vec<usize> = (n - f..n).collect();
            let report = run_consensus_with(backend, n, f, &byz, Misbehavior::Crash, |_| 3, 99);
            assert!(report.agreement(), "{backend:?} n={n} f={f}");
            assert_eq!(report.decision(), Some(3), "{backend:?} validity");
        }
    }
}
