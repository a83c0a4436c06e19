//! Committed pseudo-random generator for auditable mixed strategies.
//!
//! Section 5.3 of the paper: to validate that an agent's "random" choices
//! really follow its claimed mixed strategy, "the agents commit to the
//! private seed that they use for their pseudo-random generator; they reveal
//! their seed at the end of the sequence of rounds and then audit each
//! other's actions".
//!
//! [`Prg`] is a counter-mode generator, `block_i = HMAC(seed, domain ‖ i)`.
//! [`CommittedPrg`] couples a `Prg` with a [`Commitment`] on its seed so the
//! judicial service can later re-run the generator and check every sampled
//! action (see [`verify_samples`](CommittedPrg::verify_samples)).
//!
//! ```
//! use ga_crypto::prg::CommittedPrg;
//!
//! # fn main() -> Result<(), ga_crypto::CryptoError> {
//! // Agent: commit to a seed, then sample actions with it.
//! let mut cp = CommittedPrg::new([5u8; 32], [9u8; 32]);
//! let weights = [1.0, 1.0]; // fair coin
//! let a0 = cp.sample(&weights);
//!
//! // Auditor: given the commitment, the revealed seed and the action
//! // transcript, check the agent sampled honestly.
//! let commitment = cp.commitment();
//! CommittedPrg::verify_samples(commitment, cp.reveal(), &[(vec![1.0, 1.0], a0)])?;
//! # Ok(())
//! # }
//! ```

use crate::commitment::{Commitment, Nonce, Opening};
use crate::hmac::{hmac_sha256, HmacKey};
use crate::{CryptoError, Digest};

const DOMAIN: &[u8] = b"ga-prg-v1";

/// Counter-mode deterministic generator over a 32-byte seed.
#[derive(Debug, Clone)]
pub struct Prg {
    /// The seed as an HMAC key, absorbed once at construction.
    key: HmacKey,
    counter: u64,
}

impl Prg {
    /// Creates a generator from a raw 32-byte seed.
    pub fn new(seed: [u8; 32]) -> Prg {
        Prg {
            key: HmacKey::new(&seed),
            counter: 0,
        }
    }

    /// Derives a generator from a label and a small integer seed, for
    /// harness convenience (key rings, test fixtures).
    pub fn from_seed_material(label: &[u8], seed: u64) -> Prg {
        let material = hmac_sha256(label, &seed.to_be_bytes());
        Prg::new(material)
    }

    /// Produces the next 32-byte pseudo-random block: two compressions,
    /// no allocation.
    pub fn next_block(&mut self) -> Digest {
        let mut msg = [0u8; DOMAIN.len() + 8];
        msg[..DOMAIN.len()].copy_from_slice(DOMAIN);
        msg[DOMAIN.len()..].copy_from_slice(&self.counter.to_be_bytes());
        self.counter += 1;
        self.key.mac(&msg)
    }

    /// Produces the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let block = self.next_block();
        u64::from_be_bytes(block[..8].try_into().expect("block has 32 bytes"))
    }

    /// Produces a uniform float in `[0, 1)` (53 bits of precision).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// How many blocks have been consumed (the audit replays exactly this
    /// many).
    pub fn position(&self) -> u64 {
        self.counter
    }
}

/// Samples an index from non-negative `weights` using one PRG draw.
///
/// This is the canonical mapping from PRG output to a mixed-strategy action:
/// both the agent and the auditor use it, so an honest sample always
/// verifies.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to a non-positive/non-finite value —
/// callers validate strategies before sampling.
fn sample_index(prg: &mut Prg, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let total: f64 = weights.iter().sum();
    assert!(
        total.is_finite() && total > 0.0,
        "weights must sum to a positive finite value"
    );
    let mut x = prg.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        assert!(w >= 0.0, "weights must be non-negative");
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1 // floating-point edge: land on the last index
}

/// A PRG whose seed is bound by a commitment, enabling post-hoc audits.
#[derive(Debug, Clone)]
pub struct CommittedPrg {
    prg: Prg,
    seed: [u8; 32],
    commitment: Commitment,
    opening: Opening,
}

impl CommittedPrg {
    /// Commits to `seed` (blinded by `nonce`) and readies the generator.
    pub fn new(seed: [u8; 32], nonce: Nonce) -> CommittedPrg {
        let (commitment, opening) = Commitment::commit(&seed, nonce);
        CommittedPrg {
            prg: Prg::new(seed),
            seed,
            commitment,
            opening,
        }
    }

    /// The public commitment to publish before any sampling.
    pub fn commitment(&self) -> Commitment {
        self.commitment
    }

    /// Samples an action index for a mixed strategy given by `weights`.
    pub fn sample(&mut self, weights: &[f64]) -> usize {
        sample_index(&mut self.prg, weights)
    }

    /// Reveals the seed and opening for the end-of-epoch audit.
    pub fn reveal(&self) -> SeedReveal {
        SeedReveal {
            seed: self.seed,
            opening: self.opening,
        }
    }

    /// Audits a transcript: checks the reveal opens `commitment` and that
    /// replaying the PRG over each round's `weights` reproduces each claimed
    /// action index.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::BadOpening`] — the revealed seed is not the committed
    ///   one.
    /// * [`CryptoError::SeedMismatch`] — the seed is genuine but some claimed
    ///   action was not what the PRG would have produced (a §5.1-style hidden
    ///   manipulation).
    pub fn verify_samples(
        commitment: Commitment,
        reveal: SeedReveal,
        transcript: &[(Vec<f64>, usize)],
    ) -> Result<(), CryptoError> {
        commitment.verify(&reveal.seed, &reveal.opening)?;
        let mut replay = Prg::new(reveal.seed);
        for (weights, claimed) in transcript {
            let expected = sample_index(&mut replay, weights);
            if expected != *claimed {
                return Err(CryptoError::SeedMismatch);
            }
        }
        Ok(())
    }
}

/// The revealed seed plus the commitment opening, published at audit time.
#[derive(Debug, Clone, Copy)]
pub struct SeedReveal {
    seed: [u8; 32],
    opening: Opening,
}

impl SeedReveal {
    /// Reconstructs a reveal from wire data.
    pub fn from_parts(seed: [u8; 32], opening: Opening) -> SeedReveal {
        SeedReveal { seed, opening }
    }

    /// The revealed seed bytes.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The commitment opening.
    pub fn opening(&self) -> &Opening {
        &self.opening
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prg_is_deterministic() {
        let mut a = Prg::new([1u8; 32]);
        let mut b = Prg::new([1u8; 32]);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::new([1u8; 32]);
        let mut b = Prg::new([2u8; 32]);
        assert_ne!(a.next_block(), b.next_block());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut p = Prg::new([3u8; 32]);
        for _ in 0..1000 {
            let x = p.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut p = Prg::new([4u8; 32]);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| p.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn sample_index_respects_degenerate_weights() {
        let mut p = Prg::new([5u8; 32]);
        for _ in 0..100 {
            assert_eq!(sample_index(&mut p, &[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn sample_index_covers_support() {
        let mut p = Prg::new([6u8; 32]);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_index(&mut p, &[1.0, 1.0, 1.0])] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn fair_coin_is_fair() {
        let mut p = Prg::new([7u8; 32]);
        let n = 10_000;
        let heads = (0..n)
            .filter(|_| sample_index(&mut p, &[1.0, 1.0]) == 0)
            .count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn sample_index_panics_on_empty() {
        let mut p = Prg::new([8u8; 32]);
        sample_index(&mut p, &[]);
    }

    #[test]
    fn honest_transcript_verifies() {
        let mut cp = CommittedPrg::new([9u8; 32], [1u8; 32]);
        let w = vec![0.5, 0.5];
        let transcript: Vec<(Vec<f64>, usize)> =
            (0..20).map(|_| (w.clone(), cp.sample(&w))).collect();
        CommittedPrg::verify_samples(cp.commitment(), cp.reveal(), &transcript).unwrap();
    }

    #[test]
    fn manipulated_action_detected() {
        let mut cp = CommittedPrg::new([9u8; 32], [1u8; 32]);
        let w = vec![0.5, 0.5];
        let mut transcript: Vec<(Vec<f64>, usize)> =
            (0..10).map(|_| (w.clone(), cp.sample(&w))).collect();
        // The manipulator flips round 5's claimed action.
        transcript[5].1 = 1 - transcript[5].1;
        assert_eq!(
            CommittedPrg::verify_samples(cp.commitment(), cp.reveal(), &transcript).unwrap_err(),
            CryptoError::SeedMismatch
        );
    }

    #[test]
    fn wrong_seed_reveal_detected() {
        let cp = CommittedPrg::new([9u8; 32], [1u8; 32]);
        let fake = SeedReveal::from_parts([8u8; 32], *cp.reveal().opening());
        assert_eq!(
            CommittedPrg::verify_samples(cp.commitment(), fake, &[]).unwrap_err(),
            CryptoError::BadOpening
        );
    }

    #[test]
    fn empty_transcript_verifies_with_genuine_seed() {
        let cp = CommittedPrg::new([10u8; 32], [2u8; 32]);
        CommittedPrg::verify_samples(cp.commitment(), cp.reveal(), &[]).unwrap();
    }

    #[test]
    fn from_seed_material_distinct_labels() {
        let a = Prg::from_seed_material(b"label-a", 1).next_block();
        let b = Prg::from_seed_material(b"label-b", 1).next_block();
        assert_ne!(a, b);
    }
}
