//! The digital clock rule.
//!
//! Every pulse, each processor broadcasts its clock value and then applies
//! [`ClockRule::step`] to the received multiset:
//!
//! * **Adopt** — if some value `v` is supported by at least `n − f`
//!   distinct processors (own value included), set the clock to
//!   `(v + 1) mod M`. Two different values can never both reach `n − f`
//!   support when `n > 3f` (they would need `2(n−f) ≤ n` ⟺ `n ≤ 2f`), so
//!   the adopted value is unique — this branch gives deterministic
//!   *closure*: synchronized honest clocks tick in unison forever.
//! * **Randomize** — otherwise flip a private coin: keep the current value
//!   or reset to 0. Once every honest processor happens to reset in the
//!   same pulse (or a coalition of `n − 2f` honest values aligns enough to
//!   drag the rest through the adopt branch), the system enters the
//!   synchronized regime. Expected convergence is exponential in the worst
//!   case, matching the randomized flavor of the paper's reference \[11\].

use ga_agreement::consensus::majority;
use rand::Rng;

/// The per-processor clock state and update rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockRule {
    /// Number of processors.
    n: usize,
    /// Fault bound.
    f: usize,
    /// Clock modulus `M`.
    modulus: u64,
    /// Current clock value in `0..modulus`.
    value: u64,
}

impl ClockRule {
    /// Creates a clock with an initial value.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f` and `modulus ≥ 2`; the initial value is
    /// reduced mod `modulus`.
    pub fn new(n: usize, f: usize, modulus: u64, initial: u64) -> ClockRule {
        assert!(n > 3 * f, "clock synchronization requires n > 3f");
        assert!(modulus >= 2, "need at least two clock values");
        ClockRule {
            n,
            f,
            modulus,
            value: initial % modulus,
        }
    }

    /// The current clock value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The modulus `M`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Transient-fault hook: force an arbitrary value.
    pub fn set_arbitrary(&mut self, value: u64) {
        self.value = value % self.modulus;
    }

    /// Applies one pulse given `received` clock claims (at most one per
    /// other processor; own value is counted automatically) and private
    /// randomness. Returns the new clock value.
    ///
    /// The votes are the own value and the first `n − 1` claims, reduced
    /// mod `M`: at most `n`. A value with `n − f` of them has more than
    /// half of `n` (`n > 2f`), so it is the votes' strict
    /// [`majority`]: a Boyer–Moore pass names the only candidate, and
    /// counting the candidate's support decides. No table, and the coin is
    /// drawn only when nothing is adopted.
    pub fn step(&mut self, received: &[u64], rng: &mut impl Rng) -> u64 {
        let votes = std::iter::once(self.value)
            .chain(received.iter().take(self.n - 1).map(|&v| v % self.modulus));
        let candidate = majority(votes.clone(), self.n);
        let support = votes.filter(|&v| v == candidate).count();
        self.value = if support >= self.n - self.f {
            (candidate + 1) % self.modulus
        } else if rng.gen_bool(0.5) {
            0
        } else {
            self.value
        };
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// The `HashMap` tally [`ClockRule::step`] replaced, kept as its
    /// oracle: support per value, own value included, and the largest
    /// value with `n − f` of it adopted.
    fn reference_step(c: &mut ClockRule, received: &[u64], rng: &mut impl Rng) -> u64 {
        let mut counts: std::collections::HashMap<u64, usize> = Default::default();
        *counts.entry(c.value).or_insert(0) += 1;
        for &v in received.iter().take(c.n - 1) {
            *counts.entry(v % c.modulus).or_insert(0) += 1;
        }
        let threshold = c.n - c.f;
        let supported = counts
            .iter()
            .filter(|&(_, &count)| count >= threshold)
            .map(|(&v, _)| v)
            .max();
        c.value = match supported {
            Some(v) => (v + 1) % c.modulus,
            None if rng.gen_bool(0.5) => 0,
            None => c.value,
        };
        c.value
    }

    #[test]
    fn step_matches_the_reference_tally() {
        use rand::RngCore;
        // Every n in 4..=22 and every legal f, on claims of one common
        // value — some spelled `v + k·M`, so reduction makes the quorum —
        // mixed with none, a little or much noise: another value, or any
        // u64. Fewer, exactly, and more than n − 1 claims.
        let mut adopted = 0;
        let mut cases = 0;
        let mut draw = StdRng::seed_from_u64(0xC10C);
        for n in 4..=22usize {
            for f in 0..=(n - 1) / 3 {
                for _ in 0..64 {
                    let modulus = draw.gen_range(2..40u64);
                    let own = draw.gen_range(0..modulus);
                    let common = [own, draw.gen_range(0..modulus)][usize::from(draw.gen_bool(0.3))];
                    let noise = [0.0, 0.1, 0.4][draw.gen_range(0..3usize)];
                    let count = if draw.gen() {
                        draw.gen_range(n - 1..=n + 2)
                    } else {
                        draw.gen_range(0..=n + 2)
                    };
                    let claims: Vec<u64> = (0..count)
                        .map(|_| {
                            if draw.gen_bool(noise) {
                                [draw.gen(), draw.gen_range(0..modulus)][draw.gen_range(0..2usize)]
                            } else if draw.gen_bool(0.2) {
                                common + modulus * draw.gen_range(1..4u64)
                            } else {
                                common
                            }
                        })
                        .collect();
                    let seed = draw.gen();
                    let (mut ours, mut theirs) = (
                        ClockRule::new(n, f, modulus, own),
                        ClockRule::new(n, f, modulus, own),
                    );
                    let (mut ours_rng, mut theirs_rng) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let value = ours.step(&claims, &mut ours_rng);
                    let expected = reference_step(&mut theirs, &claims, &mut theirs_rng);
                    let at = format!("n={n} f={f} M={modulus} own={own} claims={claims:?}");
                    assert_eq!(value, expected, "{at}");
                    assert_eq!(ours, theirs, "{at}");
                    let next = ours_rng.next_u64();
                    assert_eq!(next, theirs_rng.next_u64(), "draws, {at}");
                    // No coin drawn: the quorum branch ran.
                    adopted += usize::from(next == StdRng::seed_from_u64(seed).next_u64());
                    cases += 1;
                }
            }
        }
        assert!(
            cases / 4 < adopted && adopted < cases * 3 / 4,
            "both branches ran: {adopted} of {cases} adopted"
        );
    }

    #[test]
    fn synchronized_clocks_increment_together() {
        // n=4, f=1: all honest at 5 → everyone sees ≥3 fives → 6.
        let mut c = ClockRule::new(4, 1, 10, 5);
        let next = c.step(&[5, 5, 9], &mut rng());
        assert_eq!(next, 6, "byzantine 9 cannot break the quorum");
    }

    #[test]
    fn wraparound_at_modulus() {
        let mut c = ClockRule::new(4, 1, 10, 9);
        assert_eq!(c.step(&[9, 9, 9], &mut rng()), 0);
    }

    #[test]
    fn closure_holds_under_any_byzantine_vote() {
        // Whatever the f=1 adversary claims, 3 honest 7s carry the quorum.
        for byz_claim in [0u64, 6, 7, 8, 9] {
            let mut c = ClockRule::new(4, 1, 10, 7);
            assert_eq!(c.step(&[7, 7, byz_claim], &mut rng()), 8);
        }
    }

    #[test]
    fn unsupported_values_randomize_to_zero_or_keep() {
        let mut saw_zero = false;
        let mut saw_keep = false;
        for seed in 0..64 {
            let mut c = ClockRule::new(4, 1, 10, 5);
            let mut r = StdRng::seed_from_u64(seed);
            let next = c.step(&[1, 2, 3], &mut r);
            match next {
                0 => saw_zero = true,
                5 => saw_keep = true,
                other => panic!("unexpected clock value {other}"),
            }
        }
        assert!(saw_zero && saw_keep, "both coin outcomes reachable");
    }

    #[test]
    fn byzantine_cannot_fake_quorum_alone() {
        // f=1 of n=4: one loud liar repeating 3 claims of "2" — counts as
        // received entries but `received` is capped at n-1 = 3 values; a
        // single sender appears once in the caller's dedup, here we emulate
        // the cap only.
        let mut c = ClockRule::new(4, 1, 10, 5);
        // Liar contributes one claim; two other honest at 1 and 2.
        let next = c.step(&[2, 1, 2], &mut rng());
        assert_ne!(next, 3, "support 2 < n-f=3 must not adopt");
    }

    #[test]
    fn set_arbitrary_reduces_mod_m() {
        let mut c = ClockRule::new(4, 1, 10, 0);
        c.set_arbitrary(123);
        assert_eq!(c.value(), 3);
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn rejects_bad_resilience() {
        ClockRule::new(3, 1, 10, 0);
    }

    #[test]
    fn two_values_cannot_both_have_quorum() {
        // Structural: threshold n-f with n>3f means a second quorum value
        // is impossible; adopting max() is thus unambiguous. Check the
        // tally picks the quorum value, not a larger unsupported one.
        let mut c = ClockRule::new(7, 2, 16, 4);
        // 5 processors say 4 (incl. self), liars say 15, 15.
        let next = c.step(&[4, 4, 4, 4, 15, 15], &mut rng());
        assert_eq!(next, 5);
    }
}
