//! E3 — Theorem 5 / Lemma 6: RRA multi-round anarchy cost.
//!
//! Sweeps round counts for several `(n, b)` and reports the measured
//! `R(k) = M(k)/OPT(k)` against the proven `1 + 2b/k` bound, and the load
//! gap `Δ(k)` against `2n − 1`.

use ga_games::resource_allocation::RraProcess;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct RraPoint {
    /// Agents.
    pub n: usize,
    /// Resources.
    pub b: usize,
    /// Rounds.
    pub k: u64,
    /// Measured multi-round anarchy cost.
    pub ratio: f64,
    /// Theorem 5's bound `1 + 2b/k`.
    pub bound: f64,
    /// Measured load gap `Δ(k)`.
    pub gap: u64,
    /// Lemma 6's bound `2n − 1`.
    pub gap_bound: u64,
    /// Whether both bounds held at every intermediate round.
    pub bounds_held_throughout: bool,
}

/// Runs the sweep: for each `(n, b)`, plays up to `max_k` rounds and
/// samples the listed checkpoints.
pub fn run(configs: &[(usize, usize)], checkpoints: &[u64], seed: u64) -> Vec<RraPoint> {
    let mut out = Vec::new();
    let max_k = checkpoints.iter().copied().max().unwrap_or(0);
    for &(n, b) in configs {
        let mut rra = RraProcess::new(n, b);
        let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 8) ^ b as u64);
        let stats = rra.play(max_k, &mut rng);
        let mut held = true;
        for s in &stats {
            held &= s.ratio <= s.bound + 1e-9 && s.gap < 2 * n as u64;
            if checkpoints.contains(&s.k) {
                out.push(RraPoint {
                    n,
                    b,
                    k: s.k,
                    ratio: s.ratio,
                    bound: s.bound,
                    gap: s.gap,
                    gap_bound: 2 * n as u64 - 1,
                    bounds_held_throughout: held,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_across_configs() {
        let points = run(&[(4, 2), (6, 3)], &[50, 500], 3);
        for p in &points {
            assert!(p.bounds_held_throughout, "{p:?}");
            assert!(p.ratio <= p.bound + 1e-9);
            assert!(p.gap <= p.gap_bound);
        }
    }

    #[test]
    fn ratio_approaches_one() {
        let points = run(&[(4, 4)], &[10, 2000], 5);
        let early = points.iter().find(|p| p.k == 10).unwrap();
        let late = points.iter().find(|p| p.k == 2000).unwrap();
        assert!(late.ratio <= early.ratio + 1e-9, "monotone-ish decrease");
        assert!(late.ratio < 1.05, "R(2000) = {}", late.ratio);
    }
}
