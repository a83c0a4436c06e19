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
