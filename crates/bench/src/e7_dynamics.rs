//! E7 — RRA load-gap trajectories: honest, cheated, and supervised.
//!
//! Tracks `Δ(k)` over rounds for three populations:
//!
//! 1. all honest — stays inside Lemma 6's `2n − 1` envelope;
//! 2. with a rule-violating cheater (extra demands) and no authority —
//!    the gap diverges linearly;
//! 3. same cheater under the authority: the legitimate-action audit (§3.2
//!    req. 1) flags the multi-demand in the first play, the executive
//!    disconnects the cheater, and the gap re-enters the envelope.

use ga_games::resource_allocation::{RraBehavior, RraProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gap trajectories of the three regimes, sampled at checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsResult {
    /// Agents.
    pub n: usize,
    /// Resources.
    pub b: usize,
    /// Checkpoints (round numbers).
    pub checkpoints: Vec<u64>,
    /// Gap per checkpoint: honest population.
    pub honest: Vec<u64>,
    /// Gap per checkpoint: cheater, unsupervised.
    pub cheated: Vec<u64>,
    /// Gap per checkpoint: cheater disconnected after play 1.
    pub supervised: Vec<u64>,
    /// Lemma 6 envelope `2n − 1`.
    pub envelope: u64,
}

/// Runs the three regimes.
pub fn run(n: usize, b: usize, checkpoints: &[u64], seed: u64) -> DynamicsResult {
    let max_k = checkpoints.iter().copied().max().unwrap_or(0);

    let sample = |mut rra: RraProcess, disconnect_cheater_after: Option<u64>| -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gaps = Vec::new();
        for k in 1..=max_k {
            rra.play_round(&mut rng);
            if Some(k) == disconnect_cheater_after {
                // The judicial service saw the multi-demand in play k; the
                // executive disconnects the cheater for all later plays.
                rra.set_behavior(n - 1, RraBehavior::Disconnected);
            }
            if checkpoints.contains(&k) {
                gaps.push(rra.stats().gap);
            }
        }
        gaps
    };

    let honest = sample(RraProcess::new(n, b), None);

    // The cheat must outpace the n−1 honest unit demands per round or the
    // water-filling absorbs it; n+2 extra units guarantee divergence.
    let mut behaviors = vec![RraBehavior::NashMixed; n];
    behaviors[n - 1] = RraBehavior::ExtraDemands(n as u32 + 2);
    let cheated = sample(RraProcess::with_behaviors(n, b, behaviors.clone()), None);
    let supervised = sample(RraProcess::with_behaviors(n, b, behaviors), Some(1));

    DynamicsResult {
        n,
        b,
        checkpoints: checkpoints.to_vec(),
        honest,
        cheated,
        supervised,
        envelope: 2 * n as u64 - 1,
    }
}
