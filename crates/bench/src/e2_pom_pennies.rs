//! E2 — reduced price of malice on the Fig. 1 game (§5.4).
//!
//! Repeated play of the manipulated matching-pennies game under three
//! regimes:
//!
//! 1. **unsupervised** — no audits: B manipulates every round, A bleeds an
//!    expected 4 per round;
//! 2. **authority / disconnect** — the support audit catches B in round 0;
//!    A's loss stops immediately;
//! 3. **authority / fines** — B keeps playing but pays per offense; its
//!    manipulation becomes unprofitable.
//!
//! The *malice damage* is the honest agent's cumulative loss; the
//! authority's benefit is the ratio between regimes (the paper's "reducing
//! the price of malice").

use ga_games::matching_pennies::{manipulated_matching_pennies, MANIPULATE};
use game_authority::agent::Behavior;
use game_authority::authority::{Authority, AuthorityConfig};
use game_authority::executive::Punishment;

/// One regime's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RegimeResult {
    /// Regime label.
    pub label: &'static str,
    /// Honest agent A's cumulative payoff (negated cost) over the run.
    pub honest_payoff: f64,
    /// Manipulator B's cumulative payoff, including fines.
    pub manipulator_payoff: f64,
    /// Rounds until the manipulator was first punished (None = never).
    pub detected_at: Option<u64>,
}

/// E2 outcome: the three regimes plus the honest baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct PomPenniesResult {
    /// All-honest baseline (B mixes uniformly over Heads/Tails).
    pub baseline_honest_payoff: f64,
    /// The three regimes.
    pub regimes: Vec<RegimeResult>,
    /// Rounds played.
    pub rounds: u64,
}

fn run_regime(
    label: &'static str,
    rounds: u64,
    seed: u64,
    audits: bool,
    punishment: Punishment,
) -> RegimeResult {
    let game = manipulated_matching_pennies();
    let config = AuthorityConfig {
        punishment,
        epoch_len: 16,
        seed,
        audits_enabled: audits,
        ..AuthorityConfig::default()
    };
    let mut authority = Authority::new(
        &game,
        vec![
            Behavior::honest_mixed(vec![0.5, 0.5]),
            Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
        ],
        config,
    );
    let reports = authority.play(rounds);
    let honest_payoff: f64 = reports.iter().map(|r| -r.costs[0]).sum();
    let raw_b: f64 = reports.iter().map(|r| -r.costs[1]).sum();
    let manipulator_payoff = raw_b - authority.executive().fine(1);
    let detected_at = reports
        .iter()
        .find(|r| r.punished.contains(&1))
        .map(|r| r.round);
    RegimeResult {
        label,
        honest_payoff,
        manipulator_payoff,
        detected_at,
    }
}

/// Runs E2.
pub fn run(rounds: u64, seed: u64) -> PomPenniesResult {
    // Baseline: two honest mixers — expected payoff 0 for both.
    let game = manipulated_matching_pennies();
    let mut baseline = Authority::new(
        &game,
        vec![
            Behavior::honest_mixed(vec![0.5, 0.5]),
            Behavior::honest_mixed(vec![0.5, 0.5, 0.0]),
        ],
        AuthorityConfig {
            seed,
            ..AuthorityConfig::default()
        },
    );
    let baseline_honest_payoff: f64 = baseline.play(rounds).iter().map(|r| -r.costs[0]).sum();

    let regimes = vec![
        run_regime("unsupervised", rounds, seed, false, Punishment::Disconnect),
        run_regime(
            "authority+disconnect",
            rounds,
            seed,
            true,
            Punishment::Disconnect,
        ),
        run_regime(
            "authority+fine(6)",
            rounds,
            seed,
            true,
            Punishment::Fine(6.0),
        ),
    ];
    PomPenniesResult {
        baseline_honest_payoff,
        regimes,
        rounds,
    }
}
