//! E1 — Fig. 1: matching pennies with a hidden manipulative strategy.
//!
//! Regenerates (a) the payoff matrix itself and (b) the §5.1
//! expected-profit computation: against A's honest uniform mixture, B's
//! manipulation lifts B from 0 to +4 and drops A from 0 to −4.

use ga_game_theory::game::Game;
use ga_game_theory::profile::{MixedStrategy, PureProfile};
use ga_games::matching_pennies::{
    fig1_expected_payoffs, manipulated_matching_pennies, HEADS, MANIPULATE, TAILS,
};

/// The numbers behind Fig. 1 / §5.1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// The 2×3 payoff matrix, `(A, B)` per cell, row-major.
    pub matrix: Vec<Vec<(f64, f64)>>,
    /// Expected payoffs `(A, B)` when B plays Heads / Tails / Manipulate
    /// against uniform A.
    pub expected: [(f64, f64); 3],
}

/// Computes the Fig. 1 artifact.
pub fn run() -> Fig1Result {
    let game = manipulated_matching_pennies();
    let matrix = (0..2)
        .map(|r| {
            (0..3)
                .map(|c| {
                    let p = PureProfile::new(vec![r, c]);
                    (-game.cost(0, &p), -game.cost(1, &p))
                })
                .collect()
        })
        .collect();
    let uniform = MixedStrategy::uniform(2);
    let expected = [
        fig1_expected_payoffs(&uniform, HEADS),
        fig1_expected_payoffs(&uniform, TAILS),
        fig1_expected_payoffs(&uniform, MANIPULATE),
    ];
    Fig1Result { matrix, expected }
}
