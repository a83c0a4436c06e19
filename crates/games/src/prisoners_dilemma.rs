//! The prisoner's dilemma in cost form (years of prison).
//!
//! Used as the default "rules of the game" in examples: a complete
//! information game with a dominant-strategy equilibrium the judicial
//! service can audit trivially (the best response is always Defect).

use ga_game_theory::game::MatrixGame;

/// The standard prisoner's dilemma (action 0 cooperates, 1 defects):
/// mutual cooperation costs 1 year each, mutual defection 2 each,
/// unilateral defection frees the defector (0) and costs the cooperator 3.
pub fn prisoners_dilemma() -> MatrixGame {
    MatrixGame::from_costs(
        "prisoners-dilemma",
        vec![vec![(1.0, 1.0), (3.0, 0.0)], vec![(0.0, 3.0), (2.0, 2.0)]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_game_theory::cost::{price_of_anarchy, price_of_stability};
    use ga_game_theory::nash::pure_nash_equilibria;
    use ga_game_theory::profile::PureProfile;

    #[test]
    fn defect_defect_is_the_unique_pne() {
        assert_eq!(
            pure_nash_equilibria(&prisoners_dilemma()),
            vec![PureProfile::new(vec![1, 1])]
        );
    }

    #[test]
    fn anarchy_doubles_the_social_cost() {
        let g = prisoners_dilemma();
        assert_eq!(price_of_anarchy(&g), Some(2.0));
        assert_eq!(price_of_stability(&g), Some(2.0));
    }
}
