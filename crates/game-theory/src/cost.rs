//! Cost criteria: social cost, optimum, and the two anarchy ratios that
//! are a function of one game.
//!
//! * **Price of anarchy** (PoA, Koutsoupias–Papadimitriou): worst
//!   equilibrium vs. the centralistic optimum.
//! * **Price of stability** (PoS, Anshelevich et al.): best equilibrium vs.
//!   optimum.
//!
//! The paper's other two ratios compare measured runs and are computed
//! where the runs are made: the price of malice in `ga-scenario`'s E2 and
//! E5 ports, the multi-round anarchy cost `R(k)` (§6) in `ga-games`'
//! `RraProcess`.

use crate::game::Game;
use crate::nash::pure_nash_equilibria;
use crate::profile::{all_profiles, PureProfile};

/// Social cost of `profile`: the sum of **honest** agents' costs (§2:
/// "the social cost of a PSP is the sum of all individual costs of honest
/// agents"). Pass `None` to treat every agent as honest.
pub fn social_cost(game: &dyn Game, profile: &PureProfile, honest: Option<&[bool]>) -> f64 {
    (0..game.num_agents())
        .filter(|&i| honest.is_none_or(|h| h.get(i).copied().unwrap_or(true)))
        .map(|i| game.cost(i, profile))
        .sum()
}

/// The centralistic optimum: minimum social cost over all pure profiles
/// (exhaustive; exponential in agents).
pub fn optimal_social_cost(game: &dyn Game) -> (f64, PureProfile) {
    all_profiles(game)
        .map(|p| (social_cost(game, &p, None), p))
        .min_by(|(a, _), (b, _)| a.partial_cmp(b).expect("finite costs"))
        .expect("games have at least one profile")
}

/// Price of anarchy: worst PNE social cost over the optimum.
///
/// Returns `None` when the game has no PNE or the optimum is non-positive
/// (the ratio would be meaningless).
pub fn price_of_anarchy(game: &dyn Game) -> Option<f64> {
    let (opt, _) = optimal_social_cost(game);
    if opt <= 0.0 {
        return None;
    }
    pure_nash_equilibria(game)
        .into_iter()
        .map(|p| social_cost(game, &p, None) / opt)
        .max_by(|a, b| a.partial_cmp(b).expect("finite ratios"))
}

/// Price of stability: best PNE social cost over the optimum.
///
/// Returns `None` under the same conditions as [`price_of_anarchy`].
pub fn price_of_stability(game: &dyn Game) -> Option<f64> {
    let (opt, _) = optimal_social_cost(game);
    if opt <= 0.0 {
        return None;
    }
    pure_nash_equilibria(game)
        .into_iter()
        .map(|p| social_cost(game, &p, None) / opt)
        .min_by(|a, b| a.partial_cmp(b).expect("finite ratios"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{ClosureGame, MatrixGame};

    fn pd() -> MatrixGame {
        MatrixGame::from_costs(
            "pd",
            vec![vec![(1.0, 1.0), (3.0, 0.0)], vec![(0.0, 3.0), (2.0, 2.0)]],
        )
    }

    #[test]
    fn social_cost_sums_all_by_default() {
        let g = pd();
        assert_eq!(social_cost(&g, &PureProfile::new(vec![0, 0]), None), 2.0);
        assert_eq!(social_cost(&g, &PureProfile::new(vec![1, 1]), None), 4.0);
    }

    #[test]
    fn social_cost_filters_dishonest() {
        let g = pd();
        let honest = [true, false];
        assert_eq!(
            social_cost(&g, &PureProfile::new(vec![0, 1]), Some(&honest)),
            3.0,
            "only row player's cost counts"
        );
    }

    #[test]
    fn optimum_of_pd_is_cooperate() {
        let (opt, profile) = optimal_social_cost(&pd());
        assert_eq!(opt, 2.0);
        assert_eq!(profile, PureProfile::new(vec![0, 0]));
    }

    #[test]
    fn pd_poa_and_pos_are_two() {
        // Unique PNE (D,D) with SC 4; OPT 2.
        assert_eq!(price_of_anarchy(&pd()), Some(2.0));
        assert_eq!(price_of_stability(&pd()), Some(2.0));
    }

    #[test]
    fn poa_none_without_pne() {
        let mp = MatrixGame::from_payoffs(
            "mp",
            vec![
                vec![(1.0, -1.0), (-1.0, 1.0)],
                vec![(-1.0, 1.0), (1.0, -1.0)],
            ],
        );
        assert_eq!(price_of_anarchy(&mp), None);
    }

    #[test]
    fn poa_differs_from_pos_with_multiple_pnes() {
        // Coordination game with one good and one bad equilibrium.
        let g = MatrixGame::from_costs(
            "coord",
            vec![vec![(1.0, 1.0), (5.0, 5.0)], vec![(5.0, 5.0), (3.0, 3.0)]],
        );
        assert_eq!(price_of_anarchy(&g), Some(3.0));
        assert_eq!(price_of_stability(&g), Some(1.0));
    }

    #[test]
    fn poa_on_three_player_congestion_game() {
        let g = ClosureGame::new("cong", 3, vec![2, 2, 2], |agent, p| {
            let mine = p.action(agent);
            p.actions().iter().filter(|&&a| a == mine).count() as f64
        });
        // OPT: split 2/1 → SC = 2·2 + 1 = 5; every PNE is a 2/1 split too.
        let poa = price_of_anarchy(&g).unwrap();
        assert!((poa - 1.0).abs() < 1e-9, "poa={poa}");
    }
}
