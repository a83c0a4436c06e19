//! Mixed strategies and mixed Nash equilibria for bimatrix games.
//!
//! "A game may not possess a PNE at all. However, if we extend the game to
//! include mixed strategy … then an equilibrium is guaranteed to exist"
//! (§2, citing Nash 1950). The authority must therefore audit mixed play
//! (paper §5); this module computes the equilibria those audits reference.
//!
//! [`support_enumeration`] finds all equilibria of a (nondegenerate)
//! bimatrix game by solving indifference equations over equal-size support
//! pairs with the tiny Gaussian solver in [`linalg`](crate::linalg).

use crate::game::{Game, MatrixGame};
use crate::linalg::solve;
use crate::profile::{all_profiles, MixedProfile, MixedStrategy};
use crate::{GameError, EPSILON};

/// Expected cost of `agent` under a fully mixed profile, by direct
/// summation over all pure profiles.
///
/// Exponential in agents — fine for the small games under audit.
fn expected_cost(game: &dyn Game, profile: &MixedProfile, agent: usize) -> f64 {
    all_profiles(game)
        .map(|p| profile.prob_of(&p) * game.cost(agent, &p))
        .sum()
}

/// Expected cost of `agent` when it deviates to pure `action` while others
/// keep playing `profile` — the quantity a mixed-equilibrium check compares
/// across actions.
fn expected_cost_of_deviation(
    game: &dyn Game,
    profile: &MixedProfile,
    agent: usize,
    action: usize,
) -> f64 {
    let mut strategies = profile.strategies().to_vec();
    strategies[agent] = MixedStrategy::pure(action, game.num_actions(agent));
    expected_cost(game, &MixedProfile::new(strategies), agent)
}

/// Whether `profile` is a mixed Nash equilibrium of `game` (within
/// `tol`): no agent has a pure deviation with strictly lower expected cost.
pub fn is_mixed_nash(game: &dyn Game, profile: &MixedProfile, tol: f64) -> bool {
    for agent in 0..game.num_agents() {
        let current = expected_cost(game, profile, agent);
        for action in 0..game.num_actions(agent) {
            if expected_cost_of_deviation(game, profile, agent, action) < current - tol {
                return false;
            }
        }
    }
    true
}

/// A mixed equilibrium of a bimatrix game.
#[derive(Debug, Clone, PartialEq)]
pub struct BimatrixEquilibrium {
    /// Row player's strategy.
    pub row: MixedStrategy,
    /// Column player's strategy.
    pub col: MixedStrategy,
    /// Row player's equilibrium expected cost.
    pub row_cost: f64,
    /// Column player's equilibrium expected cost.
    pub col_cost: f64,
}

/// Finds all mixed Nash equilibria of a bimatrix game by support
/// enumeration.
///
/// Iterates equal-size support pairs, solves each pair's indifference
/// system, and keeps solutions that are valid distributions with no
/// profitable outside-support deviation. Complete for nondegenerate games;
/// degenerate games may additionally have equilibrium *components*, of
/// which this returns the vertices it encounters.
///
/// # Errors
///
/// Never errs for well-formed games; returns an empty vector only for
/// degenerate corner cases where numerics reject every support pair.
pub fn support_enumeration(game: &MatrixGame) -> Result<Vec<BimatrixEquilibrium>, GameError> {
    let m = game.rows();
    let n = game.cols();
    let mut found: Vec<BimatrixEquilibrium> = Vec::new();

    for size in 1..=m.min(n) {
        for row_support in subsets_of_size(m, size) {
            for col_support in subsets_of_size(n, size) {
                if let Some(eq) = try_support(game, &row_support, &col_support) {
                    if !found.iter().any(|e| same_equilibrium(e, &eq)) {
                        found.push(eq);
                    }
                }
            }
        }
    }
    Ok(found)
}

/// All `size`-element subsets of `0..n` (lexicographic).
fn subsets_of_size(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    fn rec(
        start: usize,
        n: usize,
        size: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            rec(i + 1, n, size, current, out);
            current.pop();
        }
    }
    rec(0, n, size, &mut current, &mut out);
    out
}

fn same_equilibrium(a: &BimatrixEquilibrium, b: &BimatrixEquilibrium) -> bool {
    let close = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| (p - q).abs() < 1e-6);
    close(a.row.weights(), b.row.weights()) && close(a.col.weights(), b.col.weights())
}

/// Solves the indifference equations for one support pair.
fn try_support(
    game: &MatrixGame,
    row_support: &[usize],
    col_support: &[usize],
) -> Option<BimatrixEquilibrium> {
    let k = row_support.len();
    debug_assert_eq!(k, col_support.len());
    let m = game.rows();
    let n = game.cols();

    // Solve for the column player's mixture y (over col_support) and the
    // row player's equilibrium cost v: every supported row is indifferent.
    //   Σ_j A[i][j]·y_j − v = 0   for i ∈ row_support
    //   Σ_j y_j = 1
    let mut a = vec![vec![0.0; k + 1]; k + 1];
    let mut b = vec![0.0; k + 1];
    for (eq, &i) in row_support.iter().enumerate() {
        for (col_idx, &j) in col_support.iter().enumerate() {
            a[eq][col_idx] = game.at(i, j).0;
        }
        a[eq][k] = -1.0; // −v
    }
    for cell in &mut a[k][..k] {
        *cell = 1.0;
    }
    b[k] = 1.0;
    let sol_y = solve(&a, &b)?;
    let (y_support, v) = (&sol_y[..k], sol_y[k]);

    // Symmetric system for the row player's mixture x and the column
    // player's cost w.
    let mut a2 = vec![vec![0.0; k + 1]; k + 1];
    let mut b2 = vec![0.0; k + 1];
    for (eq, &j) in col_support.iter().enumerate() {
        for (row_idx, &i) in row_support.iter().enumerate() {
            a2[eq][row_idx] = game.at(i, j).1;
        }
        a2[eq][k] = -1.0;
    }
    for cell in &mut a2[k][..k] {
        *cell = 1.0;
    }
    b2[k] = 1.0;
    let sol_x = solve(&a2, &b2)?;
    let (x_support, w) = (&sol_x[..k], sol_x[k]);

    // Distributions must be non-negative.
    if y_support.iter().any(|&p| p < -1e-9) || x_support.iter().any(|&p| p < -1e-9) {
        return None;
    }

    // Expand to full-dimension strategies.
    let mut x = vec![0.0; m];
    for (idx, &i) in row_support.iter().enumerate() {
        x[i] = x_support[idx].max(0.0);
    }
    let mut y = vec![0.0; n];
    for (idx, &j) in col_support.iter().enumerate() {
        y[j] = y_support[idx].max(0.0);
    }

    // No profitable deviation outside the support.
    for i in 0..m {
        let cost_i: f64 = (0..n).map(|j| game.at(i, j).0 * y[j]).sum();
        if cost_i < v - 1e-7 {
            return None;
        }
    }
    for j in 0..n {
        let cost_j: f64 = (0..m).map(|i| game.at(i, j).1 * x[i]).sum();
        if cost_j < w - 1e-7 {
            return None;
        }
    }

    let row = MixedStrategy::new(normalize(x)).ok()?;
    let col = MixedStrategy::new(normalize(y)).ok()?;
    Some(BimatrixEquilibrium {
        row,
        col,
        row_cost: v,
        col_cost: w,
    })
}

fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let total: f64 = v.iter().sum();
    if total > EPSILON {
        for x in &mut v {
            *x /= total;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matching_pennies() -> MatrixGame {
        MatrixGame::from_payoffs(
            "mp",
            vec![
                vec![(1.0, -1.0), (-1.0, 1.0)],
                vec![(-1.0, 1.0), (1.0, -1.0)],
            ],
        )
    }

    #[test]
    fn matching_pennies_unique_mixed_equilibrium() {
        let eqs = support_enumeration(&matching_pennies()).unwrap();
        assert_eq!(eqs.len(), 1);
        let eq = &eqs[0];
        assert!((eq.row.prob(0) - 0.5).abs() < 1e-9);
        assert!((eq.col.prob(0) - 0.5).abs() < 1e-9);
        assert!(eq.row_cost.abs() < 1e-9, "zero-sum value is 0");
        assert!(eq.col_cost.abs() < 1e-9);
    }

    #[test]
    fn pd_equilibrium_is_pure_defect() {
        let pd = MatrixGame::from_costs(
            "pd",
            vec![vec![(1.0, 1.0), (3.0, 0.0)], vec![(0.0, 3.0), (2.0, 2.0)]],
        );
        let eqs = support_enumeration(&pd).unwrap();
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].row.as_pure(), Some(1));
        assert_eq!(eqs[0].col.as_pure(), Some(1));
    }

    #[test]
    fn battle_of_sexes_has_three_equilibria() {
        // Cost form of battle of the sexes.
        let bos = MatrixGame::from_payoffs(
            "bos",
            vec![vec![(2.0, 1.0), (0.0, 0.0)], vec![(0.0, 0.0), (1.0, 2.0)]],
        );
        let eqs = support_enumeration(&bos).unwrap();
        assert_eq!(eqs.len(), 3, "two pure + one mixed");
        let mixed = eqs
            .iter()
            .find(|e| e.row.as_pure().is_none())
            .expect("mixed equilibrium exists");
        // Known: row plays (2/3, 1/3), col plays (1/3, 2/3).
        assert!((mixed.row.prob(0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((mixed.col.prob(0) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn equilibria_pass_is_mixed_nash() {
        for game in [matching_pennies()] {
            for eq in support_enumeration(&game).unwrap() {
                let profile = MixedProfile::new(vec![eq.row.clone(), eq.col.clone()]);
                assert!(is_mixed_nash(&game, &profile, 1e-6));
            }
        }
    }

    #[test]
    fn non_equilibrium_fails_is_mixed_nash() {
        let game = matching_pennies();
        let profile = MixedProfile::new(vec![
            MixedStrategy::new(vec![0.9, 0.1]).unwrap(),
            MixedStrategy::new(vec![0.5, 0.5]).unwrap(),
        ]);
        // Row's skew is exploitable by col.
        assert!(!is_mixed_nash(&game, &profile, 1e-6));
    }

    #[test]
    fn expected_cost_of_uniform_matching_pennies_is_zero() {
        let game = matching_pennies();
        let profile = MixedProfile::new(vec![MixedStrategy::uniform(2), MixedStrategy::uniform(2)]);
        assert!(expected_cost(&game, &profile, 0).abs() < 1e-12);
        assert!(expected_cost(&game, &profile, 1).abs() < 1e-12);
    }

    #[test]
    fn deviation_cost_matches_manual_computation() {
        let game = matching_pennies();
        let profile = MixedProfile::new(vec![
            MixedStrategy::uniform(2),
            MixedStrategy::new(vec![0.75, 0.25]).unwrap(),
        ]);
        // Row plays heads vs (0.75, 0.25): cost = 0.75·(−1) + 0.25·(+1) = −0.5.
        let c = expected_cost_of_deviation(&game, &profile, 0, 0);
        assert!((c - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn subsets_enumeration_counts() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(subsets_of_size(3, 1).len(), 3);
    }
}
