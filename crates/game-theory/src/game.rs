//! The [`Game`] trait and concrete game representations.

use crate::profile::PureProfile;

/// A finite strategic-form game `Γ = ⟨N, (Πᵢ), (uᵢ)⟩` in **cost**
/// convention: every agent wants to *minimize* `cost`.
///
/// The paper (§2) defines `uᵢ : Π → ℝ` as a "cost function (utility)" and a
/// deviation happens when the deviating agent's cost gets *smaller*; we keep
/// exactly that orientation. Games stated in payoff form (e.g. matching
/// pennies) are converted by negation — see
/// [`MatrixGame::from_payoffs`].
pub trait Game {
    /// Number of agents `|N|`.
    fn num_agents(&self) -> usize;

    /// Number of applicable actions `|Πᵢ|` for `agent`.
    fn num_actions(&self, agent: usize) -> usize;

    /// The cost `uᵢ(π)` of `agent` under pure profile `profile`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on malformed profiles; validate with
    /// [`PureProfile::validate`] at trust boundaries.
    fn cost(&self, agent: usize, profile: &PureProfile) -> f64;

    /// A short diagnostic name.
    fn name(&self) -> &str {
        "game"
    }
}

/// A 2-player game stored as a cost bimatrix.
///
/// `costs[a][b] = (cost_row, cost_col)` when the row player picks `a` and
/// the column player picks `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixGame {
    name: String,
    costs: Vec<Vec<(f64, f64)>>,
}

impl MatrixGame {
    /// Builds from a cost bimatrix (lower = better).
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty or ragged.
    pub fn from_costs(name: impl Into<String>, costs: Vec<Vec<(f64, f64)>>) -> MatrixGame {
        assert!(!costs.is_empty(), "need at least one row action");
        let cols = costs[0].len();
        assert!(cols > 0, "need at least one column action");
        assert!(
            costs.iter().all(|r| r.len() == cols),
            "cost matrix must be rectangular"
        );
        MatrixGame {
            name: name.into(),
            costs,
        }
    }

    /// Builds from a *payoff* bimatrix (higher = better) by negating, which
    /// is how payoff-form games from the literature (Fig. 1's matching
    /// pennies) enter the cost-form machinery.
    pub fn from_payoffs(name: impl Into<String>, payoffs: Vec<Vec<(f64, f64)>>) -> MatrixGame {
        let costs = payoffs
            .into_iter()
            .map(|row| row.into_iter().map(|(a, b)| (-a, -b)).collect())
            .collect();
        MatrixGame::from_costs(name, costs)
    }

    /// Row player's action count.
    pub fn rows(&self) -> usize {
        self.costs.len()
    }

    /// Column player's action count.
    pub fn cols(&self) -> usize {
        self.costs[0].len()
    }

    /// The cost pair at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn at(&self, row: usize, col: usize) -> (f64, f64) {
        self.costs[row][col]
    }
}

impl Game for MatrixGame {
    fn num_agents(&self) -> usize {
        2
    }

    fn num_actions(&self, agent: usize) -> usize {
        match agent {
            0 => self.rows(),
            1 => self.cols(),
            _ => panic!("matrix game has agents 0 and 1, got {agent}"),
        }
    }

    fn cost(&self, agent: usize, profile: &PureProfile) -> f64 {
        let (r, c) = (profile.action(0), profile.action(1));
        let (cr, cc) = self.costs[r][c];
        match agent {
            0 => cr,
            1 => cc,
            _ => panic!("matrix game has agents 0 and 1, got {agent}"),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A game defined by a cost closure — for large or structured games
/// (congestion, resource allocation) where tabulation is wasteful.
pub struct ClosureGame<F> {
    name: String,
    num_agents: usize,
    dims: Vec<usize>,
    cost: F,
}

impl<F> std::fmt::Debug for ClosureGame<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosureGame")
            .field("name", &self.name)
            .field("num_agents", &self.num_agents)
            .field("dims", &self.dims)
            .finish_non_exhaustive()
    }
}

impl<F: Fn(usize, &PureProfile) -> f64> ClosureGame<F> {
    /// Builds a closure-backed game.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != num_agents` or any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        num_agents: usize,
        dims: Vec<usize>,
        cost: F,
    ) -> ClosureGame<F> {
        assert_eq!(dims.len(), num_agents, "one dimension per agent");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        ClosureGame {
            name: name.into(),
            num_agents,
            dims,
            cost,
        }
    }
}

impl<F: Fn(usize, &PureProfile) -> f64> Game for ClosureGame<F> {
    fn num_agents(&self) -> usize {
        self.num_agents
    }

    fn num_actions(&self, agent: usize) -> usize {
        self.dims[agent]
    }

    fn cost(&self, agent: usize, profile: &PureProfile) -> f64 {
        (self.cost)(agent, profile)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_game_costs() {
        let g = MatrixGame::from_costs("g", vec![vec![(1.0, 2.0), (3.0, 4.0)]]);
        let p = PureProfile::new(vec![0, 1]);
        assert_eq!(g.cost(0, &p), 3.0);
        assert_eq!(g.cost(1, &p), 4.0);
        assert_eq!(g.num_agents(), 2);
        assert_eq!(g.num_actions(0), 1);
        assert_eq!(g.num_actions(1), 2);
    }

    #[test]
    fn payoffs_negate_into_costs() {
        let g = MatrixGame::from_payoffs("mp", vec![vec![(1.0, -1.0)]]);
        let p = PureProfile::new(vec![0, 0]);
        assert_eq!(g.cost(0, &p), -1.0);
        assert_eq!(g.cost(1, &p), 1.0);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_matrix_rejected() {
        MatrixGame::from_costs("bad", vec![vec![(0.0, 0.0)], vec![]]);
    }

    #[test]
    fn closure_game_evaluates() {
        let g = ClosureGame::new("c", 3, vec![2, 2, 2], |agent, p| {
            if p.action(agent) == 0 {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(g.cost(1, &PureProfile::new(vec![0, 0, 1])), 1.0);
        assert_eq!(g.cost(2, &PureProfile::new(vec![0, 0, 1])), 0.0);
        assert_eq!(g.name(), "c");
    }

    #[test]
    #[should_panic(expected = "one dimension per agent")]
    fn closure_game_dims_must_match() {
        ClosureGame::new("c", 2, vec![2], |_, _| 0.0);
    }
}
