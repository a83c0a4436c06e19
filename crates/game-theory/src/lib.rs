//! # ga-game-theory — strategic games, equilibria and anarchy costs
//!
//! The definitional core of the game-authority reproduction, following the
//! paper's §2 preliminaries (which in turn follow Osborne–Rubinstein):
//!
//! * a game `Γ = ⟨N, (Πᵢ), (uᵢ)⟩` is a finite agent set, finite per-agent
//!   strategy sets and per-agent **cost** functions (lower is better — the
//!   paper's `uᵢ` are costs: an agent deviates when the deviation's cost is
//!   *smaller*);
//! * [pure strategy profiles](profile::PureProfile) (PSPs), [mixed
//!   strategies](profile::MixedStrategy) and [best
//!   responses](best_response::best_response);
//! * [pure Nash equilibria](nash::pure_nash_equilibria) by enumeration,
//!   [mixed equilibria](mixed) for bimatrix games by support enumeration,
//!   and [best-response dynamics](nash::best_response_dynamics);
//! * the cost criteria computed from a game: social cost, optimum, price of
//!   anarchy and price of stability, in [`cost`].
//!
//! ## Quickstart
//!
//! ```
//! use ga_game_theory::prelude::*;
//!
//! // Prisoner's dilemma in cost form (years of prison; lower is better).
//! let pd = MatrixGame::from_costs(
//!     "prisoners-dilemma",
//!     vec![
//!         vec![(1.0, 1.0), (3.0, 0.0)],
//!         vec![(0.0, 3.0), (2.0, 2.0)],
//!     ],
//! );
//! let equilibria = pure_nash_equilibria(&pd);
//! assert_eq!(equilibria, vec![PureProfile::new(vec![1, 1])]); // defect/defect
//! ```

pub mod best_response;
pub mod cost;
pub mod game;
pub mod linalg;
pub mod mixed;
pub mod nash;
pub mod profile;

/// Convenient glob import.
pub mod prelude {
    pub use crate::best_response::{best_response, is_best_response};
    pub use crate::cost::{optimal_social_cost, price_of_anarchy, price_of_stability, social_cost};
    pub use crate::game::{ClosureGame, Game, MatrixGame};
    pub use crate::mixed::support_enumeration;
    pub use crate::nash::{best_response_dynamics, is_pure_nash, pure_nash_equilibria};
    pub use crate::profile::{MixedProfile, MixedStrategy, PureProfile};
}

use std::error::Error;
use std::fmt;

/// Errors from equilibrium computation and profile validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GameError {
    /// A profile's length or an action index does not fit the game.
    MalformedProfile(String),
    /// A mixed strategy's weights are negative or do not sum to 1.
    MalformedStrategy(String),
    /// A solver did not converge / no equilibrium found where one was
    /// required.
    NoEquilibrium,
    /// The operation requires a 2-player game.
    NotBimatrix,
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::MalformedProfile(why) => write!(f, "malformed profile: {why}"),
            GameError::MalformedStrategy(why) => write!(f, "malformed strategy: {why}"),
            GameError::NoEquilibrium => write!(f, "no equilibrium found"),
            GameError::NotBimatrix => write!(f, "operation requires a 2-player game"),
        }
    }
}

impl Error for GameError {}

/// Tolerance used throughout for floating-point cost comparisons.
pub const EPSILON: f64 = 1e-9;
