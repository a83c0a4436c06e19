//! # game-authority — the paper's middleware
//!
//! A self-stabilizing, Byzantine fault-tolerant **game authority** for
//! distributed selfish-computer systems (Dolev, Schiller, Spirakis, Tsigas;
//! PODC'07 brief announcement / TCS 411(2010) 2459–2466).
//!
//! The middleware enforces the rules of a strategic game the honest
//! majority elected, structured — like the paper — as three services under
//! separation of powers:
//!
//! * [`legislative`] — elects the game `Γ = ⟨N, (Πᵢ), (uᵢ)⟩` by voting
//!   (plurality / Borda / instant-runoff) over a Byzantine-agreed ballot
//!   set;
//! * [`judicial`] — audits every play: *legitimate action choice*, *private
//!   & simultaneous choice* (commit–reveal), *foul plays* (not a best
//!   response), and — for mixed strategies — *credible randomness* via
//!   committed PRG seeds (§5.3);
//! * [`executive`] — publishes outcomes (hash-chained), collects choices,
//!   and applies punishments (disconnection / fines / reputation).
//!
//! Two integration levels:
//!
//! * [`authority`] — the **reference engine**: one-machine referee running
//!   the complete §3.3 protocol logic (real commitments, real audits, real
//!   punishments) with abstracted transport. This is what the paper's
//!   *trusted executive* assumption licenses, and what the PoM experiments
//!   measure.
//! * [`distributed`] — the full stack over `ga-simnet`: every agent is a
//!   processor; the play schedule is driven by the self-stabilizing clock
//!   of `ga-clocksync`, and every agreement (previous outcome, commitment
//!   set, foul set) runs through `ga-agreement` — the complete
//!   "sequence of several activations of the Byzantine agreement protocol"
//!   of §3.3, with Theorem 1's recovery-after-transient-faults behaviour.
//!
//! ## Quickstart
//!
//! ```
//! use game_authority::authority::{Authority, AuthorityConfig};
//! use game_authority::agent::Behavior;
//! use ga_games::matching_pennies::{manipulated_matching_pennies, MANIPULATE};
//!
//! // Fig. 1: agent A mixes honestly; agent B plays the hidden manipulation.
//! let game = manipulated_matching_pennies();
//! let mut authority = Authority::new(
//!     &game,
//!     vec![
//!         Behavior::honest_mixed(vec![0.5, 0.5]),
//!         Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
//!     ],
//!     AuthorityConfig::default(),
//! );
//! let report = authority.play_round();
//! // The judicial service catches the manipulation immediately.
//! assert!(!report.verdicts[1].is_honest());
//! assert!(report.punished.contains(&1));
//! ```

#![forbid(unsafe_code)]

pub mod agent;
pub mod authority;
pub mod distributed;
pub mod executive;
pub mod judicial;
pub mod legislative;

use std::error::Error;
use std::fmt;

/// Errors surfaced by the middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuthorityError {
    /// An election was attempted with no ballots or no candidates.
    EmptyElection,
    /// A ballot referenced an unknown candidate or was malformed.
    MalformedBallot(String),
    /// An agent id was out of range.
    UnknownAgent(usize),
}

impl fmt::Display for AuthorityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthorityError::EmptyElection => write!(f, "election needs ballots and candidates"),
            AuthorityError::MalformedBallot(why) => write!(f, "malformed ballot: {why}"),
            AuthorityError::UnknownAgent(a) => write!(f, "unknown agent {a}"),
        }
    }
}

impl Error for AuthorityError {}
