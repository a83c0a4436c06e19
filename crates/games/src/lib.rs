//! # ga-games — the concrete games of the paper
//!
//! * [`matching_pennies`](mod@matching_pennies) — the §5 running example, including **Fig. 1**:
//!   matching pennies with a *hidden manipulative strategy* that lifts the
//!   manipulator's expected profit from 0 to +4 against an unsuspecting
//!   mixed-equilibrium player.
//! * [`resource_allocation`] — the §6 **repeated resource allocation**
//!   (RRA) game: `n` unit demands over `b` resources per round, agents
//!   minimize the serviced load; with honest selfishness the paper proves
//!   `Δ(k) ≤ 2n−1` (Lemma 6) and `R(k) ≤ 1 + 2b/k` (Theorem 5).
//! * [`virus_inoculation`] — the Moscibroda–Schmid–Wattenhofer virus
//!   inoculation game the paper cites \[21\] as the origin of the **price of
//!   malice**; used by experiment E5.
//! * [`prisoners_dilemma`](mod@prisoners_dilemma) — the classic complete-information game used in
//!   examples and as the default "rules of the game" in authority demos.
//! * [`congestion`](mod@congestion) — the `n`-agent, 2-resource congestion
//!   game the distributed authority plays in its scenarios and tests.

pub mod congestion;
pub mod matching_pennies;
pub mod prisoners_dilemma;
pub mod resource_allocation;
pub mod virus_inoculation;

pub use congestion::congestion;
pub use matching_pennies::{manipulated_matching_pennies, matching_pennies};
pub use prisoners_dilemma::prisoners_dilemma;
