//! # game-authority-suite — facade over the full reproduction
//!
//! One `use` away from everything in the workspace:
//!
//! * [`simnet`] — deterministic synchronous simulator with Byzantine
//!   adversaries and transient-fault injection;
//! * [`crypto`] — SHA-256, commitments, committed PRGs, signature chains,
//!   hash-chained audit logs (all from scratch);
//! * [`agreement`] — OM(f)/EIG and authenticated (Dolev–Strong)
//!   Byzantine agreement, interactive consistency;
//! * [`clocksync`] — self-stabilizing Byzantine clock synchronization and
//!   the SSBA composition (the paper's Theorem 1);
//! * [`game_theory`] — strategic games, pure and mixed equilibria, best
//!   responses, and the price of anarchy / stability;
//! * [`games`] — matching pennies with Fig. 1's hidden manipulation,
//!   repeated resource allocation (§6), virus inoculation and the
//!   prisoner's dilemma;
//! * [`authority`] — the game authority middleware itself: legislative,
//!   judicial and executive services, reference engine and the fully
//!   distributed clock-driven protocol;
//! * [`scenario`] — declarative scenario specs, the deterministic parallel
//!   sweep engine, and the named suites behind the `scenario` CLI binary.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `scenario run --suite paper` for the paper's reproduced artifacts.
//!
//! ```
//! use game_authority_suite::games::matching_pennies;
//! use game_authority_suite::game_theory::nash::pure_nash_equilibria;
//!
//! // Matching pennies famously has no pure equilibrium…
//! assert!(pure_nash_equilibria(&matching_pennies()).is_empty());
//! ```

pub use ga_agreement as agreement;
pub use ga_clocksync as clocksync;
pub use ga_crypto as crypto;
pub use ga_game_theory as game_theory;
pub use ga_games as games;
pub use ga_scenario as scenario;
pub use ga_simnet as simnet;
pub use game_authority as authority;
