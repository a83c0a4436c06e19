//! # ga-clocksync — self-stabilizing Byzantine clock synchronization and
//! the SSBA composition
//!
//! Section 4 of the game-authority paper builds its self-stabilizing
//! middleware on two pieces, each of which exists here exactly once:
//!
//! 1. a **self-stabilizing Byzantine clock synchronization** algorithm "in
//!    the spirit of Dolev–Welch (JACM 2004)" — digital clocks over `0..M`
//!    meant to tick in unison from *any* starting configuration despite
//!    `f` Byzantine processors ([`clock::ClockRule`]). They do against
//!    random votes, but a stateless pinner holds them apart for ever
//!    (the ignored `pinners_cannot_hold_the_honest_clocks_apart` in
//!    `game_authority::distributed`; ROADMAP item 15). Run over the
//!    network it is §3.3's **Byzantine common pulse generator**:
//!    [`process::pulse`] takes one clock claim per sender and steps the
//!    rule, and the processor states the new value at the head of the one
//!    frame it sends each peer ([`process`](process#frame));
//!    [`process::ClockProcess`] is that function as a simulator process.
//! 2. **Theorem 1's composition**: whenever the synchronized clock reaches
//!    a designated value, a (non-stabilizing) Byzantine agreement protocol
//!    is freshly invoked and then run round by round —
//!    [`ssba::Activation`]. One activation per clock period, started at
//!    value 1 with `M` sized to fit exactly one agreement, is **SSBA**, the
//!    *self-stabilizing Byzantine agreement* ([`ssba::SsbaProcess`]); one
//!    activation per period, after a commit and a reveal pulse and before
//!    the executive's, is one play of the distributed authority
//!    (`game_authority::distributed`).
//!
//! The clock rule here is randomized; as in the paper's reference \[11\],
//! *closure* is deterministic (synchronized clocks stay synchronized, even
//! against Byzantine votes, for `n > 3f`) while *convergence* is
//! probabilistic with an expected time that grows quickly in `n` — the
//! paper itself states an exponential-flavored `O(n^(n−f))` pulse bound.
//! Experiment E4 measures it.
//!
//! ## Quickstart
//!
//! ```
//! use ga_clocksync::harness::measure_convergence_with;
//!
//! // 4 processors, 1 of the 1 budgeted Byzantine, clocks start arbitrary:
//! // how many pulses until all honest clocks agree (and then stay agreeing)?
//! let pulses = measure_convergence_with(4, 1, 1, 8, 0xC10C, 200_000).expect("converges");
//! assert!(pulses < 2_000);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod harness;
pub mod process;
pub mod ssba;

/// Body tags of a pulse's frame ([`process`](process#frame)).
pub mod tags {
    /// SSBA's agreement (relayed to the embedded instance).
    pub const BA: u8 = 0xBA;
}
