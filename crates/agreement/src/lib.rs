//! # ga-agreement — Byzantine agreement protocols
//!
//! The game authority's judicial service runs "a sequence of several
//! activations of the Byzantine agreement protocol" every play (§3.3); the
//! distributed authority runs one, on the foul set, as OM interactive
//! consistency. This crate supplies the protocols:
//!
//! * [`om`] — the Lamport–Shostak–Pease **oral messages** algorithm over an
//!   exponential-information-gathering ([`eig`]) tree: `f+1` communication
//!   rounds, tolerates `f < n/3`, message complexity `O(n^f)` (the paper's
//!   reference \[19\]).
//! * [`dolev_strong`] — **authenticated** broadcast with signature chains,
//!   tolerating any number of faults for broadcast and an honest majority
//!   for consensus — covering the paper's footnote 2: "authentication
//!   utilizes a Byzantine agreement that needs only a majority".
//! * [`consensus`] — interactive consistency (vector agreement) built from
//!   `n` parallel broadcasts, plus multivalued consensus by majority vote
//!   over the agreed vector.
//!
//! All protocols implement the restartable [`BaInstance`](traits::BaInstance)
//! state machine, so the self-stabilizing composition in `ga-clocksync`
//! (the paper's Theorem 1) can re-invoke them on every clock wrap, and the
//! [`BaProcess`](traits::BaProcess) adapter runs any of them as a
//! `ga-simnet` process.
//!
//! ## Quickstart
//!
//! ```
//! use ga_agreement::harness::{run_consensus, Backend};
//!
//! // 7 processors, 2 silently-crashed Byzantine ones, OM(f) backend.
//! let report = run_consensus(Backend::Om, 7, 2, &[5, 6], |i| i as u64 % 2, 42);
//! assert!(report.agreement(), "honest processors all decided alike");
//! ```

#![forbid(unsafe_code)]

pub mod consensus;
pub mod dolev_strong;
pub mod eig;
pub mod executor;
pub mod harness;
pub mod om;
pub mod traits;
pub mod wire;

/// The value domain all protocols agree on.
///
/// The distributed authority's one agreement is on a foul bitmask of up to
/// 64 agents, which fits as it is. A larger object is agreed on by its
/// hash: the legislative election agrees on 64-bit ballot digests and
/// checks the ballots it receives against them.
pub type Value = u64;

/// The fallback decision when no value gathers enough support.
pub const DEFAULT_VALUE: Value = 0;
