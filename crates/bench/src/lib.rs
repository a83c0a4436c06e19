//! # ga-bench — an empty shell
//!
//! The paper's experiments (e1–e8) live in their scenario ports,
//! `ga_scenario::ports`, run with `scenario run --suite paper`. This crate
//! is kept empty, with its manifest, only so that the lock files do not
//! move; the benchmark issue (ROADMAP item 10) deletes it.
