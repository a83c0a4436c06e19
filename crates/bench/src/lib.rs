//! # ga-bench — experiment library
//!
//! One function per paper artifact (`e1`–`e8`). Each returns a structured
//! table, so the `paper` suite's scenario ports (`ga_scenario::ports`,
//! run with `scenario run --suite paper`) and the integration tests
//! (`tests/paper_claims.rs`) share one implementation.

pub mod e1_fig1;
pub mod e2_pom_pennies;
pub mod e3_rra;
pub mod e4_ssba;
pub mod e5_virus;
pub mod e6_overhead;
pub mod e7_dynamics;
pub mod e8_audit_cadence;
pub mod table;
