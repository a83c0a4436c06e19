//! # ga-bench — experiment library
//!
//! One module per paper artifact (`e1`–`e8`). Each `run` returns the
//! experiment's result as plain data; the `paper` suite's scenario ports
//! (`ga_scenario::ports`, run with `scenario run --suite paper`) lift it
//! into metrics, and each paper claim is asserted once, as a `require` in
//! its port's verdict. Rendering is the scenario CLI's job.

pub mod e1_fig1;
pub mod e2_pom_pennies;
pub mod e3_rra;
pub mod e4_ssba;
pub mod e5_virus;
pub mod e6_overhead;
pub mod e7_dynamics;
pub mod e8_audit_cadence;
