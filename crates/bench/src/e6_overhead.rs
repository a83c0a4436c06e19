//! E6 — the authority's per-play protocol cost (§3.3, implicit).
//!
//! Each play is one BA activation plus a commit and a reveal round.
//! This experiment measures rounds, messages and bytes per consensus for
//! OM, the authority's protocol, and for authenticated Dolev–Strong across
//! `n`, exposing the scalability trade-offs the paper alludes to ("further
//! research can improve the design and allow better scalability").

use ga_agreement::harness::{run_consensus, Backend};

/// One `(backend, n, f)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadPoint {
    /// Protocol backend.
    pub backend: Backend,
    /// Processors.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Rounds per consensus.
    pub rounds: u64,
    /// Messages per consensus.
    pub messages: u64,
    /// Bytes per consensus.
    pub bytes: u64,
    /// Whether the honest processors agreed (sanity).
    pub agreement: bool,
}

/// Sweeps consensus cost across backends and sizes.
pub fn run(ns: &[usize], seed: u64) -> Vec<OverheadPoint> {
    let mut out = Vec::new();
    for &n in ns {
        for backend in Backend::ALL {
            let f = backend.max_faults(n).min(2);
            let byz: Vec<usize> = (n - f..n).collect();
            let report = run_consensus(backend, n, f, &byz, |i| (i % 2) as u64, seed);
            out.push(OverheadPoint {
                backend,
                n,
                f,
                rounds: report.rounds,
                messages: report.messages,
                bytes: report.bytes,
                agreement: report.agreement(),
            });
        }
    }
    out
}
