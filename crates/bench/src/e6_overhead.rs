//! E6 — the authority's per-play protocol cost (§3.3, implicit).
//!
//! Each play is three BA activations plus a commit and a reveal round.
//! This experiment measures rounds, messages and bytes per consensus for
//! every backend across `n`, exposing the scalability trade-offs the paper
//! alludes to ("further research can improve the design and allow better
//! scalability").

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
    /// Estimated pulses for one full authority play (3 BAs + commit +
    /// reveal + executive).
    pub play_pulses: u64,
    /// Whether the honest processors agreed (sanity).
    pub agreement: bool,
}

/// Sweeps consensus cost across backends and sizes.
pub fn run(ns: &[usize], seed: u64) -> Vec<OverheadPoint> {
    let mut out = Vec::new();
    for &n in ns {
        for backend in Backend::ALL {
            let f = backend.max_faults(n).min(2);
            if f == 0 && n > 4 {
                continue;
            }
            let byz: Vec<usize> = (n - f..n).collect();
            let report = run_consensus(backend, n, f, &byz, |i| (i % 2) as u64, seed);
            out.push(OverheadPoint {
                backend,
                n,
                f,
                rounds: report.rounds,
                messages: report.messages,
                bytes: report.bytes,
                play_pulses: 3 * report.rounds + 4,
                agreement: report.agreement(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_agree_and_scale_shapes_hold() {
        let points = run(&[4, 7], 11);
        assert!(points.iter().all(|p| p.agreement), "{points:?}");
        // OM's bytes with honest sources: n(n - 1) frames a round, and from
        // round 1 on a frame has a part per other source, each saying its
        // one value once — so (4, 1) → (7, 2), a round more of wider
        // frames, is (f + 1)·n³ growth, ×8 here. The n^(f+1) of the
        // textbook is the equivocation envelope (`max_frame_len`), which
        // noise senders do not reach.
        let om4 = points
            .iter()
            .find(|p| p.backend == Backend::Om && p.n == 4)
            .unwrap();
        let om7 = points
            .iter()
            .find(|p| p.backend == Backend::Om && p.n == 7)
            .unwrap();
        assert!(om7.bytes > om4.bytes * 4, "(f + 1)·n³ growth visible");
    }

    #[test]
    fn phase_king_rounds_grow_with_f() {
        let points = run(&[9, 13], 13);
        let pk9 = points
            .iter()
            .find(|p| p.backend == Backend::PhaseKing && p.n == 9)
            .unwrap();
        assert!(pk9.rounds >= 5);
    }
}
