//! E4 — Lemma 2 / Theorem 1: SSBA convergence and closure.
//!
//! From arbitrary configurations (total transient faults), measures the
//! number of pulses until the honest clocks agree, across `(n, f)` and
//! trials; then checks closure: after recovery, SSBA periods keep
//! producing identical agreement logs.

use ga_clocksync::harness::{measure_convergence_with, run_ssba};

/// Convergence statistics for one `(n, f)` configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Processors.
    pub n: usize,
    /// Fault budget (and actively equivocating Byzantine count).
    pub f: usize,
    /// Trials run.
    pub trials: u32,
    /// Trials that converged within the pulse budget.
    pub converged: u32,
    /// Mean pulses to convergence (converged trials).
    pub mean_pulses: f64,
    /// Max pulses observed.
    pub max_pulses: u64,
}

/// Measures convergence across configurations.
pub fn run_convergence(
    configs: &[(usize, usize)],
    trials: u32,
    max_pulses: u64,
    seed: u64,
) -> Vec<ConvergencePoint> {
    configs
        .iter()
        .map(|&(n, f)| {
            let mut pulses = Vec::new();
            for t in 0..trials {
                if let Some(p) = measure_convergence_with(
                    n,
                    f,
                    f,
                    8,
                    seed ^ ((t as u64) << 32) ^ ((n as u64) << 4) ^ f as u64,
                    max_pulses,
                ) {
                    pulses.push(p);
                }
            }
            let converged = pulses.len() as u32;
            let mean = if pulses.is_empty() {
                f64::NAN
            } else {
                pulses.iter().sum::<u64>() as f64 / pulses.len() as f64
            };
            ConvergencePoint {
                n,
                f,
                trials,
                converged,
                mean_pulses: mean,
                max_pulses: pulses.iter().copied().max().unwrap_or(0),
            }
        })
        .collect()
}

/// Closure check: SSBA with a mid-run total fault still ends with common
/// agreement logs. Returns `(recovered, plays_after_recovery)`.
pub fn run_closure(n: usize, f: usize, seed: u64) -> (bool, usize) {
    let report = run_ssba(n, f, f.min(1), 1500, Some(200), seed);
    let recovered = report.common_suffix(2);
    (recovered, report.logs[0].len())
}
