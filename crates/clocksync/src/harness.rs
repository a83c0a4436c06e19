//! Measurement harnesses for convergence (Lemma 2) and closure (Lemma 3).

use ga_agreement::consensus::OmConsensus;
use ga_agreement::om;
use ga_agreement::Value;
use ga_simnet::adversary::Adversary;
use ga_simnet::adversary::ByzantineProcess;
use ga_simnet::prelude::*;
use rand::Rng;

use crate::process::ClockProcess;
use crate::ssba::SsbaProcess;

/// A Byzantine strategy speaking the clock protocol: sends a *different
/// random* clock claim below 64 to every neighbor, every pulse. Random
/// noise is read as claims too, but of values spread over the whole `u64`
/// range, which reduce to scattered votes.
#[derive(Debug, Clone, Copy, Default)]
struct ClockEquivocator;

impl Adversary for ClockEquivocator {
    fn act(&mut self, ctx: &mut Context<'_>) {
        for &nb in ctx.neighbors() {
            let v = ctx.rng().gen_range(0..64);
            ctx.send(ProcessId(nb), ClockProcess::encode(v));
        }
    }

    fn name(&self) -> &'static str {
        "clock-equivocator"
    }
}

/// Builds a clock-sync system of `n` processors (`f` budgeted faults, the
/// last `byzantine_count` of them actively equivocating), scrambles every
/// honest clock, and counts pulses until all honest clocks agree.
///
/// Returns `None` if agreement is not reached within `max_pulses` (the
/// rule is randomized; the paper's own bound is exponential-flavored).
pub fn measure_convergence_with(
    n: usize,
    f: usize,
    byzantine_count: usize,
    modulus: u64,
    seed: u64,
    max_pulses: u64,
) -> Option<u64> {
    assert!(byzantine_count <= f, "byzantine count within fault budget");
    let byzantine: Vec<usize> = (n - byzantine_count..n).collect();
    let mut sim = Simulation::builder(Topology::complete(n))
        .seed(seed)
        .build_with(|id| {
            if byzantine.contains(&id.index()) {
                Box::new(ByzantineProcess::new(Box::new(ClockEquivocator))) as Box<dyn Process>
            } else {
                Box::new(ClockProcess::new(n, f, modulus, 0))
            }
        });
    // Arbitrary starting configuration: scramble every honest clock and the
    // channels.
    sim.corrupt(&CorruptionFamily::total(seed ^ 0xFA17));

    let honest: Vec<usize> = (0..n - byzantine_count).collect();
    let synced = |sim: &Simulation| {
        let values: Vec<u64> = honest
            .iter()
            .map(|&i| {
                sim.process_as::<ClockProcess>(ProcessId(i))
                    .map(|p| p.value())
                    .unwrap_or(u64::MAX)
            })
            .collect();
        values.windows(2).all(|w| w[0] == w[1])
    };
    sim.run_until(max_pulses, |s| synced(s))
}

/// Result of an SSBA period run (see [`run_ssba`]).
#[derive(Debug, Clone)]
pub struct SsbaReport {
    /// Per-honest-process logs of completed agreement decisions.
    pub logs: Vec<Vec<Value>>,
    /// Ids that were Byzantine.
    pub byzantine: Vec<usize>,
    /// Pulses executed.
    pub pulses: u64,
}

impl SsbaReport {
    /// Whether all honest logs share an identical suffix of `k` decisions
    /// (the steady-state closure property).
    pub fn common_suffix(&self, k: usize) -> bool {
        if self.logs.iter().any(|l| l.len() < k) {
            return false;
        }
        let tails: Vec<&[Value]> = self.logs.iter().map(|l| &l[l.len() - k..]).collect();
        tails.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs SSBA (OM-consensus backend) for `pulses` pulses with an optional
/// total transient fault injected at pulse `fault_at`.
pub fn run_ssba(
    n: usize,
    f: usize,
    byzantine_count: usize,
    pulses: u64,
    fault_at: Option<u64>,
    seed: u64,
) -> SsbaReport {
    assert!(byzantine_count <= f);
    let byzantine: Vec<usize> = (n - byzantine_count..n).collect();
    let rounds = om::rounds(f);
    let modulus = rounds + 2;
    let mut sim = Simulation::builder(Topology::complete(n))
        .seed(seed)
        .build_with(|id| {
            if byzantine.contains(&id.index()) {
                Box::new(ByzantineProcess::new(Box::new(ClockEquivocator))) as Box<dyn Process>
            } else {
                Box::new(SsbaProcess::new(
                    n,
                    f,
                    modulus,
                    OmConsensus::new(id.index(), n, f),
                    1 + id.index() as u64,
                ))
            }
        });
    match fault_at {
        Some(at) if at < pulses => {
            sim.run(at);
            sim.corrupt(&CorruptionFamily::total(seed ^ 0xBAD));
            sim.run(pulses - at);
        }
        _ => sim.run(pulses),
    }
    let logs = (0..n - byzantine_count)
        .map(|i| {
            sim.process_as::<SsbaProcess<OmConsensus>>(ProcessId(i))
                .unwrap()
                .agreements()
                .to_vec()
        })
        .collect();
    SsbaReport {
        logs,
        byzantine,
        pulses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_without_byzantine() {
        let pulses = measure_convergence_with(4, 1, 0, 8, 11, 100_000).expect("converges");
        assert!(pulses < 50_000, "pulses={pulses}");
    }

    #[test]
    fn convergence_with_equivocator() {
        let pulses = measure_convergence_with(4, 1, 1, 8, 13, 200_000)
            .expect("converges despite equivocator");
        assert!(pulses < 100_000, "pulses={pulses}");
    }

    #[test]
    fn convergence_larger_system() {
        let pulses = measure_convergence_with(7, 2, 1, 8, 17, 200_000).expect("converges");
        assert!(pulses < 200_000, "pulses={pulses}");
    }

    #[test]
    fn ssba_steady_state_has_common_decisions() {
        let report = run_ssba(4, 1, 1, 300, None, 21);
        assert!(report.common_suffix(2), "{:?}", report.logs);
    }

    #[test]
    fn ssba_recovers_from_fault() {
        let report = run_ssba(4, 1, 0, 800, Some(100), 23);
        assert!(report.common_suffix(2), "{:?}", report.logs);
        assert!(report.logs[0].len() >= 3);
    }
}
