//! High-level harness: run any consensus backend over the simulator with a
//! chosen Byzantine population.
//!
//! Used by integration tests, the experiment runner (E6: authority
//! overhead per backend) and the docs. For fine-grained adversaries use
//! [`executor`](crate::executor) (message substitution) or build the
//! simulation manually.

use ga_crypto::mac::KeyRing;
use ga_simnet::adversary::{ByzantineProcess, RandomNoise, Silent};
use ga_simnet::prelude::*;

use crate::consensus::{DolevStrongConsensus, OmConsensus};
use crate::executor::honest_agreement;
use crate::traits::{BaInstance, BaProcess};
use crate::Value;

/// Which agreement protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Oral messages over EIG: `n > 3f`, exponential messages.
    Om,
    /// Authenticated (Dolev–Strong chains): honest majority.
    DolevStrong,
}

impl Backend {
    /// All backends, for sweeps.
    pub const ALL: [Backend; 2] = [Backend::Om, Backend::DolevStrong];

    /// Short name for report rows.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Om => "om",
            Backend::DolevStrong => "dolev-strong",
        }
    }

    /// Builds a consensus instance of this backend for processor `me`.
    ///
    /// # Panics
    ///
    /// Panics when `(n, f)` violates the backend's threshold.
    pub fn instance(self, me: usize, n: usize, f: usize, ring: &KeyRing) -> Box<dyn BaInstance> {
        match self {
            Backend::Om => Box::new(OmConsensus::new(me, n, f)),
            Backend::DolevStrong => {
                Box::new(DolevStrongConsensus::new(me, n, f, ring.authenticator(me)))
            }
        }
    }

    /// The backend's resilience bound as a maximum `f` for a given `n`.
    pub fn max_faults(self, n: usize) -> usize {
        match self {
            Backend::Om => (n - 1) / 3,
            Backend::DolevStrong => (n - 1) / 2,
        }
    }
}

/// How the harness's Byzantine processors behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehavior {
    /// Send nothing at all.
    Crash,
    /// Send random bytes to everyone.
    Noise,
}

/// Outcome of a harnessed consensus run.
#[derive(Debug, Clone)]
pub struct ConsensusReport {
    /// Per-processor decisions (Byzantine slots are `None`).
    pub decisions: Vec<Option<Value>>,
    /// The Byzantine ids used.
    pub byzantine: Vec<usize>,
    /// Rounds executed.
    pub rounds: u64,
    /// Messages delivered in total.
    pub messages: u64,
    /// Payload bytes delivered in total.
    pub bytes: u64,
}

impl ConsensusReport {
    /// Whether every honest processor decided, and all alike.
    pub fn agreement(&self) -> bool {
        honest_agreement(&self.decisions, &self.byzantine, None)
    }

    /// The common honest decision, if [`agreement`](Self::agreement) holds.
    pub fn decision(&self) -> Option<Value> {
        if !self.agreement() {
            return None;
        }
        self.decisions
            .iter()
            .enumerate()
            .find(|(i, _)| !self.byzantine.contains(i))
            .and_then(|(_, d)| *d)
    }
}

/// Runs `backend` consensus over a complete graph of `n` processors of
/// which `byzantine` send [`Misbehavior::Noise`]; processor `i`'s input is
/// `input_of(i)`.
///
/// # Panics
///
/// Panics when `(n, f)` violates the backend threshold or a Byzantine id is
/// out of range.
pub fn run_consensus(
    backend: Backend,
    n: usize,
    f: usize,
    byzantine: &[usize],
    input_of: impl Fn(usize) -> Value,
    seed: u64,
) -> ConsensusReport {
    run_consensus_with(backend, n, f, byzantine, Misbehavior::Noise, input_of, seed)
}

/// [`run_consensus`] with an explicit misbehavior for the Byzantine set.
pub fn run_consensus_with(
    backend: Backend,
    n: usize,
    f: usize,
    byzantine: &[usize],
    misbehavior: Misbehavior,
    input_of: impl Fn(usize) -> Value,
    seed: u64,
) -> ConsensusReport {
    assert!(byzantine.len() <= f, "more Byzantine processors than f");
    assert!(
        byzantine.iter().all(|&b| b < n),
        "byzantine id out of range"
    );
    let ring = KeyRing::generate(n, seed ^ 0x5ec5_ec5e);
    let mut sim = Simulation::builder(Topology::complete(n))
        .seed(seed)
        .build_with(|id| {
            let i = id.index();
            if byzantine.contains(&i) {
                match misbehavior {
                    Misbehavior::Crash => {
                        Box::new(ByzantineProcess::new(Box::new(Silent))) as Box<dyn Process>
                    }
                    Misbehavior::Noise => {
                        Box::new(ByzantineProcess::new(Box::new(RandomNoise { max_len: 48 })))
                    }
                }
            } else {
                Box::new(BaProcess::new(
                    backend.instance(i, n, f, &ring),
                    input_of(i),
                ))
            }
        });

    // One pulse per protocol round.
    let rounds = {
        let probe = backend.instance(0, n, f, &ring);
        probe.rounds()
    };
    sim.run(rounds);

    let decisions = (0..n)
        .map(|i| {
            sim.process_as::<BaProcess>(ProcessId(i))
                .and_then(BaProcess::decided)
        })
        .collect();
    ConsensusReport {
        decisions,
        byzantine: byzantine.to_vec(),
        rounds: sim.trace().rounds,
        messages: sim.trace().messages_delivered,
        bytes: sim.trace().bytes_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn om_backend_agrees_with_noise_byzantine() {
        let report = run_consensus(Backend::Om, 4, 1, &[3], |i| (i as u64) % 2, 1);
        assert!(report.agreement(), "{:?}", report.decisions);
    }

    #[test]
    fn dolev_strong_backend_agrees_with_two_faults_of_five() {
        let report = run_consensus(Backend::DolevStrong, 5, 2, &[3, 4], |_| 9, 3);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(9));
    }

    #[test]
    fn crash_misbehavior_also_tolerated() {
        for backend in Backend::ALL {
            let n = 9;
            let f = backend.max_faults(n).min(2);
            let byz: Vec<usize> = (n - f..n).collect();
            let report = run_consensus_with(backend, n, f, &byz, Misbehavior::Crash, |_| 5, 4);
            assert!(report.agreement(), "{backend:?}");
            assert_eq!(report.decision(), Some(5), "{backend:?} validity");
        }
    }

    #[test]
    fn report_counts_traffic() {
        let report = run_consensus(Backend::Om, 4, 1, &[], |_| 1, 5);
        assert!(report.messages > 0);
        assert!(report.bytes > 0);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn max_faults_thresholds() {
        assert_eq!(Backend::Om.max_faults(7), 2);
        assert_eq!(Backend::DolevStrong.max_faults(7), 3);
    }

    #[test]
    #[should_panic(expected = "more Byzantine")]
    fn too_many_byzantine_rejected() {
        run_consensus(Backend::Om, 4, 1, &[2, 3], |_| 0, 0);
    }
}
