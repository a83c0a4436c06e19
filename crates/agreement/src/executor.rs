//! Pure synchronous executor for [`BaInstance`]s.
//!
//! Runs a protocol without the full `ga-simnet` machinery: useful for fast
//! property tests, and for exercising protocols under a programmable
//! message-substitution adversary (the strongest adversary: it rewrites any
//! Byzantine processor's outgoing traffic per-destination). Each round,
//! every instance's frame goes to every other processor in ascending order
//! — the broadcast the [contract](crate::traits#the-broadcast-contract)
//! states — and the adversary sees, and may replace, each copy.
//!
//! For system-level runs (mixed protocols, faults mid-run, punishment by
//! disconnection) use [`harness`](crate::harness) / `ga-simnet` instead.

use bytes::Bytes;

use crate::traits::BaInstance;
use crate::Value;

/// A message-substitution adversary: `(from, round, to, honest_payload)` →
/// `Some(replacement)` to tamper, `None` to pass through.
pub trait Tamper {
    /// Decides what processor `from` actually sends to `to` at `round`.
    fn tamper(&mut self, from: usize, round: u64, to: usize, payload: &[u8]) -> Option<Vec<u8>>;
}

impl<F: FnMut(usize, u64, usize, &[u8]) -> Option<Vec<u8>>> Tamper for F {
    fn tamper(&mut self, from: usize, round: u64, to: usize, payload: &[u8]) -> Option<Vec<u8>> {
        self(from, round, to, payload)
    }
}

/// The identity adversary.
pub fn no_tamper(_: usize, _: u64, _: usize, _: &[u8]) -> Option<Vec<u8>> {
    None
}

/// Message/round statistics of a pure run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total messages exchanged.
    pub messages: u64,
    /// Total payload bytes exchanged.
    pub bytes: u64,
    /// Rounds executed.
    pub rounds: u64,
}

/// Runs the instances to completion over a full mesh and returns their
/// decisions.
pub fn run_pure<I: BaInstance>(
    instances: Vec<I>,
    inputs: &[Value],
    tamper: impl Tamper,
) -> Vec<Option<Value>> {
    run_pure_with_stats(instances, inputs, tamper).0
}

/// Like [`run_pure`], also reporting traffic statistics.
pub fn run_pure_with_stats<I: BaInstance>(
    instances: Vec<I>,
    inputs: &[Value],
    tamper: impl Tamper,
) -> (Vec<Option<Value>>, ExecStats) {
    let (instances, stats) = run_pure_instances(instances, inputs, tamper);
    (instances.iter().map(|i| i.decided()).collect(), stats)
}

/// Like [`run_pure`], but hands back the instances themselves so callers
/// can inspect protocol-specific state (e.g. the interactive-consistency
/// vector of a [`VectorConsensus`](crate::consensus::VectorConsensus)).
///
/// # Panics
///
/// Panics if `inputs.len() != instances.len()` or instances disagree on the
/// round count.
pub fn run_pure_instances<I: BaInstance>(
    mut instances: Vec<I>,
    inputs: &[Value],
    mut tamper: impl Tamper,
) -> (Vec<I>, ExecStats) {
    let n = instances.len();
    assert_eq!(inputs.len(), n, "one input per instance");
    for (i, inst) in instances.iter_mut().enumerate() {
        inst.begin(inputs[i]);
    }
    let rounds = instances[0].rounds();
    assert!(
        instances.iter().all(|i| i.rounds() == rounds),
        "instances must agree on round count"
    );
    let mut stats = ExecStats::default();
    // Double-buffered mailboxes, recycled (swap + clear) across rounds —
    // mirrors the allocation-free steady state of `Simulation::step`.
    let mut pending: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); n];
    let mut consumed: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); n];
    for round in 0..rounds {
        std::mem::swap(&mut pending, &mut consumed);
        for mailbox in &mut pending {
            mailbox.clear();
        }
        for (i, inst) in instances.iter_mut().enumerate() {
            let inbox: Vec<(usize, &[u8])> = consumed[i]
                .iter()
                .map(|(s, p)| (*s, p.as_slice()))
                .collect();
            let mut frame = Vec::new();
            inst.step(round, &inbox, &mut frame);
            drop(inbox);
            if frame.is_empty() {
                continue;
            }
            let frame = Bytes::from(frame);
            for to in (0..n).filter(|&to| to != i) {
                let payload = match tamper.tamper(i, round, to, &frame) {
                    Some(replacement) => replacement.into(),
                    None => frame.clone(),
                };
                stats.messages += 1;
                stats.bytes += payload.len() as u64;
                pending[to].push((i, payload));
            }
        }
        stats.rounds += 1;
    }
    (instances, stats)
}

/// Convenience check: all honest (non-listed) processors decided, agree,
/// and — when `expect` is given — decided that value.
pub fn honest_agreement(
    decisions: &[Option<Value>],
    byzantine: &[usize],
    expect: Option<Value>,
) -> bool {
    let honest: Vec<Value> = decisions
        .iter()
        .enumerate()
        .filter(|(i, _)| !byzantine.contains(i))
        .filter_map(|(_, d)| *d)
        .collect();
    let honest_count = decisions.len() - byzantine.len();
    if honest.len() != honest_count {
        return false; // someone failed to decide
    }
    let agree = honest.windows(2).all(|w| w[0] == w[1]);
    match expect {
        Some(v) => agree && honest.first() == Some(&v),
        None => agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::om::OmBroadcast;

    #[test]
    fn stats_count_traffic() {
        let n = 4;
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 0)).collect();
        let (decided, stats) = run_pure_with_stats(instances, &[5, 0, 0, 0], no_tamper);
        assert!(decided.iter().all(|d| *d == Some(5)));
        assert_eq!(stats.rounds, 3);
        assert!(stats.messages > 0);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn every_frame_reaches_every_other_processor_in_ascending_order() {
        let n = 4;
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 0)).collect();
        let mut sends = Vec::new();
        run_pure(
            instances,
            &[5, 0, 0, 0],
            |from: usize, round: u64, to: usize, _: &[u8]| {
                sends.push((round, from, to));
                None
            },
        );
        // Round 0 the source announces; round 1 the others relay; round 2
        // resolves in silence.
        let mut expected = vec![(0, 0, 1), (0, 0, 2), (0, 0, 3)];
        for from in 1..n {
            expected.extend((0..n).filter(|&to| to != from).map(|to| (1, from, to)));
        }
        assert_eq!(sends, expected);
    }

    #[test]
    fn honest_agreement_helper() {
        assert!(honest_agreement(&[Some(1), Some(1), None], &[2], Some(1)));
        assert!(!honest_agreement(&[Some(1), Some(2), None], &[2], None));
        assert!(!honest_agreement(&[Some(1), None, None], &[2], None));
        assert!(honest_agreement(&[Some(3), Some(3), Some(3)], &[], None));
        assert!(!honest_agreement(&[Some(3), Some(3)], &[], Some(4)));
    }
}
