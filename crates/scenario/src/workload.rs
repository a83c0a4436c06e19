//! Reference workloads for simulator-backed scenarios.
//!
//! Scenario suites need simple, inspectable protocols whose correct
//! behaviour is easy to state as a verdict predicate: [`Flood`] measures
//! raw connectivity/throughput, [`MaxGossip`] is a tiny self-stabilizing
//! aggregation whose fixpoint (everyone knows the global maximum) survives
//! transient faults — the right probe for churn and fault-injection specs.
//! [`Relay`] is the quiescent counterpart: one token wavefront crosses the
//! graph and everything else sleeps, so large sparse systems run rounds in
//! O(wavefront) instead of O(n) under quiescence-aware stepping.

use ga_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

/// Broadcasts one fixed payload per round and counts what it hears.
#[derive(Debug, Default)]
pub struct Flood {
    /// Messages received over the whole run.
    pub heard: usize,
}

impl Process for Flood {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        self.heard += ctx.inbox().len();
        ctx.broadcast([0xF1]);
    }

    fn scramble(&mut self, rng: &mut StdRng) {
        // The counter is the only volatile state; a transient fault leaves
        // it arbitrary, so throughput verdicts cannot trust pre-fault tallies.
        self.heard = (rng.next_u64() % 1024) as usize;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "flood"
    }
}

/// Self-stabilizing max aggregation: every round, broadcast the largest
/// value seen; adopt any larger value heard.
///
/// From a clean start the fixpoint is `max(own values) = n - 1 + base`
/// everywhere after `diameter` rounds. A transient fault may scramble
/// `current` arbitrarily — including *above* the true maximum, which honest
/// gossip then propagates; the verdict for fault scenarios is therefore
/// *agreement* (all honest processors converge to one value), the
/// self-stabilization claim, not a specific value.
#[derive(Debug)]
pub struct MaxGossip {
    /// This processor's immutable contribution.
    pub own: u64,
    /// The largest value seen so far.
    pub current: u64,
}

impl MaxGossip {
    /// A gossiper contributing `own`.
    pub fn new(own: u64) -> MaxGossip {
        MaxGossip { own, current: own }
    }

    /// Wire encoding (8-byte little endian).
    pub fn encode(v: u64) -> Vec<u8> {
        v.to_le_bytes().to_vec()
    }

    fn decode(bytes: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl Process for MaxGossip {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        for m in ctx.inbox() {
            if let Some(v) = Self::decode(m.bytes()) {
                self.current = self.current.max(v);
            }
        }
        // `own` is immutable ROM state, so recovery re-seeds from it.
        self.current = self.current.max(self.own);
        ctx.broadcast(Self::encode(self.current));
    }

    fn scramble(&mut self, rng: &mut StdRng) {
        // Transient faults corrupt the volatile register, not the identity.
        self.current = rng.next_u64() % (1 << 20);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "max-gossip"
    }
}

/// Single-shot token relay: the source broadcasts one token, every other
/// process forwards it once on first receipt and then goes quiet.
///
/// This is the reference *quiescent* workload: [`Process::always_active`]
/// returns `true` only while the process still owes a send (the unfired
/// source), so after the wavefront passes, a round's active set is just the
/// frontier — on a ring, two processes out of n. On a pulse with an empty
/// inbox an unfired relay would do nothing observable and a fired one never
/// sends again, which is exactly the opt-out contract.
///
/// `hops` records the token's travel distance, so the verdict "every
/// process fired and `max(hops)` equals the source's eccentricity" checks
/// that skipping idle processes lost no deliveries.
#[derive(Debug, Default)]
pub struct Relay {
    /// Whether this process originates the token at round 0.
    pub source: bool,
    /// Whether the one-shot send has happened.
    pub fired: bool,
    /// Hop count at which the token arrived (0 for the source).
    pub hops: u64,
}

impl Relay {
    /// The designated source process.
    pub fn source() -> Relay {
        Relay {
            source: true,
            ..Relay::default()
        }
    }
}

impl Process for Relay {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        if self.fired {
            // Late duplicates from the opposite ring direction land here;
            // absorbing them silently keeps the wavefront single-shot.
            return;
        }
        if self.source {
            self.fired = true;
            ctx.broadcast(MaxGossip::encode(0));
            return;
        }
        let arrived = ctx
            .inbox()
            .iter()
            .filter_map(|m| MaxGossip::decode(m.bytes()))
            .min();
        if let Some(hops) = arrived {
            self.fired = true;
            self.hops = hops + 1;
            ctx.broadcast(MaxGossip::encode(self.hops));
        }
    }

    fn always_active(&self) -> bool {
        // Only the unfired source owes a spontaneous step; everyone else
        // is woken by the token itself (or a fault intervention).
        self.source && !self.fired
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "relay"
    }
}

/// How many of the listed processors have seen the token.
pub fn relay_fired(sim: &Simulation, ids: impl IntoIterator<Item = usize>) -> usize {
    ids.into_iter()
        .filter(|&id| {
            sim.process_as::<Relay>(ProcessId(id))
                .is_some_and(|p| p.fired)
        })
        .count()
}

/// Whether all listed processors currently agree on one gossip value.
pub fn gossip_agreed(sim: &Simulation, ids: impl IntoIterator<Item = usize>) -> bool {
    let mut value = None;
    for id in ids {
        let Some(p) = sim.process_as::<MaxGossip>(ProcessId(id)) else {
            return false;
        };
        if *value.get_or_insert(p.current) != p.current {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_propagates_across_a_ring() {
        let n = 7;
        let mut sim = Simulation::builder(Topology::ring(n))
            .build_with(|id| Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>);
        // Ring diameter is floor(n/2); one extra round for the final adopt.
        sim.run(n as u64 / 2 + 2);
        assert!(gossip_agreed(&sim, 0..n));
        assert_eq!(
            sim.process_as::<MaxGossip>(ProcessId(0)).unwrap().current,
            (n - 1) as u64
        );
    }

    #[test]
    fn recovers_from_total_scramble() {
        let n = 5;
        let mut sim = Simulation::builder(Topology::complete(n))
            .build_with(|id| Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>);
        sim.run(3);
        sim.corrupt(&CorruptionFamily::total(0xBEEF));
        sim.run(4);
        assert!(gossip_agreed(&sim, 0..n), "agreement restored after fault");
    }

    #[test]
    fn flood_and_gossip_scrambles_change_observable_state() {
        use ga_simnet::rng::process_rng;
        let mut flood = Flood { heard: usize::MAX };
        let mut rng = process_rng(2, ProcessId(0), Round(1));
        Process::scramble(&mut flood, &mut rng);
        assert_ne!(flood.heard, usize::MAX);

        let mut gossip = MaxGossip::new(3);
        let mut rng = process_rng(2, ProcessId(0), Round(1));
        Process::scramble(&mut gossip, &mut rng);
        assert_ne!(gossip.current, 3, "volatile register corrupted");
        assert_eq!(gossip.own, 3, "identity is ROM");
    }

    #[test]
    fn relay_wavefront_covers_a_ring_and_reports_hops() {
        let n = 9;
        let mut sim = Simulation::builder(Topology::ring(n)).build_with(|id| {
            let relay = if id.index() == 0 {
                Relay::source()
            } else {
                Relay::default()
            };
            Box::new(relay) as Box<dyn Process>
        });
        // Round 0 fires the source; the two wavefronts meet after the
        // eccentricity (floor(n/2)) more rounds.
        sim.run(n as u64 / 2 + 2);
        assert_eq!(relay_fired(&sim, 0..n), n);
        let max_hops = (0..n)
            .map(|i| sim.process_as::<Relay>(ProcessId(i)).unwrap().hops)
            .max()
            .unwrap();
        assert_eq!(max_hops, n as u64 / 2, "token travelled the eccentricity");
        // Everything has fired, so the system is fully quiescent.
        assert_eq!(sim.quiescent_processes(), n);
        assert_eq!(sim.pending_messages(), 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(MaxGossip::decode(&[1, 2, 3]), None);
        assert_eq!(MaxGossip::decode(&7u64.to_le_bytes()), Some(7));
    }

    #[test]
    fn agreed_is_false_for_non_gossiper() {
        let mut sim = Simulation::builder(Topology::complete(3))
            .build_with(|_| Box::new(Flood::default()) as Box<dyn Process>);
        sim.run(1);
        assert!(!gossip_agreed(&sim, 0..3));
    }
}
