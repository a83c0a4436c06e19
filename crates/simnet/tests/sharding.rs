//! Sharded-step determinism: stepping with `.shards(n)` must reproduce
//! serial stepping **byte-for-byte** — identical traces *and* identical
//! per-process delivery histories (sender, round, payload bytes, in inbox
//! order) — on every topology shape, under lossy delivery, churn
//! schedules, transient faults and colluding adversaries. Mirrors the
//! sweep-level guarantees in `crates/scenario/tests/determinism.rs`.

use ga_simnet::colluding::Cabal;
use ga_simnet::prelude::*;
use ga_simnet::sim::Delivery;
use rand::Rng;

/// A chatty worker that logs its full delivery history: every round it
/// records `(round, sender, payload)` for each inbox message, then
/// broadcasts a payload derived from its id, the round and its per-pulse
/// RNG — so histories are sensitive to any mis-sharding of process state,
/// inbox routing order or RNG derivation.
struct HistoryChatter {
    id: u64,
    history: Vec<(u64, usize, Vec<u8>)>,
}

impl HistoryChatter {
    fn new(id: u64) -> HistoryChatter {
        HistoryChatter {
            id,
            history: Vec::new(),
        }
    }
}

impl Process for HistoryChatter {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let round = ctx.round().value();
        for m in ctx.inbox() {
            self.history
                .push((round, m.from.index(), m.bytes().to_vec()));
        }
        let nonce: u8 = ctx.rng().gen();
        let payload = vec![self.id as u8, round as u8, nonce];
        ctx.broadcast(payload);
    }

    fn scramble(&mut self, rng: &mut rand::rngs::StdRng) {
        // Make fault injection visible in subsequent payloads.
        self.id ^= rng.gen::<u64>() & 0x7F;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A churn schedule touching every intervention kind: a disconnect, a
/// reconnect, a delivery-model switch and a transient fault.
fn churn_schedule() -> Schedule {
    Schedule::new()
        .at(2, ScheduledAction::Disconnect(ProcessId(1)))
        .at(
            4,
            ScheduledAction::Corrupt(CorruptionFamily::total(5), Recurrence::Once),
        )
        .at(
            6,
            ScheduledAction::Reconnect(ProcessId(1), vec![ProcessId(0), ProcessId(2)]),
        )
        .at(8, ScheduledAction::SetDelivery(Delivery::Lossy { p: 0.35 }))
}

fn build(topology: Topology, shards: usize, colluders: bool) -> Simulation {
    let n = topology.len();
    let cabal = Cabal::seeded(77);
    Simulation::builder(topology)
        .seed(1234)
        .delivery(Delivery::Lossy { p: 0.2 })
        .schedule(churn_schedule())
        .shards(shards)
        .build_with(|id| {
            if colluders && id.index() >= n - 2 {
                Box::new(cabal.member()) as Box<dyn Process>
            } else {
                Box::new(HistoryChatter::new(id.index() as u64))
            }
        })
}

fn histories(sim: &Simulation) -> Vec<Vec<(u64, usize, Vec<u8>)>> {
    (0..sim.len())
        .filter_map(|i| {
            sim.process_as::<HistoryChatter>(ProcessId(i))
                .map(|p| p.history.clone())
        })
        .collect()
}

fn assert_sharded_matches_serial(make_topology: impl Fn() -> Topology, label: &str) {
    let mut serial = build(make_topology(), 1, true);
    serial.run(16);
    let serial_histories = histories(&serial);
    assert!(
        serial.trace().messages_dropped_lossy > 0,
        "{label}: loss model engaged"
    );
    assert!(
        serial.trace().messages_dropped_fault > 0,
        "{label}: scheduled fault engaged"
    );

    for shards in [2, 8] {
        let mut sharded = build(make_topology(), shards, true);
        sharded.run(16);
        assert_eq!(
            serial.trace(),
            sharded.trace(),
            "{label}: trace at {shards} shards"
        );
        assert_eq!(
            serial_histories,
            histories(&sharded),
            "{label}: delivery histories at {shards} shards"
        );
    }
}

#[test]
fn complete_topology_byte_identical_across_shard_counts() {
    assert_sharded_matches_serial(|| Topology::complete(12), "complete(12)");
}

#[test]
fn ring_topology_byte_identical_across_shard_counts() {
    assert_sharded_matches_serial(|| Topology::ring(13), "ring(13)");
}

#[test]
fn grid_topology_byte_identical_across_shard_counts() {
    assert_sharded_matches_serial(|| Topology::grid(4, 4), "grid(4,4)");
}

/// Shard counts that do not divide n (and exceed it) still reproduce the
/// serial trace: partitioning is an implementation detail, not a semantic
/// input.
#[test]
fn ragged_and_oversized_shard_counts_are_identical() {
    let mut serial = build(Topology::complete(7), 1, false);
    serial.run(12);
    for shards in [2, 3, 5, 6, 7, 64] {
        let mut sharded = build(Topology::complete(7), shards, false);
        sharded.run(12);
        assert_eq!(serial.trace(), sharded.trace(), "shards={shards}");
        assert_eq!(histories(&serial), histories(&sharded), "shards={shards}");
    }
}

/// Colluders split across shard boundaries still tell one coordinated,
/// reproducible lie per round: lie fabrication is a pure function of the
/// cabal key and the round, not of which member (or thread) asks first.
#[test]
fn cabal_lies_are_shard_position_independent() {
    let run = |shards: usize| {
        let cabal = Cabal::seeded(9);
        let mut sim = Simulation::builder(Topology::complete(8))
            .seed(5)
            .shards(shards)
            .build_with(|id| {
                // Members at ids 0 and 7 land in different shards at any
                // sharded split of 8 processes.
                if id.index() == 0 || id.index() == 7 {
                    Box::new(cabal.member()) as Box<dyn Process>
                } else {
                    Box::new(HistoryChatter::new(id.index() as u64))
                }
            });
        sim.run(6);
        histories(&sim)
    };
    let serial = run(1);
    // Both colluders delivered the same payload to p3 each round.
    let p3 = &serial[2]; // histories() skips the two colluders, p3 is index 2
    for round in 1..6 {
        let lies: Vec<&Vec<u8>> = p3
            .iter()
            .filter(|(r, from, _)| *r == round && (*from == 0 || *from == 7))
            .map(|(_, _, payload)| payload)
            .collect();
        assert_eq!(lies.len(), 2, "round {round}: both colluders heard");
        assert_eq!(lies[0], lies[1], "round {round}: one coordinated lie");
    }
    for shards in [2, 4, 8] {
        assert_eq!(serial, run(shards), "shards={shards}");
    }
}
