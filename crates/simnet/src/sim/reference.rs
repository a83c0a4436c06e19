//! The collect-then-filter router, kept as the oracle for the in-place one.
//!
//! Until a send was routed where it is made, a process queued
//! `(to, payload)` pairs in an outbox and the scheduler drained it after
//! `on_pulse`: link check, loss draw, event, `routed` push — and the merge
//! counted every message and its bytes as it moved it into an inbox.
//! [`Reference`] is that round, written the plain way (every process
//! stepped in id order, its process RNG derived eagerly, one outbox per
//! process, no shards, no arenas), and the property test holds
//! [`Simulation`] to it: equal [`Trace`], equal next-round inboxes (order
//! included) and an equal event stream, at every shard count.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

use super::*;
use crate::rng::process_rng;

/// What a [`Scripted`] process does with one pulse.
enum Action {
    Send(ProcessId, Bytes),
    Broadcast(Bytes),
}

/// The pulse of a [`Scripted`] process: a pure function of its coordinates
/// and inbox that mixes silence, broadcasts and point-to-point sends — to
/// neighbours, to non-neighbours (itself included) and to ids `≥ n` — and
/// draws from `rng` on some pulses only, the draws ending up in payloads.
fn script(
    id: ProcessId,
    round: Round,
    n: usize,
    neighbors: &[usize],
    inbox: &[Message],
    rng: &mut dyn FnMut() -> u64,
) -> Vec<Action> {
    let mut h = id.index() as u64 * 31 + round.value() * 17 + inbox.len() as u64;
    for m in inbox {
        let first = m.payload.first().copied().unwrap_or(0);
        h = h.wrapping_mul(0x100_0000_01b3) ^ m.from.index() as u64 ^ (u64::from(first) << 8);
    }
    let anyone = |x: u64| ProcessId((x % (n as u64 + 2)) as usize);
    match h % 5 {
        0 => Vec::new(),
        1 => vec![Action::Broadcast(vec![h as u8].into())],
        2 => {
            let r = rng();
            vec![
                Action::Send(anyone(r), r.to_le_bytes().to_vec().into()),
                Action::Broadcast(vec![r as u8, 1].into()),
            ]
        }
        3 => (0..3u8)
            .map(|k| Action::Send(anyone(h + u64::from(k) * 7), vec![k, h as u8].into()))
            .collect(),
        _ => {
            let echo = inbox.first().map_or_else(Bytes::new, |m| m.payload.clone());
            let mut actions = vec![Action::Send(id, vec![4].into())];
            if let Some(&nb) = neighbors.first() {
                actions.push(Action::Send(ProcessId(nb), echo));
            }
            actions.push(Action::Broadcast(
                (rng() ^ rng()).to_le_bytes().to_vec().into(),
            ));
            actions
        }
    }
}

/// Runs [`script`] against a real [`Context`].
struct Scripted;

impl Process for Scripted {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let (neighbors, inbox) = (ctx.neighbors().to_vec(), ctx.inbox().to_vec());
        let (id, round, n) = (ctx.id(), ctx.round(), ctx.n());
        let actions = script(id, round, n, &neighbors, &inbox, &mut || {
            ctx.rng().next_u64()
        });
        for action in actions {
            match action {
                Action::Send(to, payload) => ctx.send(to, payload),
                Action::Broadcast(payload) => ctx.broadcast(payload),
            }
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A system of [`script`]ed processes stepped by the plain round semantics.
struct Reference {
    topology: Topology,
    seed: u64,
    delivery: Delivery,
    events_on: bool,
    round: Round,
    /// `inboxes[i]` = what process `i` reads at the next pulse.
    inboxes: Vec<Vec<Message>>,
    trace: Trace,
    events: Vec<Event>,
}

impl Reference {
    fn new(topology: Topology, seed: u64, delivery: Delivery, events_on: bool) -> Reference {
        let n = topology.len();
        Reference {
            topology,
            seed,
            delivery,
            events_on,
            round: Round(0),
            inboxes: vec![Vec::new(); n],
            trace: Trace::new(n),
            events: Vec::new(),
        }
    }

    fn event(&mut self, event: Event) {
        if self.events_on {
            self.events.push(event);
        }
    }

    fn step(&mut self) {
        let (n, seed, round) = (self.topology.len(), self.seed, self.round);
        self.event(Event::RoundStart {
            round: round.value(),
        });
        let consumed = std::mem::replace(&mut self.inboxes, vec![Vec::new(); n]);
        let mut delivered = 0;
        for (i, inbox) in consumed.iter().enumerate() {
            let id = ProcessId(i);
            // Collect: the whole pulse's sends, as (to, payload) pairs.
            let neighbors = self.topology.neighbors(id).to_vec();
            let mut rng = process_rng(seed, id, round);
            let mut outbox: Vec<(ProcessId, Bytes)> = Vec::new();
            for action in script(id, round, n, &neighbors, inbox, &mut || rng.next_u64()) {
                match action {
                    Action::Send(to, payload) => outbox.push((to, payload)),
                    Action::Broadcast(payload) => {
                        for &nb in &neighbors {
                            outbox.push((ProcessId(nb), payload.clone()));
                        }
                    }
                }
            }
            // Filter, then deliver: the drain loop and the merge as they
            // stood before the in-place router.
            let mut loss_rng: Option<StdRng> = None;
            for (to, payload) in outbox {
                if to.index() >= n || !self.topology.connected(id, to) {
                    self.trace.messages_dropped_no_link += 1;
                    self.event(Event::Dropped {
                        round: round.value(),
                        from: id,
                        to,
                        reason: DropReason::NoLink,
                    });
                    continue;
                }
                if let Delivery::Lossy { p } = self.delivery {
                    let rng = loss_rng.get_or_insert_with(|| {
                        labeled_rng_u64_pair(seed, LOSS_DOMAIN, round.value(), id.index() as u64)
                    });
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        self.trace.messages_dropped_lossy += 1;
                        self.event(Event::Dropped {
                            round: round.value(),
                            from: id,
                            to,
                            reason: DropReason::Lossy,
                        });
                        continue;
                    }
                }
                self.event(Event::Delivered {
                    round: round.value(),
                    from: id,
                    to,
                    bytes: payload.len(),
                });
                delivered += 1;
                self.trace.record_delivery(to, payload.len() as u64);
                self.inboxes[to.index()].push(Message::new(id, round, payload));
            }
        }
        self.event(Event::RoundEnd {
            round: round.value(),
            delivered,
        });
        self.trace.record_round(round);
        self.round = round.next();
    }
}

/// Ring, complete graph or a random k-connected graph on `n` vertices.
fn topology(kind: u8, n: usize, seed: u64) -> Topology {
    match kind % 3 {
        0 => Topology::ring(n),
        1 => Topology::complete(n),
        _ => {
            let mut rng = StdRng::seed_from_u64(seed);
            Topology::random_k_connected(n, 2 + (seed % 2) as usize, 0.2, &mut rng)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_place_router_matches_collect_then_filter(
        kind in 0u8..3,
        n in 4usize..14,
        seed in 0u64..1_000_000,
        lossy in any::<bool>(),
        p in 0.05f64..0.9,
        events_on in any::<bool>(),
    ) {
        let delivery = if lossy { Delivery::Lossy { p } } else { Delivery::Reliable };
        for shards in [1, 2, 4] {
            let mut reference = Reference::new(topology(kind, n, seed), seed, delivery, events_on);
            let mut builder = Simulation::builder(topology(kind, n, seed))
                .seed(seed)
                .delivery(delivery)
                .shards(shards);
            if events_on {
                builder = builder.telemetry(TelemetryConfig {
                    events_capacity: 1 << 20,
                });
            }
            let mut sim = builder.build_slab(|_| Scripted);
            for round in 0..8 {
                sim.step();
                reference.step();
                prop_assert_eq!(sim.trace(), &reference.trace, "shards={} round={}", shards, round);
                for i in 0..n {
                    prop_assert_eq!(
                        sim.inboxes.slot(i),
                        &reference.inboxes[i][..],
                        "shards={} round={} inbox of p{}", shards, round, i
                    );
                }
            }
            prop_assert_eq!(sim.take_events(), reference.events, "shards={}", shards);
        }
    }
}
