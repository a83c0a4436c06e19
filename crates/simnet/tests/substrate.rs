//! Integration tests for the zero-copy message substrate: broadcast
//! fan-out shares one buffer end-to-end, the loss-RNG derivation stays
//! deterministic, and in-place disconnection preserves unrelated edges.

use bytes::Bytes;
use ga_simnet::prelude::*;
use ga_simnet::sim::Delivery;

/// What [`OneShotBroadcaster`] sends: past the inline cap, so it travels as
/// one shared buffer.
const ONE_SHOT: [u8; bytes::INLINE_CAP + 1] = [0xAB; bytes::INLINE_CAP + 1];

/// Broadcasts one fixed payload on round 0 only.
struct OneShotBroadcaster;

impl Process for OneShotBroadcaster {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        if ctx.round().value() == 0 {
            ctx.broadcast(ONE_SHOT.to_vec());
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Stores a clone of every delivered payload (refcount bump — pointer
/// identity with the sender's buffer is preserved).
#[derive(Default)]
struct Capture {
    payloads: Vec<Bytes>,
}

impl Process for Capture {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        for m in ctx.inbox() {
            self.payloads.push(m.payload.clone());
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One broadcast on `Topology::complete(64)`: all 63 recipients must hold
/// the *same allocation*, not 63 copies — the zero-copy tentpole property.
#[test]
fn broadcast_recipients_share_one_allocation() {
    let n = 64;
    let mut sim = Simulation::builder(Topology::complete(n)).build_with(|id| {
        if id.index() == 0 {
            Box::new(OneShotBroadcaster) as Box<dyn Process>
        } else {
            Box::new(Capture::default())
        }
    });
    sim.run(2); // round 0 sends, round 1 delivers

    let mut pointers = Vec::new();
    for i in 1..n {
        let cap = sim.process_as::<Capture>(ProcessId(i)).unwrap();
        assert_eq!(cap.payloads.len(), 1, "p{i} got the broadcast");
        assert_eq!(cap.payloads[0], ONE_SHOT);
        pointers.push(cap.payloads[0].as_ptr());
    }
    assert_eq!(pointers.len(), n - 1);
    assert!(
        pointers.iter().all(|&p| p == pointers[0]),
        "one allocation shared by all 63 recipients"
    );
}

/// Every round's broadcast from every process shares its buffer across
/// recipients — steady state, not just the first pulse.
#[test]
fn steady_state_broadcasts_stay_shared() {
    struct EveryRound;
    impl Process for EveryRound {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            // The round, padded past the inline cap.
            let mut payload = [0u8; bytes::INLINE_CAP + 1];
            payload[..8].copy_from_slice(&ctx.round().value().to_be_bytes());
            ctx.broadcast(payload);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let n = 8;
    let mut sim = Simulation::builder(Topology::complete(n)).build_with(|id| {
        if id.index() == 0 {
            Box::new(EveryRound) as Box<dyn Process>
        } else {
            Box::new(Capture::default())
        }
    });
    sim.run(6);

    // For each delivered round, all recipients alias one buffer.
    let per_recipient: Vec<Vec<Bytes>> = (1..n)
        .map(|i| {
            sim.process_as::<Capture>(ProcessId(i))
                .unwrap()
                .payloads
                .clone()
        })
        .collect();
    let rounds_delivered = per_recipient[0].len();
    assert!(rounds_delivered >= 5);
    for r in 0..rounds_delivered {
        let first = per_recipient[0][r].as_ptr();
        for caps in &per_recipient {
            assert_eq!(caps[r].as_ptr(), first, "round {r} payload shared");
            assert_eq!(caps[r][..8], (r as u64).to_be_bytes());
        }
    }
}

/// Counts received messages; broadcasts one message per round.
struct Chatter;

impl Process for Chatter {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        ctx.broadcast(vec![1, 2, 3]);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Same-seed lossy runs produce byte-identical traces: guards the numeric
/// `labeled_rng_u64` loss derivation that replaced the per-round
/// `format!` label.
#[test]
fn lossy_delivery_is_deterministic_per_seed() {
    let build = |seed| {
        Simulation::builder(Topology::complete(6))
            .seed(seed)
            .delivery(Delivery::Lossy { p: 0.3 })
            .build_with(|_| Box::new(Chatter) as Box<dyn Process>)
    };
    let mut a = build(99);
    let mut b = build(99);
    a.run(50);
    b.run(50);
    assert_eq!(a.trace(), b.trace(), "same seed, same lossy history");
    assert!(a.trace().messages_dropped_lossy > 0, "loss model engaged");
    assert!(a.trace().messages_delivered > 0);

    let mut c = build(100);
    c.run(50);
    assert_ne!(
        a.trace().messages_dropped_lossy,
        0,
        "sanity: losses occurred"
    );
    assert!(
        c.trace() != a.trace(),
        "different seed perturbs the loss pattern"
    );
}

/// Disconnection is surgical: every edge not incident to the victim
/// survives, with delivery behaviour to match (regression for the old
/// O(n²) rebuild which also used to collect a dead `peers` vector).
#[test]
fn disconnect_preserves_unrelated_edges() {
    let n = 6;
    let mut sim = Simulation::builder(Topology::complete(n))
        .build_with(|_| Box::new(Chatter) as Box<dyn Process>);
    let before = sim.topology().clone();
    sim.disconnect(ProcessId(3));

    let after = sim.topology();
    assert!(after.neighbors(ProcessId(3)).is_empty());
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let expect = u != 3 && v != 3 && before.connected(ProcessId(u), ProcessId(v));
            assert_eq!(
                after.connected(ProcessId(u), ProcessId(v)),
                expect,
                "edge {u}-{v}"
            );
        }
    }

    sim.run(3);
    assert_eq!(sim.trace().delivered_to(ProcessId(3)), 0);
    for i in (0..n).filter(|&i| i != 3) {
        // 3 routed rounds × 4 surviving peers.
        assert_eq!(sim.trace().delivered_to(ProcessId(i)), 12, "p{i}");
    }
    // Broadcast targets the (now empty) neighbor list, so the victim sends
    // nothing at all — no phantom no-link drops either.
    assert_eq!(sim.trace().messages_dropped_no_link, 0);
}

/// Inbox buffers are recycled, not reallocated: capacity survives a
/// quiet round and message history stays correct across bursts.
#[test]
fn inbox_reuse_keeps_histories_correct() {
    struct Bursty;
    impl Process for Bursty {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            // Send only on even rounds; odd rounds are quiet.
            if ctx.round().value().is_multiple_of(2) {
                ctx.broadcast(vec![7; 16]);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    let n = 5;
    let mut sim = Simulation::builder(Topology::complete(n))
        .build_with(|_| Box::new(Bursty) as Box<dyn Process>);
    sim.run(10);
    // Rounds 0,2,4,6,8 send: 5 bursts × n(n-1) messages.
    assert_eq!(sim.trace().messages_delivered, 5 * (n * (n - 1)) as u64);
    assert_eq!(
        sim.trace().bytes_delivered,
        5 * 16 * (n * (n - 1)) as u64,
        "payload sizes accounted exactly once per delivery"
    );
}
