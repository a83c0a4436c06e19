//! The [`Process`] trait and per-pulse [`Context`].
//!
//! A process is the paper's "program of a processor": a deterministic (up to
//! its derived randomness) state machine stepped once per common pulse. The
//! step receives all messages the neighbors sent last pulse, may send
//! messages for delivery next pulse, and updates local state (§4.1).
//!
//! Payloads travel as [`Bytes`]: [`Context::send`] and
//! [`Context::broadcast`] accept `impl Into<Bytes>`, so a broadcast
//! converts its payload **once**: at most [`bytes::INLINE_CAP`] bytes ride
//! inside each message with no allocation at all, a longer payload is
//! allocated once and every recipient shares the refcounted buffer.
//! Steady-state sends are allocation-free when the payload is short (hand
//! over an array, not a `Vec`) or when callers hand over an existing
//! `Bytes` (cloning one is a refcount bump). Nothing
//! is queued on the way: a send is link- and loss-filtered where it is
//! made and written once into the scheduler's routed buffer (see
//! [`Context`]).
//!
//! How processes are *stored* is the scheduler's business, not the
//! trait's: a heterogeneous population lives in one box per process,
//! while a homogeneous one built with
//! [`SimulationBuilder::build_slab`](crate::sim::SimulationBuilder::build_slab)
//! lives contiguously in a single slab arena — same trait calls, same
//! traces, just one allocation instead of n at build time.

use bytes::Bytes;
use rand::rngs::StdRng;

use crate::ids::{ProcessId, Round};
use crate::message::Message;
use crate::rng::process_rng;
use crate::sim::{RoundEnv, ShardScratch};

/// A processor's program, stepped once per pulse.
///
/// Implementors also expose `as_any`/`as_any_mut` so harnesses can inspect
/// concrete protocol state after a run (decision values, clocks, ...).
///
/// `Send` is a supertrait because the scheduler's sharded compute phase
/// (see [`Simulation::step`](crate::sim::Simulation::step)) moves disjoint
/// `&mut` process ranges onto the pool's worker threads. Processes are
/// never *shared* between threads, so `Sync` is not required.
pub trait Process: Send {
    /// Executes one synchronous step.
    fn on_pulse(&mut self, ctx: &mut Context<'_>);

    /// Transient-fault hook: overwrite internal state with arbitrary values.
    ///
    /// Self-stabilization proofs quantify over *arbitrary starting
    /// configurations*; a [`CorruptionFamily`](crate::fault::CorruptionFamily)
    /// calls this on each process it targets, with an RNG keyed by
    /// `(seed, round, id)`, to produce them. The default is a no-op for
    /// stateless processes.
    fn scramble(&mut self, rng: &mut StdRng) {
        let _ = rng;
    }

    /// Whether this process must be stepped every pulse even when it has
    /// no pending messages (the default).
    ///
    /// Returning `false` opts in to quiescence-aware stepping: the
    /// scheduler skips the process on pulses where its inbox is empty and
    /// no fault or schedule event woke it, which is what lets sparse
    /// million-process systems run rounds in O(active) instead of O(n).
    /// The contract is that for such pulses an `on_pulse` call with an
    /// empty inbox would have been unobservable — no state change, no
    /// sends, no RNG use the protocol relies on. The scheduler re-queries
    /// this hook after every step it executes (and after scrambles and
    /// program replacement), so the answer may depend on current state —
    /// e.g. a source that is always active until it has fired.
    fn always_active(&self) -> bool {
        true
    }

    /// Concrete-type access for post-run inspection.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable concrete-type access for harness intervention.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Diagnostic label used in traces.
    fn name(&self) -> &'static str {
        "process"
    }
}

/// Everything a process can see and do during one pulse.
///
/// A context owns no buffer. It borrows the round's shared state and the
/// stepping shard's scratch from the scheduler, and a send is routed where
/// it is made: one link check, one handle clone — a refcount bump, or a
/// 16-byte copy when the payload is short enough to live inline (none for a
/// broadcast's last recipient, which takes the caller's own handle) — and
/// one 40-byte write of the destination and the finished [`Message`] into
/// the shard's `routed` buffer, the only stop between the protocol and the
/// merge into next-round inboxes.
#[derive(Debug)]
pub struct Context<'a> {
    id: ProcessId,
    neighbors: &'a [usize],
    inbox: &'a [Message],
    env: &'a RoundEnv<'a>,
    out: &'a mut ShardScratch,
    /// This pulse's private stream, derived on the first
    /// [`rng`](Context::rng) call.
    rng: Option<StdRng>,
    /// This sender's loss stream, derived by the router on the first
    /// on-link message under a lossy model.
    loss_rng: Option<StdRng>,
}

impl<'a> Context<'a> {
    /// The context of process `id` for the round `env` describes, reading
    /// `inbox` and routing into `out`.
    pub(crate) fn new(
        env: &'a RoundEnv<'a>,
        out: &'a mut ShardScratch,
        id: ProcessId,
        inbox: &'a [Message],
    ) -> Context<'a> {
        Context {
            id,
            neighbors: env.topology.neighbors(id),
            inbox,
            env,
            out,
            rng: None,
            loss_rng: None,
        }
    }

    /// This processor's identity.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The current round (pulse) number.
    pub fn round(&self) -> Round {
        self.env.round
    }

    /// Total number of processors in the system.
    pub fn n(&self) -> usize {
        self.env.topology.len()
    }

    /// Sorted neighbor indices. They outlive the borrow of `self`, so a
    /// process can walk them while it sends.
    pub fn neighbors(&self) -> &'a [usize] {
        self.neighbors
    }

    /// Messages delivered at this pulse (sent by neighbors last pulse).
    /// They outlive the borrow of `self`, so a process can hold what it
    /// read from them while it draws randomness and sends.
    pub fn inbox(&self) -> &'a [Message] {
        self.inbox
    }

    /// Sends a message for delivery to `to` at the next pulse.
    ///
    /// The message is link- and loss-filtered on the spot: one to a
    /// non-neighbor is dropped (and counted in the trace), modelling the
    /// absence of a link. Passing an existing [`Bytes`] is free of payload
    /// copies.
    pub fn send(&mut self, to: ProcessId, payload: impl Into<Bytes>) {
        self.out
            .route(self.env, self.id, &mut self.loss_rng, to, payload.into());
    }

    /// Sends the same payload to every neighbor.
    ///
    /// The payload is converted to [`Bytes`] once and all recipients share
    /// the single refcounted buffer; the last neighbor receives the
    /// converted handle itself, so fan-out is `degree − 1` refcount bumps
    /// and no drop.
    pub fn broadcast(&mut self, payload: impl Into<Bytes>) {
        let Some((&last, rest)) = self.neighbors.split_last() else {
            return;
        };
        let payload = payload.into();
        for &nb in rest {
            self.send(ProcessId(nb), payload.clone());
        }
        self.send(ProcessId(last), payload);
    }

    /// This pulse's private randomness, derived from `(seed, id, round)` —
    /// reproducible and independent of other processes. Derived on first
    /// use: a process that never draws pays nothing for it.
    pub fn rng(&mut self) -> &mut StdRng {
        let (env, id) = (self.env, self.id);
        self.rng
            .get_or_insert_with(|| process_rng(env.seed, id, env.round))
    }

    /// What this process has sent so far this pulse that survived the link
    /// and loss filters, in send order.
    #[cfg(test)]
    pub(crate) fn sent(&self) -> &[(ProcessId, Message)] {
        &self.out.routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use rand::RngCore;

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let topology = Topology::complete(4);
        let env = RoundEnv::reliable(&topology, 0, Round(0));
        let mut out = ShardScratch::default();
        let mut c = Context::new(&env, &mut out, ProcessId(0), &[]);
        c.broadcast(vec![7]);
        let targets: Vec<usize> = c.sent().iter().map(|(t, _)| t.index()).collect();
        assert_eq!(targets, vec![1, 2, 3]);
    }

    #[test]
    fn broadcast_shares_one_buffer() {
        let topology = Topology::complete(4);
        let env = RoundEnv::reliable(&topology, 0, Round(0));
        let mut out = ShardScratch::default();
        let mut c = Context::new(&env, &mut out, ProcessId(0), &[]);
        c.broadcast(vec![1; bytes::INLINE_CAP + 1]);
        let first = c.sent()[0].1.payload.as_ptr();
        assert!(
            c.sent().iter().all(|(_, m)| m.payload.as_ptr() == first),
            "all routed copies alias the same allocation"
        );
        // A short payload rides inside each envelope instead.
        c.broadcast(vec![1, 2, 3, 4]);
        let short = &c.sent()[3..];
        assert!(short.iter().all(|(_, m)| m.payload == vec![1u8, 2, 3, 4]));
        assert_ne!(short[0].1.payload.as_ptr(), short[1].1.payload.as_ptr());
    }

    #[test]
    fn broadcast_converts_once_at_any_degree() {
        /// A payload that counts its conversions into `Bytes`.
        struct Counted<'c>(&'c std::cell::Cell<usize>);
        impl From<Counted<'_>> for Bytes {
            fn from(counted: Counted<'_>) -> Bytes {
                counted.0.set(counted.0.get() + 1);
                Bytes::from(vec![9; bytes::INLINE_CAP + 1])
            }
        }
        // A lone vertex (degree 0), a star's leaf (1) and its hub (5):
        // whatever the degree, every neighbour is a target, the payload is
        // converted at most once and everybody holds that one buffer — the
        // last neighbour the converted handle itself.
        let lone = Topology::from_edges(1, &[]).unwrap();
        let star = Topology::star(6);
        for (topology, id, targets) in [
            (&lone, 0, vec![]),
            (&star, 3, vec![0]),
            (&star, 0, vec![1, 2, 3, 4, 5]),
        ] {
            let env = RoundEnv::reliable(topology, 0, Round(0));
            let mut out = ShardScratch::default();
            let conversions = std::cell::Cell::new(0);
            let mut c = Context::new(&env, &mut out, ProcessId(id), &[]);
            c.broadcast(Counted(&conversions));
            let sent: Vec<usize> = c.sent().iter().map(|(t, _)| t.index()).collect();
            assert_eq!(sent, targets);
            assert_eq!(conversions.get(), targets.len().min(1));
            assert!(c
                .sent()
                .windows(2)
                .all(|w| w[0].1.payload.as_ptr() == w[1].1.payload.as_ptr()));
            assert!(c
                .sent()
                .iter()
                .all(|(_, m)| m.payload == [9u8; bytes::INLINE_CAP + 1]));
        }
    }

    #[test]
    fn send_queues_single_message() {
        let topology = Topology::from_edges(4, &[(0, 1)]).unwrap();
        let env = RoundEnv::reliable(&topology, 0, Round(3));
        let mut out = ShardScratch::default();
        let mut c = Context::new(&env, &mut out, ProcessId(0), &[]);
        c.send(ProcessId(1), vec![1, 2]);
        assert_eq!(
            c.sent(),
            [(
                ProcessId(1),
                Message::new(ProcessId(0), Round(3), vec![1, 2])
            )]
        );
    }

    #[test]
    fn send_off_link_or_out_of_range_routes_nothing() {
        let topology = Topology::from_edges(4, &[(0, 1)]).unwrap();
        let env = RoundEnv::reliable(&topology, 0, Round(0));
        let mut out = ShardScratch::default();
        let mut c = Context::new(&env, &mut out, ProcessId(0), &[]);
        c.send(ProcessId(2), vec![1]);
        c.send(ProcessId(4), vec![1]);
        c.send(ProcessId(0), vec![1]);
        assert!(c.sent().is_empty());
    }

    #[test]
    fn rng_is_the_process_stream_derived_on_first_use() {
        let topology = Topology::complete(4);
        let env = RoundEnv::reliable(&topology, 17, Round(5));
        let mut out = ShardScratch::default();
        let mut c = Context::new(&env, &mut out, ProcessId(2), &[]);
        assert!(c.rng.is_none(), "nothing derived before the first draw");
        let mut reference = process_rng(17, ProcessId(2), Round(5));
        for _ in 0..4 {
            assert_eq!(c.rng().next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn accessors_report_coordinates() {
        let topology = Topology::from_edges(4, &[(0, 1)]).unwrap();
        let env = RoundEnv::reliable(&topology, 0, Round(0));
        let mut out = ShardScratch::default();
        let c = Context::new(&env, &mut out, ProcessId(0), &[]);
        assert_eq!(c.id(), ProcessId(0));
        assert_eq!(c.round(), Round(0));
        assert_eq!(c.n(), 4);
        assert_eq!(c.neighbors(), [1]);
        assert!(c.inbox().is_empty());
    }
}
