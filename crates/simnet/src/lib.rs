//! # ga-simnet — deterministic synchronous message-passing simulator
//!
//! The game-authority paper (§4.1) assumes the classic synchronous model:
//!
//! > "a common pulse triggers each step… the step starts sending messages to
//! > neighboring processors, receiving all messages sent by the neighbors and
//! > changing its state accordingly."
//!
//! plus up to `f` Byzantine processors and *transient faults* that leave the
//! system in an arbitrary configuration. This crate is that model, executable:
//!
//! * [`Simulation`](sim::Simulation) runs a set of [`Process`](process::Process)es
//!   in lock-step rounds over a [`Topology`](topology::Topology);
//! * [`adversary`] wraps processes in Byzantine behaviours (silence,
//!   equivocation, random noise, collusion);
//! * [`fault`] describes every *transient fault* as one
//!   [`CorruptionFamily`](fault::CorruptionFamily): it scrambles process
//!   states, drops, corrupts and fabricates in-flight messages, each draw
//!   keyed by `(seed, id, round)`, so self-stabilization can be exercised
//!   from genuinely arbitrary configurations, once or on a schedule;
//! * everything is seeded and deterministic — a run is a pure function of
//!   `(program, topology, seed)` — so experiments are replayable.
//!
//! ## Zero-copy message substrate
//!
//! The per-round hot path is allocation-free in steady state:
//!
//! * **Payloads are [`bytes::Bytes`].**
//!   [`Context::send`](process::Context::send) and
//!   [`Context::broadcast`](process::Context::broadcast) take
//!   `impl Into<Bytes>`; a broadcast converts its payload **once**. A
//!   payload of at most [`bytes::INLINE_CAP`] bytes (a clock value, a
//!   vote, a flood token) lives inside the 16-byte handle: no allocation,
//!   no refcount, each [`Message`](message::Message) carries its own copy.
//!   A longer one is a single refcounted buffer shared by all recipients
//!   (cloning is a refcount bump, and `payload.as_ptr()` is identical
//!   across recipients). Protocols that resend a received payload should
//!   clone `message.payload` instead of copying out the bytes.
//! * **A message makes one hop.** There is no outbox: a
//!   [`Context`](process::Context) borrows the stepping shard's scratch,
//!   and `send` link- and loss-filters the message where it is made and
//!   writes it once, as the finished [`Message`](message::Message), into
//!   the shard's `routed` buffer — one link check, one handle clone (a
//!   refcount bump, or a 16-byte copy for an inline payload) and one
//!   40-byte write. A broadcast hands its own handle to the last
//!   neighbour, so it costs `degree − 1` clones and no drop. The merge then
//!   moves each message into its destination's inbox without looking
//!   inside it: message and byte totals are tallied per shard at route
//!   time, while the payload is in hand.
//! * **A round's messages live in one buffer.** All n inboxes are slices
//!   of one `Vec<Message>` grouped by destination (see `inbox.rs`): the
//!   merge counts every destination, lays the groups out and places each
//!   message where it stays — a stable counting sort in ascending sender
//!   order. The store is double-buffered; the per-pulse clear is one
//!   sequential drop that keeps the capacity, and each shard's `routed`
//!   buffer is reused across all its processes and rounds, so steady state
//!   allocates nothing — for inline payloads not even a payload buffer.
//! * **Derivation is numeric on the hot path.** The loss-model RNG comes
//!   from [`rng::labeled_rng_u64_pair`] (integer mixing, no `format!`),
//!   keyed per `(round, sender)`, and is only constructed when
//!   [`Delivery::Lossy`](sim::Delivery) is configured and the sender has
//!   an on-link message; the pulse RNG behind
//!   [`Context::rng`](process::Context::rng) is derived on its first use,
//!   so processes that never draw (most protocols, most pulses) pay
//!   nothing for it;
//!   [`Simulation::disconnect`](sim::Simulation::disconnect)
//!   mutates adjacency in place via
//!   [`Topology::isolate`](topology::Topology::isolate).
//!
//! ## Sharded stepping on the persistent runtime
//!
//! [`Simulation::step`](sim::Simulation::step) splits every round into a
//! **compute phase** (each shard's run of the ascending active list steps
//! against the immutable prior-round inboxes, its sends routed straight
//! into the shard's scratch) and a **deterministic merge phase** (the
//! shards' buffers appended in shard order, which is ascending process-id
//! order, counters summed in the same order). With more than one shard
//! the compute phase is submitted as one indexed batch to a persistent
//! [`Runtime`](runtime::Runtime) worker pool — created once, shared with the scenario sweep engine, zero
//! threads spawned per round; because every random draw is derived
//! from `(seed, id, round)` coordinates, the resulting trace is
//! byte-for-byte identical to serial stepping at any shard count and any
//! pool size (`tests/sharding.rs`, `tests/runtime.rs`). Select it with
//! [`SimulationBuilder::shards`](sim::SimulationBuilder::shards) and attach a
//! pool with [`SimulationBuilder::runtime`](sim::SimulationBuilder::runtime)
//! (default: the process-wide [`Runtime::global`](runtime::Runtime::global)).
//!
//! ## Sparse mode
//!
//! The substrate scales to sparse million-process systems (rings, grids,
//! random-k graphs) through three mechanisms, none of which change any
//! trace:
//!
//! * **CSR adjacency.** [`Topology`](topology::Topology) stores sorted
//!   compressed-sparse-row neighbor lists — O(n + E) memory and the one
//!   adjacency representation at every n; `connected` is a binary search
//!   on the row.
//! * **Quiescence-aware stepping.** Each round steps only the *active
//!   set*: processes whose inbox gained a message last round, processes
//!   woken by a schedule/fault intervention (scramble, corruption,
//!   program replacement), and processes claiming
//!   [`Process::always_active`](process::Process::always_active) — the
//!   default, so ordinary protocols are unaffected. A process opting out
//!   promises that an `on_pulse` call with an empty inbox would be
//!   unobservable; the scheduler re-queries the hook after every step it
//!   executes, so the answer may be state-dependent. The inbox store's
//!   touched-slot list doubles as the active-set source and makes
//!   [`pending_messages`](sim::Simulation::pending_messages) /
//!   [`quiescent_processes`](sim::Simulation::quiescent_processes)
//!   O(active). Idle processes cost zero allocations and zero scan time;
//!   a fully quiescent round still advances the clock and fires due
//!   schedule entries.
//! * **Degree-balanced sharding.** A shard is a contiguous run of the
//!   round's ascending active list. The list is cut where the prefix sum
//!   of `degree + 1` weights reaches each `s / shards` of the total — a
//!   pure function of (active list, degrees, shard count), recomputed
//!   every sharded round — so a run weighs less than `total / shards` plus
//!   its own last member: a hub cannot be split, and what shares its
//!   shard is capped. Contiguous runs are id ranges, so the process table
//!   is lent to the shard tasks by `split_at_mut`, and shard `s`'s senders
//!   all precede shard `s + 1`'s, so the merge is concatenation: traces
//!   and event streams are byte-identical at any workers × shards × pool
//!   size.
//!
//! ### The build path
//!
//! Startup is engineered like the hot path, because at 10⁶ processes it
//! *is* the hot path of short runs:
//!
//! * **Streaming CSR construction.** Topology constructors never
//!   materialize a per-vertex `Vec<Vec<usize>>` intermediate. Family
//!   constructors (`ring`/`grid`/`star`/`complete`) know every row's
//!   exact degree and sorted order up front and emit rows straight into
//!   one pre-sized flat array — no counting pass, no sort, no dedup;
//!   [`Topology::from_edges`](topology::Topology::from_edges) validates
//!   all edges first (fail-fast, before any n-sized allocation), then
//!   counts degrees and scatters endpoints in two passes over the edge
//!   list. Either way: O(1) allocations per build.
//! * **Process slabs vs boxes.**
//!   [`SimulationBuilder::build_slab`](sim::SimulationBuilder::build_slab)
//!   stores a homogeneous population contiguously — one arena allocation
//!   for all n processes instead of n boxes. Trade-off: boxed storage
//!   ([`build`](sim::SimulationBuilder::build) /
//!   [`build_with`](sim::SimulationBuilder::build_with)) supports mixed
//!   process types. Traces are identical either way.
//!
//! ## Two-plane telemetry
//!
//! [`telemetry`] adds observability without touching the determinism
//! guarantees: a **deterministic event plane** (structured
//! [`Event`](telemetry::Event)s at stable `(round, process-id)` coordinates,
//! ring-buffered in an [`EventSink`](telemetry::EventSink), byte-identical
//! at any workers × shards × pool size) and a **wall-clock timing plane**
//! ([`Profiler`](telemetry::Profiler): step latency, its split over the
//! step's phases — schedule, swap + clear, active set, compute + route,
//! re-query, merge — and pool batch/task times) that never feeds back into
//! traces or any compared output. See the [`telemetry`] module docs for the rule.
//!
//! ## Quickstart
//!
//! ```
//! use ga_simnet::prelude::*;
//!
//! /// Every round, send our id to all neighbors and count what we hear.
//! struct Chatter { heard: usize }
//!
//! impl Process for Chatter {
//!     fn on_pulse(&mut self, ctx: &mut Context<'_>) {
//!         self.heard += ctx.inbox().len();
//!         ctx.broadcast(b"hi".to_vec());
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulation::builder(Topology::complete(4))
//!     .seed(7)
//!     .build_with(|_id| Box::new(Chatter { heard: 0 }) as Box<dyn Process>);
//! sim.run(3);
//! // After round 1 each process hears 3 messages per round, for 2 rounds.
//! let p0: &Chatter = sim.process_as::<Chatter>(ProcessId(0)).unwrap();
//! assert_eq!(p0.heard, 6);
//! ```

// One exception, allowed where it stands: the scoped-task lifetime
// transmute in `runtime.rs`.
#![deny(unsafe_code)]

pub mod adversary;
pub mod colluding;
pub mod fault;
pub mod ids;
pub(crate) mod inbox;
pub mod message;
pub mod process;
pub mod rng;
pub mod runtime;
pub mod schedule;
pub mod sim;
pub(crate) mod store;
pub mod telemetry;
pub mod topology;
pub mod trace;

/// Convenient glob import for simulator users.
pub mod prelude {
    pub use crate::adversary::{Adversary, ByzantineProcess};
    pub use crate::fault::{CorruptionFamily, CorruptionTargets};
    pub use crate::ids::{ProcessId, Round};
    pub use crate::message::Message;
    pub use crate::process::{Context, Process};
    pub use crate::runtime::Runtime;
    pub use crate::schedule::{Recurrence, Schedule, ScheduledAction};
    pub use crate::sim::{Delivery, Simulation, SimulationBuilder};
    pub use crate::telemetry::{
        DropReason, Event, EventSink, ProfileData, Profiler, StepPhase, TelemetryConfig,
    };
    pub use crate::topology::Topology;
    pub use crate::trace::Trace;
}

use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulator harness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Topology constraint violated (e.g. requested connectivity impossible).
    BadTopology(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadTopology(why) => write!(f, "bad topology: {why}"),
        }
    }
}

impl Error for SimError {}
