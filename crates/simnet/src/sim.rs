//! The lock-step scheduler: [`Simulation`] and [`SimulationBuilder`].

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;

use crate::fault::{CorruptionFamily, TransientFault};
use crate::ids::{ProcessId, Round};
use crate::inbox::Inboxes;
use crate::message::Message;
use crate::process::{Context, Process};
use crate::rng::labeled_rng_u64_pair;
use crate::runtime::{BatchTask, Runtime};
use crate::schedule::{Schedule, ScheduledAction};
use crate::store::ProcessStore;
use crate::telemetry::{DropReason, Event, EventSink, Profiler, StepPhase, TelemetryConfig};
use crate::topology::Topology;
use crate::trace::Trace;
use crate::SimError;

use std::time::{Duration, Instant};

/// Numeric RNG domain for the message-loss model (see
/// [`labeled_rng_u64_pair`](crate::rng::labeled_rng_u64_pair)).
///
/// The loss stream is derived per `(round, sender)`, never shared across
/// senders, so a sender's drop pattern is independent of the order (or
/// thread) in which senders are routed — the property that lets
/// [`StepExec::Sharded`] reproduce serial traces byte-for-byte.
const LOSS_DOMAIN: u64 = 0x1055_1055_1055_1055;

/// Fingerprint of the inputs the shard plan depends on: the topology
/// generation (degrees), the shard count, and the active id set
/// (length + endpoints + an FNV-1a rolling hash). A key match is only a
/// *candidate* hit — the cached plan's exact active slice is compared
/// before reuse, so a hash collision can never produce a stale plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    generation: u64,
    shards: usize,
    len: usize,
    first: usize,
    last: usize,
    hash: u64,
}

impl PlanKey {
    fn new(generation: u64, shards: usize, active: &[usize]) -> PlanKey {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &i in active {
            hash ^= i as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        PlanKey {
            generation,
            shards,
            len: active.len(),
            first: active.first().copied().unwrap_or(usize::MAX),
            last: active.last().copied().unwrap_or(usize::MAX),
            hash,
        }
    }
}

/// How [`Simulation::step`] executes its compute phase.
///
/// Either way the observable round semantics are identical — sharded
/// stepping is a pure throughput knob, verified byte-for-byte against
/// serial stepping (`tests/sharding.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExec {
    /// One thread steps every active process in id order.
    Serial,
    /// The persistent [`Runtime`] pool's workers step degree-balanced
    /// process index sets in parallel (a deterministic greedy bin-pack
    /// over degrees, so one hub can't serialize a shard); a serial merge
    /// then delivers what each shard routed in ascending process-id order.
    Sharded {
        /// Number of shards (clamped to `[1, n]`; 1 behaves like
        /// [`StepExec::Serial`]).
        shards: usize,
    },
}

impl StepExec {
    /// Canonicalizes a shard-count knob: `0` and `1` mean serial.
    pub fn from_shards(shards: usize) -> StepExec {
        if shards <= 1 {
            StepExec::Serial
        } else {
            StepExec::Sharded { shards }
        }
    }

    /// The effective shard count for a system of `n` processes.
    pub fn shard_count(self, n: usize) -> usize {
        match self {
            StepExec::Serial => 1,
            StepExec::Sharded { shards } => shards.clamp(1, n.max(1)),
        }
    }
}

/// Splits one step's wall time over its [`StepPhase`]s: each `lap` charges
/// the time since the previous one to the phase that just ended. Built only
/// when a profiler is attached, so an unprofiled step never reads the clock.
struct PhaseClock {
    start: Instant,
    last: Instant,
    phases: [Duration; StepPhase::ALL.len()],
}

impl PhaseClock {
    fn start() -> PhaseClock {
        let start = Instant::now();
        PhaseClock {
            start,
            last: start,
            phases: [Duration::ZERO; StepPhase::ALL.len()],
        }
    }

    fn lap(clock: &mut Option<PhaseClock>, phase: StepPhase) {
        if let Some(clock) = clock {
            let now = Instant::now();
            clock.phases[phase as usize] += now - clock.last;
            clock.last = now;
        }
    }
}

/// What every process stepped in one round shares: the post-schedule
/// topology and delivery model, the run seed and the round's coordinates.
/// Built once per step and borrowed by every [`Context`].
#[derive(Debug)]
pub(crate) struct RoundEnv<'a> {
    pub(crate) topology: &'a Topology,
    pub(crate) seed: u64,
    pub(crate) round: Round,
    pub(crate) delivery: Delivery,
    /// Whether the event plane is on (per-message events are buffered).
    pub(crate) events_on: bool,
}

#[cfg(test)]
impl<'a> RoundEnv<'a> {
    /// A reliable, event-free round over `topology` — what unit tests that
    /// hand-build a [`Context`] step their process in.
    pub(crate) fn reliable(topology: &'a Topology, seed: u64, round: Round) -> RoundEnv<'a> {
        RoundEnv {
            topology,
            seed,
            round,
            delivery: Delivery::Reliable,
            events_on: false,
        }
    }
}

/// Per-shard scratch buffers, persisted across rounds so steady-state
/// stepping allocates nothing: `routed` carries the shard's link- and
/// loss-filtered messages (plus drop and byte tallies) to the merge phase.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// Messages that survived link and loss filtering, in sender order.
    pub(crate) routed: Vec<(ProcessId, Message)>,
    /// Payload bytes in `routed`, summed while each payload is in hand so
    /// the merge never dereferences one for its length.
    bytes_routed: u64,
    /// Messages dropped because the destination was not a neighbor.
    dropped_no_link: u64,
    /// Messages dropped by the loss model.
    dropped_lossy: u64,
    /// Telemetry events generated by this shard's compute phase, in
    /// per-sender order; drained into the run's [`EventSink`] by the merge
    /// phase in ascending sender order (empty unless the event plane is on).
    events: Vec<Event>,
    /// Per-sender segment table: one `(sender, routed end, events end)`
    /// entry per stepped process (even quiet ones), recording cumulative
    /// lengths of `routed`/`events` after that sender. Shard id sets are
    /// no longer contiguous, so the merge k-way-walks these tables to
    /// recover global ascending-sender order.
    segs: Vec<(ProcessId, usize, usize)>,
}

impl ShardScratch {
    /// Routes one message from `from`, the whole of what
    /// [`Context::send`] does: only topology edges carry a message, the
    /// loss model then draws from the sender's own `(round, sender)` stream
    /// (derived on its first on-link message, only under a lossy model),
    /// and a survivor is written once, as the finished [`Message`] the merge
    /// moves into `to`'s next-round inbox.
    #[inline]
    pub(crate) fn route(
        &mut self,
        env: &RoundEnv<'_>,
        from: ProcessId,
        loss_rng: &mut Option<StdRng>,
        to: ProcessId,
        payload: Bytes,
    ) {
        let round = env.round.value();
        if to.index() >= env.topology.len() || !env.topology.connected(from, to) {
            self.dropped_no_link += 1;
            if env.events_on {
                self.events.push(Event::Dropped {
                    round,
                    from,
                    to,
                    reason: DropReason::NoLink,
                });
            }
            return;
        }
        if let Delivery::Lossy { p } = env.delivery {
            let rng = loss_rng.get_or_insert_with(|| {
                labeled_rng_u64_pair(env.seed, LOSS_DOMAIN, round, from.index() as u64)
            });
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                self.dropped_lossy += 1;
                if env.events_on {
                    self.events.push(Event::Dropped {
                        round,
                        from,
                        to,
                        reason: DropReason::Lossy,
                    });
                }
                return;
            }
        }
        if env.events_on {
            self.events.push(Event::Delivered {
                round,
                from,
                to,
                bytes: payload.len(),
            });
        }
        self.bytes_routed += payload.len() as u64;
        self.routed
            .push((to, Message::new(from, env.round, payload)));
    }
}

/// Message-loss model applied on delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// Every message on an existing link is delivered (the paper's model).
    Reliable,
    /// Each message is independently dropped with probability `p` —
    /// used by robustness tests to confirm protocols degrade, not corrupt.
    Lossy {
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
}

/// A synchronous distributed system: processes + topology + in-flight
/// messages.
///
/// Semantics per [`step`](Simulation::step) (one pulse):
/// 1. every process receives the messages sent to it last round,
/// 2. every process takes its step (in parallel, modelled by iterating over
///    an immutable snapshot of inboxes),
/// 3. outgoing messages are routed along topology edges for delivery next
///    round.
pub struct Simulation {
    topology: Topology,
    /// The process table: boxed (heterogeneous) or a contiguous slab
    /// (homogeneous populations via
    /// [`build_slab`](SimulationBuilder::build_slab)) — behaviorally
    /// identical, see [`crate::store`].
    processes: ProcessStore,
    /// Slot i = messages to deliver to process i at the next pulse (one
    /// flat buffer grouped by destination; tracks which slots were
    /// touched).
    inboxes: Inboxes,
    /// Double buffer for `inboxes`: holds the pulse currently being
    /// consumed during [`step`](Simulation::step) and is recycled (swap +
    /// clear, capacity kept) every round, so steady-state stepping
    /// reallocates nothing and clearing costs O(previously pending).
    consumed: Inboxes,
    /// Processes currently claiming [`Process::always_active`], ascending.
    /// Rebuilt each round from the stepped set — a process's answer can
    /// only change when it runs (or is scrambled/replaced, which wakes it).
    persistent: Vec<usize>,
    /// Processes woken by interventions since the last pulse (scrambles,
    /// corruption victims, program replacement); drained into the next
    /// round's active set.
    woken: Vec<usize>,
    /// Scratch for the round's active id list (ascending, deduplicated).
    active: Vec<usize>,
    /// Recycled degree-balanced shard plan: `shard_plan[s]` = the ids shard
    /// `s` steps this round, ascending.
    shard_plan: Vec<Vec<usize>>,
    /// Bin-pack scratch: `(weight, id)` pairs and per-bin load tallies.
    plan_weights: Vec<(usize, usize)>,
    plan_loads: Vec<usize>,
    /// Fingerprint of the inputs `shard_plan` was computed from; `None`
    /// until the first sharded round (or when caching is off).
    plan_key: Option<PlanKey>,
    /// The exact active set `shard_plan` was computed from — compared in
    /// full on a key hit so fingerprint collisions are harmless.
    plan_active: Vec<usize>,
    /// Whether to reuse `shard_plan` across rounds when its inputs are
    /// unchanged (never affects any trace; see
    /// [`SimulationBuilder::plan_cache`]).
    plan_cache: bool,
    /// Per-shard compute buffers, recycled across rounds (one entry when
    /// stepping serially).
    shard_scratch: Vec<ShardScratch>,
    /// Compute-phase execution strategy.
    exec: StepExec,
    /// The persistent worker pool the sharded compute phase submits to.
    /// `None` until first needed; a sharded step without an explicit
    /// handle adopts [`Runtime::global`] — serial sims never touch a pool.
    runtime: Option<Runtime>,
    round: Round,
    seed: u64,
    delivery: Delivery,
    trace: Trace,
    /// Round-triggered churn/fault events, consumed as rounds pass.
    schedule: Schedule,
    /// Deterministic event plane: `None` keeps the hot path event-free.
    telemetry: Option<EventSink>,
    /// Wall-clock timing plane — never folded into `trace` or any other
    /// compared output (see [`crate::telemetry`]).
    profiler: Option<Profiler>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.topology.len())
            .field("round", &self.round)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Configures and constructs a [`Simulation`].
#[derive(Debug)]
pub struct SimulationBuilder {
    topology: Topology,
    seed: u64,
    delivery: Delivery,
    schedule: Schedule,
    exec: StepExec,
    runtime: Option<Runtime>,
    telemetry: Option<TelemetryConfig>,
    profiler: Option<Profiler>,
    plan_cache: bool,
}

impl SimulationBuilder {
    /// Sets the run seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the delivery model (default [`Delivery::Reliable`]).
    pub fn delivery(mut self, delivery: Delivery) -> Self {
        self.delivery = delivery;
        self
    }

    /// Attaches a round-triggered event schedule (default empty) — see
    /// [`Schedule`].
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shards the compute phase of every [`step`](Simulation::step) across
    /// this many threads (default 1 = serial). Traces are byte-identical
    /// at any shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.exec = StepExec::from_shards(shards);
        self
    }

    /// Sets the compute-phase execution strategy directly.
    pub fn exec(mut self, exec: StepExec) -> Self {
        self.exec = exec;
        self
    }

    /// Hands the simulation a persistent [`Runtime`] pool for its sharded
    /// compute phase (default: the process-wide [`Runtime::global`] pool,
    /// adopted lazily on the first sharded step). Sharing one handle
    /// across simulations — and with the sweep engine — keeps the whole
    /// process on one thread budget. The pool size never changes a trace.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Enables the deterministic event plane: the simulation records
    /// structured [`Event`]s into a ring-buffered [`EventSink`] of the
    /// configured capacity (default off — no events are buffered or
    /// formatted). The event stream is byte-identical at any workers ×
    /// shards × pool size; see [`crate::telemetry`].
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Attaches a wall-clock [`Profiler`] recording per-step latency and
    /// its split over the step's phases ([`StepPhase`]; default off — the
    /// clock is never read). Timing-plane data never enters traces or any
    /// compared output; see [`crate::telemetry`].
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Turns the shard-plan cache off (or back on) for this simulation;
    /// it is on by default. Caching only skips re-running the
    /// deterministic bin-pack when the active set and topology are
    /// unchanged, so it never changes a trace — the off switch is what
    /// the cached-vs-uncached byte-identity tests and the benchmark's
    /// A/B row compare against.
    pub fn plan_cache(mut self, enabled: bool) -> Self {
        self.plan_cache = enabled;
        self
    }

    /// Builds the simulation, constructing each process from its id.
    pub fn build_with(self, mut make: impl FnMut(ProcessId) -> Box<dyn Process>) -> Simulation {
        let n = self.topology.len();
        let processes = (0..n).map(|i| make(ProcessId(i))).collect();
        self.build(processes)
    }

    /// Builds from an explicit process vector.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len()` differs from the topology size.
    pub fn build(self, processes: Vec<Box<dyn Process>>) -> Simulation {
        self.build_store(ProcessStore::Boxed(processes))
    }

    /// Builds a homogeneous population stored contiguously in one slab
    /// arena — one allocation for all n processes instead of n boxes,
    /// which is what makes million-process builds fast. Behaviorally
    /// identical to [`build_with`](SimulationBuilder::build_with); a
    /// mid-run [`replace_process`](Simulation::replace_process) promotes
    /// the slab to boxed storage transparently (one-time O(n)).
    pub fn build_slab<P: Process + 'static>(
        self,
        mut make: impl FnMut(ProcessId) -> P,
    ) -> Simulation {
        let n = self.topology.len();
        let mut slab = Vec::with_capacity(n);
        slab.extend((0..n).map(|i| make(ProcessId(i))));
        self.build_store(ProcessStore::slab(slab))
    }

    fn build_store(self, processes: ProcessStore) -> Simulation {
        assert_eq!(
            processes.len(),
            self.topology.len(),
            "one process per topology vertex"
        );
        let n = self.topology.len();
        let mut persistent = Vec::with_capacity(n);
        for i in 0..n {
            if processes.get(i).is_some_and(|p| p.always_active()) {
                persistent.push(i);
            }
        }
        Simulation {
            inboxes: Inboxes::new(n),
            consumed: Inboxes::new(n),
            persistent,
            woken: Vec::new(),
            active: Vec::with_capacity(n),
            shard_plan: Vec::new(),
            plan_weights: Vec::new(),
            plan_loads: Vec::new(),
            plan_key: None,
            plan_active: Vec::new(),
            plan_cache: self.plan_cache,
            shard_scratch: Vec::new(),
            exec: self.exec,
            runtime: self.runtime,
            topology: self.topology,
            processes,
            round: Round(0),
            seed: self.seed,
            delivery: self.delivery,
            trace: Trace::new(n),
            schedule: self.schedule,
            telemetry: self
                .telemetry
                .map(|cfg| EventSink::with_capacity(cfg.events_capacity)),
            profiler: self.profiler,
        }
    }
}

impl Simulation {
    /// Starts configuring a simulation over `topology`.
    pub fn builder(topology: Topology) -> SimulationBuilder {
        SimulationBuilder {
            topology,
            seed: 0,
            delivery: Delivery::Reliable,
            schedule: Schedule::new(),
            exec: StepExec::Serial,
            runtime: None,
            telemetry: None,
            profiler: None,
            plan_cache: true,
        }
    }

    /// Re-shards the compute phase mid-run (`0`/`1` mean serial). Changing
    /// the shard count never changes the trace.
    pub fn set_shards(&mut self, shards: usize) {
        self.exec = StepExec::from_shards(shards);
    }

    /// Re-targets the sharded compute phase at `runtime` (the pool size
    /// never changes the trace) — see [`SimulationBuilder::runtime`].
    pub fn set_runtime(&mut self, runtime: Runtime) {
        self.runtime = Some(runtime);
    }

    /// The current compute-phase execution strategy.
    pub fn exec(&self) -> StepExec {
        self.exec
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the simulation has no processes (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// The current round number (the next pulse to execute).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The current topology. Links change mid-run only through
    /// [`disconnect`](Simulation::disconnect) or scheduled churn events
    /// ([`ScheduledAction::Disconnect`]/[`ScheduledAction::Reconnect`]),
    /// so probes inspecting it mid-run see the post-churn graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accumulated counters.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Whether the deterministic event plane is enabled.
    pub fn events_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Mutable access to the attached [`EventSink`] (e.g. for the scenario
    /// layer to push probe-level events such as
    /// [`Event::LegalityFlip`]); `None` when the event plane is disabled.
    pub fn events_mut(&mut self) -> Option<&mut EventSink> {
        self.telemetry.as_mut()
    }

    /// Drains and returns the retained telemetry events, oldest first
    /// (empty when the event plane is disabled).
    pub fn take_events(&mut self) -> Vec<Event> {
        self.telemetry
            .as_mut()
            .map(EventSink::drain)
            .unwrap_or_default()
    }

    /// Attaches a wall-clock [`Profiler`] mid-run — see
    /// [`SimulationBuilder::profiler`].
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// Messages pending delivery at the next pulse (total inbox depth).
    /// A pure function of the run state, so safe in deterministic outputs.
    /// O(active) — derived from the arena's touched-slot bookkeeping, so
    /// per-round telemetry sampling never scans all n inboxes.
    pub fn pending_messages(&self) -> u64 {
        self.inboxes.pending()
    }

    /// Processes whose next-pulse inbox is empty — the quiescence measure
    /// the sparse step loop runs on: a quiescent process is skipped at the
    /// next pulse unless it is always-active or explicitly woken. A pure
    /// function of the run state, O(active) like
    /// [`pending_messages`](Simulation::pending_messages).
    pub fn quiescent_processes(&self) -> usize {
        self.inboxes.quiescent()
    }

    /// Resets trace counters (e.g. to measure only steady-state costs).
    pub fn reset_trace(&mut self) {
        self.trace.reset();
    }

    /// Executes one pulse.
    ///
    /// The round is split into two phases over the round's **active set**
    /// — always-active processes (see [`Process::always_active`]), every
    /// process with pending deliveries, and any process woken by an
    /// intervention. Quiescent processes are skipped entirely (their
    /// `on_pulse` is contractually unobservable), so sparse systems pay
    /// O(active), not O(n), per round; a fully quiescent round still
    /// advances the round counter, fires due schedule entries and emits
    /// its `RoundStart`/`RoundEnd` events.
    ///
    /// 1. **Compute** — every active process steps against the immutable
    ///    snapshot of last pulse's deliveries; each message is link- and
    ///    loss-filtered as it is sent, straight into the shard's `routed`
    ///    buffer (nothing is queued first: see [`Context`]). Under
    ///    [`StepExec::Sharded`] the active set is bin-packed into
    ///    degree-balanced index sets run as one indexed batch on the
    ///    persistent [`Runtime`] pool — no threads are spawned per round;
    ///    every random draw is derived from `(seed, id, round)`
    ///    coordinates, so nothing depends on the shard plan or thread
    ///    interleaving.
    /// 2. **Merge** — the shards' routed, byte and drop tallies are folded
    ///    into the trace once and every destination is counted, so the
    ///    next-round inbox store can lay its one buffer out; then a k-way
    ///    walk over the per-sender segment tables replays global ascending
    ///    process-id order: surviving messages are placed into their
    ///    destination's group sender-by-sender, exactly the order serial
    ///    stepping produces, without looking inside a payload. Traces (and
    ///    the event stream) are therefore byte-identical at any shard
    ///    count.
    ///
    /// Scheduled churn/fault events fire once, before the compute phase,
    /// so the whole round sees the post-event topology and delivery model.
    ///
    /// Allocation-free in steady state on the serial path: the inbox
    /// store keeps its one buffer's capacity across clears (idle
    /// processes' slots are never visited), each shard recycles one routed
    /// buffer across all its processes and rounds, and payloads move as
    /// [`Bytes`] — inline in the [`Message`] when short, else a
    /// broadcast's single refcounted buffer shared by every recipient,
    /// the last of which takes the sender's own handle. The
    /// sharded path additionally boxes one task header per shard per round
    /// (a few ns each — the point of the persistent pool is eliminating
    /// the ~tens of µs of per-round thread spawn/join the old
    /// `thread::scope` compute phase paid).
    pub fn step(&mut self) {
        let mut clock = self.profiler.as_ref().map(|_| PhaseClock::start());
        if let Some(sink) = &mut self.telemetry {
            sink.push(Event::RoundStart {
                round: self.round.value(),
            });
        }
        // Fire scheduled churn/fault events first: the round's deliveries
        // and steps see the post-event topology, delivery model and
        // (possibly scrambled) pending messages.
        while let Some(action) = self.schedule.next_due(self.round) {
            self.apply_scheduled(action);
        }
        PhaseClock::lap(&mut clock, StepPhase::Schedule);
        let n = self.processes.len();
        // Swap in last pulse's deliveries for consumption; the store
        // consumed two pulses ago is emptied, keeping its capacity.
        std::mem::swap(&mut self.inboxes, &mut self.consumed);
        self.inboxes.clear();
        PhaseClock::lap(&mut clock, StepPhase::SwapClear);

        // The round's active set, ascending and deduplicated — the serial
        // step order.
        self.active.clear();
        if self.persistent.len() == n {
            // Everyone is always-active (the default): skip the sort/dedup
            // and step all processes, exactly the dense step loop.
            self.active.extend(0..n);
            self.woken.clear();
        } else {
            self.active.extend_from_slice(&self.persistent);
            self.active.extend(self.consumed.touched().iter().copied());
            self.active.append(&mut self.woken);
            self.active.sort_unstable();
            self.active.dedup();
        }

        let shards = self.exec.shard_count(n);
        if self.shard_scratch.len() < shards {
            self.shard_scratch
                .resize_with(shards, ShardScratch::default);
        }

        PhaseClock::lap(&mut clock, StepPhase::ActiveSet);

        // Compute phase: disjoint &mut process sets against shared
        // immutable round state.
        let consumed = &self.consumed;
        let env = RoundEnv {
            topology: &self.topology,
            seed: self.seed,
            round: self.round,
            delivery: self.delivery,
            events_on: self.telemetry.is_some(),
        };
        if shards == 1 {
            let scratch = &mut self.shard_scratch[0];
            for &i in &self.active {
                step_one(
                    self.processes.get_mut(i).expect("active ids are in range"),
                    ProcessId(i),
                    scratch,
                    consumed,
                    &env,
                );
            }
        } else {
            // Bin-pack the active set into degree-balanced id sets and
            // submit them as one indexed batch to the persistent pool
            // (adopting the process-wide pool if none was attached). The
            // merge below replays ascending sender order whatever the
            // plan, so results are byte-identical at any pool size.
            //
            // The plan is a pure function of (degrees, shard count,
            // active ids); when caching is on and all three are unchanged
            // since the plan was built — degrees fingerprinted by the
            // topology's mutation generation, the active set confirmed by
            // an exact slice compare after the hash — the previous plan is
            // reused. Dense-activity rounds (everyone active, no churn)
            // therefore pay the bin-pack once, not every round.
            let key = PlanKey::new(env.topology.generation(), shards, &self.active);
            let hit =
                self.plan_cache && self.plan_key == Some(key) && self.plan_active == self.active;
            if !hit {
                plan_shards(
                    &self.active,
                    env.topology,
                    shards,
                    &mut self.shard_plan,
                    &mut self.plan_weights,
                    &mut self.plan_loads,
                );
                self.plan_active.clear();
                self.plan_active.extend_from_slice(&self.active);
                self.plan_key = Some(key);
            }
            // Planning is active-set work, not compute.
            PhaseClock::lap(&mut clock, StepPhase::ActiveSet);
            let shared = self.processes.shared();
            let runtime = &*self.runtime.get_or_insert_with(Runtime::global);
            let tasks: Vec<BatchTask<'_>> = self
                .shard_plan
                .iter()
                .zip(self.shard_scratch.iter_mut())
                .filter(|(ids, _)| !ids.is_empty())
                .map(|(ids, scratch)| {
                    let (shared, env) = (&shared, &env);
                    Box::new(move || {
                        for &i in ids {
                            // SAFETY: the bins partition the active set
                            // (each id lands in exactly one), all ids are
                            // in range, and `run_batch` returns only after
                            // every task completes — so no two tasks alias
                            // a process and no reference outlives the
                            // batch.
                            let process = unsafe { &mut *shared.get_ptr(i) };
                            step_one(process, ProcessId(i), scratch, consumed, env);
                        }
                    }) as BatchTask<'_>
                })
                .collect();
            runtime.run_batch(tasks);
        }

        PhaseClock::lap(&mut clock, StepPhase::ComputeRoute);

        // Re-query the quiescence opt-out for exactly the processes that
        // stepped — the only ones whose answer can have changed (scrambled
        // or replaced processes are woken, so they step before requery).
        // `persistent ⊆ active`, so unstepped processes were already out.
        self.persistent.clear();
        for &i in &self.active {
            if self.processes.get(i).is_some_and(|p| p.always_active()) {
                self.persistent.push(i);
            }
        }

        // Merge phase: k-way walk of the shards' per-sender segment tables
        // in ascending sender order — the serial order. Counters (and
        // buffered telemetry events) are consumed in the same fixed order,
        // which is what keeps the event stream byte-identical at any shard
        // count.
        PhaseClock::lap(&mut clock, StepPhase::Requery);
        let mut delivered_this_round = 0u64;
        for scratch in &mut self.shard_scratch[..shards] {
            let routed = scratch.routed.len() as u64;
            delivered_this_round += routed;
            self.trace
                .record_routed(routed, std::mem::take(&mut scratch.bytes_routed));
            self.trace.messages_dropped_no_link += std::mem::take(&mut scratch.dropped_no_link);
            self.trace.messages_dropped_lossy += std::mem::take(&mut scratch.dropped_lossy);
            // Pass one of the inbox fill: every destination's count, so the
            // walk below can place each message where it stays.
            for (to, _) in &scratch.routed {
                self.trace.record_delivered_to(*to);
                self.inboxes.count(to.index());
            }
        }
        self.inboxes.layout();
        {
            struct Cursor<'a> {
                segs: std::slice::Iter<'a, (ProcessId, usize, usize)>,
                next: Option<(ProcessId, usize, usize)>,
                routed: std::vec::Drain<'a, (ProcessId, Message)>,
                events: std::vec::Drain<'a, Event>,
                routed_taken: usize,
                events_taken: usize,
            }
            let mut cursors: Vec<Cursor<'_>> = self.shard_scratch[..shards]
                .iter_mut()
                .map(|scratch| {
                    let ShardScratch {
                        segs,
                        routed,
                        events,
                        ..
                    } = scratch;
                    let mut segs = segs.iter();
                    let next = segs.next().copied();
                    Cursor {
                        segs,
                        next,
                        routed: routed.drain(..),
                        events: events.drain(..),
                        routed_taken: 0,
                        events_taken: 0,
                    }
                })
                .collect();
            loop {
                // Pick the shard holding the smallest unmerged sender (the
                // linear scan is over ≤ shard-count cursors, not senders).
                let mut best: Option<(ProcessId, usize)> = None;
                for (si, cursor) in cursors.iter().enumerate() {
                    if let Some((sender, _, _)) = cursor.next {
                        if best.is_none_or(|(s, _)| sender.index() < s.index()) {
                            best = Some((sender, si));
                        }
                    }
                }
                let Some((_, si)) = best else { break };
                let cursor = &mut cursors[si];
                let (_, routed_end, events_end) = cursor.next.take().unwrap();
                cursor.next = cursor.segs.next().copied();
                if events_end > cursor.events_taken {
                    for event in cursor
                        .events
                        .by_ref()
                        .take(events_end - cursor.events_taken)
                    {
                        if let Some(sink) = &mut self.telemetry {
                            sink.push(event);
                        }
                    }
                    cursor.events_taken = events_end;
                }
                for (to, message) in cursor
                    .routed
                    .by_ref()
                    .take(routed_end - cursor.routed_taken)
                {
                    self.inboxes.place(to.index(), message);
                }
                cursor.routed_taken = routed_end;
            }
        }
        for scratch in &mut self.shard_scratch[..shards] {
            scratch.segs.clear();
        }
        if let Some(sink) = &mut self.telemetry {
            sink.push(Event::RoundEnd {
                round: self.round.value(),
                delivered: delivered_this_round,
            });
        }

        self.trace.record_round(self.round);
        self.round = self.round.next();
        PhaseClock::lap(&mut clock, StepPhase::Merge);
        if let (Some(profiler), Some(clock)) = (&self.profiler, clock) {
            profiler.record_step(clock.start.elapsed(), &clock.phases);
        }
    }

    /// Runs `rounds` pulses.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs until `predicate(self)` holds or `max_rounds` elapse; returns
    /// the number of rounds executed, or `None` on timeout.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        mut predicate: impl FnMut(&Simulation) -> bool,
    ) -> Option<u64> {
        for executed in 0..max_rounds {
            if predicate(self) {
                return Some(executed);
            }
            self.step();
        }
        if predicate(self) {
            Some(max_rounds)
        } else {
            None
        }
    }

    /// Immutable access to process `id` as its concrete type.
    pub fn process_as<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        self.processes
            .get(id.index())
            .and_then(|p| p.as_any().downcast_ref())
    }

    /// Mutable access to process `id` as its concrete type.
    pub fn process_as_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        self.processes
            .get_mut(id.index())
            .and_then(|p| p.as_any_mut().downcast_mut())
    }

    /// Replaces the program of processor `id` (e.g. corrupting an honest
    /// processor into a Byzantine one mid-run). On a slab-built simulation
    /// this promotes the whole table to boxed storage first (a one-time
    /// O(n) move), since the table is no longer homogeneous.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] for out-of-range ids.
    pub fn replace_process(
        &mut self,
        id: ProcessId,
        process: Box<dyn Process>,
    ) -> Result<(), SimError> {
        if id.index() >= self.processes.len() {
            return Err(SimError::UnknownProcess(id));
        }
        self.processes.make_boxed()[id.index()] = process;
        // The new program runs (and its quiescence opt-out is re-queried)
        // at the next pulse.
        self.woken.push(id.index());
        Ok(())
    }

    /// Replaces the round-triggered event schedule. Entries scheduled for
    /// rounds that already passed fire at the start of the next pulse.
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = schedule;
    }

    /// Applies one scheduled action immediately.
    fn apply_scheduled(&mut self, action: ScheduledAction) {
        if let Some(sink) = &mut self.telemetry {
            sink.push(Event::ScheduleFired {
                round: self.round.value(),
                action: action.kind(),
            });
        }
        match action {
            ScheduledAction::Disconnect(id) => self.topology.isolate(id),
            ScheduledAction::Reconnect(id, peers) => {
                for peer in peers {
                    // Already-present, reflexive or out-of-range links are
                    // documented as skipped.
                    let _ = self.topology.link(id, peer);
                }
            }
            // Absent/invalid edges are documented as skipped, mirroring
            // Reconnect — partition schedules may race earlier churn.
            ScheduledAction::CutLink { a, b } => {
                let _ = self.topology.cut_link(a, b);
            }
            ScheduledAction::HealLink { a, b } => {
                let _ = self.topology.heal_link(a, b);
            }
            ScheduledAction::Inject(fault) => self.inject(&fault),
            // Recurrence is the schedule's concern: by the time the entry
            // pops out of `next_due` the re-fire (if any) is already armed.
            ScheduledAction::Corrupt(family, _) => self.corrupt(&family),
            ScheduledAction::SetDelivery(delivery) => self.delivery = delivery,
        }
    }

    /// Applies a transient fault (see [`fault`](crate::fault)).
    pub fn inject(&mut self, fault: &TransientFault) {
        let dropped = fault.apply(
            self.seed,
            self.round,
            &mut self.processes,
            &mut self.inboxes,
            self.telemetry.as_mut(),
        );
        self.trace.messages_dropped_fault += dropped;
        // Scrambled states must be re-examined at the next pulse even if
        // their inboxes stay empty (touched inboxes wake themselves).
        let n = self.processes.len();
        self.woken.extend(
            fault
                .scramble
                .iter()
                .map(|id| id.index())
                .filter(|&i| i < n),
        );
    }

    /// Applies a [`CorruptionFamily`]: scrambles the strategy-selected
    /// process states and degrades pending in-flight messages, with every
    /// draw keyed by `(seed, id, round)` coordinates (see
    /// [`fault`](crate::fault)). Dropped messages are accounted to
    /// [`Trace::messages_dropped_fault`]. Usually reached through
    /// [`ScheduledAction::Corrupt`], which fires at the start of its round
    /// so the round's deliveries already reflect the corrupted channels.
    pub fn corrupt(&mut self, family: &CorruptionFamily) {
        let dropped = family.apply(
            self.seed,
            self.round,
            &self.topology,
            &mut self.processes,
            &mut self.inboxes,
            self.telemetry.as_mut(),
        );
        // resolve_targets is a pure function of (seed ^ salt, round), so
        // re-resolving after `apply` replays the same selection; the
        // scrambled victims must be re-examined at the next pulse even if
        // their inboxes stay empty.
        let targets = family.resolve_targets(&self.topology, self.seed, self.round);
        self.woken.extend(targets.iter().map(|id| id.index()));
        if let Some(sink) = &mut self.telemetry {
            sink.push(Event::CorruptionApplied {
                round: self.round.value(),
                targets: targets.len(),
                dropped,
            });
        }
        self.trace.messages_dropped_fault += dropped;
    }

    /// Punitive disconnection: removes every link of `id` (the executive
    /// service's strongest punishment, per §3.4 "disconnect Byzantine agents
    /// from the network").
    ///
    /// Mutates the adjacency structure in place — see
    /// [`Topology::isolate`] — instead of rebuilding the whole topology.
    pub fn disconnect(&mut self, id: ProcessId) {
        self.topology.isolate(id);
    }
}

/// Assigns the round's active ids to `shards` bins by a deterministic
/// greedy bin-pack over `degree + 1` weights: heaviest first (ties toward
/// the lower id), each to the currently least-loaded bin (ties toward the
/// lower bin index), so a star hub can't serialize one shard. Bins come
/// out sorted ascending. The plan only decides which thread steps whom —
/// merge order and every RNG draw are id-keyed, so any plan produces the
/// same trace.
fn plan_shards(
    active: &[usize],
    topology: &Topology,
    shards: usize,
    plan: &mut Vec<Vec<usize>>,
    weights: &mut Vec<(usize, usize)>,
    loads: &mut Vec<usize>,
) {
    if plan.len() != shards {
        plan.resize_with(shards, Vec::new);
    }
    for bin in plan.iter_mut() {
        bin.clear();
    }
    weights.clear();
    weights.extend(
        active
            .iter()
            .map(|&i| (topology.neighbors(ProcessId(i)).len() + 1, i)),
    );
    weights.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    loads.clear();
    loads.resize(shards, 0);
    for &(weight, i) in weights.iter() {
        let mut bin = 0;
        for s in 1..shards {
            if loads[s] < loads[bin] {
                bin = s;
            }
        }
        plan[bin].push(i);
        loads[bin] += weight;
    }
    for bin in plan.iter_mut() {
        bin.sort_unstable();
    }
}

/// Steps one process against the immutable prior-round inboxes — its
/// sends are routed into the owning shard's `routed` buffer as they are
/// made (see [`ShardScratch::route`]) — and closes the shard's per-sender
/// segment-table entry.
///
/// Shard-plan independence: every draw a sender makes — its process RNG
/// and its loss stream — is derived from `(seed, id, round)` alone, so the
/// routed output for a sender is the same whichever shard (or thread)
/// executes it. With the event plane on, per-message telemetry events are
/// pushed into the shard's buffer in the same per-sender order, inheriting
/// the same independence.
fn step_one(
    process: &mut dyn Process,
    id: ProcessId,
    scratch: &mut ShardScratch,
    consumed: &Inboxes,
    env: &RoundEnv<'_>,
) {
    process.on_pulse(&mut Context::new(
        env,
        scratch,
        id,
        consumed.slot(id.index()),
    ));
    scratch
        .segs
        .push((id, scratch.routed.len(), scratch.events.len()));
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Recurrence;

    /// Counts received messages; broadcasts one message per round.
    struct Counter {
        received: usize,
    }

    impl Process for Counter {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            self.received += ctx.inbox().len();
            ctx.broadcast(vec![1]);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn counters(topology: Topology, seed: u64) -> Simulation {
        Simulation::builder(topology)
            .seed(seed)
            .build_with(|_| Box::new(Counter { received: 0 }))
    }

    #[test]
    fn messages_delivered_next_round() {
        let mut sim = counters(Topology::complete(3), 0);
        sim.step();
        assert_eq!(sim.process_as::<Counter>(ProcessId(0)).unwrap().received, 0);
        sim.step();
        assert_eq!(sim.process_as::<Counter>(ProcessId(0)).unwrap().received, 2);
    }

    #[test]
    fn ring_delivers_only_to_neighbors() {
        let mut sim = counters(Topology::ring(5), 0);
        sim.run(2);
        for i in 0..5 {
            assert_eq!(
                sim.process_as::<Counter>(ProcessId(i)).unwrap().received,
                2,
                "ring degree is 2"
            );
        }
    }

    #[test]
    fn trace_counts_messages() {
        let mut sim = counters(Topology::complete(4), 0);
        sim.run(3);
        // Each step routes the 4*3 broadcasts sent during that step (they
        // are *read* by recipients at the following pulse).
        assert_eq!(sim.trace().rounds, 3);
        assert_eq!(sim.trace().messages_delivered, 36);
    }

    #[test]
    fn run_until_stops_on_predicate() {
        let mut sim = counters(Topology::complete(3), 0);
        let rounds = sim
            .run_until(100, |s| {
                s.process_as::<Counter>(ProcessId(0))
                    .map(|c| c.received >= 4)
                    == Some(true)
            })
            .unwrap();
        assert!((3..=4).contains(&rounds), "rounds={rounds}");
    }

    #[test]
    fn run_until_times_out() {
        let mut sim = counters(Topology::complete(3), 0);
        assert_eq!(sim.run_until(5, |_| false), None);
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let mut a = counters(Topology::complete(5), 42);
        let mut b = counters(Topology::complete(5), 42);
        a.run(10);
        b.run(10);
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn step_exec_canonicalizes_and_clamps() {
        assert_eq!(StepExec::from_shards(0), StepExec::Serial);
        assert_eq!(StepExec::from_shards(1), StepExec::Serial);
        assert_eq!(StepExec::from_shards(3), StepExec::Sharded { shards: 3 });
        assert_eq!(StepExec::Serial.shard_count(8), 1);
        assert_eq!(StepExec::Sharded { shards: 3 }.shard_count(8), 3);
        assert_eq!(
            StepExec::Sharded { shards: 64 }.shard_count(8),
            8,
            "never more shards than processes"
        );
    }

    #[test]
    fn sharded_step_matches_serial_trace() {
        for shards in [2, 3, 8, 64] {
            let mut serial = counters(Topology::complete(9), 42);
            let mut sharded = Simulation::builder(Topology::complete(9))
                .seed(42)
                .shards(shards)
                .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
            serial.run(10);
            sharded.run(10);
            assert_eq!(serial.trace(), sharded.trace(), "shards={shards}");
        }
    }

    #[test]
    fn resharding_mid_run_preserves_the_trace() {
        let mut reference = counters(Topology::complete(6), 7);
        reference.run(9);

        let mut resharded = counters(Topology::complete(6), 7);
        resharded.run(3);
        resharded.set_shards(4);
        assert_eq!(resharded.exec(), StepExec::Sharded { shards: 4 });
        resharded.run(3);
        resharded.set_shards(1);
        assert_eq!(resharded.exec(), StepExec::Serial);
        resharded.run(3);
        assert_eq!(reference.trace(), resharded.trace());
    }

    #[test]
    fn lossy_delivery_drops_some() {
        let mut sim = Simulation::builder(Topology::complete(4))
            .seed(3)
            .delivery(Delivery::Lossy { p: 0.5 })
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
        sim.run(20);
        assert!(sim.trace().messages_dropped_lossy > 0);
        assert!(sim.trace().messages_delivered > 0);
    }

    #[test]
    fn disconnect_cuts_all_links() {
        let mut sim = counters(Topology::complete(4), 0);
        sim.disconnect(ProcessId(2));
        sim.run(3);
        assert_eq!(sim.process_as::<Counter>(ProcessId(2)).unwrap().received, 0);
        // Others still talk among the remaining 3.
        assert!(sim.process_as::<Counter>(ProcessId(0)).unwrap().received > 0);
    }

    /// Sends to a fixed non-neighbor target to exercise the link check.
    struct Stubborn;

    impl Process for Stubborn {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            ctx.send(ProcessId(2), vec![1]);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn sends_without_link_are_dropped_and_counted() {
        // Path 0-1, 1-2: p0 keeps sending to p2 without a direct link.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut sim = Simulation::builder(topo).build_with(|id| {
            if id == ProcessId(0) {
                Box::new(Stubborn) as Box<dyn Process>
            } else {
                Box::new(Counter { received: 0 })
            }
        });
        sim.run(4);
        assert_eq!(sim.trace().messages_dropped_no_link, 4);
        // p2 only hears from p1.
        assert_eq!(sim.process_as::<Counter>(ProcessId(2)).unwrap().received, 3);
    }

    #[test]
    fn schedule_disconnects_and_reconnects_on_time() {
        // Hub star: disconnect the hub at round 2, restore it at round 5.
        let schedule = Schedule::new()
            .at(2, ScheduledAction::Disconnect(ProcessId(0)))
            .at(
                5,
                ScheduledAction::Reconnect(ProcessId(0), (1..4).map(ProcessId).collect()),
            );
        let mut sim = Simulation::builder(Topology::star(4))
            .schedule(schedule)
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);

        // Rounds 0-1: leaf 1 hears the hub's round-0 broadcast at round 1.
        sim.run(2);
        let at_round_2 = sim.process_as::<Counter>(ProcessId(1)).unwrap().received;
        assert_eq!(at_round_2, 1);

        // Rounds 2-4: hub isolated. Its round-1 broadcast was already
        // routed (in flight when the link died) and lands at round 2;
        // nothing else reaches the leaves.
        sim.run(3);
        assert_eq!(
            sim.process_as::<Counter>(ProcessId(1)).unwrap().received,
            at_round_2 + 1,
            "only the in-flight message arrives while the hub is down"
        );

        // Round 5 restores the spokes; round-5 broadcasts land at round 6.
        sim.run(2);
        assert!(
            sim.process_as::<Counter>(ProcessId(1)).unwrap().received > at_round_2 + 1,
            "deliveries resume after reconnection"
        );
    }

    #[test]
    fn scheduled_bisection_partitions_and_heals() {
        // Complete(4) bisected into {0,1} | {2,3} at round 1, healed at
        // round 4: while cut, each process hears only its half-mate.
        let topo = Topology::complete(4);
        let schedule = Schedule::new().bisect(&topo, 1, 4);
        let mut sim = Simulation::builder(Topology::complete(4))
            .schedule(schedule)
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
        // Round 0 (pre-cut): 3 broadcasts each, land at round 1.
        // Rounds 1-3 (cut): 1 broadcast each (the half-mate), landing at
        // rounds 2-4 — the round-1 sends were already filtered post-cut.
        sim.run(4);
        let heard = sim.process_as::<Counter>(ProcessId(0)).unwrap().received;
        assert_eq!(heard, 3 + 1 + 1, "3 pre-cut, then one per cut round");
        // Round 4 heals: its broadcasts land everywhere at round 5.
        sim.run(2);
        let after = sim.process_as::<Counter>(ProcessId(0)).unwrap().received;
        assert_eq!(after, heard + 1 + 3, "full fan-in resumes post-heal");
    }

    #[test]
    fn schedule_switches_delivery_model() {
        let schedule = Schedule::new()
            .at(3, ScheduledAction::SetDelivery(Delivery::Lossy { p: 1.0 }))
            .at(6, ScheduledAction::SetDelivery(Delivery::Reliable));
        let mut sim = Simulation::builder(Topology::complete(3))
            .schedule(schedule)
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
        sim.run(3);
        let delivered_before = sim.trace().messages_delivered;
        assert_eq!(delivered_before, 3 * 2 * 3);
        sim.run(3);
        assert_eq!(
            sim.trace().messages_delivered,
            delivered_before,
            "p=1.0 drops everything"
        );
        assert_eq!(sim.trace().messages_dropped_lossy, 3 * 2 * 3);
        sim.run(1);
        assert!(sim.trace().messages_delivered > delivered_before);
    }

    #[test]
    fn schedule_injects_fault_and_counts_drops() {
        let schedule = Schedule::new().at(
            2,
            ScheduledAction::Inject(TransientFault {
                drop_messages_p: 1.0,
                ..TransientFault::default()
            }),
        );
        let mut sim = Simulation::builder(Topology::complete(3))
            .schedule(schedule)
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
        sim.run(3);
        // The fault fires at the start of round 2 and wipes the 6 messages
        // sent during round 1.
        assert_eq!(sim.trace().messages_dropped_fault, 6);
        assert_eq!(
            sim.process_as::<Counter>(ProcessId(0)).unwrap().received,
            2,
            "only round 0's broadcasts survived"
        );
    }

    #[test]
    fn scheduled_corruption_counts_drops_and_is_shard_invariant() {
        use crate::fault::CorruptionTargets;
        let family = CorruptionFamily {
            targets: CorruptionTargets::RandomK(2),
            corrupt_messages_p: 0.5,
            drop_messages_p: 1.0,
            salt: 3,
        };
        let build = |shards: usize| {
            Simulation::builder(Topology::complete(6))
                .seed(11)
                .shards(shards)
                .schedule(Schedule::new().at(
                    2,
                    ScheduledAction::Corrupt(family.clone(), Recurrence::Once),
                ))
                .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>)
        };
        let mut serial = build(1);
        serial.run(5);
        // The corruption fires at the start of round 2 and drops all 30
        // messages sent during round 1.
        assert_eq!(serial.trace().messages_dropped_fault, 30);

        for shards in [2, 3, 6] {
            let mut sharded = build(shards);
            sharded.run(5);
            assert_eq!(serial.trace(), sharded.trace(), "shards={shards}");
        }
    }

    #[test]
    fn recurring_corruption_refires_and_stays_shard_invariant() {
        use crate::fault::CorruptionTargets;
        use crate::telemetry::TelemetryConfig;
        let family = CorruptionFamily {
            targets: CorruptionTargets::RandomK(2),
            corrupt_messages_p: 0.0,
            drop_messages_p: 1.0,
            salt: 3,
        };
        let build = |shards: usize| {
            Simulation::builder(Topology::complete(6))
                .seed(11)
                .shards(shards)
                .telemetry(TelemetryConfig::default())
                .schedule(Schedule::new().at(
                    2,
                    ScheduledAction::Corrupt(
                        family.clone(),
                        Recurrence::Every {
                            period: 3,
                            until: 8,
                        },
                    ),
                ))
                .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>)
        };
        let mut serial = build(1);
        serial.run(10);
        // Bursts at rounds 2, 5 and 8 each wipe the 30 messages sent the
        // round before.
        assert_eq!(serial.trace().messages_dropped_fault, 90);
        let reference = serial.take_events();
        let corruption_rounds: Vec<u64> = reference
            .iter()
            .filter(|e| e.kind() == "corruption_applied")
            .map(|e| e.round())
            .collect();
        assert_eq!(corruption_rounds, vec![2, 5, 8]);

        for shards in [2, 3, 6] {
            let mut sharded = build(shards);
            sharded.run(10);
            assert_eq!(serial.trace(), sharded.trace(), "shards={shards}");
            assert_eq!(reference, sharded.take_events(), "shards={shards}");
        }
    }

    #[test]
    fn event_stream_is_identical_at_any_shard_count() {
        use crate::fault::CorruptionTargets;
        use crate::telemetry::TelemetryConfig;
        // Corruption, churn and loss all firing mid-window, with the event
        // plane on: the retained stream must be byte-identical serial vs
        // sharded (merge drains shard event buffers in ascending id order).
        let family = CorruptionFamily {
            targets: CorruptionTargets::RandomK(2),
            corrupt_messages_p: 0.5,
            drop_messages_p: 0.7,
            salt: 3,
        };
        let build = |shards: usize| {
            Simulation::builder(Topology::complete(6))
                .seed(11)
                .shards(shards)
                .delivery(Delivery::Lossy { p: 0.2 })
                .telemetry(TelemetryConfig::default())
                .schedule(
                    Schedule::new()
                        .at(
                            2,
                            ScheduledAction::Corrupt(family.clone(), Recurrence::Once),
                        )
                        .at(3, ScheduledAction::Disconnect(ProcessId(4))),
                )
                .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>)
        };
        let mut serial = build(1);
        serial.run(6);
        let reference = serial.take_events();
        assert!(
            reference.iter().any(|e| e.kind() == "corruption_applied"),
            "corruption fired inside the window"
        );
        assert!(reference.iter().any(|e| e.kind() == "scrambled"));
        assert!(reference.iter().any(|e| e.kind() == "schedule_fired"));
        assert!(reference.iter().any(|e| matches!(
            e,
            Event::Dropped {
                reason: DropReason::Fault,
                ..
            }
        )));
        assert!(reference.iter().any(|e| matches!(
            e,
            Event::Dropped {
                reason: DropReason::Lossy,
                ..
            }
        )));

        for shards in [2, 3, 6] {
            let mut sharded = build(shards);
            sharded.run(6);
            assert_eq!(reference, sharded.take_events(), "shards={shards}");
        }
    }

    #[test]
    fn events_disabled_records_nothing() {
        let mut sim = counters(Topology::complete(3), 0);
        sim.run(3);
        assert!(!sim.events_enabled());
        assert!(sim.take_events().is_empty());
    }

    /// Broadcasts a fixed payload; with `draws`, also pulls from the pulse
    /// RNG and throws the value away.
    struct Drawer {
        draws: bool,
    }

    impl Process for Drawer {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            if self.draws {
                ctx.rng().gen::<u64>();
            }
            ctx.broadcast(vec![ctx.id().index() as u8]);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn process_rng_laziness_is_unobservable() {
        use crate::telemetry::TelemetryConfig;
        // Whether the pulse RNG is ever derived touches nothing else: not
        // the loss stream (its own domain), not the trace, not an event.
        let run = |draws: bool| {
            let mut sim = Simulation::builder(Topology::ring(9))
                .seed(21)
                .delivery(Delivery::Lossy { p: 0.3 })
                .telemetry(TelemetryConfig::default())
                .build_slab(|_| Drawer { draws });
            sim.run(12);
            (sim.trace().clone(), sim.take_events())
        };
        let (trace, events) = run(false);
        assert!(trace.messages_dropped_lossy > 0 && trace.messages_delivered > 0);
        assert_eq!((trace, events), run(true));
    }

    #[test]
    fn profiled_phases_sum_to_the_step() {
        use crate::telemetry::{Profiler, StepPhase};
        let profiler = Profiler::new();
        let mut sim = Simulation::builder(Topology::ring(4096))
            .profiler(profiler.clone())
            .build_slab(|_| Counter { received: 0 });
        sim.run(200);
        let data = profiler.snapshot();
        assert_eq!(data.steps, 200);
        let phases: u64 = data.phase_ns.iter().sum();
        assert!(
            phases <= data.step_ns && phases as f64 >= 0.95 * data.step_ns as f64,
            "phases {phases} ns of step {} ns",
            data.step_ns
        );
        for phase in [
            StepPhase::SwapClear,
            StepPhase::ComputeRoute,
            StepPhase::Merge,
        ] {
            assert!(data.phase(phase) > 0, "{phase:?} was timed");
        }
    }

    #[test]
    fn pending_and_quiescence_track_inbox_state() {
        let mut sim = counters(Topology::complete(4), 0);
        assert_eq!(sim.pending_messages(), 0);
        assert_eq!(sim.quiescent_processes(), 4, "nothing in flight yet");
        sim.step();
        assert_eq!(sim.pending_messages(), 12, "4 broadcasts to 3 peers");
        assert_eq!(sim.quiescent_processes(), 0);
    }

    #[test]
    fn scheduled_run_matches_manual_interventions() {
        // The schedule path and the manual API must produce identical
        // traces.
        let schedule = Schedule::new()
            .at(1, ScheduledAction::Disconnect(ProcessId(2)))
            .at(4, ScheduledAction::SetDelivery(Delivery::Lossy { p: 0.4 }));
        let mut scheduled = Simulation::builder(Topology::complete(4))
            .seed(9)
            .schedule(schedule)
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
        scheduled.run(8);

        let mut manual = counters(Topology::complete(4), 9);
        manual.step();
        manual.disconnect(ProcessId(2));
        manual.run(3);
        // No public delivery setter: set_schedule mid-run covers it.
        manual.set_schedule(
            Schedule::new().at(4, ScheduledAction::SetDelivery(Delivery::Lossy { p: 0.4 })),
        );
        manual.run(4);
        assert_eq!(scheduled.trace(), manual.trace());
    }

    #[test]
    fn slab_build_matches_boxed_build() {
        use crate::telemetry::TelemetryConfig;
        // A slab-stored population must be indistinguishable from a boxed
        // one: identical traces and event streams, serial and sharded.
        for shards in [1, 4] {
            let build_boxed = || {
                Simulation::builder(Topology::complete(6))
                    .seed(5)
                    .shards(shards)
                    .telemetry(TelemetryConfig::default())
                    .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>)
            };
            let build_slab = || {
                Simulation::builder(Topology::complete(6))
                    .seed(5)
                    .shards(shards)
                    .telemetry(TelemetryConfig::default())
                    .build_slab(|_| Counter { received: 0 })
            };
            let mut boxed = build_boxed();
            let mut slab = build_slab();
            boxed.run(6);
            slab.run(6);
            assert_eq!(boxed.trace(), slab.trace(), "shards={shards}");
            assert_eq!(boxed.take_events(), slab.take_events(), "shards={shards}");
            assert_eq!(
                slab.process_as::<Counter>(ProcessId(0)).unwrap().received,
                boxed.process_as::<Counter>(ProcessId(0)).unwrap().received,
            );
        }
    }

    #[test]
    fn plan_cache_never_changes_the_trace() {
        use crate::telemetry::TelemetryConfig;
        // Dense activity with churn firing mid-window: the cut/heal bumps
        // the topology generation, so a stale plan would misassign (or
        // worse, mis-weight) ids if invalidation were broken. Cached and
        // uncached runs must agree byte-for-byte at every shard count.
        let build = |shards: usize, cache: bool| {
            Simulation::builder(Topology::complete(8))
                .seed(13)
                .shards(shards)
                .plan_cache(cache)
                .telemetry(TelemetryConfig::default())
                .schedule(
                    Schedule::new()
                        .at(
                            3,
                            ScheduledAction::CutLink {
                                a: ProcessId(1),
                                b: ProcessId(2),
                            },
                        )
                        .at(
                            5,
                            ScheduledAction::HealLink {
                                a: ProcessId(1),
                                b: ProcessId(2),
                            },
                        )
                        .at(6, ScheduledAction::Disconnect(ProcessId(7))),
                )
                .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>)
        };
        let mut reference = build(1, false);
        reference.run(9);
        let reference_events = reference.take_events();
        for shards in [2, 4, 8] {
            for cache in [false, true] {
                let mut sim = build(shards, cache);
                sim.run(9);
                assert_eq!(
                    reference.trace(),
                    sim.trace(),
                    "shards={shards} cache={cache}"
                );
                assert_eq!(
                    reference_events,
                    sim.take_events(),
                    "shards={shards} cache={cache}"
                );
            }
        }
    }

    #[test]
    fn plan_cache_reuses_and_invalidates() {
        // White-box: dense activity on a static topology converges to one
        // plan; churn invalidates it.
        let mut sim = Simulation::builder(Topology::complete(6))
            .seed(3)
            .shards(3)
            .plan_cache(true)
            .build_with(|_| Box::new(Counter { received: 0 }) as Box<dyn Process>);
        sim.run(2);
        let key = sim.plan_key.expect("sharded rounds fingerprint the plan");
        sim.run(3);
        assert_eq!(
            sim.plan_key,
            Some(key),
            "static dense rounds reuse the plan"
        );
        sim.disconnect(ProcessId(4));
        sim.run(1);
        let after = sim.plan_key.expect("replanned after churn");
        assert_ne!(key, after, "isolation bumps the generation");
    }

    #[test]
    fn plan_key_distinguishes_distinct_active_sets() {
        // Same length, same endpoints, different interiors: the rolling
        // hash (plus the exact compare in step()) must not treat these as
        // one plan.
        let a = PlanKey::new(0, 4, &[0, 2, 5, 9]);
        let b = PlanKey::new(0, 4, &[0, 3, 5, 9]);
        assert_ne!(a, b);
        assert_ne!(
            PlanKey::new(0, 4, &[0, 2, 5, 9]),
            PlanKey::new(1, 4, &[0, 2, 5, 9])
        );
        assert_ne!(
            PlanKey::new(0, 4, &[0, 2, 5, 9]),
            PlanKey::new(0, 2, &[0, 2, 5, 9])
        );
        assert_eq!(a, PlanKey::new(0, 4, &[0, 2, 5, 9]));
    }

    #[test]
    fn replace_process_promotes_a_slab() {
        // Swapping one program into a slab-built population promotes the
        // store to boxed form without disturbing anyone's state.
        let mut sim = Simulation::builder(Topology::complete(3))
            .seed(0)
            .build_slab(|_| Counter { received: 0 });
        sim.run(2);
        let heard = sim.process_as::<Counter>(ProcessId(0)).unwrap().received;
        assert_eq!(heard, 2);
        sim.replace_process(
            ProcessId(1),
            Box::new(crate::adversary::ByzantineProcess::new(Box::new(
                crate::adversary::Silent,
            ))),
        )
        .unwrap();
        sim.run(2);
        // p0 keeps its pre-promotion count and now only hears from p2.
        assert_eq!(
            sim.process_as::<Counter>(ProcessId(0)).unwrap().received,
            heard + 2 + 1,
            "one round of both peers still in flight, then p2 alone"
        );
    }

    #[test]
    fn replace_process_swaps_program() {
        let mut sim = counters(Topology::complete(3), 0);
        sim.replace_process(
            ProcessId(1),
            Box::new(crate::adversary::ByzantineProcess::new(Box::new(
                crate::adversary::Silent,
            ))),
        )
        .unwrap();
        sim.run(3);
        // p0 now only hears from p2.
        assert_eq!(sim.process_as::<Counter>(ProcessId(0)).unwrap().received, 2);
        assert!(sim
            .replace_process(ProcessId(9), Box::new(Counter { received: 0 }))
            .is_err());
    }
}
