//! Two-plane observability: a deterministic event stream and a wall-clock
//! profiling side-channel.
//!
//! The repo's standing invariant is that every run artifact compared by the
//! determinism gates — traces, run records, summary JSON — is **byte-identical
//! at any workers × shards × pool size**. Telemetry must not erode that, so
//! this module keeps two strictly separated planes:
//!
//! * **Deterministic event plane** ([`Event`], [`EventSink`]). Structured
//!   events recorded at stable `(round, process-id)` coordinates: round
//!   start/end, message delivered / dropped-with-reason, schedule actions
//!   firing, corruption families applying, processes being scrambled, and
//!   legality flips from the stabilization probe. Events generated inside the
//!   sharded compute phase are buffered per shard and drained by the merge
//!   phase in ascending process-id order — the same rule the message merge
//!   follows — so the event stream itself is byte-identical at any shard
//!   count, worker count, or pool size. Event-plane data **may** enter
//!   deterministic outputs (the `--events` JSONL, byte-identity `cmp` gates).
//!
//! * **Timing plane** ([`Profiler`], [`ProfileData`]). Wall-clock
//!   measurements — per-round step latency (with a log₂ histogram), its
//!   split over the step's phases ([`StepPhase`]), batch wall time,
//!   per-task queue wait and busy time from the
//!   [`Runtime`](crate::runtime::Runtime) pool. Wall-clock readings differ
//!   run to run by nature, so timing-plane data **must never** be folded
//!   into [`Trace`](crate::trace::Trace) counters, run records, or summary
//!   JSON. It is surfaced only through explicitly non-deterministic channels
//!   (the `scenario run --profile` report), which the determinism gates never
//!   compare.
//!
//! The two-plane rule in one line: *if it came from a clock, it stays out of
//! anything `cmp`'d; if it is compared, it must derive from
//! `(seed, id, round)` alone.*
//!
//! Both planes are opt-in and cost one branch when disabled: a simulation
//! without an attached sink never formats or buffers an event, and a runtime
//! without an attached profiler never reads the clock.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::ids::ProcessId;

/// Default [`EventSink`] ring capacity: enough to hold the full event volume
/// of small-n runs while bounding large sweeps to a deterministic suffix.
const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Why a message never reached its destination inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The destination was out of range or not a topology neighbor.
    NoLink,
    /// The lossy delivery model dropped it.
    Lossy,
    /// A transient fault or corruption family destroyed it in flight.
    Fault,
}

impl DropReason {
    /// Stable lowercase label used in rendered event streams.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::NoLink => "no_link",
            DropReason::Lossy => "lossy",
            DropReason::Fault => "fault",
        }
    }
}

/// One deterministic observable event, anchored at stable
/// `(round, process-id)` coordinates.
///
/// `round` is the round in which the event occurred: for
/// [`Delivered`](Event::Delivered) and [`Dropped`](Event::Dropped) that is
/// the *sending* round (delivery to the recipient's step happens at the next
/// pulse, per the synchronous model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A pulse began (before scheduled actions fire).
    RoundStart {
        /// The round about to execute.
        round: u64,
    },
    /// A pulse finished; `delivered` counts the messages routed this round.
    RoundEnd {
        /// The round that just executed.
        round: u64,
        /// Messages that survived link/loss filtering this round.
        delivered: u64,
    },
    /// A message was routed into `to`'s next-round inbox.
    Delivered {
        /// Sending round.
        round: u64,
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// Payload length in bytes.
        bytes: usize,
    },
    /// A message was destroyed, with the reason.
    Dropped {
        /// Round of the drop (sending round for link/loss drops; the round
        /// whose start fired the fault for [`DropReason::Fault`]).
        round: u64,
        /// Original sender.
        from: ProcessId,
        /// Intended recipient.
        to: ProcessId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A [`ScheduledAction`](crate::schedule::ScheduledAction) fired at the
    /// start of the round.
    ScheduleFired {
        /// Firing round.
        round: u64,
        /// The action's stable kind label
        /// ([`ScheduledAction::kind`](crate::schedule::ScheduledAction::kind)).
        action: &'static str,
    },
    /// A [`CorruptionFamily`](crate::fault::CorruptionFamily) was applied.
    /// A recurring entry ([`Recurrence::Every`](crate::schedule::Recurrence))
    /// emits one of these per burst, so in `scenario trace` the episodes of a
    /// multi-burst run read as [`Event::LegalityFlip`] runs between
    /// `corruption_applied` marks.
    CorruptionApplied {
        /// Firing round.
        round: u64,
        /// Number of strategy-selected victim processes.
        targets: usize,
        /// In-flight messages the family destroyed.
        dropped: u64,
    },
    /// A process state was scrambled (transient fault or corruption family).
    Scrambled {
        /// Firing round.
        round: u64,
        /// The scrambled process.
        id: ProcessId,
    },
    /// The stabilization probe's legality predicate changed value after the
    /// round executed.
    LegalityFlip {
        /// The round after which legality was evaluated.
        round: u64,
        /// The new legality value.
        legal: bool,
    },
}

impl Event {
    /// Stable lowercase kind label used in rendered event streams.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RoundStart { .. } => "round_start",
            Event::RoundEnd { .. } => "round_end",
            Event::Delivered { .. } => "delivered",
            Event::Dropped { .. } => "dropped",
            Event::ScheduleFired { .. } => "schedule_fired",
            Event::CorruptionApplied { .. } => "corruption_applied",
            Event::Scrambled { .. } => "scrambled",
            Event::LegalityFlip { .. } => "legality_flip",
        }
    }

    /// The round coordinate of the event.
    pub fn round(&self) -> u64 {
        match self {
            Event::RoundStart { round }
            | Event::RoundEnd { round, .. }
            | Event::Delivered { round, .. }
            | Event::Dropped { round, .. }
            | Event::ScheduleFired { round, .. }
            | Event::CorruptionApplied { round, .. }
            | Event::Scrambled { round, .. }
            | Event::LegalityFlip { round, .. } => *round,
        }
    }

    /// The process-id coordinate, when the event is process-anchored (the
    /// sender for message events).
    pub fn process(&self) -> Option<ProcessId> {
        match self {
            Event::Delivered { from, .. } | Event::Dropped { from, .. } => Some(*from),
            Event::Scrambled { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// A bounded ring buffer of [`Event`]s: the deterministic event plane's
/// retention policy.
///
/// The ring keeps the **most recent** `capacity` events; older events are
/// overwritten (and counted in [`overwritten`](EventSink::overwritten)).
/// Because the capacity is part of the configuration — not derived from
/// timing or thread interleaving — the retained suffix is itself a pure
/// function of `(spec, seed, capacity)`, so ring truncation never breaks
/// byte-identity across worker/shard/pool settings.
#[derive(Debug, Clone)]
pub struct EventSink {
    /// Ring storage: grows to `cap`, then wraps.
    buf: Vec<Event>,
    /// Next write position once the ring is full (also the oldest entry).
    head: usize,
    /// Ring capacity (≥ 1).
    cap: usize,
    /// Events overwritten since the last [`drain`](EventSink::drain).
    overwritten: u64,
}

impl EventSink {
    /// A sink retaining the most recent `capacity` events (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> EventSink {
        EventSink {
            buf: Vec::new(),
            head: 0,
            cap: capacity.max(1),
            overwritten: 0,
        }
    }

    /// Records one event, overwriting the oldest when full.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events overwritten (lost to ring truncation) since the last drain.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Removes and returns the retained events, oldest first, resetting the
    /// sink for reuse.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.rotate_left(self.head);
        self.head = 0;
        self.overwritten = 0;
        std::mem::take(&mut self.buf)
    }
}

/// Event-plane configuration handed to
/// [`SimulationBuilder::telemetry`](crate::sim::SimulationBuilder::telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// [`EventSink`] ring capacity per run.
    pub events_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            events_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }
}

/// Number of log₂ latency buckets in [`ProfileData::step_hist`].
pub const STEP_HIST_BUCKETS: usize = 32;

/// The consecutive phases of one [`Simulation::step`](crate::sim::Simulation::step),
/// in execution order — the inside-the-step half of the cost ledger. They
/// partition the step, so their times sum to [`ProfileData::step_ns`] (up
/// to the clock reads themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// `RoundStart` and firing the due schedule entries.
    Schedule,
    /// Swapping the inbox double buffer and clearing the consumed side
    /// (where last pulse's payload handles are dropped).
    SwapClear,
    /// Building the round's active set (and the shard cuts, if sharded).
    ActiveSet,
    /// Every active process's `on_pulse`, with its sends link- and
    /// loss-filtered in place into the per-shard `routed` buffers.
    ComputeRoute,
    /// Re-querying `always_active` for the processes that stepped.
    Requery,
    /// The merge into next-round inboxes, `RoundEnd` and the round counter.
    Merge,
}

impl StepPhase {
    /// Every phase, in execution order (= [`ProfileData::phase_ns`] order).
    pub const ALL: [StepPhase; 6] = [
        StepPhase::Schedule,
        StepPhase::SwapClear,
        StepPhase::ActiveSet,
        StepPhase::ComputeRoute,
        StepPhase::Requery,
        StepPhase::Merge,
    ];

    /// The phase's field name in the `--profile` report.
    pub fn label(self) -> &'static str {
        match self {
            StepPhase::Schedule => "schedule_ns",
            StepPhase::SwapClear => "swap_clear_ns",
            StepPhase::ActiveSet => "active_set_ns",
            StepPhase::ComputeRoute => "compute_route_ns",
            StepPhase::Requery => "requery_ns",
            StepPhase::Merge => "merge_ns",
        }
    }
}

/// Timing-plane accumulators. **Never** fold any of these into traces,
/// records, or summaries — see the module docs' two-plane rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileData {
    /// Pulses measured.
    pub steps: u64,
    /// Total wall time inside [`Simulation::step`](crate::sim::Simulation::step), ns.
    pub step_ns: u64,
    /// Log₂ step-latency histogram: bucket `i` counts steps whose latency
    /// was in `[2^i, 2^(i+1))` ns.
    pub step_hist: [u64; STEP_HIST_BUCKETS],
    /// Total wall time per [`StepPhase`], ns, indexed in [`StepPhase::ALL`]
    /// order.
    pub phase_ns: [u64; StepPhase::ALL.len()],
    /// Batches submitted to the [`Runtime`](crate::runtime::Runtime) pool.
    pub batches: u64,
    /// Total batch wall time (submit to completion), ns.
    pub batch_ns: u64,
    /// Tasks (shards) executed across all batches.
    pub tasks: u64,
    /// Total per-task queue wait (submit to execution start), ns.
    pub task_queue_ns: u64,
    /// Total per-task busy time (execution start to finish), ns.
    pub task_busy_ns: u64,
}

fn as_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ProfileData {
    fn record_step(&mut self, d: Duration) {
        let ns = as_ns(d);
        self.steps += 1;
        self.step_ns += ns;
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(STEP_HIST_BUCKETS - 1);
        self.step_hist[bucket] += 1;
    }

    /// Wall time accumulated in `phase`, ns.
    pub fn phase(&self, phase: StepPhase) -> u64 {
        self.phase_ns[phase as usize]
    }
}

/// A cloneable handle to shared timing-plane accumulators.
///
/// Attach one to a [`Runtime`](crate::runtime::Runtime) (batch/task timing)
/// and/or a [`Simulation`](crate::sim::Simulation) (step/merge timing); all
/// holders feed the same [`ProfileData`]. Recording takes a mutex per
/// *round* or *batch*, not per message, so the hooks stay off the per-message
/// hot path.
#[derive(Debug, Clone, Default)]
pub struct Profiler(Arc<Mutex<ProfileData>>);

impl Profiler {
    /// A fresh profiler with zeroed accumulators.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Records one pulse: its wall time (also feeds the latency histogram)
    /// and how that time split over the [`StepPhase`]s.
    pub fn record_step(&self, d: Duration, phases: &[Duration; StepPhase::ALL.len()]) {
        let mut data = self.0.lock().unwrap();
        data.record_step(d);
        for (total, phase) in data.phase_ns.iter_mut().zip(phases) {
            *total += as_ns(*phase);
        }
    }

    /// Records one pool batch's wall time (submit to completion).
    pub fn record_batch(&self, d: Duration) {
        let mut data = self.0.lock().unwrap();
        data.batches += 1;
        data.batch_ns += as_ns(d);
    }

    /// Records one task's queue wait and busy time.
    pub fn record_task(&self, queue: Duration, busy: Duration) {
        let mut data = self.0.lock().unwrap();
        data.tasks += 1;
        data.task_queue_ns += as_ns(queue);
        data.task_busy_ns += as_ns(busy);
    }

    /// A copy of the accumulators so far.
    pub fn snapshot(&self) -> ProfileData {
        self.0.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64) -> Event {
        Event::RoundStart { round }
    }

    #[test]
    fn sink_retains_everything_under_capacity() {
        let mut sink = EventSink::with_capacity(8);
        for r in 0..5 {
            sink.push(ev(r));
        }
        assert_eq!(sink.len(), 5);
        assert_eq!(sink.overwritten(), 0);
        let drained = sink.drain();
        assert_eq!(
            drained.iter().map(Event::round).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn sink_overwrites_oldest_when_full() {
        let mut sink = EventSink::with_capacity(4);
        for r in 0..10 {
            sink.push(ev(r));
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.overwritten(), 6);
        let drained = sink.drain();
        assert_eq!(
            drained.iter().map(Event::round).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "most recent events survive, oldest first"
        );
        assert_eq!(sink.overwritten(), 0, "drain resets the loss counter");
    }

    #[test]
    fn sink_capacity_is_clamped_to_one() {
        let mut sink = EventSink::with_capacity(0);
        assert_eq!(sink.capacity(), 1);
        sink.push(ev(1));
        sink.push(ev(2));
        assert_eq!(
            sink.drain().iter().map(Event::round).collect::<Vec<_>>(),
            [2]
        );
    }

    #[test]
    fn drained_sink_is_reusable() {
        let mut sink = EventSink::with_capacity(3);
        for r in 0..5 {
            sink.push(ev(r));
        }
        sink.drain();
        sink.push(ev(9));
        assert_eq!(
            sink.drain().iter().map(Event::round).collect::<Vec<_>>(),
            [9]
        );
    }

    #[test]
    fn event_coordinates_are_stable() {
        let e = Event::Dropped {
            round: 7,
            from: ProcessId(2),
            to: ProcessId(3),
            reason: DropReason::Lossy,
        };
        assert_eq!(e.kind(), "dropped");
        assert_eq!(e.round(), 7);
        assert_eq!(e.process(), Some(ProcessId(2)));
        assert_eq!(DropReason::Lossy.label(), "lossy");
        assert_eq!(Event::RoundStart { round: 1 }.process(), None);
    }

    #[test]
    fn profiler_accumulates_both_planes_of_timing() {
        let p = Profiler::new();
        let mut phases = [Duration::ZERO; StepPhase::ALL.len()];
        phases[StepPhase::Merge as usize] = Duration::from_nanos(100);
        p.record_step(Duration::from_nanos(900), &phases);
        phases[StepPhase::ComputeRoute as usize] = Duration::from_nanos(700);
        p.record_step(Duration::from_micros(3), &phases);
        p.record_batch(Duration::from_micros(5));
        p.record_task(Duration::from_nanos(50), Duration::from_nanos(400));
        let data = p.snapshot();
        assert_eq!(data.steps, 2);
        assert_eq!(data.step_ns, 3900);
        assert_eq!(data.step_hist.iter().sum::<u64>(), 2);
        assert_eq!(data.step_hist[9], 1, "900ns lands in [512, 1024)");
        assert_eq!(data.step_hist[11], 1, "3µs lands in [2048, 4096)");
        assert_eq!(data.phase(StepPhase::Merge), 200);
        assert_eq!(data.phase(StepPhase::ComputeRoute), 700);
        assert_eq!(data.phase(StepPhase::Schedule), 0);
        assert_eq!((data.batches, data.batch_ns), (1, 5000));
        assert_eq!(
            (data.tasks, data.task_queue_ns, data.task_busy_ns),
            (1, 50, 400)
        );
    }

    #[test]
    fn default_config_uses_default_capacity() {
        assert_eq!(
            TelemetryConfig::default().events_capacity,
            DEFAULT_EVENT_CAPACITY
        );
    }
}
