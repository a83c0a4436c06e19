//! Quiescence-aware stepping: the scheduler's O(active) contract.
//!
//! These tests pin the sparse-mode semantics documented in the crate
//! docs: processes that opt out of [`Process::always_active`] are not
//! stepped on pulses where nothing addressed them, fully quiescent
//! rounds still advance the clock and fire due schedule entries, and
//! none of it changes a trace — serial and sharded stepping produce
//! byte-identical histories.

use bytes::Bytes;
use ga_simnet::prelude::*;

/// Counts its own steps; quiescent unless a message (or fault) wakes it.
struct StepCounter {
    steps: usize,
}

impl Process for StepCounter {
    fn on_pulse(&mut self, _ctx: &mut Context<'_>) {
        self.steps += 1;
    }
    fn always_active(&self) -> bool {
        false
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One starter emits a token, everyone else forwards arrivals away from
/// their sender — a perpetual single-token wavefront that keeps exactly
/// one process active per round while the rest of the ring sleeps.
struct Walker {
    start: bool,
}

impl Process for Walker {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        if self.start {
            self.start = false;
            let to = ctx.neighbors()[0];
            ctx.send(ProcessId(to), Bytes::from_static(&[0x77]));
            return;
        }
        if let Some(m) = ctx.inbox().first() {
            let from = m.from.index();
            let to = ctx
                .neighbors()
                .iter()
                .copied()
                .find(|&nb| nb != from)
                .unwrap_or(from);
            ctx.send(ProcessId(to), m.payload.clone());
        }
    }
    fn always_active(&self) -> bool {
        self.start
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn steps(sim: &Simulation, id: usize) -> usize {
    sim.process_as::<StepCounter>(ProcessId(id)).unwrap().steps
}

#[test]
fn all_quiescent_ring_advances_rounds_without_stepping_anyone() {
    let n = 64;
    let mut sim = Simulation::builder(Topology::ring(n))
        .build_with(|_| Box::new(StepCounter { steps: 0 }) as Box<dyn Process>);
    sim.run(50);
    assert_eq!(sim.round(), Round(50), "the clock still advances");
    assert!(
        (0..n).all(|i| steps(&sim, i) == 0),
        "no messages, no wake-ups: nobody steps"
    );
    assert_eq!(sim.pending_messages(), 0);
    assert_eq!(sim.quiescent_processes(), n);
}

#[test]
fn a_scramble_wakes_exactly_the_scrambled_processes() {
    let n = 16;
    let mut sim = Simulation::builder(Topology::ring(n))
        .build_with(|_| Box::new(StepCounter { steps: 0 }) as Box<dyn Process>);
    sim.run(5);
    sim.corrupt(&CorruptionFamily::state_only([3, 9], 1));
    sim.run(5);
    for i in 0..n {
        let expected = usize::from(i == 3 || i == 9);
        assert_eq!(steps(&sim, i), expected, "process {i}");
    }
}

#[test]
fn a_due_schedule_entry_fires_in_an_otherwise_quiescent_round() {
    let n = 8;
    let schedule = Schedule::new().at(
        3,
        ScheduledAction::Corrupt(CorruptionFamily::state_only([0], 7), Recurrence::Once),
    );
    let mut sim = Simulation::builder(Topology::ring(n))
        .schedule(schedule)
        .build_with(|_| Box::new(StepCounter { steps: 0 }) as Box<dyn Process>);
    sim.run(10);
    assert_eq!(steps(&sim, 0), 1, "the scheduled fault woke the victim");
    assert!((1..n).all(|i| steps(&sim, i) == 0));
}

#[test]
fn a_single_token_keeps_exactly_one_process_active() {
    let n = 32;
    let mut sim = Simulation::builder(Topology::ring(n)).build_with(|id| {
        Box::new(Walker {
            start: id.index() == 0,
        }) as Box<dyn Process>
    });
    sim.run(2);
    for _ in 0..10 {
        assert_eq!(sim.pending_messages(), 1, "one token in flight");
        assert_eq!(sim.quiescent_processes(), n - 1);
        sim.step();
    }
    assert_eq!(
        sim.trace().messages_delivered,
        12,
        "one delivery per round after the starter fired"
    );
}

#[test]
fn traces_are_identical_across_exec_choices() {
    let n = 48;
    let run = |shards: usize| {
        let mut sim = Simulation::builder(Topology::ring(n))
            .seed(11)
            .shards(shards)
            .telemetry(TelemetryConfig::default())
            .build_with(|id| {
                Box::new(Walker {
                    start: id.index() == 0,
                }) as Box<dyn Process>
            });
        sim.run(30);
        let events = sim.events_mut().expect("telemetry on").drain();
        (sim.trace().clone(), events)
    };
    let baseline = run(1);
    let sharded = run(4);
    assert_eq!(baseline.0, sharded.0, "trace diverged at s4");
    assert_eq!(baseline.1, sharded.1, "event stream diverged at s4");
}

#[test]
fn grid1m_walks_a_token_in_o_active_rounds_under_a_memory_ceiling() {
    // Tier-1 timeout smoke for the n = 10^6 substrate. The streaming CSR
    // builder must construct the 1000x1000 grid (2 * (999*1000 + 1000*999)
    // directed rows) fast — a reintroduced per-vertex Vec intermediate or
    // an O(n^2) pass blows the bound immediately. The spot checks pin
    // corner/interior degrees so a "fast but wrong" builder can't pass.
    let n = 1_000_000;
    let topology = Topology::grid(1000, 1000);
    assert_eq!(topology.len(), n);
    assert_eq!(topology.edge_count(), 999 * 1000 + 1000 * 999);
    assert_eq!(topology.neighbors(ProcessId(0)).len(), 2, "corner");
    assert_eq!(topology.neighbors(ProcessId(500)).len(), 3, "edge");
    assert_eq!(topology.neighbors(ProcessId(500_500)).len(), 4, "interior");
    // One slab-built process table on top: the whole substrate (topology +
    // processes + inboxes) comes up in a handful of allocations.
    let mut sim = Simulation::builder(topology).build_slab(|id| Walker {
        start: id.index() == 0,
    });
    assert_eq!(sim.len(), n);
    // 10^5 rounds of one token while everyone else sleeps: a round costs
    // O(active) (≈ 120 ns in release), so the loop takes milliseconds; an
    // O(n) scan per round would be 10^11 visits and blow the timeout.
    sim.run(2);
    for _ in 0..100_000 {
        assert_eq!(sim.pending_messages(), 1, "one token in flight");
        assert_eq!(sim.quiescent_processes(), n - 1);
        sim.step();
    }
    // Where Linux reports it, the peak RSS of all of the above: 66.2 MB
    // (VmHWM 66 204 kB) when only the build ran; the ceiling is under 1.5x
    // that, so a CSR, slab or inbox-arena memory regression fails here.
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        let peak_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse().ok())
            .expect("VmHWM in kB");
        assert!(peak_kib < 96 * 1024, "peak RSS {peak_kib} kB");
    }
}
