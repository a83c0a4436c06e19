//! `flood_ring100k`: one op is one `Simulation::step` of 100 000 `Flood`
//! processes on a ring, all active — routing, link check, inbox push and
//! merge do all the work, protocol compute none.

use std::time::Instant;

use ga_scenario::workload::Flood;
use ga_simnet::prelude::*;

use crate::harness::{median_ms, Counters, Segment, Spec, Workload};
use crate::metrics::{Home, Ledger};
use crate::span::{Recorder, ROOT};
use crate::stats::{median, percentile, sorted};

/// The only workload with a real build path and substrate-owned memory.
pub const RING100K: Spec = Spec {
    name: "flood_ring100k",
    home: Home::Flood,
    base_ops: 850,
    setups: 21,
};

const PROCESSES: usize = 100_000;

/// Every process hears and sends to its two ring neighbours each round.
const MESSAGES_PER_ROUND: u64 = 2 * PROCESSES as u64;

/// Rounds stepped during set-up, before the first timed op.
const WARMUP_ROUNDS: u64 = 3;

/// Rounds timed for each A/B row of the ledger.
const AB_ROUNDS: usize = 24;

fn ring() -> Topology {
    Topology::ring(PROCESSES)
}

fn builder(seed: u64) -> SimulationBuilder {
    Simulation::builder(ring()).seed(seed)
}

/// The flooding ring, warm.
pub struct FloodRing {
    sim: Simulation,
    seed: u64,
    delivered: u64,
    op_name: Option<u16>,
}

impl FloodRing {
    /// Builds the ring and its slab of processes and steps the warm-up
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if a warm-up round fails its check.
    pub fn set_up(seed: u64) -> FloodRing {
        let mut flood = FloodRing {
            sim: builder(seed).build_slab(|_| Flood::default()),
            seed,
            delivered: 0,
            op_name: None,
        };
        for round in 0..WARMUP_ROUNDS {
            flood.op();
            assert!(flood.check(), "warm-up round {round} is correct");
        }
        flood
    }
}

impl Workload for FloodRing {
    fn op(&mut self) {
        self.sim.step();
    }

    fn op_traced(&mut self, rec: &mut Recorder, op: u32) {
        // From outside, a round is one call: the op span is the ledger.
        let name = *self.op_name.get_or_insert_with(|| rec.intern("op"));
        let span = rec.open(name, ROOT, op);
        self.sim.step();
        rec.close(span);
    }

    fn check(&mut self) -> bool {
        let trace = self.sim.trace();
        let sent = trace.messages_delivered - self.delivered;
        self.delivered = trace.messages_delivered;
        // A process hears its two neighbours in every round but the
        // first; look at a different one after each round.
        let rounds = trace.rounds;
        let sampled = ProcessId((rounds as usize * 7919) % PROCESSES);
        let heard = self
            .sim
            .process_as::<Flood>(sampled)
            .map(|flood| flood.heard as u64);
        sent == MESSAGES_PER_ROUND && heard == Some(2 * (rounds - 1))
    }

    fn counters(&self) -> Counters {
        let trace = self.sim.trace();
        Counters {
            bytes: trace.bytes_delivered,
            rounds: trace.rounds,
            messages: trace.messages_delivered,
        }
    }

    fn spans_per_op(&self) -> usize {
        1
    }

    fn layers(&mut self, traced: &Segment, _rec: &Recorder, ledger: &mut Ledger) {
        let seed = self.seed;
        let step_ns = sorted(&traced.op_ns);
        let step_ms_p50 = percentile(&step_ns, 50) as f64 / 1e6;
        ledger.set("simnet.step_ms_p50", step_ms_p50);
        ledger.set("simnet.step_ms_p99", percentile(&step_ns, 99) as f64 / 1e6);
        let msgs_per_round = traced.per_op(traced.counters.messages);
        ledger.set("simnet.msgs_per_round", msgs_per_round);
        ledger.set("simnet.ns_per_msg", step_ms_p50 * 1e6 / msgs_per_round);

        // The build path, piece by piece.
        ledger.set("topology.build_ms", median_ms(15, || (), |()| ring()));
        // From a ready topology: only the builder's own work is timed.
        ledger.set(
            "simnet.build_slab_ms",
            median_ms(7, || builder(seed), |b| b.build_slab(|_| Flood::default())),
        );
        ledger.set(
            "simnet.build_boxed_ms",
            median_ms(
                7,
                || builder(seed),
                |b| b.build_with(|_| Box::new(Flood::default())),
            ),
        );

        // A/B rows on the same population, each its own short run.
        ledger.set(
            "simnet.step_ms_boxed",
            step_ms(builder(seed).build_with(|_| Box::new(Flood::default()))),
        );
        ledger.set(
            "simnet.step_ms_events_on",
            step_ms(
                builder(seed)
                    .telemetry(TelemetryConfig::default())
                    .build_slab(|_| Flood::default()),
            ),
        );
        // The only measurements that use a second thread: read them with
        // the header's `nproc`, on one core they show overhead only.
        let sharded = |plan_cache| {
            builder(seed)
                .shards(2)
                .runtime(Runtime::new(2))
                .plan_cache(plan_cache)
                .build_slab(|_| Flood::default())
        };
        let s2 = step_ms(sharded(true));
        ledger.set("simnet.step_ms_s2", s2);
        ledger.set("simnet.shard_speedup_s2", step_ms_p50 / s2);
        ledger.set("simnet.step_ms_s2_replan", step_ms(sharded(false)));
    }
}

/// Median milliseconds per step of `sim` over [`AB_ROUNDS`] rounds,
/// after the same warm-up as the workload.
fn step_ms(mut sim: Simulation) -> f64 {
    sim.run(WARMUP_ROUNDS);
    let mut times = Vec::with_capacity(AB_ROUNDS);
    for _ in 0..AB_ROUNDS {
        let start = Instant::now();
        sim.step();
        times.push(start.elapsed().as_nanos() as u64);
    }
    assert_eq!(
        sim.trace().messages_delivered,
        MESSAGES_PER_ROUND * (WARMUP_ROUNDS + AB_ROUNDS as u64),
        "every variant delivers the same traffic"
    );
    median(&times) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_delivers_two_messages_per_process() {
        let mut flood = FloodRing::set_up(1);
        for _ in 0..3 {
            flood.op();
            assert!(flood.check());
        }
        assert_eq!(flood.counters().rounds, WARMUP_ROUNDS + 3);
        assert_eq!(
            flood.counters().messages,
            MESSAGES_PER_ROUND * (WARMUP_ROUNDS + 3)
        );
        // A round nobody checked leaves the delivered count two rounds on.
        flood.op();
        flood.op();
        assert!(!flood.check());
    }
}
