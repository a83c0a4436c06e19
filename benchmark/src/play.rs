//! `play_n4f1` and `play_n10f3`: one op is one play of an all-honest
//! distributed authority on a complete graph — three clock-scheduled
//! Byzantine agreements plus commit and reveal.

use std::hint::black_box;
use std::sync::Arc;

use ga_agreement::harness::{run_consensus, Backend};
use ga_clocksync::clock::ClockRule;
use ga_crypto::commitment::Commitment;
use ga_crypto::sha256::Sha256;
use ga_game_theory::best_response::best_response;
use ga_game_theory::game::{ClosureGame, Game};
use ga_game_theory::profile::PureProfile;
use ga_scenario::suites;
use ga_scenario::workload::Flood;
use ga_simnet::prelude::*;
use game_authority::distributed::{AuthorityCluster, AuthorityProcess};
use game_authority::judicial::action_bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{median_ms, ns_per_call, Counters, Segment, Spec, Workload};
use crate::metrics::{Home, Ledger};
use crate::span::{Recorder, Span, ROOT};
use crate::stats::{mean_at, middle_half};

/// The smallest legal cluster: the only size where anything but
/// agreement is visible, and (phase-king needs n > 4f) the control for
/// agreement-backend work.
pub const N4F1: Spec = Spec {
    name: "play_n4f1",
    home: Home::Play,
    base_ops: 130_000,
    setups: 4001,
};

/// Agreement-bound and memory-bound: megabytes of payload per play.
pub const N10F3: Spec = Spec {
    name: "play_n10f3",
    home: Home::Play,
    base_ops: 320,
    setups: 15,
};

/// Plays run during set-up, before the first timed op.
const WARMUP_PLAYS: usize = 2;

/// The seven parts of a play's clock period, in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Wrap,
    Ba1,
    Commit,
    Ba2,
    Reveal,
    Ba3,
    Exec,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Wrap,
        Phase::Ba1,
        Phase::Commit,
        Phase::Ba2,
        Phase::Reveal,
        Phase::Ba3,
        Phase::Exec,
    ];

    /// The phase a pulse executed, from the clock value it left behind
    /// and the agreement's round count `r` — the schedule table in
    /// `crates/core/src/distributed.rs`, plus value 0 (the wrap pulse).
    ///
    /// # Panics
    ///
    /// Panics if `clock` is outside the period `0..=3r+3`.
    pub fn of(clock: u64, r: u64) -> Phase {
        match clock {
            0 => Phase::Wrap,
            v if v <= r => Phase::Ba1,
            v if v == r + 1 => Phase::Commit,
            v if v <= 2 * r + 1 => Phase::Ba2,
            v if v == 2 * r + 2 => Phase::Reveal,
            v if v <= 3 * r + 2 => Phase::Ba3,
            v if v == 3 * r + 3 => Phase::Exec,
            v => panic!("clock value {v} outside a period of {}", 3 * r + 4),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Phase::Wrap => "wrap",
            Phase::Ba1 => "ba1",
            Phase::Commit => "commit",
            Phase::Ba2 => "ba2",
            Phase::Reveal => "reveal",
            Phase::Ba3 => "ba3",
            Phase::Exec => "exec",
        }
    }
}

/// The n-agent, 2-resource congestion game the `authority` suite plays
/// (its constructor is private to `ga-scenario`): an agent's cost is the
/// number of agents on its resource.
pub fn congestion(n: usize) -> Arc<dyn Game + Send + Sync> {
    Arc::new(ClosureGame::new(
        "authority-congestion",
        n,
        vec![2; n],
        |agent, p| {
            let mine = p.action(agent);
            p.actions().iter().filter(|&&a| a == mine).count() as f64
        },
    ))
}

/// Runs the five `authority` suite scenarios once and refuses unless
/// every verdict passes, so conviction under worst-response, mute, churn
/// and noise agents is part of "outputs are correct".
pub fn preflight(seed: u64) -> Result<(), String> {
    let suite = suites::find("authority").expect("the authority suite is registered");
    for scenario in suite.scenarios() {
        let record = scenario.run_on(seed, 1, &Runtime::serial());
        if !record.verdict.passed() {
            return Err(format!(
                "authority preflight: {} failed at seed {seed}: {:?}",
                record.scenario, record.verdict
            ));
        }
    }
    Ok(())
}

/// A warm all-honest cluster and what the traced ops saw.
pub struct Play {
    sim: Simulation,
    n: usize,
    f: usize,
    play_len: u64,
    /// Plays finished so far: the record count every processor must show.
    plays: usize,
    /// Bytes delivered per phase over all traced ops.
    phase_bytes: [u64; 7],
    /// Span name ids: `op`, then one per phase.
    names: Option<(u16, [u16; 7])>,
}

impl Play {
    /// Builds the cluster and runs the warm-up plays.
    ///
    /// # Panics
    ///
    /// Panics if a warm-up play fails its check.
    pub fn set_up(n: usize, f: usize, seed: u64) -> Play {
        let cluster = AuthorityCluster::new(congestion(n), f);
        let play_len = cluster.play_len();
        let sim = Simulation::builder(Topology::complete(n))
            .seed(seed)
            .build_with(|id| cluster.process(id.index(), seed));
        let mut play = Play {
            sim,
            n,
            f,
            play_len,
            plays: 0,
            phase_bytes: [0; 7],
            names: None,
        };
        for _ in 0..WARMUP_PLAYS {
            play.op();
            assert!(play.check(), "warm-up play {} is correct", play.plays);
        }
        play
    }

    /// Rounds of one agreement activation: the period is `3r + 4`.
    fn r(&self) -> u64 {
        (self.play_len - 4) / 3
    }

    fn processor(&self, i: usize) -> &AuthorityProcess {
        self.sim
            .process_as::<AuthorityProcess>(ProcessId(i))
            .expect("every slot runs the authority")
    }
}

impl Workload for Play {
    fn op(&mut self) {
        self.sim.run(self.play_len);
    }

    fn op_traced(&mut self, rec: &mut Recorder, op: u32) {
        let (op_name, phase_names) = *self.names.get_or_insert_with(|| {
            (
                rec.intern("op"),
                Phase::ALL.map(|p| rec.intern(&format!("core.phase_{}", p.label()))),
            )
        });
        let parent = rec.open(op_name, ROOT, op);
        // Pulse spans share their boundaries, so they partition the op.
        let mut start_ns = rec.spans()[parent as usize].start_ns;
        let mut bytes = self.sim.trace().bytes_delivered;
        for _ in 0..self.play_len {
            self.sim.step();
            let end_ns = rec.now();
            let phase = Phase::of(self.processor(0).clock_value(), self.r()) as usize;
            let bytes_now = self.sim.trace().bytes_delivered;
            self.phase_bytes[phase] += bytes_now - bytes;
            bytes = bytes_now;
            rec.push(Span {
                name: phase_names[phase],
                start_ns,
                end_ns,
                parent,
                op,
            });
            start_ns = end_ns;
        }
        rec.close(parent);
    }

    fn check(&mut self) -> bool {
        let expected = self.plays + 1;
        let reference = self.processor(0).records().last();
        let ok = (0..self.n).all(|i| {
            let p = self.processor(i);
            p.records().len() == expected
                && p.records().last() == reference
                && reference.is_some_and(|rec| rec.fouls == 0)
                && p.punished().iter().all(|&out| !out)
        });
        // Count from what is there, so one bad play fails one op.
        self.plays = self.processor(0).records().len();
        ok
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
        self.play_len as usize + 1
    }

    fn layers(&mut self, traced: &Segment, rec: &Recorder, ledger: &mut Ledger) {
        let (n, f) = (self.n, self.f);
        let op_ms = traced.op_ms_p50();

        // game-authority: each phase's pulses, per typical play.
        for (phase, ms) in Phase::ALL.iter().zip(phase_ms(rec, &traced.op_ns)) {
            ledger.set(&format!("core.phase_{}_ms", phase.label()), ms);
        }
        for (phase, &bytes) in Phase::ALL.iter().zip(&self.phase_bytes) {
            ledger.set(
                &format!("core.phase_{}_bytes", phase.label()),
                traced.per_op(bytes),
            );
        }
        ledger.set("core.msgs_per_op", traced.per_op(traced.counters.messages));

        // ga-agreement: one consensus per backend at the play's (n, f),
        // every processor proposing the same value as honest agents do.
        // Phase-king needs n > 4f and can run at neither (4, 1) nor
        // (10, 3), so it has no row.
        let seed = 7;
        for (backend, key) in [(Backend::Om, "om"), (Backend::DolevStrong, "dolev_strong")] {
            let consensus = || run_consensus(backend, n, f, &[], |_| 0x5eed, seed);
            let report = consensus();
            assert!(report.agreement(), "{key} agrees at n={n}, f={f}");
            let reps = if n <= 4 { 201 } else { 7 };
            ledger.set(
                &format!("agreement.{key}_ms"),
                median_ms(reps, || (), |()| consensus()),
            );
            ledger.set(&format!("agreement.{key}_bytes"), report.bytes as f64);
            if backend == Backend::Om {
                ledger.set("agreement.om_rounds", report.rounds as f64);
            }
        }
        ledger.set(
            "agreement.om_share",
            3.0 * ledger.get("agreement.om_ms") / op_ms,
        );

        // ga-simnet: the cheapest possible pulse at this n.
        let mut floor = Simulation::builder(Topology::complete(n)).build_slab(|_| Flood::default());
        floor.run(16);
        let floor_ns = ns_per_call(31, 256, || floor.step());
        ledger.set("simnet.floor_pulse_ns", floor_ns);
        ledger.set(
            "simnet.floor_share",
            floor_ns * self.play_len as f64 / (op_ms * 1e6),
        );

        // ga-clocksync: the rule every pulse applies, clocks in step.
        let mut clock = ClockRule::new(n, f, self.play_len, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut claims = vec![0; n - 1];
        ledger.set(
            "clocksync.clock_step_ns",
            ns_per_call(31, 1024, || {
                let v = clock.step(black_box(&claims), &mut rng);
                claims.fill(v);
            }),
        );

        // ga-crypto: what the commit and reveal pulses pay per agent.
        let value = action_bytes(1);
        ledger.set(
            "crypto.commit_verify_ns",
            ns_per_call(31, 1024, || {
                let (c, o) = Commitment::commit(black_box(&value), [0x42; 32]);
                black_box(c.verify(&value, &o)).expect("an honest opening verifies");
            }),
        );
        let block = [0xA5u8; 1024];
        ledger.set(
            "crypto.sha256_1k_ns",
            ns_per_call(31, 256, || {
                black_box(Sha256::digest(black_box(&block)));
            }),
        );

        // ga-game-theory: the choice each agent makes before committing.
        let game = congestion(n);
        let profile = PureProfile::new((0..n).map(|i| i % 2).collect());
        ledger.set(
            "game_theory.best_response_ns",
            ns_per_call(31, 1024, || {
                black_box(best_response(game.as_ref(), 0, black_box(&profile)));
            }),
        );
    }
}

/// Time each phase's pulses took per play, in milliseconds, in
/// [`Phase::ALL`] order: the mean over the middle half of the traced
/// plays by duration, so the seven add up to those plays' mean time.
fn phase_ms(rec: &Recorder, op_ns: &[u64]) -> [f64; 7] {
    let mut per_op = vec![[0u64; 7]; op_ns.len()];
    for span in rec.spans().iter().filter(|s| s.parent != ROOT) {
        let label = rec.name(span.name);
        let phase = Phase::ALL
            .iter()
            .position(|p| label.strip_prefix("core.phase_") == Some(p.label()))
            .expect("every child span of a play is a phase");
        per_op[span.op as usize][phase] += span.duration_ns();
    }
    let typical = middle_half(op_ns);
    let mut out = [0.0; 7];
    for (phase, ms) in out.iter_mut().enumerate() {
        *ms = mean_at(&typical, |op| per_op[op][phase]) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_values_map_to_the_schedule_table() {
        use Phase::*;
        // r = 2: period 10.
        let r2 = [Wrap, Ba1, Ba1, Commit, Ba2, Ba2, Reveal, Ba3, Ba3, Exec];
        // r = 3: period 13 (n = 4, f = 1).
        let r3 = [
            Wrap, Ba1, Ba1, Ba1, Commit, Ba2, Ba2, Ba2, Reveal, Ba3, Ba3, Ba3, Exec,
        ];
        // r = 4: period 16.
        let r4 = [
            Wrap, Ba1, Ba1, Ba1, Ba1, Commit, Ba2, Ba2, Ba2, Ba2, Reveal, Ba3, Ba3, Ba3, Ba3, Exec,
        ];
        for (r, table) in [(2u64, &r2[..]), (3, &r3[..]), (4, &r4[..])] {
            assert_eq!(table.len() as u64, AuthorityProcess::schedule_len(r));
            for (clock, &phase) in table.iter().enumerate() {
                assert_eq!(Phase::of(clock as u64, r), phase, "r={r}, clock={clock}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside a period")]
    fn a_clock_value_past_the_period_is_rejected() {
        Phase::of(13, 3);
    }

    #[test]
    fn each_op_is_one_clean_play_and_the_phases_add_up_to_it() {
        let mut play = Play::set_up(4, 1, 3);
        assert_eq!((play.play_len, play.r()), (13, 3));
        let ops = 64;
        let mut rec = Recorder::with_capacity(ops * play.spans_per_op());
        for op in 0..ops {
            play.op_traced(&mut rec, op as u32);
            assert!(play.check(), "play {op}");
        }
        // Every play visits every phase: 1 + 3 + 1 + 3 + 1 + 3 + 1 pulses.
        let pulses = |label: &str| {
            rec.spans()
                .iter()
                .filter(|s| s.op == 0 && rec.name(s.name) == label)
                .count()
        };
        assert_eq!(pulses("core.phase_wrap"), 1);
        assert_eq!(pulses("core.phase_ba2"), 3);
        assert_eq!(pulses("core.phase_exec"), 1);
        // The parts sum to the whole within 2 %, op by op: what is left
        // over is the recorder's own clock reads.
        let own = rec.self_times();
        for (i, span) in rec.spans().iter().enumerate() {
            if span.parent == ROOT {
                assert!(
                    own[i] * 50 <= span.duration_ns(),
                    "op {} leaves {} of {} ns outside its phases",
                    span.op,
                    own[i],
                    span.duration_ns()
                );
            }
        }
        // And so do the reported phase times: they are means over one
        // set of plays, so they add up to those plays' mean time.
        let op_ns: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(Span::duration_ns)
            .collect();
        let total_ms: f64 = phase_ms(&rec, &op_ns).iter().sum();
        let op_ms = mean_at(&middle_half(&op_ns), |op| op_ns[op]) / 1e6;
        assert!(
            (total_ms / op_ms - 1.0).abs() < 0.02,
            "phases sum to {total_ms} ms against a {op_ms} ms play"
        );
    }

    #[test]
    fn a_foul_or_a_missing_record_fails_the_check() {
        let mut play = Play::set_up(4, 1, 5);
        play.op();
        assert!(play.check());
        // Half a play appends no record, so the count is off by one.
        play.sim.run(6);
        assert!(!play.check());
    }

    /// The claim behind `SUITE_SEEDS`: whatever `--seed` is given, the
    /// preflight it selects passes.
    #[test]
    fn every_suite_seed_passes_the_preflight() {
        for seed in 0..crate::harness::SUITE_SEEDS {
            preflight(seed).expect("the authority suite passes");
        }
    }
}
