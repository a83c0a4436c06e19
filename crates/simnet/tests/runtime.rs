//! Persistent-runtime determinism and steady-state thread accounting:
//! traces must be byte-identical at pool sizes 1/2/8, across pool *reuse*
//! (consecutive runs on one pool must see no stale scratch), and
//! steady-state sharded stepping must spawn **zero** new OS threads per
//! round — the per-round `thread::scope` spawn is gone for good.

use std::sync::{Mutex, MutexGuard};

use ga_simnet::colluding::Cabal;
use ga_simnet::prelude::*;
use ga_simnet::runtime::BatchTask;
use ga_simnet::sim::Delivery;
use rand::Rng;

/// Serializes this binary's tests: the thread-accounting test counts the
/// process's pool worker threads, which sibling tests' pool creation and
/// teardown would otherwise perturb mid-measurement on multi-core hosts
/// (the harness runs tests concurrently).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Logs its delivery history and broadcasts an RNG-dependent payload, so
/// any mis-sharding, stale scratch or RNG drift shows up in the bytes.
struct Chatter {
    id: u64,
    history: Vec<(u64, usize, Vec<u8>)>,
}

impl Process for Chatter {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let round = ctx.round().value();
        for m in ctx.inbox() {
            self.history
                .push((round, m.from.index(), m.bytes().to_vec()));
        }
        let nonce: u8 = ctx.rng().gen();
        ctx.broadcast(vec![self.id as u8, round as u8, nonce]);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn build(runtime: Runtime, shards: usize) -> Simulation {
    let cabal = Cabal::seeded(3);
    Simulation::builder(Topology::grid(4, 4))
        .seed(99)
        .delivery(Delivery::Lossy { p: 0.25 })
        .schedule(Schedule::new().bisect(&Topology::grid(4, 4), 3, 9).at(
            5,
            ScheduledAction::Corrupt(CorruptionFamily::total(2), Recurrence::Once),
        ))
        .shards(shards)
        .runtime(runtime)
        .build_with(|id| {
            if id.index() == 7 {
                Box::new(cabal.member()) as Box<dyn Process>
            } else {
                Box::new(Chatter {
                    id: id.index() as u64,
                    history: Vec::new(),
                })
            }
        })
}

/// One process's delivery history: `(round, sender, payload)` per message.
type History = Vec<(u64, usize, Vec<u8>)>;

fn run_trace(runtime: Runtime, shards: usize) -> (Trace, Vec<History>) {
    let mut sim = build(runtime, shards);
    sim.run(14);
    let histories = (0..sim.len())
        .filter_map(|i| {
            sim.process_as::<Chatter>(ProcessId(i))
                .map(|p| p.history.clone())
        })
        .collect();
    (sim.trace().clone(), histories)
}

#[test]
fn traces_byte_identical_at_pool_sizes_1_2_8() {
    let _exclusive = exclusive();
    let baseline = run_trace(Runtime::serial(), 4);
    for threads in [2, 8] {
        let pool = Runtime::new(threads);
        assert_eq!(run_trace(pool, 4), baseline, "pool size {threads}");
    }
}

#[test]
fn pool_reuse_across_consecutive_runs_is_byte_identical() {
    let _exclusive = exclusive();
    // The stale-scratch regression: consecutive runs drawing from one
    // persistent pool (and resharded differently) must each reproduce the
    // fresh-pool trace exactly.
    let baseline = run_trace(Runtime::serial(), 4);
    let pool = Runtime::new(4);
    for attempt in 0..3 {
        assert_eq!(
            run_trace(pool.clone(), 4),
            baseline,
            "reused pool, run {attempt}"
        );
    }
    for shards in [2, 8, 3] {
        let serial = run_trace(Runtime::serial(), shards);
        assert_eq!(serial, baseline, "shard count never changes the trace");
        assert_eq!(
            run_trace(pool.clone(), shards),
            baseline,
            "reused pool at {shards} shards"
        );
    }
}

#[test]
fn two_simulations_share_one_pool_concurrently_consistent() {
    let _exclusive = exclusive();
    // Interleaved stepping of two sims on the same pool: neither's trace
    // may bleed into the other.
    let pool = Runtime::new(4);
    let mut a = build(pool.clone(), 4);
    let mut b = build(pool, 4);
    for _ in 0..14 {
        a.step();
        b.step();
    }
    assert_eq!(a.trace(), b.trace(), "same build, same trace");
    let solo = run_trace(Runtime::new(4), 4);
    assert_eq!(a.trace(), &solo.0);
}

/// Counts this process's pool worker threads — the tasks under /proc
/// whose name begins `ga-runtime-`, as `Runtime::new` names them. The
/// process-wide `Threads:` count would also see libtest starting the next
/// test's thread mid-measurement. Linux only; `None` elsewhere, which
/// skips the assertion rather than faking one.
fn pool_thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("ga-runtime-"))
            .count(),
    )
}

#[test]
fn steady_state_sharded_stepping_spawns_zero_threads_per_round() {
    let _exclusive = exclusive();
    let Some(_) = pool_thread_count() else {
        eprintln!("no /proc/self/task; skipping thread accounting");
        return;
    };
    let pool = Runtime::new(4);
    // A thread names itself as it starts: a batch that needs all four
    // threads at once returns only when every worker has.
    let all_up = std::sync::Barrier::new(4);
    pool.run_batch(
        (0..4)
            .map(|_| {
                Box::new(|| {
                    all_up.wait();
                }) as BatchTask<'_>
            })
            .collect(),
    );
    let mut sim = build(pool, 4);
    // Warm up: the first steps populate the recycled scratch.
    sim.run(2);
    let before = pool_thread_count().unwrap();
    sim.run(100);
    let after = pool_thread_count().unwrap();
    assert_eq!(before, 3, "a budget of 4 is three workers and the caller");
    assert_eq!(
        before, after,
        "steady-state sharded stepping must not spawn OS threads"
    );
    assert!(sim.trace().messages_delivered > 0);
}
