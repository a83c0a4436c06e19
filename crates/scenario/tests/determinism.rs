//! Sweep determinism: the same spec + seed range must produce identical
//! aggregated JSON at 1, 2 and 8 worker threads, and repeated runs must be
//! stable. (`scripts/tier1.sh` additionally diffs two separate *process*
//! invocations of the CLI.)

use std::sync::Arc;

use ga_scenario::prelude::*;
use ga_scenario::suites;

fn lossy_grid_scenarios() -> Vec<Arc<dyn Scenario>> {
    expand_grid(
        "det_lossy_grid",
        &ParamGrid::new().axis("p", [0.0, 0.2, 0.5]),
        |point| {
            let p = point[0].1;
            ScenarioSpec::new(
                "det_lossy_grid",
                TopologyFamily::RandomK {
                    n: 16,
                    k: 4,
                    extra_p: 0.1,
                },
                |id, _n| Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>,
            )
            .delivery(Delivery::Lossy { p })
            .max_rounds(25)
        },
    )
}

#[test]
fn sweep_json_identical_at_1_2_and_8_workers() {
    let scenarios = lossy_grid_scenarios();
    let render = |workers: usize| {
        sweep("det", &scenarios, 0..6, workers)
            .to_json(true)
            .render()
    };
    let baseline = render(1);
    assert_eq!(render(2), baseline, "2 workers diverged from 1");
    assert_eq!(render(8), baseline, "8 workers diverged from 1");
    assert!(baseline.contains("det_lossy_grid[p=0.2]"));
}

#[test]
fn sweep_json_stable_across_repeated_runs() {
    let scenarios = lossy_grid_scenarios();
    let first = sweep("det", &scenarios, 0..4, 4).to_json(true).render();
    for _ in 0..3 {
        assert_eq!(
            sweep("det", &scenarios, 0..4, 4).to_json(true).render(),
            first
        );
    }
}

#[test]
fn smoke_suite_json_identical_across_worker_counts() {
    let suite = suites::find("smoke").expect("smoke suite registered");
    let render = |workers: usize| suite.run(Some(2), workers).to_json(true).render();
    let baseline = render(1);
    assert_eq!(render(2), baseline);
    assert_eq!(render(8), baseline);
}

#[test]
fn smoke_suite_json_identical_across_shard_counts() {
    // The intra-run sharding knob composes with sweep-level parallelism:
    // any (workers, shards) combination must render the same summary.
    let suite = suites::find("smoke").expect("smoke suite registered");
    let render = |workers: usize, shards: usize| {
        suite
            .run_on(&Runtime::global(), Some(2), workers, shards)
            .to_json(true)
            .render()
    };
    let baseline = render(1, 1);
    for (workers, shards) in [(1, 2), (1, 8), (4, 2), (2, 4)] {
        assert_eq!(
            render(workers, shards),
            baseline,
            "workers={workers} shards={shards}"
        );
    }
}

#[test]
fn authority_suite_json_identical_across_workers_and_shards() {
    // The §3.3 distributed-authority plays run under the same plumbing:
    // any (workers, shards) combination must render the same summary —
    // the clock RNG, commitment nonces and BA traffic are all
    // (seed, id, round) derived.
    let suite = suites::find("authority").expect("authority suite registered");
    let render = |workers: usize, shards: usize| {
        suite
            .run_on(&Runtime::global(), Some(1), workers, shards)
            .to_json(true)
            .render()
    };
    let baseline = render(1, 1);
    assert!(baseline.contains("authority_selfish_cluster"));
    for (workers, shards) in [(4, 1), (2, 2), (1, 4), (4, 4)] {
        assert_eq!(
            render(workers, shards),
            baseline,
            "workers={workers} shards={shards}"
        );
    }
}

#[test]
fn stabilize_suite_json_identical_across_workers_shards_and_pools() {
    // The recovery frontier's corruption events fire mid-run from inside
    // worker threads — target selection, per-victim scrambles and
    // channel corruption/drops must all be (seed, id, round) anchored,
    // so the summary is byte-identical at any (pool, workers, shards).
    let suite = suites::find("stabilize").expect("stabilize suite registered");
    let baseline = suite
        .run_on(&Runtime::new(1), Some(2), 1, 1)
        .to_json(true)
        .render();
    assert!(baseline.contains("stabilize_ssba[loss=0.15,c=1,n=7]"));
    assert!(baseline.contains("rounds_to_stabilize"));
    assert_eq!(
        suite
            .run_on(&Runtime::new(4), Some(2), 4, 4)
            .to_json(true)
            .render(),
        baseline,
        "pool 4 / workers 4 / shards 4 diverged from fully serial"
    );
}

#[test]
fn unsupportive_suite_json_identical_across_workers_shards_and_pools() {
    // The recurring-corruption frontier re-arms its schedule entry at
    // every fire — the re-arm happens inside worker threads mid-run, so
    // this pins the lazy recurrence to the same (seed, id, round)
    // anchoring as everything else: byte-identical summaries at any
    // (pool, workers, shards).
    let suite = suites::find("unsupportive").expect("unsupportive suite registered");
    let baseline = suite
        .run_on(&Runtime::new(1), Some(2), 1, 1)
        .to_json(true)
        .render();
    assert!(baseline.contains("unsupportive_ring[period=8,c=0.25]"));
    assert!(baseline.contains("rounds_to_stabilize"));
    assert!(baseline.contains("legal_fraction"));
    assert_eq!(
        suite
            .run_on(&Runtime::new(4), Some(2), 4, 4)
            .to_json(true)
            .render(),
        baseline,
        "pool 4 / workers 4 / shards 4 diverged from fully serial"
    );
}

#[test]
fn recurring_corruption_events_identical_at_1_1_1_vs_4_4_4() {
    // Same invariant as `event_stream_identical_at_1_1_1_vs_4_4_4`, but
    // with a *recurring* corruption entry firing mid-window: every lazy
    // re-arm and every per-burst draw must replay identically whatever
    // the execution split, in both the summary and the event JSONL.
    let spec = ScenarioSpec::new("det_recurrence", TopologyFamily::Ring(8), |id, _| {
        Box::new(BfsTree::new(id)) as Box<dyn Process>
    })
    .schedule(Schedule::new().at(
        5,
        ScheduledAction::Corrupt(
            CorruptionFamily {
                targets: CorruptionTargets::All,
                corrupt_messages_p: 0.0,
                drop_messages_p: 1.0,
                garbage_messages: 0,
                salt: 21,
            },
            Recurrence::Every {
                period: 9,
                until: 23,
            },
        ),
    ))
    .max_rounds(36)
    .stabilization_episodes([5, 14, 23], ga_scenario::bfs::bfs_tree_legal);
    let scenarios: Vec<Arc<dyn Scenario>> = vec![Arc::new(spec)];
    let telemetry = TelemetryConfig::default();
    let run = |pool: usize, workers: usize, shards: usize| {
        let mut lines = String::new();
        let mut sink = |_i: usize, r: &RunRecord| {
            for event in &r.events {
                lines.push_str(
                    &ga_scenario::record::event_json(&r.scenario, r.seed, event).render(),
                );
                lines.push('\n');
            }
        };
        let summary = ga_scenario::sweep::sweep_stream_on(
            &Runtime::new(pool),
            "rec",
            &scenarios,
            0..4,
            workers,
            shards,
            Some(&telemetry),
            &mut sink,
        );
        (summary.to_json(true).render(), lines)
    };
    let (summary, events) = run(1, 1, 1);
    assert_eq!(
        events.matches("\"kind\":\"corruption_applied\"").count(),
        3 * 4,
        "three bursts (rounds 5, 14, 23) in each of the 4 seeds"
    );
    assert!(events.contains("\"kind\":\"legality_flip\""));
    assert_eq!(run(4, 4, 4), (summary, events), "4/4/4 diverged from 1/1/1");
}

#[test]
fn lossy_grid_records_identical_across_shard_counts() {
    // Per-seed records — lossy drops included — must not depend on the
    // shard count (the loss RNG is per-sender, not per-routing-order).
    let scenarios = lossy_grid_scenarios();
    let render = |shards: usize| {
        sweep_on(&Runtime::global(), "det", &scenarios, 0..6, 4, shards)
            .to_json(true)
            .render()
    };
    let baseline = render(1);
    assert_eq!(render(2), baseline, "2 shards diverged from serial");
    assert_eq!(render(8), baseline, "8 shards diverged from serial");
}

#[test]
fn streamed_sweep_matches_batch_aggregates() {
    // The JSONL streaming path must re-render the identical aggregate
    // summary while retaining no records.
    let scenarios = lossy_grid_scenarios();
    let batch = sweep("det", &scenarios, 0..4, 4);
    let mut lines: Vec<String> = Vec::new();
    let mut sink = |_i: usize, r: &RunRecord| lines.push(r.to_json().render());
    let streamed = sweep_stream_on(
        &Runtime::global(),
        "det",
        &scenarios,
        0..4,
        4,
        2,
        None,
        &mut sink,
    );
    assert_eq!(
        streamed.to_json(false).render(),
        batch.to_json(false).render()
    );
    assert!(streamed.records.is_empty());
    assert_eq!(
        lines,
        batch
            .records
            .iter()
            .map(|r| r.to_json().render())
            .collect::<Vec<_>>(),
        "streamed lines are the batch records, in job order"
    );
}

#[test]
fn sweep_json_identical_at_pool_sizes_1_2_8_with_reuse() {
    // The persistent-runtime guarantee: summaries are byte-identical at
    // any pool size, and a pool *reused* across consecutive sweeps (the
    // stale-scratch / leftover-queue regression) reproduces the fresh
    // result exactly.
    let scenarios = lossy_grid_scenarios();
    let baseline = ga_scenario::sweep::sweep_on(&Runtime::serial(), "det", &scenarios, 0..6, 2, 2)
        .to_json(true)
        .render();
    for threads in [2, 8] {
        let pool = Runtime::new(threads);
        for attempt in 0..3 {
            assert_eq!(
                ga_scenario::sweep::sweep_on(&pool, "det", &scenarios, 0..6, 2, 2)
                    .to_json(true)
                    .render(),
                baseline,
                "pool size {threads}, reuse {attempt}"
            );
        }
    }
}

#[test]
fn nested_sweep_and_shard_submission_completes_at_budget_1() {
    // The deadlock regression the runtime's nested-submission contract
    // rules out: a budget-1 pool (zero background threads) running a
    // sweep whose every job itself submits 4-shard step batches to the
    // *same* pool must run to completion inline. A watchdog turns a
    // regression into a failure instead of a hung test run.
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let pool = Runtime::new(1);
        let suite = suites::find("smoke").expect("smoke suite registered");
        let nested = suite.run_on(&pool, Some(2), 1, 4).to_json(true).render();
        let serial = suite.run_on(&pool, Some(2), 1, 1).to_json(true).render();
        tx.send((nested, serial)).ok();
    });
    let (nested, serial) = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("budget-1 nested sweep x shard submission deadlocked");
    worker.join().expect("sweep thread panicked");
    assert_eq!(nested, serial, "budget never changes the summary");
}

#[test]
fn one_pool_shared_by_sweep_workers_and_shard_tasks_is_deterministic() {
    // Oversubscribed on purpose: 4 sweep workers x 4-shard runs on a
    // 4-thread pool exercises nested batches queueing behind worker
    // loops; the summary must still match the fully-serial render.
    let suite = suites::find("smoke").expect("smoke suite registered");
    let pool = Runtime::new(4);
    let baseline = suite
        .run_on(&Runtime::serial(), Some(2), 1, 1)
        .to_json(true)
        .render();
    assert_eq!(
        suite.run_on(&pool, Some(2), 4, 4).to_json(true).render(),
        baseline
    );
    assert_eq!(
        suite.run_on(&pool, Some(2), 2, 8).to_json(true).render(),
        baseline,
        "pool reused by a second differently-split sweep"
    );
}

#[test]
fn schedule_events_are_reflected_identically_in_parallel_records() {
    // Churn + fault events fire from inside worker threads; their effects
    // (fault drops, stop rounds) must be identical to the serial run.
    let spec = ScenarioSpec::new("det_churn", TopologyFamily::Grid(4, 4), |id, _n| {
        Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>
    })
    .schedule(
        Schedule::new()
            .at(
                4,
                ScheduledAction::Corrupt(CorruptionFamily::total(3), Recurrence::Once),
            )
            .at(8, ScheduledAction::Disconnect(ProcessId(15)))
            .at(
                14,
                ScheduledAction::Reconnect(ProcessId(15), vec![ProcessId(11), ProcessId(14)]),
            ),
    )
    .max_rounds(30);
    let scenarios: Vec<Arc<dyn Scenario>> = vec![Arc::new(spec)];
    let serial = sweep("churn", &scenarios, 0..8, 1);
    let parallel = sweep("churn", &scenarios, 0..8, 8);
    assert_eq!(serial.records, parallel.records);
    assert!(
        serial.records.iter().all(|r| r.messages.dropped_fault > 0),
        "every seed sees the scheduled fault"
    );
}

#[test]
fn event_stream_identical_at_1_1_1_vs_4_4_4() {
    // The deterministic telemetry plane rides the same invariant as the
    // records: with a transient fault, a corruption family and link churn
    // all firing mid-window, the rendered --events stream must be
    // byte-identical at (pool, workers, shards) = (1, 1, 1) and (4, 4, 4).
    let spec = ScenarioSpec::new("det_events", TopologyFamily::Grid(4, 4), |id, _n| {
        Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>
    })
    .delivery(Delivery::Lossy { p: 0.2 })
    .schedule(
        Schedule::new()
            .at(
                4,
                ScheduledAction::Corrupt(CorruptionFamily::total(3), Recurrence::Once),
            )
            .at(
                6,
                ScheduledAction::Corrupt(
                    CorruptionFamily {
                        targets: CorruptionTargets::RandomK(4),
                        corrupt_messages_p: 0.5,
                        drop_messages_p: 0.5,
                        garbage_messages: 0,
                        salt: 9,
                    },
                    Recurrence::Once,
                ),
            )
            .at(8, ScheduledAction::Disconnect(ProcessId(15)))
            .at(
                14,
                ScheduledAction::Reconnect(ProcessId(15), vec![ProcessId(11), ProcessId(14)]),
            ),
    )
    .max_rounds(20)
    .stabilization(6, |sim| ga_scenario::workload::gossip_agreed(sim, 0..16));
    let scenarios: Vec<Arc<dyn Scenario>> = vec![Arc::new(spec)];
    let telemetry = TelemetryConfig::default();
    let stream = |pool: usize, workers: usize, shards: usize| {
        let mut lines = String::new();
        let mut sink = |_i: usize, r: &RunRecord| {
            for event in &r.events {
                lines.push_str(
                    &ga_scenario::record::event_json(&r.scenario, r.seed, event).render(),
                );
                lines.push('\n');
            }
        };
        ga_scenario::sweep::sweep_stream_on(
            &Runtime::new(pool),
            "ev",
            &scenarios,
            0..4,
            workers,
            shards,
            Some(&telemetry),
            &mut sink,
        );
        lines
    };
    let serial = stream(1, 1, 1);
    for kind in [
        "\"kind\":\"round_end\"",
        "\"kind\":\"delivered\"",
        "\"kind\":\"dropped\"",
        "\"kind\":\"schedule_fired\"",
        "\"kind\":\"corruption_applied\"",
        "\"kind\":\"scrambled\"",
        "\"kind\":\"legality_flip\"",
    ] {
        assert!(serial.contains(kind), "expected {kind} in the event stream");
    }
    assert_eq!(stream(4, 4, 4), serial, "4/4/4 diverged from 1/1/1");
}
