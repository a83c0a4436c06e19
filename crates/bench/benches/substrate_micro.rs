//! Micro-benchmarks of the substrates the authority's per-play cost is
//! built from: the simnet message substrate (zero-copy broadcast fan-out,
//! the steady-state step loop and the build path), hashing, commitments,
//! committed-PRG audits, and one consensus of each backend via the pure
//! executor.
//!
//! Run `scripts/bench_substrate.sh` to capture the substrate numbers as a
//! `BENCH_substrate.json` perf snapshot.

use bytes::Bytes;
use criterion::{
    criterion_group, criterion_main, record_metric, BenchmarkId, Criterion, Throughput,
};
use ga_agreement::consensus::{DolevStrongConsensus, OmConsensus};
use ga_agreement::executor::{no_tamper, run_pure};
use ga_agreement::king::PhaseKing;
use ga_bench as _;
use ga_crypto::commitment::Commitment;
use ga_crypto::mac::KeyRing;
use ga_crypto::prg::CommittedPrg;
use ga_crypto::sha256::Sha256;
use ga_simnet::prelude::*;

/// Fan-out size used by the substrate benches (the paper's default
/// complete graph on 64 processors has 63 recipients per broadcast).
const FANOUT: usize = 63;

/// Broadcasts a pre-built shared [`Bytes`] payload every pulse — the
/// zero-copy path: one refcount bump per recipient.
struct BytesBroadcaster {
    payload: Bytes,
}

impl Process for BytesBroadcaster {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        ctx.broadcast(self.payload.clone());
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");

    // Pure fan-out cost: queueing one shared `Bytes` payload for 63
    // recipients, across payload sizes. The refcount path must stay
    // size-independent.
    for size in [8usize, 256, 4096] {
        g.throughput(Throughput::Elements(FANOUT as u64));
        g.bench_with_input(
            BenchmarkId::new("fanout63_bytes", size),
            &size,
            |b, &size| {
                let payload = Bytes::from(vec![0x5Au8; size]);
                let mut queue: Vec<Bytes> = Vec::with_capacity(FANOUT);
                b.iter(|| {
                    queue.clear();
                    for _ in 0..FANOUT {
                        queue.push(payload.clone());
                    }
                    std::hint::black_box(queue.len())
                })
            },
        );
    }

    // Steady-state step loop: complete(n), every process broadcasts 8
    // bytes per pulse — n × (n-1) routed messages per step — on the
    // zero-copy substrate. n=64 is the paper's default population;
    // n=256/1024 form the scaling series the sharded variants are
    // measured against.
    for n in [64usize, 256, 1024] {
        g.throughput(Throughput::Elements((n * (n - 1)) as u64));
        g.bench_function(BenchmarkId::new("step_loop_bytes", format!("n{n}")), |b| {
            let mut sim = broadcaster_sim(n, 1);
            b.iter(|| {
                sim.step();
                std::hint::black_box(sim.round())
            })
        });
    }
    // Telemetry event plane priced against the sink-disabled default: the
    // same n=64 step loop with an `EventSink` attached, pushing one event
    // per delivered message plus round brackets into the ring. The
    // events-off cost is the `step_loop_bytes/n64` row above — with the
    // sink disabled the only telemetry residue on the hot path is an
    // `is_some()` branch per message, which must stay within noise of the
    // pre-telemetry substrate.
    let n = 64;
    g.throughput(Throughput::Elements((n * (n - 1)) as u64));
    g.bench_function(BenchmarkId::new("step_loop_events", format!("n{n}")), |b| {
        let mut sim = Simulation::builder(Topology::complete(n))
            .telemetry(TelemetryConfig::default())
            .build_with(|_| {
                Box::new(BytesBroadcaster {
                    payload: Bytes::from(vec![0xEEu8; 8]),
                }) as Box<dyn Process>
            });
        sim.run(2);
        b.iter(|| {
            sim.step();
            std::hint::black_box(sim.round())
        })
    });

    // Intra-run sharding at n=1024: the same step loop with the compute
    // phase fanned out over 1/2/4 persistent-pool workers. The s1 row
    // prices the shard plumbing itself (same code path, no batch
    // submission); speedup of s2/s4 over `step_loop_bytes/n1024` tracks
    // the host's core count — traces stay byte-identical regardless.
    let n = 1024;
    g.throughput(Throughput::Elements((n * (n - 1)) as u64));
    for shards in [1usize, 2, 4] {
        g.bench_function(
            BenchmarkId::new("step_loop_sharded", format!("n{n}s{shards}")),
            |b| {
                let mut sim = broadcaster_sim(n, shards);
                b.iter(|| {
                    sim.step();
                    std::hint::black_box(sim.round())
                })
            },
        );
    }

    // Small-n sharding on an explicit persistent pool: at n=64/256 the
    // old per-round `thread::scope` spawn (~tens of µs) used to eat the
    // entire parallel win; with the pool the only per-round cost is batch
    // submission, so these rows record whether small populations now
    // shard profitably (vs the serial `step_loop_bytes/n{64,256}` rows;
    // still bounded by the host's core count).
    for n in [64usize, 256] {
        let shards = 4;
        g.throughput(Throughput::Elements((n * (n - 1)) as u64));
        g.bench_function(
            BenchmarkId::new("step_loop_pooled", format!("n{n}s{shards}")),
            |b| {
                let runtime = Runtime::new(shards);
                let mut sim = Simulation::builder(Topology::complete(n))
                    .shards(shards)
                    .runtime(runtime)
                    .build_with(|_| {
                        Box::new(BytesBroadcaster {
                            payload: Bytes::from(vec![0xEEu8; 8]),
                        }) as Box<dyn Process>
                    });
                sim.run(2);
                b.iter(|| {
                    sim.step();
                    std::hint::black_box(sim.round())
                })
            },
        );
    }
    // Quiescence-aware sparse stepping: one token circulates a ring while
    // every other process sleeps, so the per-round cost is O(active) = O(1)
    // and must stay flat from n=4k to n=64k. (An O(n)-scan scheduler shows
    // a 16× jump between these two rows — that regression is the thing
    // this series pins.)
    for n in [4096usize, 65536] {
        g.throughput(Throughput::Elements(1));
        g.bench_function(BenchmarkId::new("step_loop_sparse", format!("n{n}")), |b| {
            let mut sim = token_walker_sim(Topology::ring(n));
            b.iter(|| {
                sim.step();
                std::hint::black_box(sim.round())
            })
        });
    }

    // Million-vertex grid: the paper-scale sparse population. One token
    // wanders a 1000×1000 grid; the row prices a round at n=10⁶ (it must
    // sit near the ring rows above, not scale with n), and the process's
    // peak RSS is recorded alongside so memory regressions in the CSR
    // topology or the inbox arena surface in the same snapshot.
    {
        let n = 1_000_000usize;
        g.throughput(Throughput::Elements(1));
        g.bench_function(BenchmarkId::new("step_loop_sparse", "grid1m"), |b| {
            let mut sim = token_walker_sim(Topology::grid(1000, 1000));
            assert_eq!(sim.pending_messages(), 1, "exactly one token in flight");
            assert_eq!(sim.quiescent_processes(), n - 1);
            b.iter(|| {
                sim.step();
                std::hint::black_box(sim.round())
            })
        });
        if let Some(rss) = peak_rss_bytes() {
            record_metric("substrate/step_loop_sparse/grid1m_peak_rss_bytes", rss);
        }
    }

    // Build path: constructing the paper-scale sparse topologies. The
    // streaming builders emit rows directly into one pre-sized CSR flat
    // array (no per-vertex `Vec` intermediates, no sort/dedup for family
    // constructors).
    g.throughput(Throughput::Elements(1));
    g.bench_function(BenchmarkId::new("build_grid1m", "streaming"), |b| {
        b.iter(|| std::hint::black_box(Topology::grid(1000, 1000).edge_count()))
    });
    g.bench_function(BenchmarkId::new("build_ring1m", "streaming"), |b| {
        b.iter(|| std::hint::black_box(Topology::ring(1_000_000).edge_count()))
    });

    // Simulation build at n=10⁶: one slab arena vs 10⁶ separate boxes.
    // Both rows clone the same pre-built ring topology, so the delta is
    // purely the process-table (and side-table) construction cost.
    {
        let ring1m = Topology::ring(1_000_000);
        g.bench_function(BenchmarkId::new("build_sim1m", "slab"), |b| {
            let topology = &ring1m;
            b.iter(|| {
                let sim = Simulation::builder(topology.clone()).build_slab(|id| TokenWalker {
                    start: id.index() == 0,
                });
                std::hint::black_box(sim.len())
            })
        });
        g.bench_function(BenchmarkId::new("build_sim1m", "boxed"), |b| {
            let topology = &ring1m;
            b.iter(|| {
                let sim = Simulation::builder(topology.clone()).build_with(|id| {
                    Box::new(TokenWalker {
                        start: id.index() == 0,
                    }) as Box<dyn Process>
                });
                std::hint::black_box(sim.len())
            })
        });
    }

    // Dense activity at n=10⁵: every process broadcasts every round on a
    // ring, sharded over 4 pool workers — the active set is all of 0..n.
    {
        let n = 100_000usize;
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(BenchmarkId::new("step_loop_dense_active", "n100000"), |b| {
            let runtime = Runtime::new(4);
            let mut sim = Simulation::builder(Topology::ring(n))
                .shards(4)
                .runtime(runtime)
                .build_slab(|_| BytesBroadcaster {
                    payload: Bytes::from_static(&[0xEE; 8]),
                });
            sim.run(2);
            b.iter(|| {
                sim.step();
                std::hint::black_box(sim.round())
            })
        });
    }
    g.finish();
}

/// Perpetually circulating token: the start process emits once, then every
/// process forwards an arriving token to a neighbor other than its sender.
/// Exactly one process is active per round at any n — the reference
/// workload for pricing quiescence-aware stepping.
struct TokenWalker {
    start: bool,
}

impl Process for TokenWalker {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        if self.start {
            self.start = false;
            let to = ctx.neighbors()[0];
            ctx.send(ProcessId(to), Bytes::from_static(&[0x70]));
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

/// A token-walker simulation on `topology`, warmed two rounds so the token
/// is in flight and the arena buffers are recycled.
fn token_walker_sim(topology: Topology) -> Simulation {
    let mut sim = Simulation::builder(topology).build_with(|id| {
        Box::new(TokenWalker {
            start: id.index() == 0,
        }) as Box<dyn Process>
    });
    sim.run(2);
    sim
}

/// Linux peak resident set (`VmHWM`) in bytes; `None` off-Linux.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024.0)
}

/// A complete-graph simulation of 8-byte broadcasters, warmed into steady
/// state (recycled buffers populated; sharded sims on the process-wide
/// pool) so iterations measure only the per-round cost.
fn broadcaster_sim(n: usize, shards: usize) -> Simulation {
    let mut sim = Simulation::builder(Topology::complete(n))
        .shards(shards)
        .build_with(|_| {
            Box::new(BytesBroadcaster {
                payload: Bytes::from(vec![0xEEu8; 8]),
            }) as Box<dyn Process>
        });
    sim.run(2);
    sim
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/crypto");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| std::hint::black_box(Sha256::digest(d)))
        });
    }
    g.bench_function("commit+verify", |b| {
        b.iter(|| {
            let (c, o) = Commitment::commit(b"action-1", [7u8; 32]);
            std::hint::black_box(c.verify(b"action-1", &o).is_ok())
        })
    });
    g.bench_function("committed_prg_audit_16", |b| {
        let mut cp = CommittedPrg::new([5u8; 32], [9u8; 32]);
        let w = vec![0.5, 0.5];
        let transcript: Vec<(Vec<f64>, usize)> =
            (0..16).map(|_| (w.clone(), cp.sample(&w))).collect();
        b.iter(|| {
            std::hint::black_box(CommittedPrg::verify_samples(
                cp.commitment(),
                cp.reveal(),
                &transcript,
            ))
        })
    });
    g.finish();
}

fn bench_consensus(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/consensus_n7_f2");
    g.bench_function("om", |b| {
        b.iter(|| {
            let instances: Vec<OmConsensus> = (0..7).map(|me| OmConsensus::new(me, 7, 2)).collect();
            std::hint::black_box(run_pure(instances, &[1, 1, 1, 1, 0, 0, 0], no_tamper))
        })
    });
    g.bench_function("phase_king_f1", |b| {
        b.iter(|| {
            let instances: Vec<PhaseKing> = (0..7).map(|me| PhaseKing::new(me, 7, 1)).collect();
            std::hint::black_box(run_pure(instances, &[1, 1, 1, 1, 0, 0, 0], no_tamper))
        })
    });
    g.bench_function("dolev_strong", |b| {
        let ring = KeyRing::generate(7, 1);
        b.iter(|| {
            let instances: Vec<DolevStrongConsensus> = (0..7)
                .map(|me| DolevStrongConsensus::new(me, 7, 2, ring.authenticator(me)))
                .collect();
            std::hint::black_box(run_pure(instances, &[1, 1, 1, 1, 0, 0, 0], no_tamper))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_substrate, bench_crypto, bench_consensus);
criterion_main!(benches);
