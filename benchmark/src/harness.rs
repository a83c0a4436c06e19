//! The measuring loop shared by the four workloads: repeated set-up, a
//! closed loop of timed ops with a correctness check after each, and the
//! traced variant that records spans.

use std::time::Instant;

use crate::metrics::{Home, Ledger, END_TO_END, PER_LAYER};
use crate::procstat;
use crate::span::Recorder;
use crate::stats::{block_rates, median, percentile, sorted};

/// `run_seconds` in `BENCHMARK.json`: the run length the op counts in
/// each [`Spec`] were sized for on the builder's host.
pub const BASE_SECONDS: f64 = 20.0;

/// Run seeds fold onto this many suite seeds before they reach the
/// `smoke`, `unsupportive` and `authority` suites. All of them were run
/// while sizing the benchmark and pass every verdict the workloads
/// check, so no `--seed` can pick inputs on which an op fails.
pub const SUITE_SEEDS: u64 = 1024;

/// The offset `seed` adds to a suite's first seed.
pub fn suite_seed(seed: u64) -> u64 {
    seed % SUITE_SEEDS
}

/// The traced run and the untraced segment it is compared with each do
/// this fraction of the timed run's ops.
const TRACED_FRACTION: u64 = 10;

/// Chunks the traced run alternates between untraced and traced ops.
const TRACE_CHUNKS: usize = 10;

/// Blocks of equal op count the run is cut into: `ops_per_s_best` is
/// the fastest block's rate, `run.ops_per_s_q1` / `_q3` the quartiles.
const RATE_BLOCKS: usize = 100;

/// Fewest ops in a run, so that `--quick` still has quartiles to show.
const MIN_OPS: usize = 20;

/// A workload's fixed sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Whose per-layer metrics this workload's traced ops fill.
    pub home: Home,
    /// Ops in the measured region of a run of [`BASE_SECONDS`].
    pub base_ops: u64,
    /// How often the set-up is repeated; `setup_s` is taken over these.
    pub setups: usize,
}

impl Spec {
    /// Ops for a run of `seconds`: the work is fixed by the arguments,
    /// never by the clock, so counts and memory repeat exactly.
    pub fn ops_for(&self, seconds: f64) -> usize {
        let ops = (self.base_ops as f64 * seconds / BASE_SECONDS).round() as usize;
        ops.max(MIN_OPS)
    }
}

/// Cumulative network counters of a workload's system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub bytes: u64,
    pub rounds: u64,
    pub messages: u64,
}

/// One of the four workloads, set up and warm.
pub trait Workload {
    /// One op, as the timed run executes it.
    fn op(&mut self);

    /// The same op with a span around each call into a layer. Records
    /// one span named `op` and its children under `op` id `op`.
    fn op_traced(&mut self, rec: &mut Recorder, op: u32);

    /// Whether the last op's outputs are correct. Runs between ops,
    /// outside every op's own timing.
    fn check(&mut self) -> bool;

    /// Counters so far.
    fn counters(&self) -> Counters;

    /// Most spans one traced op records.
    fn spans_per_op(&self) -> usize;

    /// Fills in this workload's per-layer metrics from the traced
    /// segment and from isolated calls into the layers below it.
    fn layers(&mut self, traced: &Segment, rec: &Recorder, ledger: &mut Ledger);
}

/// A measured run of ops.
#[derive(Debug, Default)]
pub struct Segment {
    /// Wall time of every op, in run order.
    pub op_ns: Vec<u64>,
    /// First op's start to last check's end.
    pub wall_ns: u64,
    pub failed: u64,
    /// Counter growth over the segment.
    pub counters: Counters,
    /// Scheduler time on a CPU and waiting for one, where Linux says.
    on_cpu_ns: u64,
    run_queue_ns: u64,
}

impl Segment {
    fn with_capacity(ops: usize) -> Segment {
        Segment {
            op_ns: Vec::with_capacity(ops),
            ..Segment::default()
        }
    }

    pub fn ops(&self) -> usize {
        self.op_ns.len()
    }

    /// Median op time in milliseconds.
    pub fn op_ms_p50(&self) -> f64 {
        median(&self.op_ns) as f64 / 1e6
    }

    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops() as f64
    }

    /// On-CPU time over on-CPU plus run-queue wait; 1.0 if the scheduler
    /// kept no record.
    pub fn cpu_busy_frac(&self) -> f64 {
        let total = self.on_cpu_ns + self.run_queue_ns;
        if total == 0 {
            1.0
        } else {
            self.on_cpu_ns as f64 / total as f64
        }
    }
}

/// Sets the workload up `setups` times from nothing, dropping each
/// instance before the next is built; returns the last one and every
/// set-up's wall time.
fn set_up<W>(setups: usize, make: &impl Fn() -> W) -> (W, Vec<u64>) {
    let mut times = Vec::with_capacity(setups);
    let mut current = None;
    for _ in 0..setups.max(1) {
        drop(current.take());
        let start = Instant::now();
        current = Some(make());
        times.push(start.elapsed().as_nanos() as u64);
    }
    (current.expect("at least one set-up"), times)
}

/// Runs `ops` more ops back to back, timing each and checking it
/// afterwards, and adds them to `seg`. With a recorder the ops run
/// traced, numbered from where the segment stands.
fn measure<W: Workload>(w: &mut W, seg: &mut Segment, ops: usize, mut rec: Option<&mut Recorder>) {
    // The sample buffer was sized before the first op: nothing the
    // harness does between two ops allocates.
    debug_assert!(seg.op_ns.capacity() >= seg.ops() + ops);
    let before = w.counters();
    let sched_before = procstat::schedstat();
    let region = Instant::now();
    for _ in 0..ops {
        let op = seg.ops() as u32;
        let start = Instant::now();
        match rec.as_deref_mut() {
            Some(rec) => w.op_traced(rec, op),
            None => w.op(),
        }
        seg.op_ns.push(start.elapsed().as_nanos() as u64);
        seg.failed += u64::from(!w.check());
    }
    seg.wall_ns += region.elapsed().as_nanos() as u64;
    let after = w.counters();
    seg.counters.bytes += after.bytes - before.bytes;
    seg.counters.rounds += after.rounds - before.rounds;
    seg.counters.messages += after.messages - before.messages;
    if let (Some((cpu0, wait0)), Some((cpu1, wait1))) = (sched_before, procstat::schedstat()) {
        seg.on_cpu_ns += cpu1.saturating_sub(cpu0);
        seg.run_queue_ns += wait1.saturating_sub(wait0);
    }
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Ledger,
    /// Printed beside the metrics; not compared by anything.
    pub notes: Vec<(&'static str, f64)>,
}

/// How a segment ran as a whole: its rate, the spread of the rate over
/// the run and the middle and slow end of the op times, which on a
/// shared host say as much about the neighbours as about the code. The
/// timed run prints these beside its metrics; the traced run reports
/// them as the `run.*` layer.
fn run_rows(seg: &Segment, setup_ns: &[u64]) -> Vec<(&'static str, f64)> {
    let rates = sorted(&block_rates(&seg.op_ns, RATE_BLOCKS));
    let op_ns = sorted(&seg.op_ns);
    let op_ms = |p| percentile(&op_ns, p) as f64 / 1e6;
    vec![
        ("run.ops_per_s", seg.ops() as f64 * 1e9 / seg.wall_ns as f64),
        ("run.ops_per_s_q1", percentile(&rates, 25)),
        ("run.ops_per_s_q3", percentile(&rates, 75)),
        ("run.op_ms_p50", op_ms(50)),
        ("run.op_ms_p99", op_ms(99)),
        ("run.setup_cold_s", setup_ns[0] as f64 / 1e9),
        ("run.cpu_busy_frac", seg.cpu_busy_frac()),
    ]
}

/// `VmHWM` of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let kib = procstat::vm_hwm_kib().expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// The timed run: tracing off, every end-to-end metric.
pub fn run_timed<W: Workload>(spec: &Spec, seconds: f64, make: impl Fn() -> W) -> Outcome {
    let ops = spec.ops_for(seconds);
    // What the process start and, before a play, the preflight left as
    // the peak: if `peak_rss_mib` equals it, the workload never got
    // above it.
    let rss_at_start_mib = peak_rss_mib();
    let (mut w, setup_ns) = set_up(spec.setups, &make);
    let mut seg = Segment::with_capacity(ops);
    measure(&mut w, &mut seg, ops, None);
    drop(w);

    let mut metrics = Ledger::new(&END_TO_END);
    // Other tenants of the host only ever slow the code down, by a
    // different amount from one minute to the next, so the fast end of
    // the ops, and of the K set-ups, is what the code does.
    let rates = block_rates(&seg.op_ns, RATE_BLOCKS);
    metrics.set("ops_per_s_best", percentile(&sorted(&rates), 100));
    metrics.set("op_ms_p05", percentile(&sorted(&seg.op_ns), 5) as f64 / 1e6);
    metrics.set("setup_s", percentile(&sorted(&setup_ns), 5) as f64 / 1e9);
    metrics.set("bytes_per_op", seg.per_op(seg.counters.bytes));
    metrics.set("rounds_per_op", seg.per_op(seg.counters.rounds));
    metrics.set("peak_rss_mib", peak_rss_mib());

    let mut notes = vec![
        ("samples", seg.ops() as f64),
        ("rss_at_start_mib", rss_at_start_mib),
    ];
    notes.extend(run_rows(&seg, &setup_ns));
    Outcome {
        attempted: seg.ops() as u64,
        failed: seg.failed,
        metrics,
        notes,
    }
}

/// The traced run: a tenth of the ops untraced and the same number
/// traced, in alternating chunks so that drift of the host's speed falls
/// on both alike, then the workload's isolated layer measurements.
/// Returns the recorder so the caller can write the spans out.
pub fn run_traced<W: Workload>(
    spec: &Spec,
    seconds: f64,
    make: impl Fn() -> W,
) -> (Outcome, Recorder) {
    let ops = (spec.ops_for(seconds) / TRACED_FRACTION as usize).max(2);
    let (mut w, setup_ns) = set_up(spec.setups.min(3), &make);
    let mut plain = Segment::with_capacity(ops);
    let mut traced = Segment::with_capacity(ops);
    let mut rec = Recorder::with_capacity(ops * w.spans_per_op());
    let chunks = TRACE_CHUNKS.min(ops);
    for chunk in 0..chunks {
        let upto = ops * (chunk + 1) / chunks;
        let more = upto - plain.ops();
        measure(&mut w, &mut plain, more, None);
        measure(&mut w, &mut traced, more, Some(&mut rec));
    }

    let mut metrics = Ledger::new(&PER_LAYER);
    for (name, value) in run_rows(&plain, &setup_ns) {
        metrics.set(name, value);
    }
    metrics.set(
        "run.trace_overhead_pct",
        (traced.op_ms_p50() / plain.op_ms_p50() - 1.0) * 100.0,
    );
    w.layers(&traced, &rec, &mut metrics);

    let notes = vec![
        ("samples", ops as f64),
        ("op_ms_p50_traced", traced.op_ms_p50()),
        ("spans", rec.spans().len() as f64),
    ];
    let outcome = Outcome {
        attempted: (plain.ops() + traced.ops()) as u64,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
    };
    (outcome, rec)
}

/// A short traced run of a workload other than the invocation's own,
/// only to fill that workload's layers into `ledger`. Returns ops
/// attempted and ops failed.
pub fn probe<W: Workload>(ops: usize, make: impl Fn() -> W, ledger: &mut Ledger) -> (u64, u64) {
    let mut w = make();
    let mut seg = Segment::with_capacity(ops);
    let mut rec = Recorder::with_capacity(ops * w.spans_per_op());
    measure(&mut w, &mut seg, ops, Some(&mut rec));
    w.layers(&seg, &rec, ledger);
    (ops as u64, seg.failed)
}

/// Times `calls_per_block` calls of `f`, `blocks` times, and returns the
/// median block's nanoseconds per call — for layer calls too short to
/// time one by one.
pub fn ns_per_call(blocks: usize, calls_per_block: usize, mut f: impl FnMut()) -> f64 {
    let mut per_block = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let start = Instant::now();
        for _ in 0..calls_per_block {
            f();
        }
        per_block.push(start.elapsed().as_nanos() as u64);
    }
    median(&per_block) as f64 / calls_per_block as f64
}

/// Median wall time in milliseconds of `reps` calls of `f`, each call
/// timed on its own. `prepare` makes `f`'s input and `f` returns what it
/// built, so neither the preparation nor the drop is timed.
pub fn median_ms<I, T>(
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let input = prepare();
        let start = Instant::now();
        let built = f(input);
        times.push(start.elapsed().as_nanos() as u64);
        drop(built);
    }
    median(&times) as f64 / 1e6
}
