//! The persistent execution runtime: one deterministic worker pool shared
//! by sharded stepping and the scenario sweep engine.
//!
//! Before this module existed the repo had two disjoint threading layers:
//! `Simulation::step` spawned a fresh `std::thread::scope` every round for
//! its shard compute phase (~tens of µs of spawn/join per round — enough
//! to eat the sharding win at small n), and the sweep engine spawned its
//! own scoped workers per sweep. [`Runtime`] replaces both: a fixed set of
//! worker threads created **once**, to which both layers submit work as
//! *indexed batches*.
//!
//! ## The determinism order rule
//!
//! A batch is a vector of tasks, and [`Runtime::run_batch`] guarantees
//! only that every task has finished when it returns — it says nothing
//! about which thread ran what or in which order tasks completed. All
//! observable ordering therefore lives with the **caller**, exactly as PR
//! 3 established for sharded stepping: each task writes into its own
//! index-addressed slot (a shard's scratch buffer, a sweep job's reorder
//! slot) and the submitter merges the slots **in ascending index order**
//! after the batch completes. Because tasks never share mutable state and
//! every random draw inside a task is derived from `(seed, id, round)`
//! coordinates, results are byte-identical at any pool size — including
//! pool size 1, where the batch simply runs inline on the caller in index
//! order (the serial special case, no OS threads at all).
//!
//! ## The nested-submission contract
//!
//! Batches may be submitted from inside a task of another batch — a sweep
//! worker's job steps a simulation whose sharded compute phase submits its
//! own batch. This cannot deadlock, at any pool size including 1, because
//! the submitter **participates**: after queueing its tasks it pops and
//! executes its own batch's tasks from the shared queue, and only when
//! none of its tasks remain queued does it block — and then only on tasks
//! *currently executing* on other live threads. By induction over the
//! nesting depth, the innermost batch always drains through its own
//! submitter even when every pool thread is blocked in an outer wait, so
//! `--workers 1` nests sweep × shard submission without a single spawned
//! thread. The flip side of the contract: a task must never block on
//! anything *outside* the runtime that one of its sibling tasks is
//! expected to produce (sibling tasks may run strictly sequentially).
//! Coordination through the runtime itself — nested batches, or waits
//! that some *running* task is guaranteed to satisfy, like the sweep's
//! reorder-ring backpressure — is safe.
//!
//! Panics inside a task are caught on the worker, the batch is marked
//! poisoned, and the first payload is re-raised on the submitting thread
//! once the batch has fully drained — the same surface behaviour as
//! `std::thread::scope`, but the pool survives and stays usable.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use crate::telemetry::Profiler;

/// A task whose borrows only need to outlive the batch submission.
pub type BatchTask<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Lifetime-erased task as stored in the shared queue. Safety: the
/// submitter blocks in [`Runtime::run_batch`] until every task of its
/// batch has finished, so the erased `'env` borrows outlive all runs.
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// Completion state of one submitted batch.
struct Batch {
    state: Mutex<BatchState>,
    /// Signalled on every task completion of this batch.
    done: Condvar,
}

struct BatchState {
    /// Tasks not yet finished (queued or executing).
    pending: usize,
    /// First panic payload raised by a task of this batch, if any.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One queue entry: the erased task plus its batch's completion latch.
struct QueuedTask {
    run: ErasedTask,
    batch: Arc<Batch>,
}

/// State shared by every handle and worker of one pool.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when tasks are queued (and on shutdown).
    task_ready: Condvar,
    /// Timing-plane hook: when attached, [`Runtime::run_batch`] records
    /// batch wall time and per-task queue-wait/busy time. Wall-clock data
    /// never flows back into task results — see [`crate::telemetry`].
    profiler: Mutex<Option<Profiler>>,
}

struct QueueState {
    tasks: VecDeque<QueuedTask>,
    shutdown: bool,
}

/// Joins the workers when the last user-held [`Runtime`] handle drops.
/// Workers themselves hold only `Arc<Shared>`, never the guard, so the
/// join can only run on a non-worker thread.
struct ShutdownGuard {
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("runtime queue poisoned");
            queue.shutdown = true;
        }
        self.shared.task_ready.notify_all();
        for handle in self.workers.lock().expect("worker list poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A cheaply-cloneable handle to a persistent worker pool.
///
/// See the [module docs](self) for the determinism order rule and the
/// nested-submission contract. Create one per thread budget
/// ([`Runtime::new`]) or share the process-wide default
/// ([`Runtime::global`]); every clone addresses the same pool, and the
/// pool's threads exit when the last handle drops.
#[derive(Clone)]
pub struct Runtime {
    shared: Arc<Shared>,
    /// Total thread budget: the caller plus the background workers.
    threads: usize,
    /// Present on every user handle; absent never — kept as an `Arc` so
    /// the workers are joined exactly once, when the last handle drops.
    _guard: Arc<ShutdownGuard>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a pool with a total budget of `threads` (clamped to ≥ 1).
    ///
    /// The budget counts the *submitting* thread: `threads - 1` OS worker
    /// threads are spawned, because the caller of
    /// [`run_batch`](Runtime::run_batch) always executes tasks itself. A
    /// budget of 1 therefore spawns **no** threads and runs every batch
    /// inline, in index order — the serial special case.
    pub fn new(threads: usize) -> Runtime {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            task_ready: Condvar::new(),
            profiler: Mutex::new(None),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ga-runtime-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runtime worker")
            })
            .collect();
        Runtime {
            shared: Arc::clone(&shared),
            threads,
            _guard: Arc::new(ShutdownGuard {
                shared,
                workers: Mutex::new(workers),
            }),
        }
    }

    /// A budget-1 pool: no OS threads, every batch runs inline.
    pub fn serial() -> Runtime {
        Runtime::new(1)
    }

    /// The process-wide default pool, created on first use and sized to
    /// the machine's parallelism (capped at 16, matching the scenario
    /// CLI's default worker budget). Components that are handed no
    /// explicit handle — e.g. a `Simulation` built without
    /// [`SimulationBuilder::runtime`](crate::sim::SimulationBuilder::runtime)
    /// whose step is sharded — fall back to this pool, so the process
    /// still runs **one** pool rather than per-call thread spawns.
    pub fn global() -> Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let threads = thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .clamp(1, 16);
                Runtime::new(threads)
            })
            .clone()
    }

    /// The pool's total thread budget (background workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a wall-clock [`Profiler`] to the pool: subsequent batches
    /// record batch wall time and per-task queue-wait/busy time into it.
    /// Visible to every handle of the pool.
    pub fn attach_profiler(&self, profiler: Profiler) {
        *self
            .shared
            .profiler
            .lock()
            .expect("runtime profiler poisoned") = Some(profiler);
    }

    /// The attached profiler, if any (a clone — all clones share one set
    /// of accumulators).
    pub fn profiler(&self) -> Option<Profiler> {
        self.shared
            .profiler
            .lock()
            .expect("runtime profiler poisoned")
            .clone()
    }

    /// Executes an indexed batch of tasks, returning when **all** have
    /// finished. Tasks may borrow from the caller's stack (`'env`).
    ///
    /// Tasks run on the pool's workers *and* on the calling thread; see
    /// the [module docs](self) for why that makes nested submission
    /// deadlock-free. No completion order is guaranteed — callers own
    /// determinism by giving each task its own index-addressed output
    /// slot and merging slots in ascending index order afterwards.
    ///
    /// # Panics
    ///
    /// If a task panics, the batch still drains fully and the first
    /// panic payload is re-raised here; the pool remains usable.
    pub fn run_batch<'env>(&self, tasks: Vec<BatchTask<'env>>) {
        if tasks.is_empty() {
            return;
        }
        // Timing-plane hook: with a profiler attached, wrap each task to
        // record its queue wait (submit → execution start) and busy time,
        // and time the whole batch. The wrapper changes nothing about
        // ordering or results — wall-clock readings only ever flow into
        // the profiler's side channel.
        let profiler = self
            .shared
            .profiler
            .lock()
            .expect("runtime profiler poisoned")
            .clone();
        let (tasks, submitted) = match &profiler {
            Some(profiler) => {
                let submitted = Instant::now();
                let tasks = tasks
                    .into_iter()
                    .map(|task| {
                        let profiler = profiler.clone();
                        Box::new(move || {
                            let started = Instant::now();
                            task();
                            profiler
                                .record_task(started.duration_since(submitted), started.elapsed());
                        }) as BatchTask<'env>
                    })
                    .collect();
                (tasks, Some(submitted))
            }
            None => (tasks, None),
        };
        let record_batch = || {
            if let (Some(profiler), Some(submitted)) = (&profiler, submitted) {
                profiler.record_batch(submitted.elapsed());
            }
        };
        if self.threads == 1 {
            // Serial special case: inline, in index order, no queue round
            // trip. The batch still drains fully on a task panic — the
            // same contract as the pooled path, so panic-path state is
            // pool-size independent too.
            let mut first_panic = None;
            for task in tasks {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(payload);
                }
            }
            record_batch();
            if let Some(payload) = first_panic {
                panic::resume_unwind(payload);
            }
            return;
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                pending: tasks.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().expect("runtime queue poisoned");
            for task in tasks {
                // SAFETY: this function does not return until `pending`
                // reaches 0, i.e. every task has finished executing, so
                // the 'env borrows captured by the task outlive its run.
                // The transmute only erases that lifetime; the fat-Box
                // layout is identical on both sides.
                #[allow(unsafe_code)]
                let run: ErasedTask =
                    unsafe { std::mem::transmute::<BatchTask<'env>, ErasedTask>(task) };
                queue.tasks.push_back(QueuedTask {
                    run,
                    batch: Arc::clone(&batch),
                });
            }
        }
        self.shared.task_ready.notify_all();

        // Participate: drain our own batch's tasks. Restricting the help
        // to this batch bounds stack growth to the nesting depth and is
        // what makes the deadlock-freedom induction go through.
        loop {
            let task = {
                let mut queue = self.shared.queue.lock().expect("runtime queue poisoned");
                match queue
                    .tasks
                    .iter()
                    .position(|t| Arc::ptr_eq(&t.batch, &batch))
                {
                    Some(pos) => queue.tasks.remove(pos),
                    None => None,
                }
            };
            match task {
                Some(task) => execute(task),
                None => break,
            }
        }

        // Only in-flight stragglers remain; they are executing on live
        // threads right now, so this wait always terminates.
        let mut state = batch.state.lock().expect("runtime batch poisoned");
        while state.pending > 0 {
            state = batch.done.wait(state).expect("runtime batch poisoned");
        }
        let panicked = state.panic.take();
        drop(state);
        record_batch();
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

/// Runs one queued task and releases its batch latch, capturing a panic
/// payload instead of unwinding through the pool.
fn execute(task: QueuedTask) {
    let result = panic::catch_unwind(AssertUnwindSafe(task.run));
    let mut state = task.batch.state.lock().expect("runtime batch poisoned");
    if let Err(payload) = result {
        state.panic.get_or_insert(payload);
    }
    state.pending -= 1;
    drop(state);
    task.batch.done.notify_all();
}

/// The background worker: pop-and-execute until shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("runtime queue poisoned");
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break Some(task);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared
                    .task_ready
                    .wait(queue)
                    .expect("runtime queue poisoned");
            }
        };
        match task {
            Some(task) => execute(task),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn indexed_squares(runtime: &Runtime, n: usize) -> Vec<usize> {
        let mut slots = vec![0usize; n];
        {
            let tasks: Vec<BatchTask<'_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| Box::new(move || *slot = i * i) as BatchTask<'_>)
                .collect();
            runtime.run_batch(tasks);
        }
        slots
    }

    #[test]
    fn batch_results_identical_at_every_pool_size() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            let runtime = Runtime::new(threads);
            assert_eq!(indexed_squares(&runtime, 37), expected, "threads={threads}");
            // Reuse: a second batch on the same pool sees no stale state.
            assert_eq!(
                indexed_squares(&runtime, 37),
                expected,
                "threads={threads} reuse"
            );
        }
    }

    #[test]
    fn serial_pool_spawns_nothing_and_runs_in_index_order() {
        let runtime = Runtime::serial();
        assert_eq!(runtime.threads(), 1);
        let order = Mutex::new(Vec::new());
        let tasks: Vec<BatchTask<'_>> = (0..8)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as BatchTask<'_>
            })
            .collect();
        runtime.run_batch(tasks);
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_batches_complete_at_every_pool_size() {
        for threads in [1, 2, 4] {
            let runtime = Runtime::new(threads);
            let total = AtomicUsize::new(0);
            let tasks: Vec<BatchTask<'_>> = (0..6)
                .map(|_| {
                    let (runtime, total) = (&runtime, &total);
                    Box::new(move || {
                        let inner: Vec<BatchTask<'_>> = (0..4)
                            .map(|_| {
                                Box::new(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                }) as BatchTask<'_>
                            })
                            .collect();
                        runtime.run_batch(inner);
                    }) as BatchTask<'_>
                })
                .collect();
            runtime.run_batch(tasks);
            assert_eq!(total.load(Ordering::Relaxed), 24, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        Runtime::new(2).run_batch(Vec::new());
        Runtime::serial().run_batch(Vec::new());
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let runtime = Runtime::new(3);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<BatchTask<'_>> = (0..8)
                .map(|i| Box::new(move || assert_ne!(i, 5, "boom")) as BatchTask<'_>)
                .collect();
            runtime.run_batch(tasks);
        }));
        assert!(outcome.is_err(), "the task panic must reach the submitter");
        // The pool is not consumed by the panic.
        assert_eq!(indexed_squares(&runtime, 5), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn batch_drains_fully_on_panic_at_every_pool_size() {
        // The drain-then-reraise contract is pool-size independent: every
        // non-panicking task of the batch runs even when an earlier task
        // panicked — serial included.
        for threads in [1, 4] {
            let runtime = Runtime::new(threads);
            let ran = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let tasks: Vec<BatchTask<'_>> = (0..8)
                    .map(|i| {
                        let ran = &ran;
                        Box::new(move || {
                            assert_ne!(i, 0, "boom");
                            ran.fetch_add(1, Ordering::Relaxed);
                        }) as BatchTask<'_>
                    })
                    .collect();
                runtime.run_batch(tasks);
            }));
            assert!(outcome.is_err(), "threads={threads}");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                7,
                "threads={threads}: the rest of the batch still ran"
            );
        }
    }

    #[test]
    fn global_pool_is_one_pool() {
        let a = Runtime::global();
        let b = Runtime::global();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert!(!Arc::ptr_eq(&a.shared, &Runtime::new(2).shared));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn attached_profiler_records_batches_without_changing_results() {
        let expected: Vec<usize> = (0..9).map(|i| i * i).collect();
        for threads in [1, 4] {
            let runtime = Runtime::new(threads);
            assert!(runtime.profiler().is_none(), "off by default");
            let profiler = Profiler::new();
            runtime.attach_profiler(profiler.clone());
            assert_eq!(indexed_squares(&runtime, 9), expected, "threads={threads}");
            let data = profiler.snapshot();
            assert_eq!(data.batches, 1, "threads={threads}");
            assert_eq!(data.tasks, 9, "threads={threads}");
            assert!(
                data.task_busy_ns <= data.batch_ns * threads as u64,
                "threads={threads}: busy time is bounded by budget × wall"
            );
        }
    }

    #[test]
    fn handles_share_the_pool() {
        let a = Runtime::new(2);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert_eq!(indexed_squares(&b, 9), indexed_squares(&a, 9));
    }
}
