//! Persistent worker pool behind every parallel kernel in this crate.
//!
//! The first parallel kernel invocation lazily spins up a set of detached
//! worker threads that live for the rest of the process; each subsequent
//! kernel call only pushes one small job handle per helper onto a shared
//! queue. This replaces the per-call `crossbeam::scope` thread spawning the
//! crate started with — at paper scale (tens of thousands of kernel calls
//! per training run) the per-call spawn/join tax dominated the win from
//! parallelism for all but the largest products.
//!
//! ## Execution model (work-stealing-lite)
//!
//! A job is a list of `n_chunks` independent chunk indices plus a task
//! closure. Chunk indices are claimed with an atomic counter, so faster
//! workers automatically take more chunks (cheap dynamic load balancing
//! without per-worker deques). The *calling* thread participates: it claims
//! chunks like any worker, then blocks on a condvar until the last chunk
//! completes. Nested `run_chunks` calls from inside a task are safe — the
//! inner caller also participates, so progress never depends on free
//! workers.
//!
//! ## Thread-count configuration
//!
//! The worker count is resolved once and cached in a [`OnceLock`]:
//!  1. [`set_num_threads`] (first caller wins, e.g. from `VgodConfig`),
//!  2. else the `VGOD_NUM_THREADS` environment variable,
//!  3. else `std::thread::available_parallelism()`, capped at 8 (the kernels
//!     are memory-bound well before that on typical hardware).
//!
//! `VGOD_NUM_THREADS=1` (or [`set_num_threads(1)`](set_num_threads)) forces
//! every kernel down its sequential path — useful when debugging. Results
//! do not depend on it: every kernel is row-disjoint or sequential, so any
//! thread count gives the same bits (see `DESIGN.md` § Threading model).
//! [`force_sequential`] toggles the same behaviour at runtime without
//! touching the cached configuration (used by the kernel benchmarks to
//! measure sequential baselines).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on auto-detected worker threads (explicit configuration may
/// exceed it).
const AUTO_THREAD_CAP: usize = 8;

static CONFIGURED_THREADS: OnceLock<usize> = OnceLock::new();
static FORCE_SEQUENTIAL: AtomicBool = AtomicBool::new(false);

/// Error returned by [`set_num_threads`] once the pool size is fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCountAlreadySet {
    /// The thread count that is already in effect.
    pub current: usize,
}

impl std::fmt::Display for ThreadCountAlreadySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vgod-tensor thread count already resolved to {}",
            self.current
        )
    }
}

impl std::error::Error for ThreadCountAlreadySet {}

/// Fix the worker-thread count before the first parallel kernel runs.
///
/// Returns `Err` (with the count in effect) if the count was already
/// resolved — by an earlier call, by the `VGOD_NUM_THREADS` environment
/// variable being read, or by a kernel having already run. `n` is clamped to
/// at least 1.
pub fn set_num_threads(n: usize) -> Result<(), ThreadCountAlreadySet> {
    let n = n.max(1);
    let mut accepted = false;
    let current = *CONFIGURED_THREADS.get_or_init(|| {
        accepted = true;
        n
    });
    if accepted || current == n {
        Ok(())
    } else {
        Err(ThreadCountAlreadySet { current })
    }
}

/// The number of threads parallel kernels will use (1 = sequential).
///
/// Resolved once and cached; see the module docs for the precedence order.
pub fn num_threads() -> usize {
    if FORCE_SEQUENTIAL.load(Ordering::Relaxed) {
        return 1;
    }
    *CONFIGURED_THREADS.get_or_init(|| {
        match std::env::var("VGOD_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(AUTO_THREAD_CAP),
        }
    })
}

/// Route every kernel through its sequential path while `on` is set,
/// regardless of the configured thread count. Intended for benchmarks
/// (sequential baselines) and debugging; not a synchronisation point —
/// kernels already running are unaffected.
pub fn force_sequential(on: bool) {
    FORCE_SEQUENTIAL.store(on, Ordering::Relaxed);
}

/// One parallel region. Workers (and the caller) claim chunk indices from
/// `next` until exhausted; the last completed chunk flips `done`.
struct Job {
    /// Lifetime-erased pointer to the caller's task closure.
    ///
    /// Safety contract: only dereferenced for a successfully claimed chunk
    /// index (`next.fetch_add() < n_chunks`), and every claimed chunk bumps
    /// `completed` only *after* the call returns. `run_chunks` blocks until
    /// `completed == n_chunks`, so the pointee outlives every dereference.
    task: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// Safety: `task` is only used under the contract documented on the field;
// all other fields are Sync primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    job_available: Condvar,
    spawned_workers: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        job_available: Condvar::new(),
        spawned_workers: Mutex::new(0),
    })
}

impl Pool {
    fn ensure_workers(&'static self, target: usize) {
        let mut count = self
            .spawned_workers
            .lock()
            .expect("worker bookkeeping poisoned");
        while *count < target {
            std::thread::Builder::new()
                .name(format!("vgod-worker-{count}"))
                .spawn(move || worker_loop(self))
                .expect("failed to spawn vgod-tensor worker thread");
            *count += 1;
        }
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = pool.job_available.wait(queue).expect("job queue poisoned");
            }
        };
        execute(&job);
    }
}

/// Claim-and-run chunks of `job` until none remain.
fn execute(job: &Job) {
    loop {
        let index = job.next.fetch_add(1, Ordering::Relaxed);
        if index >= job.n_chunks {
            return;
        }
        // Safety: see the contract on `Job::task` — `index` was claimed.
        let task = unsafe { &*job.task };
        if catch_unwind(AssertUnwindSafe(|| task(index))).is_err() {
            job.panicked.store(true, Ordering::Release);
        }
        if job.completed.fetch_add(1, Ordering::AcqRel) + 1 == job.n_chunks {
            let mut done = job.done.lock().expect("job completion flag poisoned");
            *done = true;
            job.done_cv.notify_all();
        }
    }
}

/// Run `task(0..n_chunks)` across the worker pool, blocking until every
/// chunk has completed. Chunks must be independent; each index is executed
/// exactly once. Runs inline when the pool is sequential or there is only
/// one chunk.
///
/// # Panics
/// Re-panics (with a generic message) if any chunk panicked; the remaining
/// chunks still run so the pool stays consistent.
pub(crate) fn run_chunks(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    run_with_threads(n_chunks, num_threads(), task);
}

/// Run `task(0..n_tasks)` on the shared worker pool with an explicit
/// concurrency cap (counting the calling thread, which participates).
///
/// `max_threads == 0` defers to the pool's configured thread count
/// ([`num_threads`], so `force_sequential` and `VGOD_NUM_THREADS` apply);
/// any other value is used as-is — callers like the out-of-core batch
/// scorer may run *more* concurrent tasks than the kernel thread count,
/// since their tasks are I/O-heavy rather than purely compute-bound.
/// Tasks must be independent; each index runs exactly once, and nested
/// parallel kernels inside a task are safe (the inner caller participates).
///
/// # Panics
/// Re-panics if any task panicked; the remaining tasks still run.
pub fn run_indexed(n_tasks: usize, max_threads: usize, task: &(dyn Fn(usize) + Sync)) {
    let threads = if max_threads == 0 {
        num_threads()
    } else {
        max_threads
    };
    run_with_threads(n_tasks, threads, task);
}

fn run_with_threads(n_chunks: usize, threads: usize, task: &(dyn Fn(usize) + Sync)) {
    let threads = threads.min(n_chunks);
    if threads <= 1 {
        for index in 0..n_chunks {
            task(index);
        }
        return;
    }
    let pool = pool();
    pool.ensure_workers(threads - 1);

    // Safety: the Job holds this pointer only until `completed == n_chunks`,
    // and this function does not return before then (see Job::task).
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let job = Arc::new(Job {
        task: task_static as *const _,
        n_chunks,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });

    {
        let mut queue = pool.queue.lock().expect("job queue poisoned");
        for _ in 0..threads - 1 {
            queue.push_back(Arc::clone(&job));
        }
    }
    pool.job_available.notify_all();

    // The caller works too, then waits for stragglers.
    execute(&job);
    let mut done = job.done.lock().expect("job completion flag poisoned");
    while !*done {
        done = job
            .done_cv
            .wait(done)
            .expect("job completion flag poisoned");
    }
    drop(done);
    if job.panicked.load(Ordering::Acquire) {
        panic!("vgod-tensor worker task panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests must not depend on the machine's core count: pin the global
    /// thread count to 4 (first test to run wins; all call the same value).
    pub(crate) fn pin_test_threads() {
        let _ = set_num_threads(4);
    }

    #[test]
    fn run_chunks_executes_every_index_exactly_once() {
        pin_test_threads();
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_chunks(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_chunks_handles_zero_and_one_chunk() {
        pin_test_threads();
        run_chunks(0, &|_| panic!("no chunks to run"));
        let flag = AtomicUsize::new(0);
        run_chunks(1, &|i| {
            assert_eq!(i, 0);
            flag.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_is_reusable_across_many_small_jobs() {
        pin_test_threads();
        for round in 0..200 {
            let total = AtomicUsize::new(0);
            run_chunks(7, &|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 28, "round {round}");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        pin_test_threads();
        let result = std::panic::catch_unwind(|| {
            run_chunks(8, &|i| {
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        });
        assert!(result.is_err(), "panic in a chunk must reach the caller");
        // The pool must still be usable afterwards.
        let total = AtomicUsize::new(0);
        run_chunks(5, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn run_indexed_honours_explicit_caps() {
        pin_test_threads();
        // Cap 1: strictly sequential, still every index exactly once.
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(32, 1, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // A cap above the configured pool size spawns the extra workers.
        let total = AtomicUsize::new(0);
        run_indexed(100, 16, &|i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
        // Cap 0 defers to the configured thread count; zero tasks is a no-op.
        run_indexed(0, 0, &|_| panic!("no tasks to run"));
        let flag = AtomicUsize::new(0);
        run_indexed(3, 0, &|_| {
            flag.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(flag.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_run_chunks_completes() {
        pin_test_threads();
        let total = AtomicUsize::new(0);
        run_chunks(4, &|_| {
            run_chunks(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn force_sequential_reports_one_thread() {
        pin_test_threads();
        force_sequential(true);
        assert_eq!(num_threads(), 1);
        force_sequential(false);
        assert!(num_threads() >= 1);
    }
}
