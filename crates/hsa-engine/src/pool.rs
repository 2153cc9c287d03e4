//! The persistent worker pool behind the concurrent service stack.
//!
//! Earlier revisions spawned a fresh scoped thread crew for every batch
//! call and funnelled every result through one `Mutex<Vec<Option<R>>>`.
//! Under a continual request stream that is pure overhead: thread spawn
//! and teardown per call, plus a lock every worker serialises on. This
//! module replaces both:
//!
//! * [`WorkerPool`] — N **persistent** workers fed through one shared
//!   injector channel. Workers live as long as the pool; dropping the
//!   pool closes the channel, lets the workers drain what was already
//!   submitted, and joins them (graceful shutdown). A panicking job is
//!   **isolated**: the worker catches the unwind, counts it
//!   ([`WorkerPool::panicked_jobs`]) and keeps serving.
//! * [`WorkerPool::run_batch`] — fan a `Vec` of items across the pool and
//!   collect results in input order. Each job delivers its result through
//!   a per-batch mpsc channel (per-slot writes, no shared result lock); a
//!   panic inside the job function is re-raised on the *calling* thread
//!   once the batch has drained, so batch semantics match a plain loop.
//! * [`parallel_map`] — the old entry point, now a thin shim: one
//!   transient pool per call (same cost as the scoped crew it replaces),
//!   same in-order results, same panic propagation. Hot paths should hold
//!   a [`WorkerPool`] (the [`Engine`](crate::Engine) does) instead of
//!   re-spawning per call.
//!
//! A `threads` of 1 degrades to a plain in-order loop on the calling
//! thread — sequential baselines stay honest.
//!
//! **Re-entrancy:** `run_batch` blocks the calling thread until the batch
//! drains. Calling it *from a worker of the same pool* can deadlock once
//! the pool is saturated (the batch's jobs queue behind their own caller);
//! submit plain jobs from workers instead.

use hsa_assign::SolveScratch;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: owns everything it touches (`'static`), so it can
/// cross the injector channel to whichever worker is free.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared injector: a closable MPMC queue (mutex + condvar — the
/// std mpsc receiver is single-consumer, and workers are many).
struct Injector {
    state: Mutex<InjectorState>,
    ready: Condvar,
}

struct InjectorState {
    queue: VecDeque<Job>,
    closed: bool,
}

impl Injector {
    fn new() -> Injector {
        Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut st = self.state.lock().expect("pool injector poisoned");
        debug_assert!(!st.closed, "submit after shutdown");
        st.queue.push_back(job);
        drop(st);
        self.ready.notify_one();
    }

    /// Blocks until a job is available or the channel is closed *and*
    /// drained (graceful shutdown finishes accepted work first).
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("pool injector poisoned");
        loop {
            if let Some(job) = st.queue.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("pool injector poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("pool injector poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// A persistent, channel-fed worker pool. See the module docs.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    panicked: Arc<AtomicU64>,
}

/// Resolves a configured thread count: 0 means one worker per available
/// core.
pub(crate) fn effective_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers (0 = one per
    /// available core).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = effective_threads(threads);
        let injector = Arc::new(Injector::new());
        let panicked = Arc::new(AtomicU64::new(0));
        let workers = (0..threads)
            .map(|i| {
                let injector = Arc::clone(&injector);
                let panicked = Arc::clone(&panicked);
                std::thread::Builder::new()
                    .name(format!("hsa-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = injector.pop() {
                            // Panic isolation: a poisoned job must not take
                            // its worker (or the whole pool) down with it.
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                panicked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            injector,
            workers,
            panicked,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked since the pool started (each was isolated; the
    /// worker kept running).
    pub fn panicked_jobs(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Submits one fire-and-forget job to whichever worker frees up
    /// first. Result delivery (if any) is the job's own business — pair
    /// with an mpsc sender or a reply slot.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.injector.push(Box::new(job));
    }

    /// Fans `items` across the pool, collecting `job`'s results in input
    /// order. Blocks until the whole batch drained. If any job panicked,
    /// a panic payload is re-raised here, on the calling thread.
    ///
    /// Delivery is **single-slot**: the batch shares one `Arc` carrying
    /// the job and a slot array; each worker writes its result straight
    /// into its own pre-assigned slot and decrements a countdown, and the
    /// last one wakes the caller. Per item that is one `Arc` bump and one
    /// uncontended slot lock — the previous scheme paid an `Arc` clone of
    /// the job *plus* an mpsc sender clone per item, and every result took
    /// a second hop through the channel before the caller re-scattered it
    /// into an ordered buffer.
    pub fn run_batch<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // A one-item batch has no parallelism to exploit; shipping it
            // to a worker just buys two context switches and a condvar
            // round-trip. Run it on the calling thread instead — this is
            // the service's per-request solve path, so the hop matters.
            let item = items.into_iter().next().expect("n == 1");
            return vec![job(item)];
        }
        let shared = Arc::new(BatchShared {
            job,
            slots: (0..n).map(|_| Mutex::new(None)).collect::<Vec<_>>(),
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            all_done: Condvar::new(),
        });
        for (i, item) in items.into_iter().enumerate() {
            let sh = Arc::clone(&shared);
            self.submit(move || {
                // Catch here (not only in the worker loop) so the batch
                // collector learns about the panic instead of hanging on a
                // result that will never arrive.
                let out = catch_unwind(AssertUnwindSafe(|| (sh.job)(item)));
                *sh.slots[i].lock().expect("batch slot poisoned") = Some(out);
                if sh.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    *sh.done.lock().expect("batch latch poisoned") = true;
                    sh.all_done.notify_one();
                }
            });
        }
        let mut done = shared.done.lock().expect("batch latch poisoned");
        while !*done {
            done = shared.all_done.wait(done).expect("batch latch poisoned");
        }
        drop(done);
        let mut first_panic = None;
        let mut out = Vec::with_capacity(n);
        for slot in &shared.slots {
            let result = slot
                .lock()
                .expect("batch slot poisoned")
                .take()
                .expect("all batch slots filled");
            match result {
                Ok(r) => out.push(r),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

/// The shared state of one `run_batch` call: the job, one result slot per
/// item (each written by exactly one worker, so its lock is never
/// contended), and the countdown latch the caller parks on.
struct BatchShared<R, F> {
    job: F,
    slots: Vec<Mutex<Option<std::thread::Result<R>>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    all_done: Condvar,
}

impl Drop for WorkerPool {
    /// Graceful shutdown: close the injector, let workers drain what was
    /// already accepted, join them all. When the pool's last owner is
    /// released inside one of its own jobs, the drop runs on that worker:
    /// its own handle is detached instead of joined (a thread cannot join
    /// itself), and it exits once the job returns to an empty, closed
    /// injector.
    fn drop(&mut self) {
        self.injector.close();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

/// Runs `job` over `items` on `threads` workers, collecting results in
/// input order.
///
/// A shim over [`WorkerPool::run_batch`] on a transient pool (kept for
/// one-shot sweeps; services hold a persistent pool instead). A `threads`
/// of 0 or 1 — or a batch of at most one item — runs as a plain in-order
/// loop on the calling thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, job: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    let threads = effective_threads(threads.max(1)).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(job).collect();
    }
    WorkerPool::new(threads).run_batch(items, job)
}

/// A free-list of [`SolveScratch`] workspaces shared by a batch run:
/// workers check a workspace out per query and return it afterwards, so
/// the number of live workspaces equals the in-flight query count and their
/// buffers keep their high-water capacity across the whole batch.
pub(crate) struct ScratchPool {
    free: Mutex<Vec<SolveScratch>>,
}

impl ScratchPool {
    pub(crate) fn new() -> ScratchPool {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn acquire(&self) -> SolveScratch {
        self.free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn release(&self, ws: SolveScratch) {
        self.free.lock().expect("scratch pool poisoned").push(ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 4, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single_thread() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 3, |x| x);
        assert!(out.is_empty());
        let out = parallel_map(vec![5u32, 6], 0, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn pool_runs_batches_in_order_and_is_reusable() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.size(), 3);
        let a = pool.run_batch((0..50u64).collect(), |x| x + 1);
        assert_eq!(a, (1..=50).collect::<Vec<_>>());
        // Same workers, second batch — nothing was torn down in between.
        let b = pool.run_batch((0..10u64).collect(), |x| x * x);
        assert_eq!(b, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(pool.panicked_jobs(), 0);
    }

    #[test]
    fn submitted_jobs_complete_before_shutdown() {
        let (tx, rx) = mpsc::channel();
        {
            let pool = WorkerPool::new(2);
            for i in 0..20u32 {
                let tx = tx.clone();
                pool.submit(move || {
                    let _ = tx.send(i);
                });
            }
            // Drop closes the injector and joins: every accepted job must
            // have run by the time the pool is gone.
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_is_isolated_and_counted() {
        let pool = WorkerPool::new(2);
        pool.submit(|| panic!("boom"));
        // The pool survives: later batches still run on the same workers.
        let out = pool.run_batch(vec![1u32, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        // The batch may finish on the other worker before the panicking
        // one has counted its unwind.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.panicked_jobs() == 0 {
            assert!(Instant::now() < deadline, "the panic was never counted");
            std::thread::yield_now();
        }
        assert_eq!(pool.panicked_jobs(), 1);
    }

    #[test]
    fn last_owner_released_inside_a_job_does_not_join_itself() {
        let pool = Arc::new(WorkerPool::new(2));
        let (go, wait) = mpsc::channel::<()>();
        let (done, finished) = mpsc::channel::<()>();
        let last = Arc::clone(&pool);
        pool.submit(move || {
            wait.recv().unwrap();
            // The test's handle is gone: this drop frees the pool on one
            // of its own workers.
            drop(last);
            done.send(()).unwrap();
        });
        drop(pool);
        go.send(()).unwrap();
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the job outlives the drop of its own pool");
    }

    #[test]
    fn batch_panic_propagates_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(vec![0u32, 1, 2, 3], |x| {
                assert!(x != 2, "poisoned item");
                x
            })
        }));
        assert!(result.is_err(), "the job's panic must reach the caller");
        // And the pool is still serviceable afterwards.
        let out = pool.run_batch(vec![7u32], |x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn scratch_pool_recycles() {
        let pool = ScratchPool::new();
        let ws = pool.acquire();
        pool.release(ws);
        let _again = pool.acquire();
        assert!(pool.free.lock().unwrap().is_empty());
    }
}
