//! Thread fan-out for batch calls, and the job queue behind the service.
//!
//! * [`parallel_map`] — the one scoped fan-out, behind
//!   [`Engine::solve_batch`](crate::Engine::solve_batch) too — deals a
//!   batch round-robin across scoped threads that live only as long as
//!   the call: thread `t` of `w` takes items `t`, `t + w`, `t + 2w`, …,
//!   and the results come back in input order. A panic inside the job is
//!   re-raised on the calling thread once every thread has joined, so a
//!   batch behaves like a plain loop. A width of 1, or a batch of at most
//!   one item, runs in place on the calling thread.
//! * `WorkerPool` — N **persistent** workers fed through one shared
//!   injector queue, for a stream of independent jobs. Only the
//!   [`Service`](crate::Service) and the [`Portfolio`](crate::Portfolio)
//!   own one. Dropping the pool closes the queue, lets the workers drain
//!   what was already submitted, and joins them (graceful shutdown). A
//!   panicking job is **isolated**: the worker catches the unwind and
//!   keeps serving.
//!
//! A thread count of 0 means one thread per available core, everywhere.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work: owns everything it touches (`'static`), so it can
/// cross the injector queue to whichever worker is free.
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

    /// Blocks until a job is available or the queue is closed *and*
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

/// A persistent, queue-fed worker pool. See the module docs.
pub(crate) struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
}

/// Resolves a configured thread count: 0 means one thread per available
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
    pub(crate) fn new(threads: usize) -> WorkerPool {
        let injector = Arc::new(Injector::new());
        let workers = (0..effective_threads(threads))
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("hsa-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = injector.pop() {
                            // Panic isolation: a poisoned job must not take
                            // its worker (or the whole pool) down with it.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { injector, workers }
    }

    /// Number of worker threads.
    pub(crate) fn size(&self) -> usize {
        self.workers.len()
    }

    /// Submits one fire-and-forget job to whichever worker frees up
    /// first. Result delivery (if any) is the job's own business — pair
    /// with an mpsc sender or a reply slot.
    pub(crate) fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.injector.push(Box::new(job));
    }
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

/// Runs `job` over `items` on up to `threads` scoped threads (0 = one per
/// available core), collecting results in input order.
///
/// The threads live only as long as the call, so `job` may borrow from
/// the caller. If `job` panics, the panic is re-raised here once every
/// thread has joined. A width of 1, or a batch of at most one item, runs
/// as a plain in-order loop on the calling thread.
pub(crate) fn parallel_map<I, R, F>(items: I, threads: usize, job: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    let width = effective_threads(threads).min(n);
    if width <= 1 {
        return items.map(job).collect();
    }
    let mut lanes: Vec<Vec<I::Item>> = (0..width)
        .map(|_| Vec::with_capacity(n.div_ceil(width)))
        .collect();
    for (i, item) in items.enumerate() {
        lanes[i % width].push(item);
    }
    let job = &job;
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| s.spawn(move || lane.into_iter().map(job).collect::<Vec<R>>()))
            .collect();
        // A lane's panic unwinds out of this closure; `scope` joins the
        // other lanes before it re-raises that panic on the caller.
        let mut done: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)).into_iter())
            .collect();
        (0..n)
            .map(|i| done[i % width].next().expect("lane i % width holds item i"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

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
        let out = parallel_map(vec![5u32, 6], 1, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn submitted_jobs_complete_before_shutdown() {
        let (tx, rx) = mpsc::channel();
        {
            let pool = WorkerPool::new(2);
            assert_eq!(pool.size(), 2);
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
    fn panicking_job_is_isolated() {
        // One worker: if the panic took it down, the next job never runs.
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("boom"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
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
        let result = catch_unwind(|| {
            parallel_map(vec![0u32, 1, 2, 3], 2, |x| {
                assert!(x != 2, "poisoned item");
                x
            })
        });
        let payload = result.expect_err("the job's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(msg, Some("poisoned item"), "the job's own payload");
    }
}
