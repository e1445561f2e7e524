//! A generic worker pool draining a [`ClassQueue`].
//!
//! Workers pop jobs from the queue, run them through a shared runner
//! function and append what it returns — `Some` outputs only, so a job
//! that delivered its result elsewhere leaves nothing behind — to a
//! results vector. The runner also gets a *lend* callback for the job:
//! called at one of the job's yield points, it runs at most one queued
//! latency-class job ([`ClassQueue::try_pop_latency`]) through the same
//! runner on the same worker and says whether it did. A lent job's own
//! callback does nothing, so lending never nests. Like the queue,
//! the pool is generic over a [`SyncOps`] facade: production code uses
//! [`StdSync`], while `tests/mc_pool_shutdown.rs` drives the full
//! spawn/drain/shutdown protocol through `bonsai_mc::sync::McSync`.
//!
//! Shutdown is owned by the pool, not the caller:
//!
//! - [`WorkerPool::finish`] closes the queue, joins every worker and
//!   hands back the results (panicking — after all joins — only if a
//!   worker thread itself died).
//! - Dropping the pool without calling `finish` closes the queue, then
//!   joins the workers anyway, so an abandoned pool can neither wedge
//!   parked workers nor leak detached threads.

use std::sync::Arc;

use bonsai_mc::facade::{StdSync, SyncOps};

use crate::class_queue::{ClassQueue, Classed, PushError};

struct PoolShared<J: Send + Classed, R: Send, S: SyncOps> {
    queue: ClassQueue<J, S>,
    results: S::Mutex<Vec<R>>,
}

/// A fixed-size worker pool draining a [`ClassQueue`].
pub struct WorkerPool<J: Send + Classed + 'static, R: Send + 'static, S: SyncOps = StdSync> {
    shared: Arc<PoolShared<J, R, S>>,
    handles: Vec<S::JoinHandle>,
}

impl<J: Send + Classed + 'static, R: Send + 'static, S: SyncOps> std::fmt::Debug
    for WorkerPool<J, R, S>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("queue", &self.shared.queue)
            .finish()
    }
}

impl<J: Send + Classed + 'static, R: Send + 'static, S: SyncOps> WorkerPool<J, R, S> {
    /// Spawns `workers ≥ 1` threads draining `queue`, each running jobs
    /// through `runner` together with the job's lend callback (see the
    /// module doc). A `Some` return is kept for
    /// [`WorkerPool::finish`]; `None` (the job's result already went
    /// where it was wanted) stores nothing, so a pool that is never
    /// finished does not grow with the jobs it has run.
    pub fn start(
        workers: usize,
        queue: ClassQueue<J, S>,
        runner: impl Fn(J, &mut dyn FnMut() -> bool) -> Option<R> + Send + Sync + 'static,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue,
            results: S::mutex_named("pool.results", Vec::new()),
        });
        let runner = Arc::new(runner);
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let runner = Arc::clone(&runner);
                S::spawn(move || {
                    let keep = |result: Option<R>| {
                        if let Some(result) = result {
                            S::lock::<Vec<R>>(&shared.results).push(result);
                        }
                    };
                    let mut lend = || {
                        let lent = shared.queue.try_pop_latency();
                        lent.map(|job| keep(runner(job, &mut || false))).is_some()
                    };
                    while let Some(job) = shared.queue.pop() {
                        keep(runner(job, &mut lend));
                    }
                })
            })
            .collect();
        Self { shared, handles }
    }

    /// Jobs waiting in the queue (not yet claimed by a worker).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.queue.len()
    }

    /// Results collected so far and not yet handed out by
    /// [`WorkerPool::finish`].
    #[must_use]
    pub fn stored_results(&self) -> usize {
        S::lock::<Vec<R>>(&self.shared.results).len()
    }

    /// Enqueues a job, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] hands the job back after the pool shut
    /// down.
    pub fn submit(&self, job: J) -> Result<(), PushError<J>> {
        self.shared.queue.push(job)
    }

    /// Closes the queue without joining the workers: queued jobs still
    /// drain, further submits fail with [`PushError::Closed`], and the
    /// workers exit once the queue is empty. [`WorkerPool::finish`] (or
    /// drop) still joins them.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Closes the queue, joins every worker and returns the collected
    /// results (in completion order).
    ///
    /// # Panics
    ///
    /// If a worker thread itself panicked — but only after every other
    /// worker has been joined, so no thread is ever leaked on the way
    /// out.
    #[must_use]
    pub fn finish(mut self) -> Vec<R> {
        self.shared.queue.close();
        let mut worker_failures: Vec<String> = Vec::new();
        for handle in self.handles.drain(..) {
            if let Err(message) = S::join(handle) {
                worker_failures.push(message);
            }
        }
        // Drop runs after this; handles are drained and the queue is
        // already closed, so it is a no-op either way.
        let results = std::mem::take(&mut *S::lock(&self.shared.results));
        assert!(
            worker_failures.is_empty(),
            "runtime worker panicked: {}",
            worker_failures.join("; ")
        );
        results
    }
}

impl<J: Send + Classed + 'static, R: Send + 'static, S: SyncOps> Drop for WorkerPool<J, R, S> {
    fn drop(&mut self) {
        // Close first: joining a worker still parked in `pop` would
        // wedge the drop forever.
        self.shared.queue.close();
        // Join even if a worker panicked: swallowing the Err here
        // keeps drop from double-panicking while still reclaiming
        // every thread.
        for handle in self.handles.drain(..) {
            let _ = S::join(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_queue::JobClass;

    /// All-latency jobs: the queue is then a plain FIFO.
    #[derive(Debug, PartialEq, Eq)]
    struct Job(u32);

    impl Classed for Job {
        fn job_class(&self) -> JobClass {
            JobClass::Latency
        }
    }

    fn pool(
        workers: usize,
        depth: usize,
        runner: impl Fn(u32) -> u32 + Send + Sync + 'static,
    ) -> WorkerPool<Job, u32> {
        WorkerPool::start(workers, ClassQueue::new(depth, 0), move |Job(j), _| {
            Some(runner(j))
        })
    }

    #[test]
    fn collects_all_results() {
        let pool = pool(2, 4, |j| j * 10);
        for j in 0..8 {
            pool.submit(Job(j)).unwrap();
        }
        let mut results = pool.finish();
        results.sort_unstable();
        assert_eq!(results, (0..8).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn none_results_are_not_stored() {
        // Odd jobs "reply elsewhere": only the even ones are kept.
        let pool: WorkerPool<Job, u32> =
            WorkerPool::start(1, ClassQueue::new(4, 0), |Job(j), _| {
                (j % 2 == 0).then_some(j)
            });
        for j in 0..8 {
            pool.submit(Job(j)).unwrap();
        }
        assert!(pool.stored_results() <= 4);
        assert_eq!(pool.finish(), vec![0, 2, 4, 6]);
    }

    /// A job in either lane.
    #[derive(Debug)]
    struct Laned(u32, JobClass);

    impl Classed for Laned {
        fn job_class(&self) -> JobClass {
            self.1
        }
    }

    #[test]
    fn a_running_job_lends_its_worker_one_latency_job_per_call() {
        use std::sync::{mpsc, Mutex};

        let (started_tx, started) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        let pool: WorkerPool<Laned, u32> =
            WorkerPool::start(1, ClassQueue::new(8, 4), move |Laned(j, _), lend| {
                if j == 100 {
                    started_tx.send(()).unwrap();
                    go_rx.lock().unwrap().recv().unwrap();
                    assert!(lend(), "job 1 is queued");
                    assert!(lend(), "job 2 is queued");
                    assert!(!lend(), "only job 200 is left, and it is not lent");
                } else {
                    // Jobs 1 and 2 run lent, job 2 still queued while
                    // job 1 runs: a lent job has nothing to lend.
                    assert!(!lend(), "job {j} lent a job");
                }
                Some(j)
            });
        pool.submit(Laned(100, JobClass::Throughput)).unwrap();
        started.recv().unwrap();
        pool.submit(Laned(1, JobClass::Latency)).unwrap();
        pool.submit(Laned(2, JobClass::Latency)).unwrap();
        pool.submit(Laned(200, JobClass::Throughput)).unwrap();
        go.send(()).unwrap();
        // Completion order: the lent jobs finish inside job 100.
        assert_eq!(pool.finish(), vec![1, 2, 100, 200]);
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let completed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let observer = Arc::clone(&completed);
        let pool = pool(2, 4, move |j| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            observer.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            j + 1
        });
        for j in 0..4 {
            pool.submit(Job(j)).unwrap();
        }
        // Dropping must close the queue and join both workers; a wedge
        // here hangs the test suite, which is the regression signal.
        drop(pool);
        // Joining means drop blocked until the workers drained the
        // queue — every submitted job ran before drop returned.
        assert_eq!(completed.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    #[test]
    fn push_after_finish_returns_closed() {
        let pool = pool(1, 2, |j| j);
        let shared = Arc::clone(&pool.shared);
        let _ = pool.finish();
        assert_eq!(shared.queue.push(Job(9)), Err(PushError::Closed(Job(9))));
    }

    #[test]
    fn panicking_runner_does_not_wedge_finish() {
        let pool = pool(2, 4, |j| {
            assert!(j != 3, "runner rejects job 3");
            j
        });
        for j in 0..6 {
            pool.submit(Job(j)).unwrap();
        }
        // One worker dies on job 3; finish must still join both workers
        // and then surface the panic.
        let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.finish()))
            .expect_err("worker panic must surface");
        let message = failure
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("runtime worker panicked"),
            "unexpected message: {message}"
        );
    }
}
