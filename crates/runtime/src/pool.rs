//! A generic worker pool draining a [`ClassQueue`].
//!
//! Workers pop jobs from the queue and run each through a shared runner
//! function, which delivers the job's outcome itself (the runtime sends
//! it down the job's reply channel): the pool stores nothing. The runner
//! also gets a *lend* callback for the job: called at one of the job's
//! yield points, it runs at most one queued latency-class job
//! ([`ClassQueue::try_pop_latency`]) through the same runner on the
//! same worker and says whether it did. A lent job's own callback does
//! nothing, so lending never nests. Like the queue, the pool is generic
//! over a [`SyncOps`] facade: production code uses [`StdSync`], while
//! `tests/mc_pool_shutdown.rs` drives the full spawn/drain/shutdown
//! protocol through `bonsai_mc::sync::McSync`.
//!
//! Shutdown is owned by the pool, not the caller:
//!
//! - [`WorkerPool::finish`] closes the queue and joins every worker
//!   (panicking — after all joins — only if a worker thread itself
//!   died).
//! - Dropping the pool without calling `finish` closes the queue, then
//!   joins the workers anyway, so an abandoned pool can neither wedge
//!   parked workers nor leak detached threads.

use std::sync::Arc;

use bonsai_mc::facade::{StdSync, SyncOps};

use crate::class_queue::{ClassQueue, Classed, PushError};

/// A fixed-size worker pool draining a [`ClassQueue`].
pub struct WorkerPool<J: Send + Classed + 'static, S: SyncOps = StdSync> {
    queue: Arc<ClassQueue<J, S>>,
    handles: Vec<S::JoinHandle>,
}

impl<J: Send + Classed + 'static, S: SyncOps> std::fmt::Debug for WorkerPool<J, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("queue", &self.queue)
            .finish()
    }
}

impl<J: Send + Classed + 'static, S: SyncOps> WorkerPool<J, S> {
    /// Spawns `workers ≥ 1` threads draining `queue`, each running jobs
    /// through `runner` together with the job's lend callback (see the
    /// module doc).
    pub fn start(
        workers: usize,
        queue: ClassQueue<J, S>,
        runner: impl Fn(J, &mut dyn FnMut() -> bool) + Send + Sync + 'static,
    ) -> Self {
        let queue = Arc::new(queue);
        let runner = Arc::new(runner);
        let handles = (0..workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let runner = Arc::clone(&runner);
                S::spawn(move || {
                    let mut lend = || {
                        let lent = queue.try_pop_latency();
                        lent.map(|job| runner(job, &mut || false)).is_some()
                    };
                    while let Some(job) = queue.pop() {
                        runner(job, &mut lend);
                    }
                })
            })
            .collect();
        Self { queue, handles }
    }

    /// Jobs waiting in the queue (not yet claimed by a worker).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a job, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] hands the job back after the pool shut
    /// down.
    pub fn submit(&self, job: J) -> Result<(), PushError<J>> {
        self.queue.push(job)
    }

    /// Closes the queue without joining the workers: queued jobs still
    /// drain, further submits fail with [`PushError::Closed`], and the
    /// workers exit once the queue is empty. [`WorkerPool::finish`] (or
    /// drop) still joins them.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Closes the queue, joins every worker and returns the messages of
    /// those whose thread died. Closing first matters: joining a worker
    /// still parked in `pop` would wedge forever.
    fn close_and_join(&mut self) -> Vec<String> {
        self.queue.close();
        self.handles
            .drain(..)
            .filter_map(|handle| S::join(handle).err())
            .collect()
    }

    /// Closes the queue, lets the workers drain it and joins them all.
    ///
    /// # Panics
    ///
    /// If a worker thread itself panicked — but only after every other
    /// worker has been joined, so no thread is ever leaked on the way
    /// out.
    pub fn finish(mut self) {
        let worker_failures = self.close_and_join();
        assert!(
            worker_failures.is_empty(),
            "runtime worker panicked: {}",
            worker_failures.join("; ")
        );
    }
}

impl<J: Send + Classed + 'static, S: SyncOps> Drop for WorkerPool<J, S> {
    fn drop(&mut self) {
        // Join even if a worker panicked: ignoring the failures here
        // keeps drop from double-panicking while still reclaiming every
        // thread. After `finish` there is nothing left to join.
        let _ = self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

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

    /// A pool whose runner sends `runner(j)` down the returned channel.
    fn pool(
        workers: usize,
        depth: usize,
        runner: impl Fn(u32) -> u32 + Send + Sync + 'static,
    ) -> (WorkerPool<Job>, mpsc::Receiver<u32>) {
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::start(workers, ClassQueue::new(depth, 0), move |Job(j), _| {
            let _ = tx.send(runner(j));
        });
        (pool, rx)
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let (pool, rx) = pool(2, 4, |j| j * 10);
        for j in 0..8 {
            pool.submit(Job(j)).unwrap();
        }
        pool.finish();
        let mut results: Vec<u32> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results, (0..8).map(|j| j * 10).collect::<Vec<_>>());
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
        use std::sync::Mutex;

        let (started_tx, started) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        let (done_tx, done) = mpsc::channel();
        let pool: WorkerPool<Laned> =
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
                done_tx.send(j).unwrap();
            });
        pool.submit(Laned(100, JobClass::Throughput)).unwrap();
        started.recv().unwrap();
        pool.submit(Laned(1, JobClass::Latency)).unwrap();
        pool.submit(Laned(2, JobClass::Latency)).unwrap();
        pool.submit(Laned(200, JobClass::Throughput)).unwrap();
        go.send(()).unwrap();
        pool.finish();
        // Completion order: the lent jobs finish inside job 100.
        assert_eq!(done.iter().collect::<Vec<_>>(), vec![1, 2, 100, 200]);
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let (pool, rx) = pool(2, 4, |j| {
            std::thread::sleep(std::time::Duration::from_millis(2));
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
        assert_eq!(rx.try_iter().count(), 4);
    }

    #[test]
    fn push_after_finish_returns_closed() {
        let (pool, _rx) = pool(1, 2, |j| j);
        let queue = Arc::clone(&pool.queue);
        pool.finish();
        assert_eq!(queue.push(Job(9)), Err(PushError::Closed(Job(9))));
    }

    #[test]
    fn panicking_runner_does_not_wedge_finish() {
        let (pool, _rx) = pool(2, 4, |j| {
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
