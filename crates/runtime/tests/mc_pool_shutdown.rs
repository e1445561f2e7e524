//! Exhaustive model checking of the worker pool's shutdown protocols.
//!
//! These tests instantiate the *production* [`WorkerPool`] and
//! [`ClassQueue`] code with `bonsai_mc::sync::McSync` and let the
//! checker explore every schedule (within the preemption budget) of the
//! spawn/drain/shutdown protocol at small sizes — the sizes where
//! essentially all interleaving bugs in this kind of code manifest. The
//! queue's own push/pop/close/backpressure protocol is explored in
//! `mc_class_queue.rs`.
//!
//! The mutation test at the bottom seeds the classic shutdown bug
//! (`notify_one` where `notify_all` is required in `close`) into a
//! line-for-line copy of the queue's wait logic and proves the checker
//! flags it as a lost wakeup with a replayable schedule. `ClassQueue`
//! itself uses `notify_all` precisely because of this.

use std::collections::VecDeque;
use std::sync::Arc;

use bonsai_mc::sync::{self, McSync};
use bonsai_mc::{Checker, Failure, Schedule};
use bonsai_runtime::{ClassQueue, Classed, JobClass, WorkerPool};

/// All-latency jobs, as `PassScheduler::Fifo` tags them.
struct Job(u32);

impl Classed for Job {
    fn job_class(&self) -> JobClass {
        JobClass::Latency
    }
}

/// What the runner recorded: one entry per run, in completion order.
type Runs = Arc<sync::Mutex<Vec<u32>>>;

/// A 2-worker pool over a depth-1 queue whose runner records
/// `runner(job)` for every job it runs in a mutex it owns; the returned
/// handle reads it back.
fn pool(runner: fn(u32) -> u32) -> (WorkerPool<Job, McSync>, Runs) {
    let runs: Runs = Arc::new(sync::Mutex::named("runs", Vec::new()));
    let recorded = Arc::clone(&runs);
    let pool = WorkerPool::start(2, ClassQueue::new(1, 0), move |Job(job), _| {
        recorded.lock().push(runner(job));
    });
    (pool, runs)
}

/// The pool's full spawn/drain/shutdown protocol: 2 workers over a
/// depth-1 queue, 2 jobs, `finish`. Every schedule must run both jobs
/// exactly once and join both workers.
#[test]
fn pool_spawn_drain_shutdown_is_exhaustively_clean() {
    let stats = Checker::new()
        .check(|| {
            let (pool, runs) = pool(|job| job * 10);
            pool.submit(Job(1)).ok().expect("pool is open");
            pool.submit(Job(2)).ok().expect("pool is open");
            pool.finish();
            let mut results = runs.lock().clone();
            results.sort_unstable();
            assert_eq!(results, vec![10, 20], "every job ran exactly once");
        })
        .expect("the pool shutdown protocol must be schedule-clean");
    assert!(stats.complete);
}

/// Dropping the pool without `finish` (the abandoned-pool path) must
/// also terminate on every schedule: close unparks waiters, join
/// reclaims the workers.
#[test]
fn pool_drop_without_finish_is_exhaustively_clean() {
    let stats = Checker::new()
        .check(|| {
            let (pool, runs) = pool(|job| job + 1);
            pool.submit(Job(5)).ok().expect("pool is open");
            drop(pool);
            assert_eq!(*runs.lock(), vec![6], "drop drained the queue");
        })
        .expect("abandoned-pool shutdown must be schedule-clean");
    assert!(stats.complete);
}

// --- Seeded-bug mutation -------------------------------------------------

/// `ClassQueue` (one lane of it) with its `close` broadcast weakened to
/// `notify_one` — the exact mutation the real queue's comment warns
/// about. The wait logic is copied line-for-line from `class_queue.rs`
/// so the checker is exercising the same protocol shape, minus the fix.
struct BuggyQueue {
    state: sync::Mutex<BuggyState>,
    not_empty: sync::Condvar,
}

struct BuggyState {
    items: VecDeque<u32>,
    closed: bool,
}

impl BuggyQueue {
    fn new() -> Self {
        Self {
            state: sync::Mutex::named(
                "buggy.state",
                BuggyState {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            not_empty: sync::Condvar::named("buggy.not_empty"),
        }
    }

    fn pop(&self) -> Option<u32> {
        let guard = self.state.lock();
        let mut guard = self
            .not_empty
            .wait_while(guard, |s| s.items.is_empty() && !s.closed);
        guard.items.pop_front()
    }

    fn close(&self) {
        self.state.lock().closed = true;
        // MUTATION: the real queue broadcasts with notify_all here.
        // With two parked consumers only one observes the shutdown;
        // the other sleeps forever although its predicate is false.
        self.not_empty.notify_one();
    }
}

fn buggy_shutdown_model() {
    let queue = Arc::new(BuggyQueue::new());
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let queue = Arc::clone(&queue);
            sync::thread::spawn(move || {
                assert!(queue.pop().is_none(), "nothing was ever pushed");
            })
        })
        .collect();
    queue.close();
    for c in consumers {
        c.join().unwrap();
    }
}

#[test]
fn notify_one_close_mutation_is_flagged_as_lost_wakeup() {
    let report = Checker::new()
        .check(buggy_shutdown_model)
        .expect_err("the seeded notify_one bug must be found");

    // The failure is specifically a lost wakeup on the shutdown
    // condvar (not a misclassified deadlock: the starved consumer's
    // predicate is false, it *could* proceed if woken).
    match &report.failure {
        Failure::LostWakeup { condvar, .. } => {
            assert!(
                condvar.contains("buggy.not_empty"),
                "starved on the shutdown condvar, got: {condvar}"
            );
        }
        other => panic!("expected LostWakeup, got {other}"),
    }

    // The printed report carries the evidence: the weakened notify and
    // a consumer parked on the condvar.
    let printed = report.to_string();
    assert!(printed.contains("notify_one"), "trace names the bad notify");
    assert!(
        printed.contains("waits on"),
        "trace shows the parked waiter"
    );

    // And the schedule is replayable: parse it back out of its printed
    // form and reproduce the identical failure deterministically.
    let parsed: Schedule = report
        .schedule
        .to_string()
        .parse()
        .expect("printed schedule parses");
    assert_eq!(parsed, report.schedule);
    let replayed = Checker::new()
        .replay(&parsed, buggy_shutdown_model)
        .expect("replay must reproduce the failure");
    assert_eq!(replayed.failure, report.failure);
}

/// The same scenario against the *real* queue (broadcast close) is
/// clean — the control run proving the mutation test has teeth.
#[test]
fn broadcast_close_passes_the_mutation_scenario() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Job, McSync>::new(1, 0));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    sync::thread::spawn(move || {
                        assert!(queue.pop().is_none(), "nothing was ever pushed");
                    })
                })
                .collect();
            queue.close();
            for c in consumers {
                c.join().unwrap();
            }
        })
        .expect("broadcast close must survive the mutation scenario");
    assert!(stats.complete);
}
