//! One worker means no thread: the caller of `execute_dag` is worker 0.
//!
//! The runtime's default (`pass_workers = 1`) and every benchmark path
//! run each sort's group DAG with one worker, so a spawn and join per
//! sort is pure overhead on a ~1 ms job. This file holds a single test
//! on purpose: an integration-test binary is its own process, so the
//! `/proc/self/task` count (the way the runtime's leak tests count
//! threads) is not disturbed by other tests' threads.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use bonsai_amt::dag::execute_dag;
use bonsai_amt::SortPlan;
use bonsai_mc::facade::StdSync;

/// Thread count of this process via /proc (Linux-only; 0 elsewhere, so
/// the count assertions pass trivially and the `ThreadId` ones remain).
fn count_own_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Runs the 5-task plan (8 runs on 4 leaves) and returns what each task
/// saw: the thread it ran on and the process's thread count.
fn observe(workers: usize) -> Vec<(ThreadId, usize)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let (root, meta) = execute_dag::<StdSync, u64, (), _>(
        SortPlan::new(8, 4),
        workers,
        move |_pass, _group, inputs| {
            sink.lock()
                .expect("no task panics")
                .push((std::thread::current().id(), count_own_threads()));
            Ok((1 + inputs.iter().sum::<u64>(), ()))
        },
    )
    .expect("no task fails");
    assert_eq!((root, meta.len()), (5, 5));
    let seen = seen.lock().expect("no task panics").clone();
    assert_eq!(seen.len(), 5, "every task ran exactly once");
    seen
}

#[test]
fn one_worker_runs_every_task_on_the_calling_thread() {
    let me = std::thread::current().id();
    let before = count_own_threads();

    for (thread, threads_alive) in observe(1) {
        assert_eq!(thread, me, "workers = 1 must not leave the caller");
        assert_eq!(threads_alive, before, "workers = 1 must not spawn");
    }
    assert_eq!(count_own_threads(), before);

    // Two workers are the caller plus exactly one spawned thread, alive
    // for as long as any task is unresolved and joined on return.
    let seen = observe(2);
    for &(_, threads_alive) in &seen {
        if before > 0 {
            assert_eq!(threads_alive, before + 1, "workers = 2 spawns one thread");
        }
    }
    assert_eq!(count_own_threads(), before, "the spawned worker is joined");
}
