//! One worker means no thread: the caller of `map_pass` is worker 0.
//!
//! Every runtime job (its passes run on the job's own worker) and every
//! simulator benchmark path sort with one worker, so a spawn and join per pass is
//! pure overhead on a ~1 ms job. This file holds a single test on purpose: an
//! integration-test binary is its own process, so the
//! `/proc/self/task` count (the way the runtime's leak tests count
//! threads) is not disturbed by other tests' threads.

use std::sync::Mutex;
use std::thread::ThreadId;

use bonsai_amt::dag::map_pass;

/// Thread count of this process via /proc (Linux-only; 0 elsewhere, so
/// the count assertions pass trivially and the `ThreadId` ones remain).
fn count_own_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Runs a 5-group pass and returns what each group saw: the thread it
/// ran on and the process's thread count.
fn observe(workers: usize) -> Vec<(ThreadId, usize)> {
    let seen = Mutex::new(Vec::new());
    let out = map_pass(&mut vec![(); workers], 0..5, |(), group| {
        seen.lock()
            .expect("no task panics")
            .push((std::thread::current().id(), count_own_threads()));
        Ok::<_, bonsai_amt::SortError>(group)
    })
    .expect("no task fails");
    assert_eq!(out, [0, 1, 2, 3, 4]);
    let seen = seen.into_inner().expect("no task panics");
    assert_eq!(seen.len(), 5, "every group ran exactly once");
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

    // Two workers are the caller plus exactly one scoped thread, which
    // is alive at least while it runs a group and is joined on return.
    let seen = observe(2);
    if before > 0 {
        let most = seen.iter().map(|&(_, alive)| alive).max();
        assert_eq!(most, Some(before + 1), "workers = 2 spawns one thread");
    }
    assert_eq!(count_own_threads(), before, "the spawned worker is joined");

    // The functional sort runs its presort and every merge stage through
    // the same map, one worker per core (two on a 2-core host): every
    // helper is joined by the time the sort returns.
    let data = bonsai_gensort::dist::uniform_u32(200_000, 5);
    let (sorted, stages) = bonsai_amt::functional::sort_balanced(data, 16, 16);
    assert_eq!(stages, 4); // 12 500 runs on 16 leaves
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(count_own_threads(), before, "the sort's helpers are joined");
}
