//! Exhaustive model checking of the pipelined DAG's ready/claim
//! protocol.
//!
//! These tests instantiate the *production* `execute_dag` scheduler
//! with `bonsai_mc::sync::McSync` and let the checker explore every
//! schedule (within the preemption budget) of the claim / resolve /
//! wait-while protocol on the ISSUE's canonical small shape: 2 workers
//! — the thread that calls `execute_dag`, which is worker 0, and the
//! one thread it spawns — over a 2-pass / 4-group plan (8 presorted
//! runs on a 4-leaf tree → fan-ins [2, 4] → 4 + 1 tasks). Every
//! schedule must run every task
//! exactly once, feed the parent its children's outputs in group
//! order, and terminate — no deadlock, no lost wakeup.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bonsai_amt::dag::execute_dag;
use bonsai_amt::{SortError, SortPlan};
use bonsai_mc::sync::atomic::AtomicUsize;
use bonsai_mc::sync::McSync;
use bonsai_mc::Checker;

/// The canonical 2-pass/4-group plan: pass 0 merges 8 runs in 4 groups
/// of fan-in 2; pass 1 merges their outputs in 1 group of fan-in 4.
fn small_plan() -> SortPlan {
    let plan = SortPlan::new(8, 4);
    assert_eq!(plan.num_passes(), 2);
    assert_eq!(plan.pass(0).groups, 4);
    assert_eq!(plan.pass(1).groups, 1);
    assert_eq!(plan.tasks(), 5);
    plan
}

/// Clean-drain model: stub tasks tally exactly-once execution with
/// single-op atomic gates (a harness mutex would blow up the schedule
/// space without exercising any scheduler code) and the parent checks
/// its inputs arrive in group order.
fn clean_model(workers: usize) {
    let runs: Vec<Arc<AtomicUsize>> = (0..5).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let runs_for_task = runs.clone();
    let plan = small_plan();
    let (root, meta) =
        execute_dag::<McSync, u64, (usize, usize), _>(plan, workers, move |pass, group, inputs| {
            let id = if pass == 0 { group } else { 4 };
            runs_for_task[id].fetch_add(1, Ordering::SeqCst);
            let value = if pass == 0 {
                assert!(inputs.is_empty(), "pass-0 tasks have no dependencies");
                1 << group
            } else {
                // Children arrive in group order, exactly once each.
                assert_eq!(inputs, vec![1, 2, 4, 8], "child outputs out of order");
                inputs.iter().sum()
            };
            Ok((value, (pass, group)))
        })
        .expect("no task fails");
    assert_eq!(root, 15, "root sees every leaf exactly once");
    // Metadata is folded in (pass, group) order on every schedule.
    assert_eq!(meta, vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]);
    for (id, counter) in runs.iter().enumerate() {
        assert_eq!(counter.load(Ordering::SeqCst), 1, "task {id} run count");
    }
}

#[test]
fn dag_claim_protocol_is_exhaustively_clean_at_two_workers() {
    let stats = Checker::new()
        .max_schedules(1_000_000)
        .check(|| clean_model(2))
        .expect("the DAG claim protocol must be schedule-clean");
    assert!(
        stats.complete,
        "exploration must exhaust the budgeted space"
    );
    assert!(
        stats.schedules > 50,
        "2 workers over 5 tasks is not a trivial space ({} schedules)",
        stats.schedules
    );
}

/// One worker is the calling thread alone — nothing is spawned — and
/// degenerates to sequential execution, but still crosses every
/// wait/notify edge (the worker parks only when the DAG drains).
/// Cheap enough for the Miri job, which runs this test by name.
#[test]
fn dag_claim_protocol_single_worker_smoke() {
    let stats = Checker::new()
        .check(|| clean_model(1))
        .expect("single-worker DAG must be schedule-clean");
    assert!(stats.complete);
}

/// Failure drain: pass-0 group 2 fails. Every schedule must cancel the
/// dependent root task without running it, terminate both workers (no
/// wedged `wait_while`), and surface exactly the failing task's error.
#[test]
fn dag_failure_drains_and_reports_the_failing_task() {
    let stats = Checker::new()
        .max_schedules(1_000_000)
        .check(|| {
            let ran_root = Arc::new(AtomicUsize::new(0));
            let ran_root_task = Arc::clone(&ran_root);
            let err =
                execute_dag::<McSync, u64, (), _>(small_plan(), 2, move |pass, group, _inputs| {
                    if pass == 0 && group == 2 {
                        Err(SortError::livelock(1, 10))
                    } else {
                        if pass == 1 {
                            ran_root_task.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok((0, ()))
                    }
                })
                .expect_err("the seeded failure must surface");
            assert_eq!(err, SortError::livelock(1, 10));
            assert_eq!(
                ran_root.load(Ordering::SeqCst),
                0,
                "a task with a failed child must be cancelled, not run"
            );
        })
        .expect("the failure path must be schedule-clean");
    assert!(stats.complete);
}

/// With two seeded failures the *minimum* (pass, group) task's error
/// must win on every schedule — the determinism contract that makes
/// pipelined errors bit-identical to the barrier scheduler's.
#[test]
fn dag_reports_the_minimum_failing_task_on_every_schedule() {
    let stats = Checker::new()
        .max_schedules(1_000_000)
        .check(|| {
            let err =
                execute_dag::<McSync, u64, (), _>(small_plan(), 2, move |pass, group, _inputs| {
                    if pass == 0 && (group == 1 || group == 3) {
                        // Distinguishable errors: stage payload encodes
                        // the group so a wrong winner is visible.
                        Err(SortError::livelock(group as u32, 10))
                    } else {
                        Ok((0, ()))
                    }
                })
                .expect_err("the seeded failures must surface");
            assert_eq!(
                err,
                SortError::livelock(1, 10),
                "the minimum failing (pass, group) must win"
            );
        })
        .expect("competing failures must still be schedule-clean");
    assert!(stats.complete);
}
