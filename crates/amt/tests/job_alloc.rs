//! A thread's second sort of a shape does not rebuild its simulator,
//! and a warm sort's allocations do not grow with its merge groups.
//!
//! A one-worker sort parks its pass scratch — tree, loader, drain and
//! memory — on its thread when it ends, and the thread's next sort of
//! the same shape and record type takes it back, so a runtime worker
//! builds a tree once per shape rather than once per job. Counted here
//! on the latency-class job the adaptive runtime plans most often: 1 024
//! records on AMT(32, 64). The second job allocates fewer times than the
//! first by at least what building the tree alone allocates.
//!
//! A pass reads each task's runs where they lie and appends its output
//! to the sort's other buffer, so a warm sort allocates what its passes
//! grow, not what its groups copy.
//!
//! The `sanitize` feature's probes record findings on the heap, so the
//! file is compiled out under that feature, like `hot_loop_alloc`.
#![cfg(not(feature = "sanitize"))]

mod common;

use bonsai_amt::{AmtConfig, MergeTree, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::U32Rec;

#[test]
fn a_second_job_of_a_shape_reuses_the_first_ones_tree() {
    let amt = AmtConfig::new(32, 64);
    let config = SimEngineConfig::dram_sorter(amt, 4);
    let ((), tree_allocs) = common::count_allocs(|| drop(MergeTree::<U32Rec>::new(amt)));
    let job = |seed: u64| {
        let data = uniform_u32(1_024, seed);
        let engine = SimEngine::new(config);
        let (out, allocs) = common::count_allocs(move || {
            let mut engine = engine;
            engine.try_sort_yielding(data, &mut || {})
        });
        let (sorted, report) = out.expect("the job sorts");
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        (allocs, report)
    };
    let (first, first_report) = job(1);
    let (second, second_report) = job(2);
    assert_eq!(first_report.stages(), second_report.stages());
    assert!(
        second + tree_allocs <= first,
        "first job {first} allocations, second {second}, the tree alone {tree_allocs}"
    );
}

/// A warm sort allocates fewer than once per five merge groups on the
/// per-group plan, and no more than 60 times on the fused one. On
/// AMT(4, 16), 150 000 records presort into 9 375 runs that four
/// passes merge in 1 172 + 147 + 10 + 1 groups. Counted on the thread's
/// third sort of each plan, after two have warmed its parked scratch.
#[test]
fn a_warm_sort_allocates_per_sort_not_per_group() {
    let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(150_000, 3);
    let warm = |sort: &dyn Fn(Vec<U32Rec>) -> u64| {
        sort(data.clone());
        sort(data.clone());
        sort(data.clone())
    };
    let per_group = warm(&|data| {
        let engine = SimEngine::new(config);
        let (out, allocs) = common::count_allocs(move || {
            let mut engine = engine;
            engine.try_sort_yielding(data, &mut || {})
        });
        let (_, report) = out.expect("the job sorts");
        assert_eq!(report.stages(), 4);
        allocs
    });
    let fused = warm(&|data| {
        let engine = SimEngine::new(config);
        let (out, allocs) = common::count_allocs(move || {
            let mut engine = engine;
            engine.try_sort(data)
        });
        out.expect("the job sorts");
        allocs
    });
    assert!(
        per_group < 1_330 / 5,
        "per-group plan: {per_group} allocations"
    );
    assert!(fused <= 60, "fused plan: {fused} allocations");
}
