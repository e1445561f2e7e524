//! A thread's second sort of a shape does not rebuild its simulator.
//!
//! A one-worker sort parks its pass scratch — tree, loader, drain and
//! memory — on its thread when it ends, and the thread's next sort of
//! the same shape and record type takes it back, so a runtime worker
//! builds a tree once per shape rather than once per job. Counted here
//! on the latency-class job the adaptive runtime plans most often: 1 024
//! records on AMT(32, 64). The second job allocates fewer times than the
//! first by at least what building the tree alone allocates.
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
