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
//! A pass's leaves read each task's runs where they lie and its root
//! appends the output to the sort's other buffer, so a warm sort
//! allocates what its passes grow, not what its groups copy, and holds
//! one input-sized buffer beyond its input.
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

/// The thread's third sort of 150 000 `U32Rec` on AMT(4, 16), after two
/// have warmed its parked scratch — the fused plan's or the per-group
/// plan's — and what it did to the heap beyond its handed-in input.
/// The records presort into 9 375 runs that four passes merge in
/// 1 172 + 147 + 10 + 1 groups.
fn warm_third_sort(fused: bool) -> common::HeapUse {
    let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(150_000, 3);
    let sort = |data: Vec<U32Rec>| {
        let engine = SimEngine::new(config);
        let (out, heap) = common::measure(move || {
            let mut engine = engine;
            if fused {
                engine.try_sort(data)
            } else {
                engine.try_sort_yielding(data, &mut || {})
            }
        });
        let (_, report) = out.expect("the job sorts");
        assert_eq!(report.stages(), 4);
        heap
    };
    sort(data.clone());
    sort(data.clone());
    sort(data)
}

/// A warm sort allocates a handful of times, whatever its group count:
/// on the per-group plan its 1 330 groups are as many tasks.
#[test]
fn a_warm_sort_allocates_per_sort_not_per_group() {
    let per_group = warm_third_sort(false).allocs;
    let fused = warm_third_sort(true).allocs;
    assert!(per_group <= 10, "per-group plan: {per_group} allocations");
    assert!(fused <= 10, "fused plan: {fused} allocations");
}

/// A warm sort holds its input and one input-sized buffer, the next
/// pass's, and little else: its leaves read the pass's input where it
/// lies and its root writes the next pass's input, so at its peak it
/// has allocated at most 1.25× the input's bytes beyond the input its
/// caller handed in (the run starts and the parked scratch are the
/// rest), on either plan.
#[test]
fn a_warm_sort_holds_one_buffer_beyond_its_input() {
    let input_bytes = (150_000 * size_of::<U32Rec>()) as f64;
    for fused in [false, true] {
        let peak = warm_third_sort(fused).peak_bytes as f64 / input_bytes;
        assert!(
            peak <= 1.25,
            "fused {fused}: peak live bytes {peak:.2}x the input's"
        );
    }
}
