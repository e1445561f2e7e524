//! Shape selection makes no heap allocation.
//!
//! The adaptive runtime plans every job under one lock, so the search
//! must cost only its arithmetic: each `(p, ℓ)` tree and the presorter
//! are costed once, the presorter's compare-exchange units in closed
//! form, and the optimum is a running minimum, never a sorted list.
//! After one warm-up call each, the optimizer's and the planner's entry
//! points are counted by the global allocator of the AMT crate's
//! allocation tests, on every hardware preset and on the runtime's two
//! size buckets.

#[path = "../../amt/tests/common/mod.rs"]
mod common;

use bonsai_model::reconfig::ReconfigPlanner;
use bonsai_model::{ArrayParams, BonsaiOptimizer, HardwareParams};

fn assert_no_allocs<T>(what: &str, preset: &str, mut f: impl FnMut() -> T) {
    let _ = f();
    let (_, allocs) = common::count_allocs(f);
    assert_eq!(allocs, 0, "{what} on {preset}: {allocs} heap allocations");
}

#[test]
fn planning_a_job_allocates_nothing() {
    let presets = [
        ("aws_f1", HardwareParams::aws_f1()),
        ("aws_f1_single_bank", HardwareParams::aws_f1_single_bank()),
        ("hbm_u50", HardwareParams::hbm_u50()),
        ("aws_f1_ssd", HardwareParams::aws_f1_ssd()),
    ];
    let small = ArrayParams::new(1 << 10, 4);
    let large = ArrayParams::new(1 << 16, 4);
    for (preset, hw) in presets {
        let optimizer = BonsaiOptimizer::new(hw);
        let best = optimizer.latency_optimal(&small).expect("feasible");
        optimizer.throughput_optimal(&large).expect("feasible");

        assert_no_allocs("latency_optimal", preset, || {
            optimizer.latency_optimal(&small)
        });
        assert_no_allocs("throughput_optimal", preset, || {
            optimizer.throughput_optimal(&large)
        });
        assert_no_allocs("evaluate", preset, || {
            optimizer.evaluate(&large, best.config, best.presort)
        });
        let mut planner = ReconfigPlanner::new(hw, 4.3);
        assert_no_allocs("ReconfigPlanner::plan_job", preset, || {
            planner.plan_job(&small)
        });
        assert_no_allocs("ReconfigPlanner::plan_throughput_job", preset, || {
            planner.plan_throughput_job(&large)
        });
    }
}
