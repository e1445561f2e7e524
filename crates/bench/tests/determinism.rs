//! Determinism over every in-repo experiment configuration.
//!
//! On all the configs the experiment suite actually runs
//! (`lint::engine_targets`), a second per-group sort of the same data
//! on the same thread — reusing the pass scratch the first one parked —
//! must produce a bit-identical `SortReport`, and both must sort like
//! the fused engine.

use bonsai_amt::SimEngine;
use bonsai_bench::lint::engine_targets;
use bonsai_gensort::dist::uniform_u32;

#[test]
fn every_experiment_config_repeats_bit_for_bit() {
    // Small enough to keep the widest (l = 256, SSD-throttled) targets
    // fast, large enough that every target runs at least two passes.
    let n_records = 20_000;
    for (target, cfg) in engine_targets() {
        // Width-scaling targets use 8/16-byte records in hardware, but
        // the simulator's data path is record-typed; u32 keys exercise
        // the same schedule.
        let data = uniform_u32(n_records, 41);
        let (out_1, report_1) = SimEngine::new(cfg)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        let (out_2, report_2) = SimEngine::new(cfg)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        assert_eq!(out_1, out_2, "{target}: output repeats");
        assert_eq!(report_1, report_2, "{target}: SortReport repeats");
        let (out_fused, _) = SimEngine::new(cfg).sort(data);
        assert_eq!(out_1, out_fused, "{target}: per-group output diverges");
    }
}
