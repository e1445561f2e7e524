//! Worker-count invariance over every in-repo experiment configuration.
//!
//! The acceptance bar for the parallel runtime: single-threaded and
//! N-worker runs must produce bit-identical `SortReport`s on all the
//! configs the experiment suite actually runs (`lint::engine_targets`).

use bonsai_amt::SimEngine;
use bonsai_bench::lint::engine_targets;
use bonsai_gensort::dist::uniform_u32;

/// Worker counts compared against 1 (`0` = one per core).
const WORKERS: [usize; 4] = [1, 2, 3, 0];

#[test]
fn every_experiment_config_is_worker_count_invariant() {
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
        for workers in WORKERS {
            let (out_n, report_n) = SimEngine::new(cfg)
                .try_sort_pipelined(data.clone(), workers)
                .expect("sorts");
            assert_eq!(
                out_1, out_n,
                "{target} workers={workers}: output depends on worker count"
            );
            assert_eq!(
                report_1, report_n,
                "{target} workers={workers}: SortReport depends on worker count"
            );
        }
        let (out_fused, _) = SimEngine::new(cfg).sort(data);
        assert_eq!(out_1, out_fused, "{target}: per-group output diverges");
    }
}
