//! Cross-path equivalence over every in-repo experiment configuration.
//!
//! Companion to the determinism suite: on all the configs the
//! experiment suite actually runs (`lint::engine_targets`), the
//! event-driven fast path and the reference per-cycle loop must produce
//! bit-identical sorted output and `SortReport`s — fused and per group
//! at every worker count — modulo only the `fast_forwarded_cycles`
//! observability counters.

use bonsai_amt::SimEngine;
use bonsai_bench::lint::engine_targets;
use bonsai_gensort::dist::uniform_u32;

/// Worker counts the fast path is compared at (`0` = one per core).
const WORKERS: [usize; 4] = [1, 2, 3, 0];

#[test]
fn every_experiment_config_agrees_across_paths() {
    let n_records = 20_000;
    for (target, cfg) in engine_targets() {
        let data = uniform_u32(n_records, 47);

        let (out_ref, rep_ref) = SimEngine::new(cfg)
            .with_reference_loop(true)
            .sort(data.clone());
        let (out_fast, rep_fast) = SimEngine::new(cfg)
            .with_reference_loop(false)
            .sort(data.clone());
        assert_eq!(out_ref, out_fast, "{target}: fused outputs diverge");
        assert_eq!(
            rep_ref.fast_forwarded_cycles, 0,
            "{target}: reference path must never fast-forward"
        );
        assert_eq!(
            rep_ref.normalized(),
            rep_fast.normalized(),
            "{target}: fused reports diverge"
        );

        let (out_s, rep_s) = SimEngine::new(cfg)
            .with_reference_loop(true)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        for w in WORKERS {
            let (o, r) = SimEngine::new(cfg)
                .with_reference_loop(false)
                .try_sort_pipelined(data.clone(), w)
                .expect("sorts");
            assert_eq!(out_s, o, "{target} workers={w}: per-group outputs diverge");
            assert_eq!(
                rep_s.pipeline_overlap_cycles, r.pipeline_overlap_cycles,
                "{target} workers={w}: overlap depends on the loop"
            );
            assert_eq!(
                rep_s.clone().normalized(),
                r.normalized(),
                "{target} workers={w}: per-group reports diverge"
            );
        }
    }
}
