//! Cross-path equivalence over every in-repo experiment configuration.
//!
//! Companion to the determinism suite: on all the configs the
//! experiment suite actually runs (`lint::engine_targets`), the
//! event-driven fast path and the reference per-cycle loop must produce
//! bit-identical sorted output and `SortReport`s — fused and per group
//! — modulo only the `fast_forwarded_cycles` observability counters.

use bonsai_amt::SimEngine;
use bonsai_bench::lint::engine_targets;
use bonsai_gensort::dist::uniform_u32;

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
        let (o, r) = SimEngine::new(cfg)
            .with_reference_loop(false)
            .try_sort_pipelined(data, 1)
            .expect("sorts");
        assert_eq!(out_s, o, "{target}: per-group outputs diverge");
        assert_eq!(
            rep_s.normalized(),
            r.normalized(),
            "{target}: per-group reports diverge"
        );
    }
}
