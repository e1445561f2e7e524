//! Worker-count invariance of the per-group sort.
//!
//! Its whole contract is that `workers` is a
//! wall-clock knob and nothing else: for any configuration, every worker
//! count must produce the same sorted output and the same per-pass cycle
//! counts, bit for bit. These tests draw randomized configurations and
//! check the invariant; the in-repo experiment configs are covered by
//! the bench crate's determinism suite.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

/// Worker counts compared against 1 (`0` = one per core).
const WORKERS: [usize; 4] = [1, 2, 3, 0];

#[test]
fn dag_reports_are_worker_count_invariant_on_random_configs() {
    let mut rng = Rng::seed_from_u64(0xA370_0040);
    for round in 0..24 {
        let len = rng.range_usize(1, 30_000);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let p = 1 << rng.below_usize(4);
        let l = 1 << rng.range_usize(1, 6);
        let presort = [1usize, 16][rng.below_usize(2)];
        let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
        cfg.presort = (presort > 1).then_some(presort);

        let (out_1, report_1) = SimEngine::new(cfg)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        for workers in WORKERS {
            let (out_n, report_n) = SimEngine::new(cfg)
                .try_sort_pipelined(data.clone(), workers)
                .expect("sorts");
            assert_eq!(
                out_1, out_n,
                "round {round} (p={p} l={l}) workers={workers}: output depends on worker count"
            );
            assert_eq!(
                report_1, report_n,
                "round {round} (p={p} l={l}) workers={workers}: report depends on worker count"
            );
        }

        // The per-group sort sorts exactly like the fused engine (the
        // timing models differ; the data path must not).
        let (out_fused, _) = SimEngine::new(cfg).sort(data);
        assert_eq!(out_1, out_fused, "round {round}: per-group output diverges");
        for pass in &report_1.passes {
            assert!(pass.cycles > 0, "round {round}: empty pass accounting");
        }
    }
}

#[test]
fn dag_and_fused_agree_on_bytes_moved() {
    // Every pass reads and writes the whole array once, however the
    // groups are partitioned — byte accounting is partition-invariant
    // even though cycle accounting models a drained pipeline per group.
    let data: Vec<U32Rec> = bonsai_gensort::dist::uniform_u32(40_000, 17);
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let (_, fused) = SimEngine::new(cfg).sort(data.clone());
    for workers in WORKERS {
        let (_, dag) = SimEngine::new(cfg)
            .try_sort_pipelined(data.clone(), workers)
            .expect("sorts");
        assert_eq!(fused.passes.len(), dag.passes.len());
        for (f, s) in fused.passes.iter().zip(&dag.passes) {
            assert_eq!(f.bytes_read, s.bytes_read, "stage {}", f.stage);
            assert_eq!(f.bytes_written, s.bytes_written, "stage {}", f.stage);
            assert_eq!(f.runs_in, s.runs_in);
            assert_eq!(f.runs_out, s.runs_out);
            assert_eq!(f.records, s.records);
        }
    }
}

#[test]
fn worker_zero_means_auto_and_stays_deterministic() {
    let data: Vec<U32Rec> = bonsai_gensort::dist::uniform_u32(10_000, 23);
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 8), 4);
    let (out_auto, report_auto) = SimEngine::new(cfg)
        .try_sort_pipelined(data.clone(), 0)
        .expect("sorts");
    let (out_1, report_1) = SimEngine::new(cfg)
        .try_sort_pipelined(data, 1)
        .expect("sorts");
    assert_eq!(out_auto, out_1);
    assert_eq!(report_auto, report_1);
}
