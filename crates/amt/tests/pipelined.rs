//! The per-group sort against the fused engine, on both simulation
//! loops.
//!
//! The two plans time a pass differently by design, but they sort the
//! same data through the same merge schedule: for any configuration the
//! per-group sort must produce the fused engine's sorted output, stage
//! count and bytes moved. (The oracle in `dag.rs`'s unit tests pins the
//! report itself.) Shapes are randomized so the suite crosses passes of
//! one group and passes of thousands.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

fn engine(cfg: SimEngineConfig) -> SimEngine {
    SimEngine::new(cfg)
}

fn random_config(rng: &mut Rng) -> SimEngineConfig {
    let p = 1 << rng.below_usize(4);
    let l = 1 << rng.range_usize(1, 6);
    let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
    if rng.chance_percent(25) {
        cfg = cfg.without_presort();
    }
    if rng.chance_percent(30) {
        cfg.memory = MemoryConfig::ddr4_single_bank();
    }
    cfg
}

fn random_data(rng: &mut Rng, max_len: usize) -> Vec<U32Rec> {
    let len = rng.range_usize(1, max_len);
    (0..len)
        .map(|_| U32Rec::new(rng.next_u32().max(1)))
        .collect()
}

#[test]
fn pipelined_matches_fused_on_random_shapes() {
    let mut rng = Rng::seed_from_u64(0xDA6_5EED);
    for round in 0..10 {
        let cfg = random_config(&mut rng);
        // Small lengths make passes of a few groups; large ones the
        // reverse (a 2-leaf tree on 20k records opens with thousands of
        // groups).
        let data = random_data(&mut rng, if round % 2 == 0 { 20_000 } else { 200 });
        let (out_fused, rep_fused) = engine(cfg).sort(data.clone());
        let (out, rep) = engine(cfg).try_sort_pipelined(data, 1).expect("sorts");
        assert_eq!(out, out_fused, "round {round}: pipelined output diverges");
        // Fused timing differs by design (pipeline overlap inside
        // one tree), but the data movement cannot.
        assert_eq!(rep.n_records, rep_fused.n_records);
        assert_eq!(rep.stages(), rep_fused.stages());
        assert_eq!(rep.total_traffic_bytes(), rep_fused.total_traffic_bytes());
        // No pass overlaps the next on either plan.
        assert_eq!(rep.pipeline_overlap_cycles, 0, "round {round}");
        assert_eq!(rep_fused.pipeline_overlap_cycles, 0, "round {round}");
    }
}

#[test]
fn fast_and_reference_loops_agree_under_pipelined() {
    let mut rng = Rng::seed_from_u64(0xFA57_0DA6);
    for round in 0..5 {
        let cfg = random_config(&mut rng);
        let data = random_data(&mut rng, 12_000);
        let (out_ref, rep_ref) = engine(cfg)
            .with_reference_loop(true)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        let (out_fast, rep_fast) = engine(cfg)
            .with_reference_loop(false)
            .try_sort_pipelined(data, 1)
            .expect("sorts");
        assert_eq!(out_ref, out_fast, "round {round}");
        assert_eq!(rep_ref.fast_forwarded_cycles, 0);
        assert_eq!(rep_ref.normalized(), rep_fast.normalized(), "round {round}");
    }
}

#[test]
fn livelock_bound_trips_identically_under_pipelined() {
    // BON040 parity (the SortError carries only stage and bound, and
    // the first failing (pass, group) wins): the fused engine and the
    // per-group sort on both loops must surface the same error.
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(50_000, 4);
    let err_fused = engine(cfg)
        .with_max_pass_cycles(10)
        .try_sort(data.clone())
        .expect_err("bound of 10 cycles must trip");
    for reference in [false, true] {
        let err = engine(cfg)
            .with_max_pass_cycles(10)
            .with_reference_loop(reference)
            .try_sort_pipelined(data.clone(), 1)
            .expect_err("bound of 10 cycles must trip");
        assert_eq!(
            err, err_fused,
            "reference={reference}: BON040 must not depend on how the sort was split"
        );
    }
}

#[test]
fn empty_and_single_record_inputs_pipelined() {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
    let (out, rep) = engine(cfg)
        .try_sort_pipelined(Vec::<U32Rec>::new(), 1)
        .expect("sorts");
    assert!(out.is_empty());
    assert_eq!(rep.stages(), 0);
    let (out, rep) = engine(cfg)
        .try_sort_pipelined(vec![U32Rec::new(9)], 1)
        .expect("sorts");
    assert_eq!(out, vec![U32Rec::new(9)]);
    assert_eq!(rep.stages(), 0);
}
