//! The per-group sort against the fused engine, across worker counts and
//! both simulation loops.
//!
//! Its contract is that the worker count is a wall-clock knob and
//! nothing else: for any configuration it must produce the same sorted
//! output as the fused engine and the same `SortReport` at every worker
//! count, bit for bit. (The thread-free oracle in `dag.rs`'s unit tests
//! pins the report itself.) Shapes are randomized so the suite crosses
//! both regimes — passes with more groups than workers and workers than
//! groups.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, VIRTUAL_WORKERS};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

/// Worker counts every invariant is checked at: the caller alone, one
/// and two helper threads, and one per core (`0`).
const WORKERS: [usize; 4] = [1, 2, 3, 0];

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
        // Small lengths make passes with fewer groups than workers;
        // large ones the reverse (a 2-leaf tree on 20k records opens
        // with thousands of groups).
        let data = random_data(&mut rng, if round % 2 == 0 { 20_000 } else { 200 });
        let (out_fused, rep_fused) = engine(cfg).sort(data.clone());
        for workers in WORKERS {
            let (out, rep) = engine(cfg)
                .try_sort_pipelined(data.clone(), workers)
                .expect("sorts");
            assert_eq!(
                out, out_fused,
                "round {round} workers={workers}: pipelined output diverges"
            );
            // Fused timing differs by design (pipeline overlap inside
            // one tree), but the data movement cannot.
            assert_eq!(rep.n_records, rep_fused.n_records);
            assert_eq!(rep.stages(), rep_fused.stages());
            assert_eq!(rep.total_traffic_bytes(), rep_fused.total_traffic_bytes());
        }
    }
}

#[test]
fn pipelined_report_is_bit_identical_across_worker_counts() {
    let mut rng = Rng::seed_from_u64(0x1D11_DA66);
    for round in 0..6 {
        let cfg = random_config(&mut rng);
        let data = random_data(&mut rng, 15_000);
        let (out_1, rep_1) = engine(cfg)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        for workers in WORKERS {
            let (out_n, rep_n) = engine(cfg)
                .try_sort_pipelined(data.clone(), workers)
                .expect("sorts");
            assert_eq!(out_1, out_n, "round {round} workers={workers}");
            // Raw equality: even pipeline_overlap_cycles and the
            // busy/idle counters must not see the real thread count.
            assert_eq!(rep_1, rep_n, "round {round} workers={workers}");
        }
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
            .try_sort_pipelined(data.clone(), 2)
            .expect("sorts");
        let (out_fast, rep_fast) = engine(cfg)
            .with_reference_loop(false)
            .try_sort_pipelined(data, 2)
            .expect("sorts");
        assert_eq!(out_ref, out_fast, "round {round}");
        assert_eq!(rep_ref.fast_forwarded_cycles, 0);
        assert_eq!(
            rep_ref.pipeline_overlap_cycles, rep_fast.pipeline_overlap_cycles,
            "round {round}: the virtual schedule must not see the loop"
        );
        assert_eq!(rep_ref.normalized(), rep_fast.normalized(), "round {round}");
    }
}

#[test]
fn utilization_counters_are_consistent() {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 4), 4);
    let data = uniform_u32(30_000, 17);
    let (_, rep) = engine(cfg).try_sort_pipelined(data, 2).expect("sorts");
    assert!(rep.stages() >= 3, "shape must be multi-pass");
    for pass in &rep.passes {
        // Every group is simulated exactly once, so virtual busy time
        // is exactly the pass's summed cycles...
        assert_eq!(pass.busy_worker_cycles, pass.cycles);
        // ...and busy + idle is a whole number of virtual-pool
        // makespans.
        assert_eq!(
            (pass.busy_worker_cycles + pass.idle_worker_cycles) % VIRTUAL_WORKERS as u64,
            0,
            "stage {}",
            pass.stage
        );
    }
    // A multi-pass sort with uneven tail groups overlaps something.
    assert!(rep.pipeline_overlap_cycles > 0, "{rep:?}");
}

#[test]
fn single_pass_shapes_have_zero_overlap() {
    // 256 records / 16-record presorted runs = 16 runs -> one pass of
    // one group: nothing to pipeline across.
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(256, 3);
    let (_, rep) = engine(cfg).try_sort_pipelined(data, 0).expect("sorts");
    assert_eq!(rep.stages(), 1);
    assert_eq!(rep.pipeline_overlap_cycles, 0);
}

#[test]
fn livelock_bound_trips_identically_under_pipelined() {
    // BON040 parity (the SortError carries only stage and bound, and
    // the minimum failing (pass, group) wins): the fused engine and the
    // per-group sort on every loop and worker count must surface the
    // same error.
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(50_000, 4);
    let err_fused = engine(cfg)
        .with_max_pass_cycles(10)
        .try_sort(data.clone())
        .expect_err("bound of 10 cycles must trip");
    for workers in WORKERS {
        for reference in [false, true] {
            let err = engine(cfg)
                .with_max_pass_cycles(10)
                .with_reference_loop(reference)
                .try_sort_pipelined(data.clone(), workers)
                .expect_err("bound of 10 cycles must trip");
            assert_eq!(
                err, err_fused,
                "workers={workers} reference={reference}: BON040 must not \
                 depend on how the sort was split"
            );
        }
    }
}

#[test]
fn multipass_flash_sort_overlaps_only_its_ragged_waves() {
    // A latency-bound flash stream, where every merge group costs about
    // the same whatever its pass: 2 112 records (132 presorted runs) on
    // a 4-leaf tree, groups 33 -> 9 -> 3 -> 1. The group DAG is
    // one-rooted, so all a dependency-driven schedule can reclaim over
    // the per-pass barrier is each pass's ragged last wave. Modelled
    // time on the reference pool, so exact at any worker count.
    let mut cfg = SimEngineConfig::with_memory(AmtConfig::new(4, 4), 4, MemoryConfig::ssd_direct());
    cfg.loader.batch_bytes = 131_072;
    let data = uniform_u32(2_112, 2026);
    for workers in WORKERS {
        let (_, rep) = engine(cfg)
            .try_sort_pipelined(data.clone(), workers)
            .expect("sorts");
        let groups: Vec<u64> = rep.passes.iter().map(|p| p.runs_out).collect();
        assert_eq!(groups, [33, 9, 3, 1], "workers={workers}");
        assert_eq!(rep.pipeline_overlap_cycles, 50_168, "workers={workers}");
    }
}

#[test]
fn empty_and_single_record_inputs_pipelined() {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
    let (out, rep) = engine(cfg)
        .try_sort_pipelined(Vec::<U32Rec>::new(), 2)
        .expect("sorts");
    assert!(out.is_empty());
    assert_eq!(rep.stages(), 0);
    assert_eq!(rep.pipeline_overlap_cycles, 0);
    let (out, rep) = engine(cfg)
        .try_sort_pipelined(vec![U32Rec::new(9)], 2)
        .expect("sorts");
    assert_eq!(out, vec![U32Rec::new(9)]);
    assert_eq!(rep.stages(), 0);
}
