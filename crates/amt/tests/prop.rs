//! Randomized cross-validation inside the AMT crate: the loser-tree
//! kernel against `sort_unstable`, the cycle engine against the
//! functional schedule built on that kernel, and every simulated pass
//! against the physical floors of the memory it ran on.

use bonsai_amt::schedule::fan_in_schedule;
use bonsai_amt::{functional, loser_tree_merge, AmtConfig, SimEngine, SimEngineConfig};
use bonsai_memsim::MemoryConfig;
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

/// `0..max_runs` random runs of `0..max_len` records each, sorted.
fn sorted_runs(rng: &mut Rng, max_runs: usize, max_len: usize) -> Vec<Vec<U32Rec>> {
    let n_runs = rng.below_usize(max_runs);
    (0..n_runs)
        .map(|_| {
            let len = rng.below_usize(max_len);
            let mut v: Vec<u32> = (0..len).map(|_| rng.next_u32().max(1)).collect();
            v.sort_unstable();
            v.into_iter().map(U32Rec::new).collect()
        })
        .collect()
}

#[test]
fn loser_tree_merge_equals_sort_unstable() {
    let mut rng = Rng::seed_from_u64(0xA370_0001);
    for _ in 0..48 {
        let runs = sorted_runs(&mut rng, 12, 80);
        let slices: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
        let mut expected: Vec<U32Rec> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(loser_tree_merge(&slices), expected);
        assert_eq!(functional::kway_merge(&slices), expected);
    }
}

#[test]
fn engine_equals_functional_schedule() {
    let mut rng = Rng::seed_from_u64(0xA370_0002);
    for _ in 0..48 {
        let len = rng.below_usize(2_000);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let p = 1 << rng.below_usize(4);
        let l = 1 << rng.range_usize(1, 6);
        let presort = [1usize, 16][rng.below_usize(2)];
        let amt = AmtConfig::new(p, l);
        let mut cfg = SimEngineConfig::dram_sorter(amt, 4);
        cfg.presort = (presort > 1).then_some(presort);
        let (sim, sim_report) = SimEngine::new(cfg).sort(data.clone());
        let (func, func_stages) = functional::sort_balanced(data, amt.l, presort);
        assert_eq!(&sim, &func, "identical merge schedules must agree");
        assert_eq!(sim_report.stages(), func_stages);
    }
}

/// No simulated pass beats the hardware it runs on: every pass takes at
/// least as many cycles as its root needs to emit its records (`p` per
/// cycle) and as its memory needs to read and to write its bytes (every
/// bank's port busy every cycle). The memory is the one the pass ran
/// against: the whole memory for the fused plan, each group's
/// `shard_view(fan_in)` for the per-group plan, whose pass is the sum
/// of its groups. A pass that drops cycles it skipped, or moves bytes
/// no port carried, fails here without a golden table.
#[test]
fn no_pass_beats_its_physical_floors_on_either_plan() {
    let presets = [
        MemoryConfig::ddr4_aws_f1(),
        MemoryConfig::ddr4_single_bank(),
        MemoryConfig::hbm_u50(),
        MemoryConfig::throttled_to_ssd(),
        MemoryConfig::ssd_direct(),
    ];
    let mut rng = Rng::seed_from_u64(0xA370_0005);
    let mut passes = 0;
    for round in 0..120 {
        let (p, l) = (1 << rng.range_usize(0, 4), 1 << rng.range_usize(1, 8));
        let mut cfg = SimEngineConfig::with_memory(AmtConfig::new(p, l), 4, presets[round % 5]);
        if rng.chance_percent(50) {
            cfg = cfg.without_presort();
        }
        let len = rng.range_usize(0, 40_000);
        let data: Vec<U32Rec> = (0..len).map(|_| U32Rec::new(rng.next_u32())).collect();
        let runs = len.div_ceil(cfg.initial_run_len()) as u64;
        let fan_ins = fan_in_schedule(runs, l as u64);
        let (_, fused) = SimEngine::new(cfg).try_sort(data.clone()).expect("sorts");
        let (_, per_group) = SimEngine::new(cfg)
            .try_sort_pipelined(data, 1)
            .expect("sorts");
        for (plan, report) in [("fused", fused), ("per-group", per_group)] {
            assert_eq!(report.passes.len(), fan_ins.len());
            for (pass, &fan_in) in report.passes.iter().zip(&fan_ins) {
                let memory = match plan {
                    "fused" => cfg.memory,
                    _ => cfg.memory.shard_view(fan_in as usize),
                };
                let banks = memory.banks as u64;
                let floor = [
                    pass.records.div_ceil(p as u64),
                    pass.bytes_read
                        .div_ceil(banks * memory.read_bytes_per_cycle),
                    pass.bytes_written
                        .div_ceil(banks * memory.write_bytes_per_cycle),
                ];
                assert!(
                    floor.iter().all(|&f| pass.cycles >= f),
                    "round {round} AMT({p}, {l}) {len} records, {plan} stage {}: {} cycles, floors {floor:?}",
                    pass.stage,
                    pass.cycles,
                );
                passes += 1;
            }
        }
    }
    assert!(passes > 500, "only {passes} passes checked");
}
