//! Cross-path equivalence: event-driven fast forward vs reference loop.
//!
//! The fast-forward scheduler's contract is that it is a wall-clock
//! optimization and nothing else: for any configuration, the fast path
//! and the reference per-cycle loop must produce the same sorted output
//! and the same `SortReport`, bit for bit, with the sole exception of
//! the `fast_forwarded_cycles` observability counters (always zero on
//! the reference path). These tests draw randomized configurations and
//! check the invariant on the fused and the per-group sort; the in-repo
//! experiment configs are covered by the bench crate's equivalence
//! suite.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

fn engine(cfg: SimEngineConfig, reference: bool) -> SimEngine {
    SimEngine::new(cfg).with_reference_loop(reference)
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
fn fast_path_matches_reference_on_random_configs() {
    let mut rng = Rng::seed_from_u64(0x0FA5_7F0D);
    for round in 0..18 {
        let cfg = random_config(&mut rng);
        let data = random_data(&mut rng, 25_000);
        let (out_ref, rep_ref) = engine(cfg, true).sort(data.clone());
        let (out_fast, rep_fast) = engine(cfg, false).sort(data);
        assert_eq!(out_ref, out_fast, "round {round}: fused outputs diverge");
        assert_eq!(
            rep_ref.fast_forwarded_cycles, 0,
            "round {round}: reference path must never fast-forward"
        );
        assert_eq!(
            rep_ref.normalized(),
            rep_fast.normalized(),
            "round {round}: fused reports diverge"
        );
    }
}

#[test]
fn dag_fast_path_matches_reference_at_every_worker_count() {
    let mut rng = Rng::seed_from_u64(0xEC01_2303);
    for round in 0..8 {
        let cfg = random_config(&mut rng);
        let data = random_data(&mut rng, 20_000);
        let (out_ref, rep_ref) = engine(cfg, true)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        // 0 = one worker per core, the "max" point of the matrix.
        for workers in [1usize, 2, 0] {
            let (out_fast, rep_fast) = engine(cfg, false)
                .try_sort_pipelined(data.clone(), workers)
                .expect("sorts");
            assert_eq!(
                out_ref, out_fast,
                "round {round} workers={workers}: DAG outputs diverge"
            );
            assert_eq!(
                rep_ref.pipeline_overlap_cycles, rep_fast.pipeline_overlap_cycles,
                "round {round} workers={workers}: overlap depends on the loop"
            );
            assert_eq!(
                rep_ref.clone().normalized(),
                rep_fast.normalized(),
                "round {round} workers={workers}: DAG reports diverge"
            );
        }
    }
}

/// A memory-bound shape: one slow flash access stream, so the machine
/// spends most of its cycles waiting on memory.
fn ssd_scale_config() -> SimEngineConfig {
    let mut cfg =
        SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::ssd_direct());
    // Flash batches are large to amortize the access latency.
    cfg.loader.batch_bytes = 131_072;
    cfg
}

#[test]
fn memory_bound_config_fast_forwards_most_cycles() {
    let cfg = ssd_scale_config();
    let data = uniform_u32(40_000, 7);
    let (out_fast, rep_fast) = engine(cfg, false).sort(data.clone());
    assert!(
        rep_fast.fast_forwarded_cycles > rep_fast.total_cycles / 2,
        "only {} of {} cycles fast-forwarded on a memory-bound config",
        rep_fast.fast_forwarded_cycles,
        rep_fast.total_cycles
    );
    let (out_ref, rep_ref) = engine(cfg, true).sort(data);
    assert_eq!(out_ref, out_fast);
    assert_eq!(rep_ref.normalized(), rep_fast.normalized());

    // 150 000 uniform records on three machines, exact because
    // simulated counts are: the flash stream steps 66 482 of its cycles,
    // one in 44.6; the two compute-bound shapes have under 1 % of their
    // cycles to skip and must say so.
    let dram = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let hbm = SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::hbm_u50());
    let data = uniform_u32(150_000, 2025);
    for (name, cfg, total, skipped) in [
        ("ssd", ssd_scale_config(), 2_963_861u64, 2_897_379u64),
        ("dram", dram, 166_965, 1_481),
        ("hbm", hbm, 64_622, 582),
    ] {
        let (out_fast, rep_fast) = engine(cfg, false).sort(data.clone());
        assert_eq!(
            (rep_fast.total_cycles, rep_fast.fast_forwarded_cycles),
            (total, skipped),
            "{name}: (total, fast-forwarded) cycles"
        );
        let (out_ref, rep_ref) = engine(cfg, true).sort(data.clone());
        assert_eq!(out_ref, out_fast, "{name}");
        assert_eq!(rep_ref.normalized(), rep_fast.normalized(), "{name}");
    }
}

#[test]
fn livelock_bound_trips_identically_on_both_paths() {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(50_000, 4);
    let err_ref = engine(cfg, true)
        .with_max_pass_cycles(10)
        .try_sort(data.clone())
        .expect_err("bound of 10 cycles must trip");
    let err_fast = engine(cfg, false)
        .with_max_pass_cycles(10)
        .try_sort(data)
        .expect_err("bound of 10 cycles must trip");
    assert_eq!(err_ref, err_fast, "BON040 must not depend on the loop");
}
