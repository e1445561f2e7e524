//! Compiled-shape cache equivalence: an engine minted from a cache hit
//! must be *bit-identical* in behavior to a cold `SimEngine::try_new` —
//! same sorted output, same `SortReport` — fused and per group. The
//! cache may only skip validation work, never change the datapath.

use bonsai_amt::{AmtConfig, ShapeCache, SimEngine, SimEngineConfig, SortReport};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::U32Rec;

fn shapes() -> Vec<SimEngineConfig> {
    vec![
        SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
        SimEngineConfig::dram_sorter(AmtConfig::new(8, 64), 4),
        SimEngineConfig::with_memory(
            AmtConfig::new(4, 16),
            4,
            bonsai_memsim::MemoryConfig::hbm_u50(),
        ),
    ]
}

/// Engine-level reports never carry cache counters (the adaptive
/// runtime stamps them afterwards), so equality here is exact.
fn assert_cold_counters(report: &SortReport) {
    assert_eq!(report.shape_cache_hits, 0);
    assert_eq!(report.shape_cache_misses, 0);
}

#[test]
fn cache_hit_is_bit_identical_to_cold_compile_fused_and_pipelined() {
    let data = uniform_u32(12_000, 33);
    for config in shapes() {
        let mut cache = ShapeCache::new(4);
        // Warm the cache, then take the *hit* path.
        cache.get_or_compile(&config).expect("valid");
        let hit = cache.get_or_compile(&config).expect("valid");
        assert_eq!(cache.hits(), 1, "second lookup must hit");

        // Fused.
        let cold: (Vec<U32Rec>, _) = SimEngine::try_new(config)
            .expect("valid")
            .try_sort(data.clone())
            .expect("sorts");
        let cached = hit.engine().try_sort(data.clone()).expect("sorts");
        assert_eq!(cold.0, cached.0, "fused output must match");
        assert_eq!(cold.1, cached.1, "fused report must match");
        assert_cold_counters(&cached.1);

        // Per group.
        let cold = SimEngine::try_new(config)
            .expect("valid")
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        let cached = hit
            .engine()
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        assert_eq!(cold.0, cached.0, "pipelined output must match");
        assert_eq!(cold.1, cached.1, "pipelined report must match");
    }
}

#[test]
fn eviction_and_recompile_still_match_cold() {
    // Force an eviction cycle: capacity 1 with two alternating shapes.
    let data = uniform_u32(6_000, 9);
    let mut cache = ShapeCache::new(1);
    let a = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let b = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
    for _ in 0..2 {
        for config in [a, b] {
            let shape = cache.get_or_compile(&config).expect("valid");
            let cold = SimEngine::try_new(config)
                .expect("valid")
                .try_sort_pipelined(data.clone(), 1)
                .expect("sorts");
            let cached = shape
                .engine()
                .try_sort_pipelined(data.clone(), 1)
                .expect("sorts");
            assert_eq!(cold, cached);
        }
    }
    assert!(cache.evictions() >= 3, "capacity 1 must churn");
}
