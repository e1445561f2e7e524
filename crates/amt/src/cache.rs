//! Compiled-shape cache for the adaptive runtime.
//!
//! "Compiling" a shape means running the full cross-config validation
//! of [`SimEngineConfig::validate`] (AMT shape, loader, memory,
//! loader-vs-memory coupling, presort chunk — the work
//! [`SimEngine::try_new`] pays on every construction). The adaptive
//! scheduler selects a shape per job, so repeated shapes would pay that
//! validation on every submission; a [`ShapeCache`] pays it once per
//! distinct shape and hands back a [`CompiledShape`] from which
//! [`SimEngine`]s are minted without re-validation.
//!
//! The cache is bounded (LRU eviction) and counts hits, misses and
//! evictions; the adaptive runtime reports them in its `AdaptiveStats`,
//! which `bonsai-net` snapshots on its `ServerStats`. A cached engine is
//! *bit-identical* in behaviour to a cold one — the `shape_cache`
//! equivalence suite compares output and reports, fused and per group.

use bonsai_check::Diagnostic;

use crate::config::SimEngineConfig;
use crate::engine::SimEngine;

/// A shape that already passed the full engine validation. The only way
/// to obtain one is [`CompiledShape::compile`] (or a [`ShapeCache`]),
/// so holding one is a proof the configuration is valid: engines minted
/// from it skip [`SimEngineConfig::validate`] entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledShape {
    config: SimEngineConfig,
}

impl CompiledShape {
    /// Validates `config` once, returning the compiled shape or the
    /// full diagnostic list (`BON00x`/`BON01x`/`BON02x`) on error —
    /// exactly the errors [`SimEngine::try_new`] would report.
    pub fn compile(config: SimEngineConfig) -> Result<Self, Vec<Diagnostic>> {
        Ok(Self {
            config: config.try_validated()?,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &SimEngineConfig {
        &self.config
    }

    /// Mints a fresh engine without re-validating the configuration.
    /// Behaviourally identical to `SimEngine::try_new(config).unwrap()`:
    /// same defaults (the livelock bound, the event-driven loop), same
    /// sorted output, same reports.
    pub fn engine(&self) -> SimEngine {
        SimEngine::prevalidated(self.config)
    }
}

/// A bounded least-recently-used cache of [`CompiledShape`]s keyed by
/// the full [`SimEngineConfig`] (shape *and* backend: the memory
/// configuration is part of the key, so an `AMT(4, 16)` on DRAM and the
/// same tree on HBM are distinct entries).
///
/// Deliberately a plain `Vec` with linear scans: adaptive caches hold a
/// handful of shapes (default 8), and a scan of 8 `Copy` structs beats
/// any hash map while keeping iteration order — and therefore eviction
/// — fully deterministic.
#[derive(Debug, Clone)]
pub struct ShapeCache {
    /// LRU order: least recently used first, most recent last.
    entries: Vec<CompiledShape>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ShapeCache {
    /// Creates a cache holding at most `capacity` compiled shapes
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the compiled shape for `config`, compiling (validating)
    /// it on a miss and evicting the least recently used entry when the
    /// cache is full.
    ///
    /// # Errors
    ///
    /// On a miss whose validation fails, the diagnostics are returned
    /// and nothing is cached — the miss is still counted (the
    /// validation work was done).
    pub fn get_or_compile(
        &mut self,
        config: &SimEngineConfig,
    ) -> Result<CompiledShape, Vec<Diagnostic>> {
        if let Some(i) = self.entries.iter().position(|s| s.config() == config) {
            self.hits += 1;
            let shape = self.entries.remove(i);
            self.entries.push(shape);
            return Ok(shape);
        }
        self.misses += 1;
        let shape = CompiledShape::compile(*config)?;
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push(shape);
        Ok(shape)
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compile (including failed compilations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmtConfig;

    fn dram(p: usize, l: usize) -> SimEngineConfig {
        SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4)
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut cache = ShapeCache::new(2);
        let a = dram(4, 16);
        let b = dram(8, 64);
        let c = dram(2, 4);
        cache.get_or_compile(&a).expect("valid");
        cache.get_or_compile(&b).expect("valid");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // Hit refreshes a's recency...
        cache.get_or_compile(&a).expect("valid");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        // ...so inserting c evicts b, not a.
        cache.get_or_compile(&c).expect("valid");
        assert_eq!(cache.evictions(), 1);
        cache.get_or_compile(&a).expect("valid");
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        cache.get_or_compile(&b).expect("valid");
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn invalid_shape_reports_diagnostics_and_is_not_cached() {
        let mut cache = ShapeCache::new(4);
        let mut bad = dram(4, 16);
        bad.loader.record_bytes = 0;
        let errs = cache.get_or_compile(&bad).unwrap_err();
        assert!(errs.iter().any(|d| d.code == "BON004"), "{errs:?}");
        assert_eq!(cache.misses(), 1);
        assert!(cache.entries.is_empty());
        // The same bad shape misses again: failures are never cached.
        cache.get_or_compile(&bad).unwrap_err();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn compiled_engine_matches_cold_engine() {
        let cfg = dram(4, 16);
        let shape = CompiledShape::compile(cfg).expect("valid");
        let cold = SimEngine::try_new(cfg).expect("valid");
        assert_eq!(shape.engine().config(), cold.config());
    }

    #[test]
    fn memory_backend_is_part_of_the_key() {
        let mut cache = ShapeCache::new(4);
        let amt = AmtConfig::new(4, 16);
        let dram = SimEngineConfig::dram_sorter(amt, 4);
        let hbm = SimEngineConfig::with_memory(amt, 4, bonsai_memsim::MemoryConfig::hbm_u50());
        cache.get_or_compile(&dram).expect("valid");
        cache.get_or_compile(&hbm).expect("valid");
        assert_eq!(cache.misses(), 2, "same tree, different backend");
        assert_eq!(cache.entries.len(), 2);
    }
}
