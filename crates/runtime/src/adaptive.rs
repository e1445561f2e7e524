//! The adaptive scheduling layer: per-job shape selection driven by the
//! analytical optimizer, with compiled-shape caching and reconfiguration
//! accounting.
//!
//! Under [`PassScheduler::Adaptive`](crate::PassScheduler::Adaptive)
//! every job is classed at submission ([`JobClass`]) and, when a worker
//! picks it up, sorted on the AMT shape the Bonsai optimizer selects
//! for its size, record width and memory backend — not necessarily the
//! shape the job was submitted with:
//!
//! - **latency class** (small jobs): the latency-optimal design of
//!   Equation 2;
//! - **throughput class** (large jobs): the throughput-optimal design
//!   of Equation 5.
//!
//! Both go through one [`ReconfigPlanner`] per memory backend — one
//! modeled FPGA — so a shape switch is only taken when it beats keeping
//! the loaded design *plus* the reprogram cost
//! ([`AdaptiveConfig::reprogram_cost_us`]), which is what keeps an
//! alternating job mix from thrashing shapes (`BON080`).
//!
//! The model picks the shape; the planner remembers its last search per
//! class, so a job of an already planned size bucket costs the
//! keep-or-reprogram decision alone. [`ShapeCache`] makes the shape
//! cheap to realize: repeated shapes skip the full cross-config
//! validation of `SimEngine::try_new`, and the engine's sort takes the
//! pass scratch the worker's thread parked for the shape instead of
//! building a tree. The cache's hits and misses are counted here, in
//! [`AdaptiveStats`], and nowhere else: a job's
//! [`SortReport`](bonsai_amt::SortReport) is the engine's own
//! (`bonsai-net` snapshots the counters on its `ServerStats`).

use std::collections::HashMap;

use bonsai_amt::{AmtConfig, CompiledShape, ShapeCache, SimEngineConfig};
use bonsai_check::Diagnostic;
use bonsai_memsim::MemoryConfig;
use bonsai_model::reconfig::{JobPlan, ReconfigPlanner};
use bonsai_model::{ArrayParams, HardwareParams};

use crate::class_queue::JobClass;

/// Job classes the adaptive scheduler selects shapes for (the two
/// [`JobClass`] lanes); the `BON082` cache-sizing lint compares the
/// shape-cache capacity against this.
pub(crate) const SHAPE_CLASSES: usize = 2;

/// Knobs of the adaptive scheduler
/// ([`RuntimeConfig::adaptive`](crate::RuntimeConfig::adaptive)).
/// Shape-checked by `bonsai_check::check_adaptive_runtime`
/// (`BON080`, `BON082`); the defaults are lint-clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Capacity of the compiled-shape cache (distinct validated
    /// [`SimEngineConfig`]s held; LRU beyond that). Below
    /// the number of job classes (2) the classes evict each other
    /// (`BON082`).
    pub cache_shapes: usize,
    /// Modeled cost of switching the loaded AMT shape, in microseconds.
    /// The planner keeps the current shape unless the optimum wins by
    /// more than this; `0` disables the comparison and thrashes
    /// (`BON080`).
    pub reprogram_cost_us: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            cache_shapes: 8,
            reprogram_cost_us: 200,
        }
    }
}

/// Aggregate counters of the adaptive layer, snapshotted by
/// [`Runtime::adaptive_stats`](crate::Runtime::adaptive_stats). All
/// zero outside the adaptive scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveStats {
    /// Shape lookups served from the compiled-shape cache.
    pub shape_cache_hits: u64,
    /// Shape lookups that paid the validation.
    pub shape_cache_misses: u64,
    /// Cached shapes evicted to make room (LRU).
    pub shape_cache_evictions: u64,
    /// Modeled shape switches taken by the reconfiguration planner.
    pub reprograms: u64,
    /// Jobs dispatched through the latency lane.
    pub latency_jobs: u64,
    /// Jobs dispatched through the throughput lane.
    pub throughput_jobs: u64,
}

/// One worker-shared adaptive brain: the shape cache plus one
/// reconfiguration planner per memory backend (one modeled device
/// each), behind the runtime's mutex.
#[derive(Debug)]
pub(crate) struct AdaptiveState {
    cache: ShapeCache,
    planners: HashMap<MemoryConfig, ReconfigPlanner>,
    reprogram_seconds: f64,
    latency_jobs: u64,
    throughput_jobs: u64,
}

impl AdaptiveState {
    pub(crate) fn new(config: &AdaptiveConfig) -> Self {
        Self {
            cache: ShapeCache::new(config.cache_shapes),
            planners: HashMap::new(),
            reprogram_seconds: config.reprogram_cost_us as f64 * 1e-6,
            latency_jobs: 0,
            throughput_jobs: 0,
        }
    }

    pub(crate) fn stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            shape_cache_hits: self.cache.hits(),
            shape_cache_misses: self.cache.misses(),
            shape_cache_evictions: self.cache.evictions(),
            reprograms: self
                .planners
                .values()
                .map(|p| u64::from(p.reprograms()))
                .sum(),
            latency_jobs: self.latency_jobs,
            throughput_jobs: self.throughput_jobs,
        }
    }

    /// Selects and compiles the shape for one job: ask the planner for
    /// the class-appropriate optimal design, realize it against the
    /// job's loader/memory configuration, and serve it through the
    /// compiled-shape cache. Falls back to the job's own configuration
    /// when the model has no feasible design (or its realization fails
    /// validation), so adaptation never rejects a job its submitted
    /// config could sort.
    ///
    /// # Errors
    ///
    /// The job's own configuration is invalid — the same diagnostics
    /// `SimEngine::try_new` would report.
    pub(crate) fn select(
        &mut self,
        base: &SimEngineConfig,
        records: usize,
        class: JobClass,
    ) -> Result<CompiledShape, Vec<Diagnostic>> {
        match class {
            JobClass::Latency => self.latency_jobs += 1,
            JobClass::Throughput => self.throughput_jobs += 1,
        }
        let target = self.plan_shape(base, records, class).unwrap_or(*base);
        match self.cache.get_or_compile(&target) {
            // A clamped model shape can still lose validation against
            // this job's loader; the submitted config is the contract.
            Err(_) if target != *base => self.cache.get_or_compile(base),
            selected => selected,
        }
    }

    /// Runs the optimizer + planner for one job, returning the realized
    /// engine configuration, or `None` when the model cannot improve on
    /// the submitted one (degenerate sizes, no feasible design).
    fn plan_shape(
        &mut self,
        base: &SimEngineConfig,
        records: usize,
        class: JobClass,
    ) -> Option<SimEngineConfig> {
        let record_bytes = base.loader.record_bytes;
        if records < 2 || record_bytes == 0 {
            return None;
        }
        // Bucket to the next power of two so a stream of nearly-equal
        // sizes maps to one plan (and one cached shape) instead of
        // thrashing the planner with off-by-a-few variants.
        let bucket = (records as u64).next_power_of_two();
        let array = ArrayParams::new(bucket, record_bytes);
        let reprogram_seconds = self.reprogram_seconds;
        let planner = self
            .planners
            .entry(base.memory)
            .or_insert_with(|| ReconfigPlanner::new(hardware_for(&base.memory), reprogram_seconds));
        let plan = match class {
            JobClass::Latency => planner.plan_job(&array),
            JobClass::Throughput => planner.plan_throughput_job(&array),
        }
        .ok()?;
        Some(realize(base, &plan, records))
    }
}

/// Maps a simulated memory backend onto the analytical model's hardware
/// parameters: the F1-class device, with `β_DRAM` derived from the
/// backend's aggregate per-cycle read bandwidth at the kernel clock, so
/// DDR4, single-bank, HBM and throttled backends each get a faithful
/// bandwidth term.
fn hardware_for(memory: &MemoryConfig) -> HardwareParams {
    let hw = HardwareParams::aws_f1();
    let bytes_per_cycle = memory.banks as u64 * memory.read_bytes_per_cycle;
    if bytes_per_cycle == 0 {
        return hw;
    }
    hw.with_beta_dram(bytes_per_cycle as f64 * hw.freq_hz)
}

/// Lowers a model [`JobPlan`] onto this job's engine configuration:
/// the planned `(p, ℓ)` clamped to what the job can actually use (ℓ no
/// wider than its presorted run count, `p` no wider than ℓ), keeping
/// the job's loader, memory and presorter configuration — adaptation
/// selects the *tree shape*; the presorter is part of the submitted
/// datapath (the model may drop it on a LUT tie-break, which never
/// helps a job that already has one). The model's unroll and pipeline
/// factors are fabric-level copies the worker pool already provides
/// across jobs, so they do not lower onto a single engine.
fn realize(base: &SimEngineConfig, plan: &JobPlan, records: usize) -> SimEngineConfig {
    let runs = records.div_ceil(base.initial_run_len().max(1));
    let l_cap = runs.next_power_of_two().max(2);
    let l = plan.config.leaves_l.clamp(2, l_cap);
    let p = plan.config.throughput_p.clamp(1, l);
    let mut cfg = *base;
    if let Ok(amt) = AmtConfig::try_new(p, l) {
        cfg.amt = amt;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(p: usize, l: usize) -> SimEngineConfig {
        SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4)
    }

    #[test]
    fn defaults_are_lint_clean() {
        let d = AdaptiveConfig::default();
        assert!(bonsai_check::check_adaptive_runtime(
            d.cache_shapes,
            SHAPE_CLASSES,
            d.reprogram_cost_us
        )
        .is_empty());
    }

    #[test]
    fn repeated_jobs_hit_the_cache_after_one_miss() {
        let mut state = AdaptiveState::new(&AdaptiveConfig::default());
        let base = dram(4, 16);
        let first = state.select(&base, 50_000, JobClass::Throughput).unwrap();
        assert_eq!(state.stats().shape_cache_misses, 1);
        for hits in 1..=3 {
            let next = state.select(&base, 50_000, JobClass::Throughput).unwrap();
            assert_eq!(state.stats().shape_cache_hits, hits);
            assert_eq!(next.config(), first.config());
        }
        let stats = state.stats();
        assert_eq!(stats.shape_cache_hits, 3);
        assert_eq!(stats.shape_cache_misses, 1);
        assert_eq!(stats.throughput_jobs, 4);
    }

    #[test]
    fn small_jobs_get_shapes_no_wider_than_their_runs() {
        let mut state = AdaptiveState::new(&AdaptiveConfig::default());
        let base = dram(4, 16);
        // 64 records in 16-record presorted runs: 4 runs. ℓ must not
        // exceed the next power of two (4); p must not exceed ℓ.
        let sel = state.select(&base, 64, JobClass::Latency).unwrap();
        let amt = sel.config().amt;
        assert!(amt.l <= 4, "ℓ={} for a 4-run job", amt.l);
        assert!(amt.p <= amt.l);
        assert_eq!(state.stats().latency_jobs, 1);
    }

    #[test]
    fn invalid_base_config_reports_its_own_diagnostics() {
        let mut state = AdaptiveState::new(&AdaptiveConfig::default());
        let mut bad = dram(4, 16);
        bad.loader.record_bytes = 0;
        let errs = state
            .select(&bad, 10_000, JobClass::Latency)
            .expect_err("invalid config must fail");
        assert!(errs.iter().any(|d| d.code == "BON004"), "{errs:?}");
    }

    #[test]
    fn degenerate_sizes_fall_back_to_the_submitted_shape() {
        let mut state = AdaptiveState::new(&AdaptiveConfig::default());
        let base = dram(4, 16);
        for records in [0, 1] {
            let sel = state.select(&base, records, JobClass::Latency).unwrap();
            assert_eq!(*sel.config(), base);
        }
    }

    #[test]
    fn distinct_backends_get_distinct_planners_and_hardware() {
        let hbm = hardware_for(&MemoryConfig::hbm_u50());
        let ddr = hardware_for(&MemoryConfig::ddr4_aws_f1());
        assert!(hbm.beta_dram > ddr.beta_dram);
        let mut state = AdaptiveState::new(&AdaptiveConfig::default());
        let base_ddr = dram(4, 16);
        let mut base_hbm = base_ddr;
        base_hbm.memory = MemoryConfig::hbm_u50();
        state
            .select(&base_ddr, 50_000, JobClass::Throughput)
            .unwrap();
        state
            .select(&base_hbm, 50_000, JobClass::Throughput)
            .unwrap();
        assert_eq!(state.planners.len(), 2, "one modeled device per backend");
    }
}
