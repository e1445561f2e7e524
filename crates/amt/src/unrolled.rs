//! Cycle-level co-simulation of unrolled AMTs (§III-A2).
//!
//! `λ_unrl` trees sort disjoint address-range partitions concurrently,
//! **sharing one off-chip memory**: every loader read burst and drain
//! write burst from every tree contends for the same bank ports, so the
//! bandwidth split of Equation 2 (`β_DRAM/λ_unrl` per tree) emerges
//! from the simulation instead of being assumed. After the parallel
//! phase, the sorted partitions are pairwise merged functionally (the
//! idle-halving merge-down of §IV-B is modeled analytically by the HBM
//! sorter; here we only need the output).

use bonsai_memsim::Memory;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::dag::SortPlan;
use crate::engine::MAX_PASS_CYCLES;
use crate::functional::presorted_runs;
use crate::passsim::{swap_passes, NextPass, PassSim};
use crate::report::{PassReport, SortReport};

/// Result of an unrolled co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrolledReport {
    /// Per-tree sort reports (parallel phase only).
    pub per_tree: Vec<SortReport>,
    /// Cycles until the slowest tree finished its partition.
    pub parallel_cycles: u64,
    /// Total bytes read from the shared memory.
    pub bytes_read: u64,
    /// Total bytes written to the shared memory.
    pub bytes_written: u64,
}

impl UnrolledReport {
    /// Aggregate parallel-phase throughput in bytes/second at `freq_hz`:
    /// total payload bytes per pass summed over stages, divided by the
    /// wall-clock of the slowest tree.
    pub fn aggregate_stream_rate(&self, freq_hz: f64) -> f64 {
        if self.parallel_cycles == 0 {
            return 0.0;
        }
        let secs = self.parallel_cycles as f64 / freq_hz;
        (self.bytes_read + self.bytes_written) as f64 / 2.0 / secs
    }
}

/// Co-simulates `lambda` trees on one shared memory.
///
/// # Example
///
/// ```
/// use bonsai_amt::{AmtConfig, SimEngineConfig, UnrolledSim};
/// use bonsai_gensort::dist::uniform_u32;
///
/// let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(8, 16), 4);
/// let (sorted, report) = UnrolledSim::new(cfg, 2).sort(uniform_u32(20_000, 1));
/// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(report.per_tree.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnrolledSim {
    config: SimEngineConfig,
    lambda: usize,
}

impl UnrolledSim {
    /// Creates a co-simulation of `lambda` identical trees.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is zero.
    pub fn new(config: SimEngineConfig, lambda: usize) -> Self {
        assert!(lambda >= 1, "need at least one tree");
        Self { config, lambda }
    }

    /// Sorts `data`: partitions into `lambda` address ranges, co-simulates
    /// every tree's stages against the shared memory, then merges the
    /// sorted partitions.
    pub fn sort<R: Record>(&self, data: Vec<R>) -> (Vec<R>, UnrolledReport) {
        let sanitized: Vec<R> = data.into_iter().map(Record::sanitize).collect();
        let n = sanitized.len();
        let chunk = n.div_ceil(self.lambda).max(1);

        // Per-tree state: the fused plan of its partition, current runs,
        // the next pass's buffers and one report per finished pass.
        struct TreeState<R> {
            runs: RunSet<R>,
            next: NextPass<R>,
            plan: SortPlan,
            active: Option<PassSim<R>>,
            passes: Vec<PassReport>,
        }
        let mut trees: Vec<TreeState<R>> = sanitized
            .chunks(chunk)
            .map(|part| {
                let runs = presorted_runs(part.to_vec(), self.config.initial_run_len());
                TreeState {
                    plan: SortPlan::fused(&self.config, runs.num_runs()),
                    runs,
                    next: (Vec::new(), Vec::new()),
                    active: None,
                    passes: Vec::new(),
                }
            })
            .collect();

        let mut memory = Memory::new(self.config.memory);
        let mut cycle = 0u64;
        loop {
            let mut all_done = true;
            for tree in trees.iter_mut() {
                // Start the next stage if idle and stages remain.
                let next = tree.passes.len();
                if tree.active.is_none() && next < tree.plan.num_passes() {
                    let fan_in = tree.plan.pass(next).fan_in;
                    let all = 0..tree.runs.num_runs();
                    tree.active = Some(PassSim::new(&self.config, &tree.runs, all, fan_in));
                }
                if let Some(sim) = tree.active.as_mut() {
                    all_done = false;
                    if sim.tick(cycle, &mut memory, &tree.runs, &mut tree.next) {
                        tree.passes.push(sim.finish(next as u32 + 1));
                        tree.active = None;
                        swap_passes(&mut tree.runs, &mut tree.next);
                    }
                }
            }
            if all_done {
                break;
            }
            cycle += 1;
            assert!(
                cycle < MAX_PASS_CYCLES,
                "unrolled sort exceeded cycle bound"
            );
        }

        // Merge-down: combine the λ sorted partitions.
        let parts: Vec<Vec<R>> = trees
            .iter_mut()
            .map(|t| std::mem::replace(&mut t.runs, RunSet::from_unsorted(vec![])).into_records())
            .collect();
        let slices: Vec<&[R]> = parts.iter().map(Vec::as_slice).collect();
        let merged = crate::functional::kway_merge(&slices);

        let report = UnrolledReport {
            per_tree: trees
                .into_iter()
                .map(|t| {
                    let records = t.passes.first().map_or(0, |p| p.records);
                    SortReport::from_passes(t.passes, records, self.config.loader.record_bytes)
                })
                .collect(),
            parallel_cycles: cycle,
            bytes_read: memory.bytes_read(),
            bytes_written: memory.bytes_written(),
        };
        (merged, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmtConfig;
    use bonsai_gensort::dist::uniform_u32;
    use bonsai_memsim::MemoryConfig;

    #[test]
    fn unrolled_output_is_sorted_permutation() {
        let data = uniform_u32(60_000, 31);
        let mut expected = data.clone();
        expected.sort_unstable();
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let (out, report) = UnrolledSim::new(cfg, 4).sort(data);
        assert_eq!(out, expected);
        assert_eq!(report.per_tree.len(), 4);
        assert!(report.parallel_cycles > 0);
    }

    #[test]
    fn lambda_one_matches_sim_engine_timing() {
        let data = uniform_u32(50_000, 32);
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(8, 16), 4);
        let (a, unrolled) = UnrolledSim::new(cfg, 1).sort(data.clone());
        let (b, single) = crate::SimEngine::new(cfg).sort(data);
        assert_eq!(a, b);
        // Same machine, same schedule: cycle counts agree to within the
        // per-stage handoff cycle.
        let diff = unrolled.parallel_cycles.abs_diff(single.total_cycles);
        assert!(diff <= 2 * single.stages() as u64 + 2, "diff {diff}");
    }

    #[test]
    fn contention_splits_bandwidth_between_trees() {
        // Two p=8 trees (8 GB/s each) on a single 8 GB/s bank: the
        // shared port halves each tree's rate, so the co-simulation must
        // take roughly as long as one tree sorting alone at full rate
        // would take for the whole array — not half.
        let n = 80_000;
        let data = uniform_u32(n, 33);
        let single_bank = MemoryConfig::ddr4_single_bank();
        let cfg = SimEngineConfig::with_memory(AmtConfig::new(8, 16), 4, single_bank);

        let (_, two_trees) = UnrolledSim::new(cfg, 2).sort(data.clone());
        let (_, one_tree) = UnrolledSim::new(cfg, 1).sort(data);
        // Each of the two trees handles half the data but gets half the
        // bandwidth: total time within ~25% of the single-tree time.
        let ratio = two_trees.parallel_cycles as f64 / one_tree.parallel_cycles as f64;
        assert!((0.75..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ample_bandwidth_gives_near_linear_speedup() {
        // Four p=4 trees on the 4-bank 32 GB/s memory: 16 GB/s aggregate
        // demand on 32 GB/s supply — trees run (almost) unimpeded, so
        // four-way unrolling approaches a 4x speedup over one tree
        // sorting everything.
        let n = 120_000;
        let data = uniform_u32(n, 34);
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let (_, four) = UnrolledSim::new(cfg, 4).sort(data.clone());
        let (_, one) = UnrolledSim::new(cfg, 1).sort(data);
        let speedup = one.parallel_cycles as f64 / four.parallel_cycles as f64;
        assert!(speedup > 2.5, "speedup {speedup}");
    }
}
