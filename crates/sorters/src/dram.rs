//! The DRAM-scale sorter of §IV-A.

use bonsai_amt::{functional, AmtConfig, SimEngine, SimEngineConfig};
use bonsai_memsim::{LoaderConfig, MemoryConfig};
use bonsai_model::{ArrayParams, BonsaiOptimizer, HardwareParams, RankedConfig};
use bonsai_records::Record;

use crate::calibration::DRAM_STAGE_EFFICIENCY;
use crate::report::{Phase, SorterReport, Timing};

/// Errors from the end-to-end sorters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorterError {
    /// The array exceeds the sorter's memory capacity; use the SSD
    /// sorter instead (§IV-A: "for input size over 64 GB, the SSD
    /// sorter offers better performance").
    TooLarge {
        /// Requested array bytes.
        bytes: u64,
        /// Capacity of the sorter's memory in bytes.
        capacity: u64,
    },
    /// No AMT configuration fits the hardware.
    Infeasible,
}

impl core::fmt::Display for SorterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SorterError::TooLarge { bytes, capacity } => write!(
                f,
                "array of {bytes} bytes exceeds the {capacity}-byte memory"
            ),
            SorterError::Infeasible => write!(f, "no AMT configuration fits the hardware"),
        }
    }
}

impl std::error::Error for SorterError {}

/// The latency-optimized DRAM sorter (§IV-A): a single Bonsai-chosen
/// `AMT(p, ℓ)` that recursively merges the array in DRAM.
///
/// # Example
///
/// ```
/// use bonsai_model::HardwareParams;
/// use bonsai_sorters::DramSorter;
/// use bonsai_gensort::dist::uniform_u32;
///
/// let sorter = DramSorter::new(HardwareParams::aws_f1());
/// let data = uniform_u32(100_000, 7);
/// let (sorted, report) = sorter.sort(data)?;
/// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
/// assert!(report.seconds() > 0.0);
/// # Ok::<(), bonsai_sorters::SorterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramSorter {
    hw: HardwareParams,
    optimizer: BonsaiOptimizer,
}

impl DramSorter {
    /// Creates a DRAM sorter for the given hardware.
    pub fn new(hw: HardwareParams) -> Self {
        Self {
            hw,
            optimizer: BonsaiOptimizer::new(hw),
        }
    }

    /// The target hardware.
    pub fn hardware(&self) -> &HardwareParams {
        &self.hw
    }

    /// Picks the latency-optimal AMT configuration for `array`.
    ///
    /// # Errors
    ///
    /// [`SorterError::Infeasible`] when nothing fits the device,
    /// [`SorterError::TooLarge`] when the array exceeds DRAM.
    pub fn plan(&self, array: &ArrayParams) -> Result<RankedConfig, SorterError> {
        if array.total_bytes() > self.hw.c_dram {
            return Err(SorterError::TooLarge {
                bytes: array.total_bytes(),
                capacity: self.hw.c_dram,
            });
        }
        // §IV-A's DRAM sorter is a single AMT (the optimizer's ranked
        // list may also contain unrolled partitioned variants, which the
        // paper leaves to future work for DRAM — §III-A2 footnote).
        self.optimizer
            .ranked_by_latency(array)
            .into_iter()
            .find(|c| c.config.unroll == 1 && c.config.pipeline == 1)
            .ok_or(SorterError::Infeasible)
    }

    /// Sorts `data` through the AMT merge schedule (fast functional
    /// path) and reports modeled timing for the target hardware.
    ///
    /// # Errors
    ///
    /// See [`DramSorter::plan`].
    pub fn sort<R: Record>(&self, data: Vec<R>) -> Result<(Vec<R>, SorterReport), SorterError> {
        let array = ArrayParams::new(data.len() as u64, R::WIDTH_BYTES as u64);
        let plan = self.plan(&array)?;
        let (sorted, stages) =
            functional::sort_balanced(data, plan.config.leaves_l, plan.presort.max(1));
        debug_assert_eq!(stages, plan.stages);
        let report = self.modeled_report(&array, &plan);
        Ok((sorted, report))
    }

    /// Sorts `data` on the full cycle-approximate simulator (slower;
    /// intended for validation-sized inputs).
    ///
    /// # Errors
    ///
    /// See [`DramSorter::plan`].
    pub fn simulate<R: Record>(&self, data: Vec<R>) -> Result<(Vec<R>, SorterReport), SorterError> {
        let array = ArrayParams::new(data.len() as u64, R::WIDTH_BYTES as u64);
        let plan = self.plan(&array)?;
        let cfg = self.engine_config(&array, &plan);
        let (sorted, sim) = SimEngine::new(cfg).sort(data);
        Ok((sorted, self.simulated_report(&array, &plan, &sim)))
    }

    /// The cycle-simulator configuration for this plan, with the memory
    /// model's bandwidth scaled to this sorter's hardware.
    fn engine_config(&self, array: &ArrayParams, plan: &RankedConfig) -> SimEngineConfig {
        let amt = AmtConfig::new(plan.config.throughput_p, plan.config.leaves_l);
        let scale = self.hw.beta_dram / 32e9;
        SimEngineConfig {
            amt,
            loader: LoaderConfig::paper_default(array.record_bytes),
            memory: MemoryConfig::ddr4_aws_f1().with_bandwidth_scale(scale),
            presort: (plan.presort > 1).then_some(plan.presort),
        }
    }

    fn simulated_report(
        &self,
        array: &ArrayParams,
        plan: &RankedConfig,
        sim: &bonsai_amt::SortReport,
    ) -> SorterReport {
        SorterReport {
            name: "Bonsai DRAM sorter".into(),
            config: plan.config.to_string(),
            bytes: array.total_bytes(),
            phases: sim
                .passes
                .iter()
                .map(|p| Phase {
                    name: format!("merge stage {}", p.stage),
                    seconds: p.cycles as f64 / sim.freq_hz,
                    bytes_moved: p.bytes_read + p.bytes_written,
                })
                .collect(),
            timing: Timing::Simulated,
        }
    }

    /// Projects the sorting time for an array of `bytes` without
    /// touching data — the methodology behind Table I and Figure 13.
    ///
    /// # Errors
    ///
    /// See [`DramSorter::plan`].
    pub fn project(&self, bytes: u64, record_bytes: u64) -> Result<SorterReport, SorterError> {
        let array = ArrayParams::new(bytes / record_bytes, record_bytes);
        let plan = self.plan(&array)?;
        Ok(self.modeled_report(&array, &plan))
    }

    fn modeled_report(&self, array: &ArrayParams, plan: &RankedConfig) -> SorterReport {
        // Each stage is one full read+write round trip at the sustained
        // (calibrated) share of DRAM bandwidth.
        let beta_eff = self.hw.beta_dram * DRAM_STAGE_EFFICIENCY;
        let bytes = array.total_bytes();
        let per_tree_bytes = bytes as f64 / plan.config.unroll as f64;
        let rate = (plan.config.throughput_p as f64 * self.hw.freq_hz * array.record_bytes as f64)
            .min(beta_eff / plan.config.unroll as f64);
        let phases = (1..=plan.stages)
            .map(|i| Phase {
                name: format!("merge stage {i}"),
                seconds: per_tree_bytes / rate,
                bytes_moved: 2 * bytes,
            })
            .collect();
        SorterReport {
            name: "Bonsai DRAM sorter".into(),
            config: plan.config.to_string(),
            bytes,
            phases,
            timing: Timing::Modeled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::uniform_u32;

    fn sorter() -> DramSorter {
        DramSorter::new(HardwareParams::aws_f1())
    }

    #[test]
    fn sorts_and_reports() {
        let data = uniform_u32(200_000, 3);
        let mut expected = data.clone();
        expected.sort_unstable();
        let (sorted, report) = sorter().sort(data).expect("fits DRAM");
        assert_eq!(sorted, expected);
        assert_eq!(report.timing, Timing::Modeled);
        assert!(report.seconds() > 0.0);
    }

    #[test]
    fn functional_stages_are_the_plan_stages() {
        // `sort` runs the plan on every core; the stage count it executes
        // is the one the model charges for.
        for n in [2usize, 17, 100_000, 1_000_000] {
            let plan = sorter().plan(&ArrayParams::new(n as u64, 4)).expect("fits");
            let data = uniform_u32(n, 5);
            let (_, stages) =
                functional::sort_balanced(data, plan.config.leaves_l, plan.presort.max(1));
            assert_eq!(stages, plan.stages, "n = {n}");
        }
    }

    #[test]
    fn simulate_agrees_with_functional_output() {
        // Large enough that per-stage pipeline-fill overheads are small
        // relative to steady-state streaming.
        let data = uniform_u32(400_000, 4);
        let (a, ra) = sorter().sort(data.clone()).expect("fits");
        let (b, rb) = sorter().simulate(data).expect("fits");
        assert_eq!(a, b, "both paths must produce identical output");
        assert_eq!(rb.timing, Timing::Simulated);
        // Simulated and modeled times agree within the validation band.
        let ratio = rb.seconds() / ra.seconds();
        assert!((0.5..1.7).contains(&ratio), "sim/model ratio {ratio}");
    }

    #[test]
    fn projection_reproduces_table_i() {
        // Table I Bonsai row: 4–64 GB at 172 ms/GB.
        for gb in [4u64, 8, 16, 32, 64] {
            let report = sorter().project(gb * 1_000_000_000, 4).expect("fits");
            let ms = report.ms_per_gb();
            assert!(
                (ms - 172.0).abs() < 10.0,
                "{gb} GB: {ms:.0} ms/GB (paper: 172)"
            );
        }
    }

    #[test]
    fn small_arrays_take_three_stages() {
        // Figure 13: 0.5–2 GB sorts take 3 stages = 129 ms/GB.
        let report = sorter().project(1_000_000_000, 4).expect("fits");
        assert!(
            (report.ms_per_gb() - 129.0).abs() < 10.0,
            "{}",
            report.ms_per_gb()
        );
    }

    #[test]
    fn oversized_array_is_rejected() {
        let err = sorter().project(128_000_000_000, 4).unwrap_err();
        assert!(matches!(err, SorterError::TooLarge { .. }));
    }
}
