//! The high-bandwidth-memory sorter of §IV-B.

use bonsai_amt::functional;
use bonsai_model::{ArrayParams, BonsaiOptimizer, HardwareParams};
use bonsai_records::Record;

use crate::calibration::DRAM_STAGE_EFFICIENCY;
use crate::dram::SorterError;
use crate::report::{Phase, SorterReport, Timing};

/// The unrolled HBM sorter (§IV-B): `λ_unrl` AMTs sort predefined
/// address ranges in parallel, then the remaining `log₂ λ` merge-down
/// stages run with half the trees idled each time ("half of the AMTs
/// are idled, and the remaining AMTs do one more merge stage").
///
/// # Example
///
/// ```
/// use bonsai_model::HardwareParams;
/// use bonsai_sorters::HbmSorter;
///
/// let sorter = HbmSorter::new(HardwareParams::hbm_u50());
/// let report = sorter.project(8_000_000_000, 4).expect("feasible");
/// // The HBM sorter beats the single-tree DRAM sorter handily.
/// assert!(report.ms_per_gb() < 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct HbmSorter {
    hw: HardwareParams,
    optimizer: BonsaiOptimizer,
}

impl HbmSorter {
    /// Creates an HBM sorter for the given hardware.
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

    fn plan(&self, array: &ArrayParams) -> Result<bonsai_model::RankedConfig, SorterError> {
        if array.total_bytes() > self.hw.c_dram {
            return Err(SorterError::TooLarge {
                bytes: array.total_bytes(),
                capacity: self.hw.c_dram,
            });
        }
        // Unrolling is the whole point on HBM: take the best unrolled
        // configuration (the paper's §IV-B uses λ_unrl = 16).
        self.optimizer
            .ranked_by_latency(array)
            .into_iter()
            .find(|c| c.config.unroll > 1)
            .ok_or(SorterError::Infeasible)
    }

    /// Projects the sorting time for `bytes` of `record_bytes`-wide
    /// records: the parallel phase at full aggregate bandwidth, then
    /// `log₂ λ` merge-down stages with the active-tree count (and hence
    /// usable bandwidth) halving each stage.
    ///
    /// # Errors
    ///
    /// [`SorterError::TooLarge`] when the array exceeds HBM capacity,
    /// [`SorterError::Infeasible`] when no unrolled configuration fits.
    pub fn project(&self, bytes: u64, record_bytes: u64) -> Result<SorterReport, SorterError> {
        let array = ArrayParams::new(bytes / record_bytes, record_bytes);
        let plan = self.plan(&array)?;
        let lambda = plan.config.unroll;
        let p = plan.config.throughput_p;
        let tree_rate = p as f64 * self.hw.freq_hz * record_bytes as f64;
        let beta_eff = self.hw.beta_dram * DRAM_STAGE_EFFICIENCY;

        let mut phases = Vec::new();
        // Parallel phase: every tree sorts its own address range.
        let per_tree_bytes = bytes as f64 / lambda as f64;
        let rate = tree_rate.min(beta_eff / lambda as f64);
        for i in 1..=plan.stages {
            phases.push(Phase {
                name: format!("parallel stage {i} ({lambda} trees)"),
                seconds: per_tree_bytes / rate,
                bytes_moved: 2 * bytes,
            });
        }
        // Merge-down: λ runs -> 1, halving active trees each stage.
        let mut active = lambda;
        let mut step = 1;
        while active > 1 {
            let pairs = active / 2;
            let aggregate = (pairs as f64 * tree_rate).min(beta_eff);
            phases.push(Phase {
                name: format!("merge-down stage {step} ({pairs} trees active)"),
                seconds: bytes as f64 / aggregate,
                bytes_moved: 2 * bytes,
            });
            active = pairs;
            step += 1;
        }
        Ok(SorterReport {
            name: "Bonsai HBM sorter".into(),
            config: plan.config.to_string(),
            bytes,
            phases,
            timing: Timing::Modeled,
        })
    }

    /// Sorts `data` with the HBM schedule (functional execution):
    /// address-range partitions sorted independently, then pairwise
    /// merge-down.
    ///
    /// # Errors
    ///
    /// [`SorterError::TooLarge`] when the array exceeds HBM capacity,
    /// [`SorterError::Infeasible`] when no unrolled configuration fits.
    pub fn sort<R: Record>(&self, data: Vec<R>) -> Result<(Vec<R>, SorterReport), SorterError> {
        let array = ArrayParams::new(data.len() as u64, R::WIDTH_BYTES as u64);
        let plan = self.plan(&array)?;
        let report = self.project(array.total_bytes(), array.record_bytes)?;
        let lambda = plan.config.unroll;

        // Parallel phase: sort λ address ranges independently; merge-down:
        // pairwise merge stages until one run remains.
        let chunk = data.len().div_ceil(lambda).max(1);
        let (sorted, _) = functional::sort_balanced(data, 2, chunk);
        Ok((sorted, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::uniform_u32;

    fn sorter() -> HbmSorter {
        HbmSorter::new(HardwareParams::hbm_u50())
    }

    #[test]
    fn hbm_beats_dram_sorter() {
        let hbm = sorter().project(8_000_000_000, 4).expect("feasible");
        let dram = crate::DramSorter::new(HardwareParams::aws_f1())
            .project(8_000_000_000, 4)
            .expect("feasible");
        assert!(
            hbm.seconds() < dram.seconds() / 2.0,
            "hbm {:.3}s dram {:.3}s",
            hbm.seconds(),
            dram.seconds()
        );
    }

    #[test]
    fn merge_down_halves_active_trees() {
        let report = sorter().project(8_000_000_000, 4).expect("feasible");
        let merge_down: Vec<&Phase> = report
            .phases
            .iter()
            .filter(|p| p.name.contains("merge-down"))
            .collect();
        assert!(!merge_down.is_empty());
        // Later merge-down stages have less aggregate bandwidth and thus
        // take at least as long.
        assert!(merge_down
            .windows(2)
            .all(|w| w[0].seconds <= w[1].seconds + 1e-12));
    }

    #[test]
    fn sorts_correctly() {
        let data = uniform_u32(150_000, 17);
        let mut expected = data.clone();
        expected.sort_unstable();
        let (sorted, report) = sorter().sort(data).expect("fits");
        assert_eq!(sorted, expected);
        assert_eq!(report.timing, Timing::Modeled);
    }

    #[test]
    fn oversized_input_rejected() {
        let err = sorter().project(32_000_000_000, 4).unwrap_err();
        assert!(matches!(err, SorterError::TooLarge { .. }));
    }
}
