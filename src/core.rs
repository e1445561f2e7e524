//! The [`Bonsai`] front door, which mirrors how the paper's system is
//! used: pick a platform, let Bonsai choose the tree, sort.
//!
//! # Example
//!
//! ```
//! use bonsai::core::Bonsai;
//! use bonsai::records::U32Rec;
//!
//! let bonsai = Bonsai::aws_f1();
//! let data: Vec<U32Rec> = [5u32, 3, 9, 1].map(U32Rec::new).to_vec();
//! let (sorted, report) = bonsai.sort(data)?;
//! assert_eq!(sorted, [1u32, 3, 5, 9].map(U32Rec::new).to_vec());
//! println!("{} via {}", report.name, report.config);
//! # Ok::<(), bonsai::sorters::SorterError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bonsai_model::{BonsaiOptimizer, HardwareParams};
use bonsai_records::Record;
use bonsai_sorters::{DramSorter, HbmSorter, SorterError, SorterReport, SsdSorter};

/// The top-level Bonsai system: a hardware description plus the
/// machinery to plan and run sorts on it.
///
/// See the module-level example.
#[derive(Debug, Clone)]
pub struct Bonsai {
    hw: HardwareParams,
}

impl Bonsai {
    /// Bonsai on custom hardware parameters.
    pub fn new(hw: HardwareParams) -> Self {
        Self { hw }
    }

    /// Bonsai on the AWS EC2 F1 instance of §VI-A.
    pub fn aws_f1() -> Self {
        Self::new(HardwareParams::aws_f1())
    }

    /// Bonsai on an HBM-attached FPGA (§IV-B).
    pub fn hbm() -> Self {
        Self::new(HardwareParams::hbm_u50())
    }

    /// Bonsai on F1 with a 2 TB NVMe SSD (§IV-C).
    pub fn ssd() -> Self {
        Self::new(HardwareParams::aws_f1_ssd())
    }

    /// The hardware parameters.
    pub fn hardware(&self) -> &HardwareParams {
        &self.hw
    }

    /// A configuration optimizer for this hardware (§III-C).
    pub fn optimizer(&self) -> BonsaiOptimizer {
        BonsaiOptimizer::new(self.hw)
    }

    /// The DRAM-scale sorter (§IV-A).
    pub fn dram_sorter(&self) -> DramSorter {
        DramSorter::new(self.hw)
    }

    /// The HBM sorter (§IV-B).
    pub fn hbm_sorter(&self) -> HbmSorter {
        HbmSorter::new(self.hw)
    }

    /// The two-phase SSD sorter (§IV-C).
    pub fn ssd_sorter(&self) -> SsdSorter {
        SsdSorter::new(self.hw)
    }

    /// Sorts `data` with the best sorter for its size: the DRAM sorter
    /// when it fits, otherwise the two-phase SSD sorter — the automatic
    /// "switch to SSD sorter" of Figure 13.
    ///
    /// # Errors
    ///
    /// Returns [`SorterError`] when the data fits neither memory tier.
    pub fn sort<R: Record>(&self, data: Vec<R>) -> Result<(Vec<R>, SorterReport), SorterError> {
        let bytes = (data.len() * R::WIDTH_BYTES) as u64;
        if bytes <= self.hw.c_dram {
            self.dram_sorter().sort(data)
        } else {
            self.ssd_sorter().sort(data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_model::ArrayParams;
    use bonsai_records::U64Rec;

    #[test]
    fn facade_sorts_u64() {
        let bonsai = Bonsai::aws_f1();
        let data: Vec<U64Rec> = (0..1000u64).rev().map(|v| U64Rec::new(v + 1)).collect();
        let (sorted, report) = bonsai.sort(data).expect("fits DRAM");
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.len(), 1000);
        assert!(report.config.contains("AMT"));
    }

    #[test]
    fn presets_expose_expected_hardware() {
        assert!((Bonsai::hbm().hardware().beta_dram - 512e9).abs() < 1.0);
        assert_eq!(Bonsai::ssd().hardware().c_storage, 2 << 40);
    }

    #[test]
    fn optimizer_accessible_through_facade() {
        let best = Bonsai::aws_f1()
            .optimizer()
            .latency_optimal(&ArrayParams::from_bytes(1 << 30, 4))
            .expect("feasible");
        assert!(best.config.throughput_p >= 16);
    }
}
