//! The two-phase terabyte-scale SSD sorter of §IV-C.

use bonsai_amt::functional;
use bonsai_model::HardwareParams;
use bonsai_records::Record;

use crate::calibration::REPROGRAM_SECONDS;
use crate::dram::SorterError;
use crate::report::{Phase, SorterReport, Timing};

/// The two-phase SSD sorter (§IV-C, Figure 6):
///
/// - **Phase one** (throughput-optimal, pipelined `4× AMT(8, 64)`):
///   streams the input over the I/O bus and writes back DRAM-sized
///   sorted subsequences, saturating the 8 GB/s SSD bandwidth.
/// - **Reprogramming**: the FPGA is reconfigured to the phase-two
///   design (4.3 s measured, Table V).
/// - **Phase two** (latency-optimal `AMT(8, 256)`): merges 256 sorted
///   subsequences per stage, each stage one full SSD round trip.
///
/// 2 TB therefore sorts in one phase-two stage (`256 × 8 GB`), and
/// every further factor of 256 adds one more round trip — the paper's
/// 512 s for 2 TB and 8/3 GB/s up to 512 TB.
///
/// # Example
///
/// ```
/// use bonsai_model::HardwareParams;
/// use bonsai_sorters::SsdSorter;
///
/// let sorter = SsdSorter::new(HardwareParams::aws_f1_ssd());
/// let report = sorter.project(2_048_000_000_000, 4); // 2 TB
/// assert!((report.ms_per_gb() - 252.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct SsdSorter {
    hw: HardwareParams,
    /// Phase-one output run size in bytes (8 GB on F1, §IV-C).
    chunk_bytes: u64,
    /// Phase-two merge fan-in (256 on F1).
    phase2_leaves: usize,
    /// Run each phase on its own FPGA (Figure 6), eliminating the
    /// reprogramming gap. Table V measures the single-FPGA variant.
    dual_fpga: bool,
}

impl SsdSorter {
    /// Creates an SSD sorter for the given hardware (expects
    /// `hw.c_storage > 0` and `hw.beta_io` set to the SSD bandwidth).
    pub fn new(hw: HardwareParams) -> Self {
        Self {
            hw,
            chunk_bytes: 8_000_000_000,
            phase2_leaves: 256,
            dual_fpga: false,
        }
    }

    /// Deploys the two phases on two FPGAs (Figure 6), removing the
    /// reprogramming phase — the deployment Table I's 250 ms/GB assumes.
    #[must_use]
    pub fn with_dual_fpga(mut self) -> Self {
        self.dual_fpga = true;
        self
    }

    /// The target hardware.
    pub fn hardware(&self) -> &HardwareParams {
        &self.hw
    }

    /// Overrides the phase-one chunk size (testing / exploration).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero or exceeds DRAM capacity.
    #[must_use]
    pub fn with_chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        assert!(
            chunk_bytes > 0 && chunk_bytes <= self.hw.c_dram,
            "chunk must fit in DRAM"
        );
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Number of phase-two merge stages for an array of `bytes`.
    pub(crate) fn phase2_stages(&self, bytes: u64) -> u32 {
        let runs = bytes.div_ceil(self.chunk_bytes);
        bonsai_records::run::stages_needed(runs, self.phase2_leaves as u64)
    }

    /// Projects the sorting time for `bytes` of `record_bytes`-wide
    /// records — the paper's own methodology for its terabyte results
    /// (§IV-C validated per phase in §VI-E).
    pub fn project(&self, bytes: u64, record_bytes: u64) -> SorterReport {
        let _ = record_bytes; // both phases stream at the I/O bound
        let io_secs = bytes as f64 / self.hw.beta_io;
        let mut phases = vec![Phase {
            name: "phase one (pipelined sort to 8 GB runs)".into(),
            seconds: io_secs,
            bytes_moved: 2 * bytes,
        }];
        let stages = self.phase2_stages(bytes);
        if stages > 0 {
            if !self.dual_fpga {
                phases.push(Phase {
                    name: "FPGA reprogramming".into(),
                    seconds: REPROGRAM_SECONDS,
                    bytes_moved: 0,
                });
            }
            for i in 1..=stages {
                phases.push(Phase {
                    name: format!("phase two merge stage {i}"),
                    seconds: io_secs,
                    bytes_moved: 2 * bytes,
                });
            }
        }
        SorterReport {
            name: "Bonsai SSD sorter".into(),
            config: format!(
                "phase 1: 4-pipe AMT(8, 64); phase 2: AMT(8, {})",
                self.phase2_leaves
            ),
            bytes,
            phases,
            timing: Timing::Modeled,
        }
    }

    /// Sorts `data` with the two-phase schedule (functional execution)
    /// and reports modeled timing for the target hardware.
    ///
    /// # Errors
    ///
    /// [`SorterError::TooLarge`] when the data exceeds SSD capacity.
    pub fn sort<R: Record>(&self, data: Vec<R>) -> Result<(Vec<R>, SorterReport), SorterError> {
        let bytes = (data.len() * R::WIDTH_BYTES) as u64;
        if self.hw.c_storage > 0 && bytes > self.hw.c_storage {
            return Err(SorterError::TooLarge {
                bytes,
                capacity: self.hw.c_storage,
            });
        }
        let report = self.project(bytes, R::WIDTH_BYTES as u64);

        // Phase one: sort each DRAM-sized chunk independently; phase two:
        // merge the chunk runs 256 at a time.
        let chunk_records = (self.chunk_bytes as usize / R::WIDTH_BYTES).max(1);
        let (sorted, _) = functional::sort_balanced(data, self.phase2_leaves, chunk_records);
        Ok((sorted, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::uniform_u32;

    fn sorter() -> SsdSorter {
        SsdSorter::new(HardwareParams::aws_f1_ssd())
    }

    const TB: u64 = 1_000_000_000_000;

    #[test]
    fn table_v_breakdown_for_2tb() {
        // Table V: phase one 256 s, reprogramming 4.3 s, phase two 256 s,
        // total 516.3 s (2 TiB = 2048 GB).
        let report = sorter().project(2_048_000_000_000, 4);
        assert_eq!(report.phases.len(), 3);
        assert!((report.phases[0].seconds - 256.0).abs() < 1.0);
        assert!((report.phases[1].seconds - 4.3).abs() < 1e-9);
        assert!((report.phases[2].seconds - 256.0).abs() < 1.0);
        assert!((report.seconds() - 516.3).abs() < 1.0);
    }

    #[test]
    fn table_i_ssd_points() {
        // Table I Bonsai row: 128 GB–2 TB at ~250 ms/GB (two SSD round
        // trips at 8 GB/s), 100 TB at 375 (three round trips). The
        // 4.3 s reprogramming adds up to ~34 ms/GB at the small end
        // (Table I quotes the idealized 250).
        for gb in [128u64, 512, 2048] {
            let ms = sorter().project(gb * 1_000_000_000, 4).ms_per_gb();
            let reprogram_ms = 4.3 * 1e3 / gb as f64;
            assert!((ms - 250.0 - reprogram_ms).abs() < 10.0, "{gb} GB: {ms:.0}");
        }
        let ms = sorter().project(100 * 1024 * 1_000_000_000, 4).ms_per_gb();
        assert!((ms - 375.0).abs() < 10.0, "100 TB: {ms:.0}");
    }

    #[test]
    fn stage_boundaries_follow_powers_of_256() {
        let s = sorter();
        // Up to 256 chunks (2.048 TB): one phase-two stage.
        assert_eq!(s.phase2_stages(2 * TB), 1);
        // Beyond: two stages up to 256^2 chunks (524 TB).
        assert_eq!(s.phase2_stages(4 * TB), 2);
        assert_eq!(s.phase2_stages(512 * TB), 2);
        // 17.3x claim vs TerabyteSort: 1 TB in ~254 s.
        let one_tb = s.project(TB, 4);
        assert!((one_tb.seconds() - (125.0 + 4.3 + 125.0)).abs() < 1.0);
    }

    #[test]
    fn dual_fpga_removes_reprogramming() {
        let single = sorter().project(2_048_000_000_000, 4);
        let dual = sorter().with_dual_fpga().project(2_048_000_000_000, 4);
        assert_eq!(dual.phases.len(), single.phases.len() - 1);
        assert!((single.seconds() - dual.seconds() - 4.3).abs() < 1e-9);
        assert!((dual.ms_per_gb() - 250.0).abs() < 1.0);
    }

    #[test]
    fn sorts_data_with_two_phase_schedule() {
        // Scale the chunk down so phase two actually merges many runs.
        let s = sorter().with_chunk_bytes(4_000);
        let data = uniform_u32(100_000, 9);
        let mut expected = data.clone();
        expected.sort_unstable();
        let (sorted, report) = s.sort(data).expect("fits");
        assert_eq!(sorted, expected);
        assert_eq!(report.timing, Timing::Modeled);
    }

    #[test]
    fn oversized_input_rejected() {
        let s = sorter();
        // 3 TB of pretend data exceeds the 2 TB SSD. Use project-level
        // check through sort() with an impossible length? Simulate via
        // capacity math instead: the report itself is still computable.
        assert!(s.hw.c_storage < 3 * TB);
        let report = s.project(3 * TB, 4);
        assert!(report.seconds() > 0.0);
    }
}
