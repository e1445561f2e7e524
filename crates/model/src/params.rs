//! The Bonsai input parameters (Table II of the paper).

use bonsai_memsim::LEAF_BUFFER_BATCHES;

/// Array parameters (Table IIa): what is being sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayParams {
    /// Number of records `N`.
    pub n_records: u64,
    /// Record width `r` in bytes.
    pub record_bytes: u64,
}

impl ArrayParams {
    /// Creates array parameters from a record count and width.
    ///
    /// # Panics
    ///
    /// Panics if `record_bytes` is zero.
    pub fn new(n_records: u64, record_bytes: u64) -> Self {
        assert!(record_bytes > 0, "record width must be positive");
        Self {
            n_records,
            record_bytes,
        }
    }

    /// Creates array parameters from a total byte size.
    ///
    /// # Panics
    ///
    /// Panics if `record_bytes` is zero or does not divide `total_bytes`.
    pub fn from_bytes(total_bytes: u64, record_bytes: u64) -> Self {
        assert!(record_bytes > 0, "record width must be positive");
        assert_eq!(
            total_bytes % record_bytes,
            0,
            "array size must be a whole number of records"
        );
        Self {
            n_records: total_bytes / record_bytes,
            record_bytes,
        }
    }

    /// Total array size in bytes (`N·r`).
    pub fn total_bytes(&self) -> u64 {
        self.n_records * self.record_bytes
    }

    /// Record width in bits (the unit of the component cost tables).
    pub fn record_bits(&self) -> u32 {
        (self.record_bytes * 8) as u32
    }
}

/// Hardware parameters (Table IIb): the platform Bonsai optimizes for.
///
/// Bandwidths are bytes/second; capacities are bytes (except `c_lut`,
/// a LUT count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareParams {
    /// Off-chip memory bandwidth `β_DRAM` (bytes/s, concurrent
    /// read+write as on the F1 DDR4).
    pub beta_dram: f64,
    /// I/O bus bandwidth `β_I/O` (bytes/s).
    pub beta_io: f64,
    /// Off-chip memory capacity `C_DRAM` in bytes.
    pub c_dram: u64,
    /// On-chip buffer memory budget `C_BRAM` in bytes available to the
    /// data loader's leaf buffers (Equation 10).
    pub c_bram: u64,
    /// On-chip logic budget `C_LUT` in LUTs (Equation 9).
    pub c_lut: u64,
    /// Read/write batch size `b` in bytes (1–4 KB, §V-A).
    pub batch_bytes: u64,
    /// Kernel clock `f` in Hz.
    pub freq_hz: f64,
    /// Largest merger the tool flow can synthesize (the paper
    /// implements `p ≤ 32`, §VI-B).
    pub max_p: usize,
    /// Largest leaf count the tool flow can route (`ℓ ≤ 256`, §VI-B).
    pub max_l: usize,
    /// Attached bulk-storage capacity in bytes (SSD), 0 if none.
    pub c_storage: u64,
}

impl HardwareParams {
    /// The AWS EC2 F1.2xlarge of §VI-A: VU9P FPGA (862 128 LUTs
    /// available after shell, Table IV), 64 GB DDR4 at 32 GB/s
    /// concurrent read/write over 4 banks, PCIe host I/O at 16 GB/s.
    ///
    /// `C_BRAM` is calibrated so the data loader supports exactly
    /// `ℓ = 256` double-buffered 4 KB leaf batches — the paper's stated
    /// BRAM-limited maximum (§IV-A).
    pub fn aws_f1() -> Self {
        Self {
            beta_dram: 32e9,
            beta_io: 16e9,
            c_dram: 64 << 30,
            c_bram: 256 * LEAF_BUFFER_BATCHES * 4096, // 2 MiB: 256 leaves, double-buffered 4 KB
            c_lut: 862_128,
            batch_bytes: 4096,
            freq_hz: 250e6,
            max_p: 32,
            max_l: 256,
            c_storage: 0,
        }
    }

    /// A single F1 DDR4 bank (8 GB/s) — the "Bonsai 8" configuration of
    /// Figure 12.
    pub fn aws_f1_single_bank() -> Self {
        Self {
            beta_dram: 8e9,
            c_dram: 16 << 30,
            ..Self::aws_f1()
        }
    }

    /// An F1-class FPGA attached to HBM (§IV-B): up to 512 GB/s over 32
    /// banks, 16 GB capacity.
    pub fn hbm_u50() -> Self {
        Self {
            beta_dram: 512e9,
            c_dram: 16 << 30,
            ..Self::aws_f1()
        }
    }

    /// F1 with a 2 TB NVMe SSD array at 8 GB/s I/O (§IV-C).
    pub fn aws_f1_ssd() -> Self {
        Self {
            beta_io: 8e9,
            c_storage: 2 << 40,
            ..Self::aws_f1()
        }
    }

    /// Scales the DRAM bandwidth (for the Figure 5 sweep).
    #[must_use]
    pub fn with_beta_dram(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "bandwidth must be positive");
        self.beta_dram = beta;
        self
    }

    /// BRAM bytes consumed by `leaves` leaf buffers of
    /// [`LEAF_BUFFER_BATCHES`] batches each — the left-hand side of
    /// Equation 10.
    pub fn loader_bram_bytes(&self, leaves: u64) -> u64 {
        self.batch_bytes * LEAF_BUFFER_BATCHES * leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_divides_exactly() {
        let a = ArrayParams::from_bytes(1 << 30, 4);
        assert_eq!(a.n_records, 1 << 28);
        assert_eq!(a.total_bytes(), 1 << 30);
        assert_eq!(a.record_bits(), 32);
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn from_bytes_rejects_ragged_size() {
        let _ = ArrayParams::from_bytes(10, 4);
    }

    #[test]
    fn f1_preset_matches_paper() {
        let hw = HardwareParams::aws_f1();
        assert_eq!(hw.c_lut, 862_128);
        assert!((hw.beta_dram - 32e9).abs() < 1.0);
        // Equation 10 calibration: exactly 256 leaves fit.
        assert!(hw.loader_bram_bytes(256) <= hw.c_bram);
        assert!(hw.loader_bram_bytes(512) > hw.c_bram);
    }

    #[test]
    fn variant_presets() {
        assert!((HardwareParams::hbm_u50().beta_dram - 512e9).abs() < 1.0);
        assert_eq!(HardwareParams::aws_f1_ssd().c_storage, 2 << 40);
        let hw = HardwareParams::aws_f1().with_beta_dram(1e9);
        assert!((hw.beta_dram - 1e9).abs() < 1e-6);
    }
}
