//! Memory and loader configuration with the paper's presets.

use bonsai_check::{has_errors, Diagnostic};

/// Default kernel clock frequency: 250 MHz (§VI-A: "our designs are
/// running at 250 MHz or higher frequency").
pub const DEFAULT_FREQ_HZ: f64 = 250e6;

/// Configuration of a banked off-chip memory.
///
/// Bandwidths are expressed in bytes per kernel-clock cycle per bank so
/// that the cycle simulation is exact; helpers convert to bytes/second at
/// [`DEFAULT_FREQ_HZ`].
///
/// # Example
///
/// ```
/// use bonsai_memsim::MemoryConfig;
///
/// let hbm = MemoryConfig::hbm_u50();
/// assert_eq!(hbm.banks, 32);
/// assert!(hbm.peak_read_bandwidth() > 200e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryConfig {
    /// Number of independent banks, each with its own read and write port.
    pub banks: usize,
    /// Read bytes per cycle per bank.
    pub read_bytes_per_cycle: u64,
    /// Write bytes per cycle per bank.
    pub write_bytes_per_cycle: u64,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Fixed setup cycles charged per burst (row activation, bus
    /// turnaround). Batching reads to 1–4 KB amortizes this (§V-A).
    pub burst_setup_cycles: u64,
}

impl MemoryConfig {
    /// Validated constructor: returns the analyzer's findings instead of
    /// panicking. Warnings do not fail construction; see
    /// [`MemoryConfig::validate`] to inspect them.
    pub fn try_new(
        banks: usize,
        read_bytes_per_cycle: u64,
        write_bytes_per_cycle: u64,
        capacity_bytes: u64,
        burst_setup_cycles: u64,
    ) -> Result<Self, Vec<Diagnostic>> {
        let cfg = Self {
            banks,
            read_bytes_per_cycle,
            write_bytes_per_cycle,
            capacity_bytes,
            burst_setup_cycles,
        };
        let diagnostics = cfg.validate();
        if has_errors(&diagnostics) {
            Err(diagnostics)
        } else {
            Ok(cfg)
        }
    }

    /// Runs the static analyzer over this memory configuration
    /// (`BON013`, `BON014`).
    pub fn validate(&self) -> Vec<Diagnostic> {
        bonsai_check::check_memory_shape(
            self.banks,
            self.read_bytes_per_cycle as usize,
            self.write_bytes_per_cycle as usize,
        )
    }

    /// The AWS EC2 F1.2xlarge DDR4 of §VI-A: 64 GB over 4 banks, each
    /// bank reading and writing 8 GB/s concurrently (32 B/cycle at
    /// 250 MHz), 32 GB/s aggregate.
    pub fn ddr4_aws_f1() -> Self {
        Self {
            banks: 4,
            read_bytes_per_cycle: 32,
            write_bytes_per_cycle: 32,
            capacity_bytes: 64 << 30,
            burst_setup_cycles: 8,
        }
    }

    /// A single DDR4 bank (8 GB/s concurrent read/write, 16 GB) — the
    /// "Bonsai 8" configuration of Figure 12.
    pub fn ddr4_single_bank() -> Self {
        Self {
            banks: 1,
            read_bytes_per_cycle: 32,
            write_bytes_per_cycle: 32,
            capacity_bytes: 16 << 30,
            burst_setup_cycles: 8,
        }
    }

    /// The Xilinx U50-style HBM tile of §IV-B / §VI-D: 32 banks at
    /// 8 GB/s read/write each (up to 512 GB/s), 16 GB capacity.
    pub fn hbm_u50() -> Self {
        Self {
            banks: 32,
            read_bytes_per_cycle: 32,
            write_bytes_per_cycle: 32,
            capacity_bytes: 16 << 30,
            burst_setup_cycles: 8,
        }
    }

    /// DRAM throttled to SSD speed (8 GB/s aggregate), used by the
    /// paper to validate the SSD sorter on F1 hardware (§VI-E).
    pub fn throttled_to_ssd() -> Self {
        Self {
            banks: 1,
            read_bytes_per_cycle: 32,
            write_bytes_per_cycle: 32,
            capacity_bytes: 64 << 30,
            burst_setup_cycles: 8,
        }
    }

    /// A direct SSD-array stream (§IV-C scale): one access stream at
    /// 1 GB/s (4 B/cycle) whose per-burst setup models flash access
    /// latency (25 000 cycles ≈ 100 µs at 250 MHz). Transfers are long
    /// and the gaps between them longer, so the simulated machine spends
    /// most cycles waiting on memory — the regime the event-driven
    /// fast-forward scheduler collapses. Pair with ≥ 128 KiB loader
    /// batches to keep the setup latency amortized.
    pub fn ssd_direct() -> Self {
        Self {
            banks: 1,
            read_bytes_per_cycle: 4,
            write_bytes_per_cycle: 4,
            capacity_bytes: 1 << 40,
            burst_setup_cycles: 25_000,
        }
    }

    /// Scales per-bank bandwidth by `factor` (model-exploration helper
    /// for Figure 5's bandwidth sweep).
    #[must_use]
    pub fn with_bandwidth_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth scale must be positive");
        self.read_bytes_per_cycle =
            ((self.read_bytes_per_cycle as f64 * factor).round() as u64).max(1);
        self.write_bytes_per_cycle =
            ((self.write_bytes_per_cycle as f64 * factor).round() as u64).max(1);
        self
    }

    /// Aggregate peak read bandwidth in bytes per cycle.
    pub fn peak_read_bytes_per_cycle(&self) -> u64 {
        self.banks as u64 * self.read_bytes_per_cycle
    }

    /// Aggregate peak read bandwidth in bytes/second at the default clock.
    pub fn peak_read_bandwidth(&self) -> f64 {
        self.peak_read_bytes_per_cycle() as f64 * DEFAULT_FREQ_HZ
    }

    /// Sustained fraction of peak for `batch_bytes` bursts:
    /// `b / (b + setup·bytes_per_cycle)`. This is why the data loader
    /// batches reads (§V-A).
    pub fn burst_efficiency(&self, batch_bytes: u64) -> f64 {
        let transfer = batch_bytes.div_ceil(self.read_bytes_per_cycle.max(1));
        transfer as f64 / (transfer + self.burst_setup_cycles) as f64
    }
}

/// Leaf input-buffer capacity in read batches: the hardware FIFO "can
/// hold two full read batches" (§V-A), so a leaf drains one batch while
/// the next is in flight. The write drain at the root is sized the same.
pub const LEAF_BUFFER_BATCHES: u64 = 2;

/// Configuration of the data loader (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoaderConfig {
    /// Batch size `b` in bytes (1–4 KB in the paper).
    pub batch_bytes: u64,
    /// Record width `r` in bytes.
    pub record_bytes: u64,
}

impl LoaderConfig {
    /// Validated constructor: returns the analyzer's findings instead of
    /// panicking. Warnings do not fail construction; see
    /// [`LoaderConfig::validate`] to inspect them.
    pub fn try_new(batch_bytes: u64, record_bytes: u64) -> Result<Self, Vec<Diagnostic>> {
        let cfg = Self {
            batch_bytes,
            record_bytes,
        };
        let diagnostics = cfg.validate();
        if has_errors(&diagnostics) {
            Err(diagnostics)
        } else {
            Ok(cfg)
        }
    }

    /// Runs the static analyzer over this loader configuration
    /// (`BON004`, `BON005`, `BON012`).
    pub fn validate(&self) -> Vec<Diagnostic> {
        bonsai_check::check_loader_shape(self.batch_bytes as usize, self.record_bytes as usize)
    }

    /// Cross-checks the loader against the memory it streams from
    /// (`BON010`, `BON015`, `BON016`).
    pub fn validate_against(&self, memory: &MemoryConfig) -> Vec<Diagnostic> {
        bonsai_check::check_loader_against_memory(
            self.batch_bytes as usize,
            memory.read_bytes_per_cycle as usize,
            memory.burst_setup_cycles,
            memory.capacity_bytes,
        )
    }

    /// The paper's default: 4 KB batches.
    pub fn paper_default(record_bytes: u64) -> Self {
        assert!(record_bytes > 0, "record width must be positive");
        Self {
            batch_bytes: 4096,
            record_bytes,
        }
    }

    /// Records per read batch.
    pub fn batch_records(&self) -> u64 {
        (self.batch_bytes / self.record_bytes).max(1)
    }

    /// Leaf buffer capacity in records: [`LEAF_BUFFER_BATCHES`] batches.
    pub fn buffer_records(&self) -> u64 {
        self.batch_records() * LEAF_BUFFER_BATCHES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_f1_preset_matches_paper_numbers() {
        let m = MemoryConfig::ddr4_aws_f1();
        assert!((m.peak_read_bandwidth() - 32e9).abs() < 1.0);
        assert_eq!(m.capacity_bytes, 64 << 30);
    }

    #[test]
    fn hbm_preset_hits_256_gbps() {
        let m = MemoryConfig::hbm_u50();
        assert!((m.peak_read_bandwidth() - 256e9).abs() < 1.0);
    }

    #[test]
    fn burst_efficiency_improves_with_batch_size() {
        let m = MemoryConfig::ddr4_aws_f1();
        let small = m.burst_efficiency(64);
        let large = m.burst_efficiency(4096);
        assert!(small < 0.5, "tiny bursts waste bandwidth: {small}");
        assert!(large > 0.9, "4KB bursts are near peak: {large}");
        assert!(small < large);
    }

    #[test]
    fn bandwidth_scaling_is_monotonic() {
        let m = MemoryConfig::ddr4_aws_f1().with_bandwidth_scale(2.0);
        assert_eq!(m.read_bytes_per_cycle, 64);
        let m = MemoryConfig::ddr4_aws_f1().with_bandwidth_scale(0.25);
        assert_eq!(m.read_bytes_per_cycle, 8);
    }

    #[test]
    fn loader_config_derived_quantities() {
        let l = LoaderConfig::paper_default(4);
        assert_eq!(l.batch_records(), 1024);
        assert_eq!(l.buffer_records(), 2048);
    }
}
