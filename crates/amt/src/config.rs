//! AMT and simulation-engine configuration.

use bonsai_check::{has_errors, Diagnostic};
use bonsai_memsim::{LoaderConfig, MemoryConfig};

/// The shape of one adaptive merge tree: its throughput `p` (records per
/// cycle out of the root) and leaf count `ℓ` (runs merged concurrently) —
/// the two parameters that uniquely define an AMT (§II).
///
/// # Example
///
/// ```
/// use bonsai_amt::AmtConfig;
///
/// let amt = AmtConfig::new(4, 16);
/// assert_eq!(amt.levels(), 4);
/// assert_eq!(amt.merger_width_at_level(0), 4); // root 4-merger
/// assert_eq!(amt.merger_width_at_level(2), 1); // 1-mergers below p
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmtConfig {
    /// Root throughput `p` in records per cycle.
    pub p: usize,
    /// Number of leaves `ℓ` (input runs merged concurrently).
    pub l: usize,
}

impl AmtConfig {
    /// Creates an AMT shape.
    ///
    /// Back-compat wrapper over [`AmtConfig::try_new`].
    ///
    /// # Panics
    ///
    /// Panics unless `p` is a power of two (≥1) and `l` a power of two
    /// (≥2).
    pub fn new(p: usize, l: usize) -> Self {
        match Self::try_new(p, l) {
            Ok(cfg) => cfg,
            Err(diagnostics) => panic!("invalid AMT shape: {}", diagnostics[0]),
        }
    }

    /// Validated constructor: returns the analyzer's findings (`BON001`,
    /// `BON002`) instead of panicking. The `BON003` p > l warning does
    /// not fail construction; use [`AmtConfig::validate`] to see it.
    pub fn try_new(p: usize, l: usize) -> Result<Self, Vec<Diagnostic>> {
        let diagnostics = bonsai_check::check_amt_shape(p, l);
        if has_errors(&diagnostics) {
            Err(diagnostics)
        } else {
            Ok(Self { p, l })
        }
    }

    /// Runs the static analyzer over this shape (`BON001`–`BON003`).
    pub fn validate(&self) -> Vec<Diagnostic> {
        bonsai_check::check_amt_shape(self.p, self.l)
    }

    /// Number of merger levels: `log₂ ℓ`.
    pub fn levels(&self) -> usize {
        self.l.trailing_zeros() as usize
    }

    /// Merger width at tree level `k` (root = level 0): `max(p / 2ᵏ, 1)`.
    pub fn merger_width_at_level(&self, k: usize) -> usize {
        (self.p >> k).max(1)
    }

    /// Number of mergers at level `k`: `2ᵏ`.
    pub fn mergers_at_level(&self, k: usize) -> usize {
        1 << k
    }

    /// Total merger count: `ℓ - 1`.
    pub fn total_mergers(&self) -> usize {
        self.l - 1
    }

    /// Peak throughput in bytes/second for `record_bytes`-wide records at
    /// clock `freq_hz` — the `p·f·r` term of Equation 1.
    pub fn peak_bandwidth(&self, record_bytes: u64, freq_hz: f64) -> f64 {
        self.p as f64 * freq_hz * record_bytes as f64
    }
}

impl core::fmt::Display for AmtConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AMT({}, {})", self.p, self.l)
    }
}

/// Full configuration of the cycle-approximate sorting engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimEngineConfig {
    /// Tree shape.
    pub amt: AmtConfig,
    /// Data loader parameters (batch size, record width, buffering).
    pub loader: LoaderConfig,
    /// Off-chip memory model.
    pub memory: MemoryConfig,
    /// Presorter chunk (records), e.g. `Some(16)` for the paper's
    /// 16-record bitonic presorter; `None` starts from 1-record runs.
    pub presort: Option<usize>,
}

impl SimEngineConfig {
    /// The DRAM-sorter setup of §IV-A on AWS F1: 4 KB batches,
    /// 16-record presorter, DDR4 with four banks.
    pub fn dram_sorter(amt: AmtConfig, record_bytes: u64) -> Self {
        Self {
            amt,
            loader: LoaderConfig::paper_default(record_bytes),
            memory: MemoryConfig::ddr4_aws_f1(),
            presort: Some(16),
        }
    }

    /// Same as [`SimEngineConfig::dram_sorter`] but on a custom memory.
    pub fn with_memory(amt: AmtConfig, record_bytes: u64, memory: MemoryConfig) -> Self {
        Self {
            amt,
            loader: LoaderConfig::paper_default(record_bytes),
            memory,
            presort: Some(16),
        }
    }

    /// Disables the presorter (ablation of §VI-C1).
    #[must_use]
    pub fn without_presort(mut self) -> Self {
        self.presort = None;
        self
    }

    /// Initial sorted-run length before the first merge stage.
    pub fn initial_run_len(&self) -> usize {
        self.presort.unwrap_or(1)
    }

    /// Cross-validates the whole engine configuration: AMT shape, loader
    /// shape, memory shape, loader-vs-memory coupling and the presorter
    /// chunk. Returns every finding; construction-breaking ones are
    /// [`bonsai_check::Severity::Error`].
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diagnostics = self.amt.validate();
        diagnostics.extend(self.loader.validate());
        diagnostics.extend(self.memory.validate());
        diagnostics.extend(self.loader.validate_against(&self.memory));
        if let Some(chunk) = self.presort {
            // record_bytes == 0 already fails BON004 above, and
            // batch_records() would divide by zero — the cross-check
            // stands down rather than crash the analyzer.
            let batch_records = if self.loader.record_bytes == 0 {
                0
            } else {
                self.loader.batch_records() as usize
            };
            diagnostics.extend(bonsai_check::check_presort(chunk, batch_records));
        }
        diagnostics
    }

    /// Validated form of the engine configuration: `Err` with the full
    /// finding list if any error-severity diagnostic fires.
    pub fn try_validated(self) -> Result<Self, Vec<Diagnostic>> {
        let diagnostics = self.validate();
        if has_errors(&diagnostics) {
            Err(diagnostics)
        } else {
            Ok(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_follow_paper_figure_1() {
        // Figure 1: AMT(4, 16): root 4-merger, two 2-mergers, four
        // 1-mergers, eight 1-mergers.
        let amt = AmtConfig::new(4, 16);
        assert_eq!(amt.levels(), 4);
        assert_eq!(
            (0..4)
                .map(|k| amt.merger_width_at_level(k))
                .collect::<Vec<_>>(),
            vec![4, 2, 1, 1]
        );
        assert_eq!(
            (0..4).map(|k| amt.mergers_at_level(k)).collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
        assert_eq!(amt.total_mergers(), 15);
    }

    #[test]
    fn peak_bandwidth_matches_paper() {
        // p = 32 at 250 MHz on 4-byte records = 32 GB/s (§IV-A).
        let amt = AmtConfig::new(32, 64);
        assert!((amt.peak_bandwidth(4, 250e6) - 32e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_p() {
        let _ = AmtConfig::new(3, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_single_leaf() {
        let _ = AmtConfig::new(4, 1);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(AmtConfig::new(32, 256).to_string(), "AMT(32, 256)");
    }

    #[test]
    fn engine_config_presets() {
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(8, 64), 4);
        assert_eq!(cfg.initial_run_len(), 16);
        assert_eq!(cfg.without_presort().initial_run_len(), 1);
    }
}
