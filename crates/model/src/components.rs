//! The merger-architecture component cost library (Table VI).
//!
//! The paper treats mergers and couplers as black boxes characterized by
//! their LUT cost (`m_k`, `c_k` in Table IIc) and reports measured costs
//! for 32-bit and 128-bit records in Table VI. This module embeds those
//! measurements and interpolates/extrapolates to other record widths and
//! merger sizes, exposing the `Θ(k·log k)` structure the paper derives
//! (§II-A: a `2k`-merger is dominated by two bitonic half-mergers of
//! `k·log k` compare-and-exchange units).

/// One row of Table VI: LUT cost of the building blocks for `k ∈
/// {1, 2, 4, 8, 16, 32}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentTable {
    /// Record width in bits these measurements apply to.
    pub record_bits: u32,
    /// `m_k`: merger LUTs, indexed by `log₂ k`.
    pub merger_lut: [u64; 6],
    /// `c_k`: coupler LUTs, indexed by `log₂ k` for `k ∈ {2,…,32}`
    /// (there is no 1-coupler; index 0 is unused and holds the FIFO
    /// cost used in its place at width-1 tree levels).
    pub coupler_lut: [u64; 6],
    /// LUT cost of one leaf FIFO.
    pub fifo_lut: u64,
}

/// Table VI(a): 32-bit records.
pub const TABLE_VI_32BIT: ComponentTable = ComponentTable {
    record_bits: 32,
    merger_lut: [300, 622, 1_555, 3_620, 8_500, 18_853],
    coupler_lut: [50, 142, 273, 530, 1_047, 2_079],
    fifo_lut: 50,
};

/// Table VI(b): 128-bit records.
pub const TABLE_VI_128BIT: ComponentTable = ComponentTable {
    record_bits: 128,
    merger_lut: [1_016, 2_210, 5_604, 13_051, 29_970, 77_732],
    coupler_lut: [134, 576, 1_938, 2_081, 4_142, 8_266],
    fifo_lut: 134,
};

/// The component cost library: merger/coupler/FIFO LUT costs as a
/// function of width `k` and record width, seeded with Table VI.
///
/// For record widths other than 32 and 128 bits the library scales
/// linearly in bits (the paper: "the logic complexity of the
/// compare-and-swap unit grows linearly with record width", §VI-F2);
/// for `k > 32` it extrapolates with the `Θ(k·log 2k)` law of §II-A.
///
/// # Example
///
/// ```
/// use bonsai_model::ComponentLibrary;
///
/// let lib = ComponentLibrary::paper();
/// assert_eq!(lib.merger_lut(32, 32), 18_853); // Table VI exact
/// assert!(lib.merger_lut(32, 64) > lib.merger_lut(32, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentLibrary {
    narrow: ComponentTable,
    wide: ComponentTable,
}

impl ComponentLibrary {
    /// The library seeded with the paper's measured Table VI.
    pub fn paper() -> Self {
        Self {
            narrow: TABLE_VI_32BIT,
            wide: TABLE_VI_128BIT,
        }
    }

    /// Looks a cost up in one table, extrapolating `k > 32` with the
    /// `Θ(k·log 2k)` growth law.
    fn table_cost(table: &[u64; 6], k: usize) -> f64 {
        assert!(k >= 1 && k.is_power_of_two(), "k must be a power of two");
        let log_k = k.trailing_zeros() as usize;
        if log_k < 6 {
            return table[log_k] as f64;
        }
        // Extrapolate: cost ∝ k·log₂(2k), anchored at k = 32.
        let anchor = table[5] as f64;
        let growth = (k as f64 * ((2 * k) as f64).log2()) / (32.0 * 64f64.log2());
        anchor * growth
    }

    /// Interpolates a cost between the two record-width tables
    /// (linear in bits, clamped extrapolation below/above).
    fn width_scale(&self, narrow_cost: f64, wide_cost: f64, record_bits: u32) -> f64 {
        let (b0, b1) = (
            f64::from(self.narrow.record_bits),
            f64::from(self.wide.record_bits),
        );
        let t = (f64::from(record_bits) - b0) / (b1 - b0);
        let cost = narrow_cost + t * (wide_cost - narrow_cost);
        cost.max(narrow_cost * f64::from(record_bits) / b0 * 0.25)
    }

    /// `m_k`: LUT cost of a `k`-merger for `record_bits`-wide records.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two.
    pub fn merger_lut(&self, k: usize, record_bits: u32) -> u64 {
        let narrow = Self::table_cost(&self.narrow.merger_lut, k);
        let wide = Self::table_cost(&self.wide.merger_lut, k);
        self.width_scale(narrow, wide, record_bits).round() as u64
    }

    /// `c_k`: LUT cost of a `k`-coupler (`k ≥ 2`); `k = 1` returns the
    /// FIFO cost used at width-1 tree levels.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two.
    pub fn coupler_lut(&self, k: usize, record_bits: u32) -> u64 {
        let narrow = Self::table_cost(&self.narrow.coupler_lut, k);
        let wide = Self::table_cost(&self.wide.coupler_lut, k);
        self.width_scale(narrow, wide, record_bits).round() as u64
    }

    /// LUT cost of one leaf FIFO.
    pub fn fifo_lut(&self, record_bits: u32) -> u64 {
        self.width_scale(
            self.narrow.fifo_lut as f64,
            self.wide.fifo_lut as f64,
            record_bits,
        )
        .round() as u64
    }

    /// Throughput of a `k`-merger in bytes/second (Table VI's
    /// "Th-put" column): `k` records per cycle.
    pub fn merger_throughput(&self, k: usize, record_bits: u32, freq_hz: f64) -> f64 {
        k as f64 * freq_hz * f64::from(record_bits) / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_table_lookups() {
        let lib = ComponentLibrary::paper();
        assert_eq!(lib.merger_lut(1, 32), 300);
        assert_eq!(lib.merger_lut(8, 32), 3_620);
        assert_eq!(lib.merger_lut(32, 128), 77_732);
        assert_eq!(lib.coupler_lut(2, 32), 142);
        assert_eq!(lib.coupler_lut(32, 128), 8_266);
        assert_eq!(lib.fifo_lut(32), 50);
        assert_eq!(lib.fifo_lut(128), 134);
    }

    #[test]
    fn interpolated_widths_are_monotonic() {
        let lib = ComponentLibrary::paper();
        let c32 = lib.merger_lut(16, 32);
        let c64 = lib.merger_lut(16, 64);
        let c128 = lib.merger_lut(16, 128);
        assert!(c32 < c64 && c64 < c128, "{c32} {c64} {c128}");
    }

    #[test]
    fn extrapolation_follows_k_log_k() {
        let lib = ComponentLibrary::paper();
        let c32 = lib.merger_lut(32, 32) as f64;
        let c64 = lib.merger_lut(64, 32) as f64;
        // Ratio for k 32 -> 64 is (64·log128)/(32·log64) = 2.33x.
        assert!((c64 / c32 - 2.33).abs() < 0.05, "ratio = {}", c64 / c32);
    }

    #[test]
    fn paper_observation_wide_records_are_cheaper_per_byte() {
        // §VI-F2: a 128-bit 4-merger has the same throughput as a 32-bit
        // 16-merger but almost 50% less logic.
        let lib = ComponentLibrary::paper();
        let f = 250e6;
        let t128 = lib.merger_throughput(4, 128, f);
        let t32 = lib.merger_throughput(16, 32, f);
        assert!((t128 - t32).abs() < 1.0);
        let l128 = lib.merger_lut(4, 128) as f64;
        let l32 = lib.merger_lut(16, 32) as f64;
        assert!(l128 < 0.70 * l32, "128-bit merger should be much cheaper");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_k_rejected() {
        let _ = ComponentLibrary::paper().merger_lut(3, 32);
    }
}
