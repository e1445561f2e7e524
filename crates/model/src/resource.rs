//! The resource-utilization model (Equations 8–10 and Table IV).

use crate::components::ComponentLibrary;
use crate::params::HardwareParams;

/// LUT utilization of one `AMT(p, ℓ)` (Equation 8): the sum over tree
/// levels of merger plus coupler costs, plus one FIFO per leaf.
///
/// Level `n` (root = 0) holds `2ⁿ` mergers of width `⌈p/2ⁿ⌉` and twice
/// as many couplers. The paper validates this within 5 % of Vivado
/// synthesis for every implementable AMT (Figure 10).
///
/// # Panics
///
/// Panics unless `p` and `l` are powers of two, `l ≥ 2`.
///
/// # Example
///
/// ```
/// use bonsai_model::{resource::amt_lut, ComponentLibrary};
///
/// let lib = ComponentLibrary::paper();
/// // The paper's DRAM-sorter tree AMT(32, 64) measures 102 158 LUTs
/// // (Table IV); the model must land within 10 %.
/// let predicted = amt_lut(&lib, 32, 64, 32);
/// let measured = 102_158.0;
/// assert!((predicted as f64 - measured).abs() / measured < 0.10);
/// ```
pub fn amt_lut(lib: &ComponentLibrary, p: usize, l: usize, record_bits: u32) -> u64 {
    assert!(p >= 1 && p.is_power_of_two(), "p must be a power of two");
    assert!(
        l >= 2 && l.is_power_of_two(),
        "l must be a power of two >= 2"
    );
    let levels = l.trailing_zeros() as usize;
    let mut lut = 0u64;
    for n in 0..levels {
        let width = (p >> n).max(1);
        let mergers = 1u64 << n;
        lut += mergers
            * (lib.merger_lut(width, record_bits) + 2 * lib.coupler_lut(width, record_bits));
    }
    lut + l as u64 * lib.fifo_lut(record_bits)
}

/// LUT cost of the bitonic presorter (§VI-C1): one pipelined
/// compare-and-exchange network over `chunk` records.
///
/// Calibrated against Table IV: the paper's 16-record presorter (80 CAS
/// units) measures 75 412 LUTs, i.e. ≈943 LUTs per 32-bit CAS stage
/// including pipeline registers and control.
///
/// # Panics
///
/// Panics unless `chunk` is a power of two ≥ 2.
pub fn presorter_lut(chunk: usize, record_bits: u32) -> u64 {
    const CAS_LUT_32BIT: f64 = 943.0;
    assert!(
        chunk >= 2 && chunk.is_power_of_two(),
        "presorter chunk must be a power of two >= 2, got {chunk}"
    );
    let cas = sorter_cas_units(chunk) as f64;
    (cas * CAS_LUT_32BIT * f64::from(record_bits) / 32.0).round() as u64
}

/// CAS units of Batcher's bitonic sorting network over `n` lanes (`n` a
/// power of two): `log₂n·(log₂n + 1)/2` stages of `n/2` units each.
fn sorter_cas_units(n: usize) -> usize {
    let log_n = n.trailing_zeros() as usize;
    n / 2 * log_n * (log_n + 1) / 2
}

/// LUTs of one tree: Equation 8 plus the presorter feeding it, if any.
pub(crate) fn tree_lut(
    lib: &ComponentLibrary,
    p: usize,
    l: usize,
    record_bits: u32,
    presorter_chunk: Option<usize>,
) -> u64 {
    amt_lut(lib, p, l, record_bits) + presorter_chunk.map_or(0, |c| presorter_lut(c, record_bits))
}

/// The left-hand sides of Equations 9 and 10 for `copies` identical
/// trees (`λ_pipe · λ_unrl`): the one budget path behind
/// [`config_fits`], the optimizer and `check_full_config`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Footprint {
    /// Total LUTs (Equation 9).
    pub(crate) lut: u64,
    /// Total leaf-buffer BRAM bytes (Equation 10).
    pub(crate) bram_bytes: u64,
}

impl Footprint {
    /// `copies` trees of `tree_lut` LUTs and `l` leaf buffers each.
    pub(crate) fn replicated(hw: &HardwareParams, tree_lut: u64, l: usize, copies: usize) -> Self {
        Self {
            lut: copies as u64 * tree_lut,
            bram_bytes: copies as u64 * hw.loader_bram_bytes(l as u64),
        }
    }

    /// Both budgets hold.
    pub(crate) fn fits(&self, hw: &HardwareParams) -> bool {
        self.lut <= hw.c_lut && self.bram_bytes <= hw.c_bram
    }
}

/// A LUT / flip-flop / BRAM triple, as broken down in Table IV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceTriple {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// 36 Kb BRAM blocks.
    pub bram_blocks: u64,
}

impl ResourceTriple {
    /// Component-wise sum.
    pub fn plus(self, other: ResourceTriple) -> ResourceTriple {
        ResourceTriple {
            lut: self.lut + other.lut,
            ff: self.ff + other.ff,
            bram_blocks: self.bram_blocks + other.bram_blocks,
        }
    }
}

/// Resources of the data loader for `leaves` input buffers.
///
/// Calibrated per leaf from Table IV (ℓ = 64: 110 102 LUT, 604 550 FF,
/// 960 BRAM blocks): the loader's wide FIFOs, address pointers and
/// arbitration dominate, all scaling linearly in ℓ.
pub(crate) fn data_loader_resources(leaves: usize) -> ResourceTriple {
    ResourceTriple {
        lut: (leaves as u64 * 110_102) / 64,
        ff: (leaves as u64 * 604_550) / 64,
        bram_blocks: (leaves as u64 * 960) / 64,
    }
}

/// The full DRAM-sorter resource breakdown of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemResources {
    /// Data loader row.
    pub data_loader: ResourceTriple,
    /// Merge tree row.
    pub merge_tree: ResourceTriple,
    /// Presorter row (zero if no presorter).
    pub presorter: ResourceTriple,
    /// Device resources available (AWS F1 VU9P after shell).
    pub available: ResourceTriple,
}

/// F1 VU9P resources available to the kernel (Table IV "Available").
pub(crate) const AWS_F1_AVAILABLE: ResourceTriple = ResourceTriple {
    lut: 862_128,
    ff: 1_761_817,
    bram_blocks: 1_600,
};

impl SystemResources {
    /// Estimates the complete sorter (Table IV structure) for one
    /// `AMT(p, ℓ)` with an optional `presort`-record presorter.
    ///
    /// FF counts are estimated at parity with LUTs for the merge tree
    /// and 85 % of LUTs for the presorter, matching the measured ratios.
    pub fn dram_sorter(
        lib: &ComponentLibrary,
        p: usize,
        l: usize,
        record_bits: u32,
        presort: Option<usize>,
    ) -> Self {
        let tree_lut = amt_lut(lib, p, l, record_bits);
        let merge_tree = ResourceTriple {
            lut: tree_lut,
            ff: tree_lut, // measured FF ≈ LUT for the tree (Table IV)
            bram_blocks: 0,
        };
        let presorter = presort.map_or(ResourceTriple::default(), |chunk| {
            let lut = presorter_lut(chunk, record_bits);
            ResourceTriple {
                lut,
                ff: lut * 85 / 100,
                bram_blocks: 0,
            }
        });
        Self {
            data_loader: data_loader_resources(l),
            merge_tree,
            presorter,
            available: AWS_F1_AVAILABLE,
        }
    }

    /// Total of all components.
    pub fn total(&self) -> ResourceTriple {
        self.data_loader.plus(self.merge_tree).plus(self.presorter)
    }

    /// (LUT, FF, BRAM) utilization fractions.
    pub fn utilization(&self) -> (f64, f64, f64) {
        let t = self.total();
        (
            t.lut as f64 / self.available.lut as f64,
            t.ff as f64 / self.available.ff as f64,
            t.bram_blocks as f64 / self.available.bram_blocks as f64,
        )
    }

    /// Returns `true` when every resource fits the device.
    pub fn fits(&self) -> bool {
        let t = self.total();
        t.lut <= self.available.lut
            && t.ff <= self.available.ff
            && t.bram_blocks <= self.available.bram_blocks
    }
}

/// Checks the two Bonsai resource constraints (Equations 9 and 10) for a
/// configuration of `copies` identical trees (`λ_pipe · λ_unrl`).
pub fn config_fits(
    lib: &ComponentLibrary,
    hw: &HardwareParams,
    p: usize,
    l: usize,
    record_bits: u32,
    copies: usize,
    presorter_chunk: Option<usize>,
) -> bool {
    let tree = tree_lut(lib, p, l, record_bits, presorter_chunk);
    Footprint::replicated(hw, tree, l, copies).fits(hw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_merge_tree_within_10_percent() {
        let lib = ComponentLibrary::paper();
        let predicted = amt_lut(&lib, 32, 64, 32) as f64;
        let measured = 102_158.0;
        let err = (predicted - measured).abs() / measured;
        assert!(err < 0.10, "Eq. 8 error {err:.3} vs Table IV");
    }

    #[test]
    fn lut_grows_with_p_and_l() {
        let lib = ComponentLibrary::paper();
        assert!(amt_lut(&lib, 16, 64, 32) < amt_lut(&lib, 32, 64, 32));
        assert!(amt_lut(&lib, 32, 64, 32) < amt_lut(&lib, 32, 128, 32));
    }

    #[test]
    fn presorter_calibration_matches_table_iv() {
        // Paper presorter: 16-record, 32-bit -> 75 412 LUTs.
        let predicted = presorter_lut(16, 32) as f64;
        assert!((predicted - 75_412.0).abs() / 75_412.0 < 0.01);
    }

    #[test]
    fn closed_form_cas_count_matches_the_built_network() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            assert_eq!(
                sorter_cas_units(n),
                bonsai_bitonic::sorter_network(n).cas_count(),
                "n = {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn presorter_rejects_a_non_power_of_two_chunk() {
        let _ = presorter_lut(12, 32);
    }

    #[test]
    fn dram_sorter_breakdown_close_to_table_iv() {
        let lib = ComponentLibrary::paper();
        let sys = SystemResources::dram_sorter(&lib, 32, 64, 32, Some(16));
        // Table IV totals: 287 672 LUT, 768 906 FF, 960 BRAM.
        let t = sys.total();
        assert!(
            (t.lut as f64 - 287_672.0).abs() / 287_672.0 < 0.10,
            "lut {}",
            t.lut
        );
        assert!((t.bram_blocks as f64 - 960.0).abs() < 1.0);
        assert!(sys.fits());
        let (lut_u, ff_u, bram_u) = sys.utilization();
        // Paper: 33.3% LUT, 43.6% FF, 60% BRAM.
        assert!((lut_u - 0.333).abs() < 0.05, "lut util {lut_u}");
        assert!((ff_u - 0.436).abs() < 0.08, "ff util {ff_u}");
        assert!((bram_u - 0.60).abs() < 0.01, "bram util {bram_u}");
    }

    #[test]
    fn eq9_eq10_constraints() {
        let lib = ComponentLibrary::paper();
        let hw = HardwareParams::aws_f1();
        // The paper's largest synthesizable tree fits...
        assert!(config_fits(&lib, &hw, 32, 256, 32, 1, None));
        // ...but 16 copies of it blow both budgets.
        assert!(!config_fits(&lib, &hw, 32, 256, 32, 16, None));
        // BRAM (Eq. 10) caps leaves at 256 even though LUTs remain.
        assert!(!config_fits(&lib, &hw, 1, 512, 32, 1, None));
    }
}
