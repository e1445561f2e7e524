//! Table IV: resource-utilization breakdown of the optimal DRAM sorter.

use bonsai_model::resource::SystemResources;
use bonsai_model::{ComponentLibrary, FullConfig};

use crate::table::Table;

/// Paper-measured Table IV rows `(lut, ff, bram)` for comparison.
pub const PAPER_ROWS: &[(&str, u64, u64, u64)] = &[
    ("Data loader", 110_102, 604_550, 960),
    ("Merge tree", 102_158, 100_264, 0),
    ("Presorter", 75_412, 64_092, 0),
    ("Total", 287_672, 768_906, 960),
];

/// The paper's synthesized DRAM sorter: one AMT(32, 64) of 32-bit
/// records behind a 16-record presorter. `bonsai-lint` lints it.
pub const DESIGN: FullConfig = FullConfig {
    throughput_p: 32,
    leaves_l: 64,
    unroll: 1,
    pipeline: 1,
};

/// The presorter chunk of [`DESIGN`].
pub const PRESORT: usize = 16;

/// Our modeled breakdown for the paper's AMT(32, 64) DRAM sorter.
pub fn modeled() -> SystemResources {
    SystemResources::dram_sorter(
        &ComponentLibrary::paper(),
        DESIGN.throughput_p,
        DESIGN.leaves_l,
        32,
        Some(PRESORT),
    )
}

/// Renders Table IV with model-vs-paper columns.
pub fn render() -> String {
    let sys = modeled();
    let rows = [
        ("Data loader", sys.data_loader),
        ("Merge tree", sys.merge_tree),
        ("Presorter", sys.presorter),
        ("Total", sys.total()),
    ];
    let mut t = Table::new(vec![
        "component",
        "LUT (model)",
        "LUT (paper)",
        "FF (model)",
        "FF (paper)",
        "BRAM (model)",
        "BRAM (paper)",
    ]);
    for ((name, ours), &(_, p_lut, p_ff, p_bram)) in rows.iter().zip(PAPER_ROWS) {
        t.row(vec![
            name.to_string(),
            ours.lut.to_string(),
            p_lut.to_string(),
            ours.ff.to_string(),
            p_ff.to_string(),
            ours.bram_blocks.to_string(),
            p_bram.to_string(),
        ]);
    }
    let (lut_u, ff_u, bram_u) = sys.utilization();
    format!(
        "Table IV: resource breakdown of the optimal DRAM sorter (AMT(32, 64) + 16-record presorter)\n\n{}\nUtilization (model): LUT {:.1}%  FF {:.1}%  BRAM {:.1}%   (paper: 33.3% / 43.6% / 60%)\n",
        t.render(),
        lut_u * 100.0,
        ff_u * 100.0,
        bram_u * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_total_tracks_paper_total() {
        let total = modeled().total();
        let (_, p_lut, _, p_bram) = PAPER_ROWS[3];
        assert!((total.lut as f64 - p_lut as f64).abs() / (p_lut as f64) < 0.10);
        assert_eq!(total.bram_blocks, p_bram);
    }

    #[test]
    fn render_has_all_components() {
        let s = render();
        for name in ["Data loader", "Merge tree", "Presorter", "Total"] {
            assert!(s.contains(name));
        }
    }
}
