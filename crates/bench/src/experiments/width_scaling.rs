//! §VI-F2: scalability in record width.
//!
//! The paper: "1 GB of wider records requires less resources to be
//! sorted in the same amount of time as one GB of narrower records."
//! This experiment runs the cycle simulator at matched byte throughput
//! (`p·r` constant) over 4/8/16-byte records — confirming the equal
//! sort-time half — and evaluates the resource half with the model,
//! where the advantage turns out to hold per merger (as Table VI
//! shows) but not per fixed-ℓ tree, whose deep 1-merger levels scale
//! with record width.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_model::resource::amt_lut;
use bonsai_model::ComponentLibrary;
use bonsai_records::{KvRec, Record, U64Rec};

use crate::table::Table;

/// One width point: record width, simulated byte throughput, model LUT.
#[derive(Debug, Clone)]
pub struct WidthPoint {
    /// Record width in bytes.
    pub record_bytes: u64,
    /// AMT shape used (p chosen so `p·r` is constant).
    pub amt: AmtConfig,
    /// Simulated sustained byte throughput while merging (bytes/s).
    pub stream_rate: f64,
    /// Resource-model LUTs for the tree.
    pub lut: u64,
}

/// The swept `(record bytes, p)` pairs: `p·r` is 32 bytes a cycle on
/// each, so each tree streams the same bytes per cycle. `bonsai-lint`
/// lints these shapes.
pub const SHAPES: [(u64, usize); 3] = [(4, 8), (8, 4), (16, 2)];

/// Every tree of the sweep has 64 leaves.
const LEAVES: usize = 64;

/// The DRAM sorter at one sweep point.
pub fn config(record_bytes: u64, p: usize) -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(p, LEAVES), record_bytes)
}

fn stream_rate<R: Record>(cfg: SimEngineConfig, data: Vec<R>) -> f64 {
    debug_assert_eq!(cfg.loader.record_bytes, R::WIDTH_BYTES as u64);
    let (_, report) = SimEngine::new(cfg).sort(data);
    report.throughput() * report.stages() as f64
}

/// Runs the sweep at a fixed total byte volume (`total_bytes`). The
/// `i`-th width draws its keys from seed `i + 1`; a wider record keeps
/// the key in its high bits and the index below it.
pub fn sweep(total_bytes: usize) -> Vec<WidthPoint> {
    let lib = ComponentLibrary::paper();
    (1u64..)
        .zip(SHAPES)
        .map(|(seed, (record_bytes, p))| {
            let cfg = config(record_bytes, p);
            let keys = uniform_u32(total_bytes / record_bytes as usize, seed);
            let stream_rate = match record_bytes {
                4 => stream_rate(cfg, keys),
                8 => stream_rate(
                    cfg,
                    keys.into_iter()
                        .enumerate()
                        .map(|(i, r)| U64Rec::new((u64::from(r.0) << 20) | i as u64).sanitize())
                        .collect(),
                ),
                16 => stream_rate(
                    cfg,
                    keys.into_iter()
                        .enumerate()
                        .map(|(i, r)| KvRec::new(u64::from(r.0), i as u64).sanitize())
                        .collect(),
                ),
                other => unreachable!("SHAPES has no {other}-byte record"),
            };
            WidthPoint {
                record_bytes,
                amt: cfg.amt,
                stream_rate,
                lut: amt_lut(&lib, p, LEAVES, 8 * record_bytes as u32),
            }
        })
        .collect()
}

/// Renders the §VI-F2 width-scaling table.
pub fn render(total_bytes: usize) -> String {
    let mut t = Table::new(vec!["record width", "AMT", "stream GB/s", "tree LUT"]);
    let points = sweep(total_bytes);
    for p in &points {
        t.row(vec![
            format!("{} B", p.record_bytes),
            p.amt.to_string(),
            format!("{:.2}", p.stream_rate / 1e9),
            p.lut.to_string(),
        ]);
    }
    format!(
        "§VI-F2: record-width scaling at constant byte throughput ({} MB dataset)\nEqual p·r sorts the same bytes in the same time. Per *merger* the wide\nrecord wins (a 128-bit 4-merger beats a 32-bit 16-merger by ~34%, Table VI);\nper *tree* at fixed l the 1-merger floor of the deep levels works the other\nway — the paper's resource claim is a component-level statement.\n\n{}",
        total_bytes / 1_000_000,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_byte_rate_across_widths() {
        let points = sweep(4_000_000);
        let base = points[0].stream_rate;
        for p in &points[1..] {
            let ratio = p.stream_rate / base;
            assert!(
                (0.85..1.15).contains(&ratio),
                "{} B records: {:.2} GB/s vs base {:.2} GB/s",
                p.record_bytes,
                p.stream_rate / 1e9,
                base / 1e9
            );
        }
    }

    #[test]
    fn width_advantage_is_component_level() {
        let lib = ComponentLibrary::paper();
        // Per merger at equal throughput, wider records win (§VI-F2's
        // own example: 128-bit 4-merger vs 32-bit 16-merger).
        assert!(lib.merger_lut(4, 128) < lib.merger_lut(16, 32));
        // Per tree at fixed l, the deep 1-merger levels scale with
        // record width and dominate, reversing the advantage.
        let narrow = amt_lut(&lib, 8, 64, 32);
        let wide = amt_lut(&lib, 2, 64, 128);
        assert!(wide > narrow, "{wide} vs {narrow}");
    }
}
