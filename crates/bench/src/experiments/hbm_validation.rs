//! §VI-D: HBM-sorter validation — unrolling scales performance and
//! resources linearly.
//!
//! The paper could not access HBM either; it validated the projection on
//! F1 DRAM banks: "two p = 16 AMTs saturate DRAM bandwidth … four p = 8
//! AMTs saturate DRAM bandwidth". We run exactly that experiment on the
//! shared-memory co-simulator ([`bonsai_amt::UnrolledSim`]): all λ
//! trees contend for the same four bank ports, so the bandwidth split
//! is emergent, not assumed.

use bonsai_amt::{AmtConfig, SimEngineConfig, UnrolledSim};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::DEFAULT_FREQ_HZ;
use bonsai_model::resource::amt_lut;
use bonsai_model::ComponentLibrary;

use crate::table::Table;

/// One unrolling configuration.
#[derive(Debug, Clone)]
pub struct UnrollPoint {
    /// Trees in parallel.
    pub lambda: usize,
    /// Tree shape.
    pub amt: AmtConfig,
    /// Co-simulated aggregate streaming rate (bytes/s) on the shared
    /// 4-bank, 32 GB/s memory.
    pub aggregate_throughput: f64,
    /// Total LUTs (λ × per-tree LUTs).
    pub total_lut: u64,
}

/// The §VI-D `(λ, p, ℓ)` triples: one p = 32 tree, two p = 16 trees
/// and four p = 8 trees, each of 64 leaves. `bonsai-lint` lints these
/// shapes, both as one tree's engine and as the λ-way full design.
pub const SHAPES: [(usize, usize, usize); 3] = [(1, 32, 64), (2, 16, 64), (4, 8, 64)];

/// The engine configuration of one of the λ trees.
pub fn config(p: usize, l: usize) -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4)
}

/// Co-simulates `lambda × AMT(p, l)` on the shared F1 memory.
pub fn measure(lambda: usize, p: usize, l: usize, n_total: usize) -> UnrollPoint {
    let cfg = config(p, l);
    let amt = cfg.amt;
    let data = uniform_u32(n_total, lambda as u64);
    let (_, report) = UnrolledSim::new(cfg, lambda).sort(data);
    UnrollPoint {
        lambda,
        amt,
        aggregate_throughput: report.aggregate_stream_rate(DEFAULT_FREQ_HZ),
        total_lut: lambda as u64 * amt_lut(&ComponentLibrary::paper(), p, l, 32),
    }
}

/// The [`SHAPES`] of §VI-D over `n_total` records.
pub fn sweep(n_total: usize) -> Vec<UnrollPoint> {
    SHAPES
        .iter()
        .map(|&(lambda, p, l)| measure(lambda, p, l, n_total))
        .collect()
}

/// Renders the §VI-D validation table.
pub fn render(n_total: usize) -> String {
    let mut t = Table::new(vec!["config", "aggregate GB/s (co-sim)", "total LUT"]);
    let points = sweep(n_total);
    for pt in &points {
        t.row(vec![
            format!("{}x {}", pt.lambda, pt.amt),
            format!("{:.2}", pt.aggregate_throughput / 1e9),
            pt.total_lut.to_string(),
        ]);
    }
    format!(
        "§VI-D validation: unrolling scales linearly ({n_total} records total,\nall trees contending for the shared 4-bank 32 GB/s memory)\nEvery lambda-way configuration sustains the same aggregate; LUT cost trades\np for copies.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrolled_configs_saturate_the_same_aggregate() {
        let points = sweep(400_000);
        let base = points[0].aggregate_throughput;
        assert!(base > 20e9, "one p=32 tree must stream > 20 GB/s");
        for pt in &points[1..] {
            let ratio = pt.aggregate_throughput / base;
            assert!(
                (0.8..1.2).contains(&ratio),
                "{}x {}: aggregate {:.2} GB/s vs base {:.2} GB/s",
                pt.lambda,
                pt.amt,
                pt.aggregate_throughput / 1e9,
                base / 1e9
            );
        }
    }

    #[test]
    fn resource_scaling_is_linear_in_lambda() {
        let lib = ComponentLibrary::paper();
        let one = amt_lut(&lib, 8, 64, 32);
        let pt = measure(4, 8, 64, 50_000);
        assert_eq!(pt.total_lut, 4 * one);
    }
}
