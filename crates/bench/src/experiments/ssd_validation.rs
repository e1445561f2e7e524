//! §VI-E: SSD-sorter validation on throttled memory.
//!
//! The paper validates its SSD projections without an SSD by throttling
//! the F1 DRAM to flash speed (8 GB/s) and checking that each phase
//! still saturates the bound: the phase-one pipeline stage (AMT(8, 64)
//! on one bank) and the phase-two wide merge (AMT(8, 256)) both operate
//! at ~8 GB/s. We run the identical experiment on the cycle simulator.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;

use crate::table::Table;

/// One SSD-sorter phase of the validation table.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// The table's phase column.
    pub name: &'static str,
    /// The table's design column.
    pub design: &'static str,
    /// Root throughput of the phase's tree.
    pub p: usize,
    /// Leaves of the phase's tree.
    pub l: usize,
    /// The rate the paper reports, as the table prints it.
    pub paper_gbps: &'static str,
}

/// The two phases §VI-E validates; `bonsai-lint` lints their trees.
pub const PHASES: [Phase; 2] = [
    Phase {
        name: "phase one (per pipeline stage)",
        design: "AMT(8, 64), 1 bank",
        p: 8,
        l: 64,
        paper_gbps: "7.19",
    },
    Phase {
        name: "phase two (wide merge)",
        design: "AMT(8, 256), throttled",
        p: 8,
        l: 256,
        paper_gbps: "~8",
    },
];

/// An AMT on memory throttled to 8 GB/s.
pub fn config(amt: AmtConfig) -> SimEngineConfig {
    SimEngineConfig::with_memory(amt, 4, MemoryConfig::throttled_to_ssd())
}

/// Simulated sustained streaming rate (bytes/s while merging) of an AMT
/// on memory throttled to 8 GB/s.
pub fn throttled_rate(amt: AmtConfig, n: usize) -> f64 {
    let data = uniform_u32(n, 0x55D);
    let (_, report) = SimEngine::new(config(amt)).sort(data);
    report.throughput() * report.stages() as f64
}

/// Renders the §VI-E validation.
pub fn render(n: usize) -> String {
    let mut t = Table::new(vec!["phase", "design", "simulated GB/s", "paper GB/s"]);
    for phase in PHASES {
        let rate = throttled_rate(AmtConfig::new(phase.p, phase.l), n);
        t.row(vec![
            phase.name.into(),
            phase.design.into(),
            format!("{:.2}", rate / 1e9),
            phase.paper_gbps.into(),
        ]);
    }
    format!(
        "§VI-E validation: both SSD-sorter phases saturate the 8 GB/s flash bound\n(DRAM throttled to SSD speed, {n} records)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_one_stage_matches_paper_7_19() {
        let rate = throttled_rate(AmtConfig::new(8, 64), 400_000);
        // Paper measures 7.19 GB/s against the nominal 8.
        assert!(
            (rate - 7.19e9).abs() < 0.6e9,
            "phase-one rate {:.2} GB/s",
            rate / 1e9
        );
    }

    #[test]
    fn phase_two_saturates_throttled_memory() {
        // 256 leaf buffers fill serially over the single throttled port,
        // so the start-of-stage fill is visible at small scale; 1.5M
        // records amortize it (at hardware scale it vanishes entirely).
        let rate = throttled_rate(AmtConfig::new(8, 256), 1_500_000);
        assert!(
            rate > 6.4e9 && rate <= 8.1e9,
            "phase-two rate {:.2} GB/s",
            rate / 1e9
        );
    }
}
