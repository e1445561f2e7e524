//! Cycle-level ablations of the Bonsai design choices (DESIGN.md §4,
//! "Ablations"):
//!
//! 1. terminal-record single-cycle flush vs a hypothetical d-cycle flush,
//! 2. data-loader read batching (64 B … 4 KB),
//! 3. the p-vs-ℓ trade-off at a fixed LUT budget.
//!
//! Every row sorts uniform `u32` records on the DRAM sorter. The lists
//! below are the one record of what the ablations run; `bonsai-lint`
//! reads them through [`configs`].

use bonsai_amt::{AmtConfig, PassReport, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_model::resource::amt_lut;
use bonsai_model::ComponentLibrary;

use crate::table::Table;

/// Initial run lengths of the flush rows (1 = no presorter).
pub const FLUSH_PRESORTS: [usize; 3] = [1, 4, 16];

/// Loader batch sizes of the loader rows, in bytes. The 64-byte batch
/// draws `BON016` (burst efficiency below 50 %) on purpose: it is the
/// unbatched end of the sweep.
pub const LOADER_BATCHES: [u64; 4] = [64, 256, 1024, 4096];

/// `(p, ℓ)` shapes of the p-vs-ℓ rows. AMT(32, 16) draws `BON003`
/// (p above ℓ) on purpose: it is the all-throughput end of the sweep.
pub const P_VS_L: [(usize, usize); 4] = [(32, 16), (16, 64), (8, 256), (4, 256)];

/// The tree the flush and loader rows run on.
fn base() -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(8, 16), 4)
}

/// A flush row's configuration: the base tree at initial run length
/// `presort`.
pub fn flush_config(presort: usize) -> SimEngineConfig {
    let mut cfg = base();
    cfg.presort = (presort > 1).then_some(presort);
    cfg
}

/// A loader row's configuration: the base tree reading
/// `batch_bytes`-byte batches.
pub fn loader_config(batch_bytes: u64) -> SimEngineConfig {
    let mut cfg = base();
    cfg.loader.batch_bytes = batch_bytes;
    cfg
}

/// A p-vs-ℓ row's configuration.
pub fn p_vs_l_config(p: usize, l: usize) -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4)
}

/// Every configuration the three ablations run, labelled by row.
pub fn configs() -> Vec<(String, SimEngineConfig)> {
    let flush =
        FLUSH_PRESORTS.map(|presort| (format!("flush_presort{presort}"), flush_config(presort)));
    let loader = LOADER_BATCHES.map(|batch| (format!("loader_batch{batch}"), loader_config(batch)));
    let shapes = P_VS_L.map(|(p, l)| (format!("p{p}_l{l}"), p_vs_l_config(p, l)));
    flush.into_iter().chain(loader).chain(shapes).collect()
}

fn flush(n: usize) -> String {
    let mut t = Table::new(vec![
        "initial run len",
        "stages",
        "cycles",
        "root flushes est.",
        "cycles if flush cost 8",
    ]);
    for presort in FLUSH_PRESORTS {
        let data = uniform_u32(n, 11);
        let (_, report) = SimEngine::new(flush_config(presort)).sort(data);
        // Flushes per stage ~ groups = runs_in / fan_in, summed over all
        // mergers; estimate from run counts.
        let flushes: u64 = report.passes.iter().map(|p| p.runs_out * 15).sum();
        t.row(vec![
            presort.to_string(),
            report.stages().to_string(),
            report.total_cycles.to_string(),
            flushes.to_string(),
            (report.total_cycles + 7 * flushes).to_string(),
        ]);
    }
    format!(
        "Ablation 1: terminal-record flush (single-cycle, §V-B) on {n} records.\nShort initial runs flush constantly; a multi-cycle flush scheme would add\nthe final column's overhead.\n\n{}",
        t.render()
    )
}

fn loader_batch(n: usize) -> String {
    let mut t = Table::new(vec!["batch bytes", "cycles", "effective rec/cycle"]);
    for batch in LOADER_BATCHES {
        let data = uniform_u32(n, 12);
        let (_, report) = SimEngine::new(loader_config(batch)).sort(data);
        // A sort of fewer records than one presorted run has no pass.
        let rpc = report
            .passes
            .iter()
            .map(PassReport::records_per_cycle)
            .sum::<f64>()
            / report.passes.len().max(1) as f64;
        t.row(vec![
            batch.to_string(),
            report.total_cycles.to_string(),
            format!("{rpc:.2}"),
        ]);
    }
    format!(
        "Ablation 2: data-loader read batching (§V-A) on {n} records.\nSmall bursts pay DRAM setup latency on every read and starve the tree.\n\n{}",
        t.render()
    )
}

fn p_vs_l(n: usize) -> String {
    let lib = ComponentLibrary::paper();
    let mut t = Table::new(vec!["config", "LUT", "stages", "cycles", "rec/cycle"]);
    for (p, l) in P_VS_L {
        let data = uniform_u32(n, 13);
        let (_, report) = SimEngine::new(p_vs_l_config(p, l)).sort(data);
        let rpc = n as f64 * report.stages() as f64 / report.total_cycles as f64;
        t.row(vec![
            format!("AMT({p}, {l})"),
            amt_lut(&lib, p, l, 32).to_string(),
            report.stages().to_string(),
            report.total_cycles.to_string(),
            format!("{rpc:.2}"),
        ]);
    }
    format!(
        "Ablation 3: p vs l at comparable logic budgets on {n} records.\nHigh p finishes each stage faster; high l needs fewer stages. The optimizer\npicks p to just saturate memory bandwidth, then spends the rest on l (§VI-B2).\n\n{}",
        t.render()
    )
}

/// Renders the three ablation tables over `n` records each.
pub fn render(n: usize) -> String {
    format!("{}\n{}\n{}", flush(n), loader_batch(n), p_vs_l(n))
}
