//! Static analysis of full AMT configurations against the resource
//! model (Equations 8–10) and the tool-flow limits of §VI-B.
//!
//! This is the `BON02x` layer of the analyzer: where `bonsai-amt` and
//! `bonsai-memsim` validate their own shapes, this module owns the
//! checks that need the component cost library — the LUT budget of
//! Equation 9 and the BRAM budget of Equation 10.
//!
//! It also owns [`analyze_engine`], the one static pass over an engine
//! configuration: shape checks, then the dataflow checks of the
//! composed loader → tree → memory pipeline (`BON03x`), each a closed
//! form over the configuration alone. How close the analytical model
//! (Eq. 1) comes to the simulator is a measurement, so tests judge it
//! (`tests/model_validation.rs`), not this pass. [`static_cycle_ceiling`]
//! is the test oracle that bounds every simulation the pass accepts.

use crate::components::ComponentLibrary;
use crate::optimizer::FullConfig;
use crate::params::{ArrayParams, HardwareParams};
use crate::resource::Footprint;
use crate::{perf, resource};
use bonsai_amt::SimEngineConfig;
use bonsai_check::{codes, has_errors, Diagnostic};
use bonsai_memsim::LEAF_BUFFER_BATCHES;

/// Cross-validate a [`FullConfig`] against the hardware and component
/// library through the same Equation 9/10 budget path as
/// [`resource::config_fits`], returning the analyzer's findings instead
/// of a bare `bool`.
///
/// Emits `BON001`/`BON002` for malformed shapes, `BON022`/`BON023` for
/// tool-flow limits, `BON024` for zero replication factors,
/// `BON025`/`BON026` for the presorter chunk, and `BON020`/`BON021`
/// when the replicated design exceeds the Equation 9 LUT or
/// Equation 10 BRAM budget.
#[must_use]
pub fn check_full_config(
    lib: &ComponentLibrary,
    hw: &HardwareParams,
    config: &FullConfig,
    record_bits: u32,
    presorter_chunk: Option<usize>,
) -> Vec<Diagnostic> {
    let FullConfig {
        throughput_p: p,
        leaves_l: l,
        unroll,
        pipeline,
    } = *config;

    let mut out = bonsai_check::check_amt_shape(p, l);
    out.extend(bonsai_check::check_copies(unroll, pipeline));
    out.extend(bonsai_check::check_tool_limits(p, l, hw.max_p, hw.max_l));
    if record_bits == 0 {
        // Every derived quantity below divides by the record width; a
        // silent `.max(1)` here would validate presort math against a
        // record shape that cannot exist.
        out.push(
            Diagnostic::error(
                codes::RECORD_WIDTH_ZERO,
                "record width must be positive to size the presorter and batches",
            )
            .with("record_bits", record_bits),
        );
    } else if let Some(chunk) = presorter_chunk {
        let batch_records = (hw.batch_bytes * 8 / u64::from(record_bits)) as usize;
        out.extend(bonsai_check::check_presort(chunk, batch_records));
    }

    // The budget equations need well-formed inputs; if the shape or the
    // replication factors are already broken, stop here rather than
    // panic inside `amt_lut`.
    if has_errors(&out) {
        return out;
    }

    let tree = resource::tree_lut(lib, p, l, record_bits, presorter_chunk);
    let footprint = Footprint::replicated(hw, tree, l, unroll * pipeline);
    out.extend(bonsai_check::check_lut_budget(
        footprint.lut as f64,
        hw.c_lut as f64,
    ));
    out.extend(bonsai_check::check_bram_budget(
        footprint.bram_bytes,
        hw.c_bram,
    ));
    out
}

/// The static pass over one engine configuration: the shape checks,
/// then the dataflow checks of the composed pipeline (`BON031`,
/// `BON032`), each a closed form over the configuration alone.
///
/// The pass judges only an engine that would build, so any shape error
/// from [`SimEngineConfig::validate`] stops it after the shape checks.
#[must_use]
pub fn analyze_engine(config: &SimEngineConfig) -> Vec<Diagnostic> {
    let mut diagnostics = config.validate();
    if !has_errors(&diagnostics) {
        diagnostics.extend(dataflow(config));
    }
    diagnostics
}

/// How many offending items one aggregated diagnostic names before
/// eliding the rest as `(+N more)`; its `count` is always the total.
const MAX_NAMED: usize = 4;

/// The first [`MAX_NAMED`] of `count` items, item `i` named `name(i)`.
fn name_some(count: usize, name: impl Fn(usize) -> String) -> String {
    let shown: Vec<String> = (0..count.min(MAX_NAMED)).map(name).collect();
    if count > MAX_NAMED {
        format!("{} (+{} more)", shown.join(", "), count - MAX_NAMED)
    } else {
        shown.join(", ")
    }
}

/// The dataflow checks of the composed pipeline — read channels →
/// loader → leaf buffers → merger/coupler tree → write drain → write
/// channels — each a closed form over the configuration, on the whole
/// memory the simulated loader issues to (any burst on any free bank
/// port). With ℓ leaves, `w` the bottom merger width, and `R` / `W`
/// the read / write rates of each bank, one read and one write channel:
///
/// - `BON031` ⇔ a leaf buffer (`batch_records · LEAF_BUFFER_BATCHES`) holds
///   fewer than `w + 1` records, the §V-B tuple plus terminal (the ℓ
///   leaf edges).
/// - max-flow = `min(banks·R, p·r, banks·W)`, and `BON032` ⇔ it is below
///   the root's `p·r`. The cut is the read channels while `R ≤ W`, the
///   write channels otherwise.
///
/// No other term can bind: an internal tree FIFO holds `max(8·w, 16)`
/// records, and every tree level carries at least the root's `p·r`.
/// Needs a configuration without shape errors.
fn dataflow(config: &SimEngineConfig) -> Vec<Diagnostic> {
    let (amt, loader, memory) = (config.amt, config.loader, config.memory);
    let leaves = amt.l;
    let bottom = amt.levels() - 1;
    let need = amt.merger_width_at_level(bottom) as u64 + 1;
    let leaf_depth = loader.batch_bytes / loader.record_bytes * LEAF_BUFFER_BATCHES;
    let banks = memory.banks;
    let (read, write) = (memory.read_bytes_per_cycle, memory.write_bytes_per_cycle);

    let mut diagnostics = Vec::new();
    if leaf_depth < need {
        // Two leaf edges per bottom merger.
        let edge = |i: usize| {
            format!(
                "loader->merger_l{bottom}_{} (depth {leaf_depth}, need {need})",
                i / 2
            )
        };
        diagnostics.push(
            Diagnostic::error(
                codes::GRAPH_FIFO_BELOW_FLUSH,
                "FIFO depth below the consumer's flush requirement (k-record tuple + terminal)",
            )
            .with("edges", name_some(leaves, edge))
            .with("count", leaves),
        );
    }

    let required = amt.p as u64 * loader.record_bytes;
    let read_cut = banks as u64 * read;
    let write_cut = banks as u64 * write;
    let max_flow = read_cut.min(required).min(write_cut);
    if max_flow < required {
        let bottleneck = if read_cut <= write_cut {
            name_some(banks, |c| format!("source->chan_r{c} ({read} B/cyc)"))
        } else {
            name_some(banks, |c| format!("drain->chan_w{c} ({write} B/cyc)"))
        };
        diagnostics.push(
            Diagnostic::error(
                codes::GRAPH_BANDWIDTH_INFEASIBLE,
                "pipeline min-cut bandwidth is below the required sustained throughput",
            )
            .with("max_flow_bytes_per_cycle", max_flow)
            .with("required_bytes_per_cycle", required)
            .with("bottleneck", bottleneck),
        );
    }
    diagnostics
}

/// Safety factor applied on top of the fully-serialized per-stage cost
/// in [`static_cycle_ceiling`]. The serialized sum already dominates
/// every overlap the simulator can miss; the factor absorbs fill/drain
/// artifacts on tiny arrays so the ceiling is *unconditionally* above
/// any simulated run — that inequality is the soundness contract
/// `bonsai-check`'s `accept_then_run` test enforces on every
/// configuration [`analyze_engine`] accepts.
const CEILING_SAFETY_FACTOR: u64 = 2;

/// Conservative static upper bound on the total cycles
/// [`SimEngine`](bonsai_amt::SimEngine) can spend sorting `array` under
/// `config`, assuming **zero overlap** between memory and compute: per
/// merge stage, every batch pays a full burst setup and serialized
/// transfer on both the read and write side, every record pays the full
/// tree depth (plus the presorter network depth), every run pays a
/// per-level flush bubble, and a generous pipeline-fill term is added —
/// the whole sum then doubled (`CEILING_SAFETY_FACTOR`).
///
/// No check reads it: it is the oracle the `accept_then_run` test and
/// this module's tests hold simulations to.
///
/// Returns `None` when the configuration is malformed (the shape checks
/// own that report) or the array needs zero merge stages (nothing to
/// bound).
#[must_use]
pub fn static_cycle_ceiling(config: &SimEngineConfig, array: &ArrayParams) -> Option<u64> {
    if has_errors(&config.validate()) {
        return None;
    }
    let presort = config.presort.unwrap_or(1);
    let stages = perf::stages(array.n_records, config.amt.l, presort);
    if stages == 0 || array.n_records == 0 {
        return None;
    }
    // Validation passed and `n ≥ 1`, so nothing below is zero: the
    // batch and both port rates (BON012, BON014), the record width
    // (BON004) and so `batches`, the depth (BON002 keeps ℓ ≥ 2) and the
    // initial run length (BON025), hence `runs`.
    let n = array.n_records;
    let total_bytes = n.saturating_mul(config.loader.record_bytes);
    let batch = config.loader.batch_bytes;
    let batches = total_bytes.div_ceil(batch);
    let setup = config.memory.burst_setup_cycles;
    let read_rate = config.memory.read_bytes_per_cycle;
    let write_rate = config.memory.write_bytes_per_cycle;
    let p = config.amt.p as u64;
    let depth = config.amt.levels() as u64;
    let presort_depth = if presort > 1 {
        let stages = u64::from(presort.ilog2());
        stages * stages + 2
    } else {
        0
    };
    // Runs only ever shrink across stages; the first stage's count
    // bounds them all.
    let runs = n.div_ceil(config.initial_run_len() as u64);

    // The loader issues at least one burst per leaf stream per pass on
    // top of the per-batch transfers, so the leaf count rides the
    // setup charge.
    let leaves = config.amt.l as u64;
    let read = batches
        .saturating_mul(batch.div_ceil(read_rate))
        .saturating_add((batches + leaves).saturating_mul(setup));
    let write = batches.saturating_mul(setup + batch.div_ceil(write_rate));
    let compute = n.saturating_mul(depth + presort_depth + 2);
    let flush = runs.saturating_mul(depth * (p + 2));
    let fill = depth * (8 * p + 16) + 2 * setup + batch;
    let per_stage = read
        .saturating_add(write)
        .saturating_add(compute)
        .saturating_add(flush)
        .saturating_add(fill);
    Some(
        per_stage
            .saturating_mul(u64::from(stages))
            .saturating_mul(CEILING_SAFETY_FACTOR),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_amt::{AmtConfig, SimEngine};
    use bonsai_memsim::MemoryConfig;

    fn cfg(p: usize, l: usize, unroll: usize, pipeline: usize) -> FullConfig {
        FullConfig {
            throughput_p: p,
            leaves_l: l,
            unroll,
            pipeline,
        }
    }

    #[test]
    fn agrees_with_config_fits() {
        let lib = ComponentLibrary::paper();
        let hw = HardwareParams::aws_f1();
        for (p, l, copies) in [(32, 256, 1), (32, 256, 16), (1, 512, 1), (16, 64, 2)] {
            let fits = resource::config_fits(&lib, &hw, p, l, 32, copies, Some(16));
            let diags = check_full_config(&lib, &hw, &cfg(p, l, copies, 1), 32, Some(16));
            assert_eq!(
                !has_errors(&diags),
                fits,
                "p={p} l={l} copies={copies}: {diags:?}"
            );
        }
    }

    #[test]
    fn oversized_tree_reports_budget_codes() {
        let lib = ComponentLibrary::paper();
        let hw = HardwareParams::aws_f1();
        // l = 512 exceeds both max_l and the Eq. 10 BRAM budget; the
        // tool-limit error is reported first and budget checks bail.
        let diags = check_full_config(&lib, &hw, &cfg(1, 512, 1, 1), 32, None);
        assert!(diags.iter().any(|d| d.code == codes::L_EXCEEDS_MAX));
        // 16 copies of the largest legal tree blow the budgets proper.
        let diags = check_full_config(&lib, &hw, &cfg(32, 256, 16, 1), 32, None);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&codes::LUT_BUDGET_EXCEEDED), "{codes:?}");
        assert!(codes.contains(&codes::BRAM_BUDGET_EXCEEDED), "{codes:?}");
    }

    #[test]
    fn malformed_shape_short_circuits_budgets() {
        let lib = ComponentLibrary::paper();
        let hw = HardwareParams::aws_f1();
        let diags = check_full_config(&lib, &hw, &cfg(3, 64, 0, 1), 32, Some(10));
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&codes::P_NOT_POWER_OF_TWO), "{codes:?}");
        assert!(codes.contains(&codes::COPIES_ZERO), "{codes:?}");
        assert!(
            codes.contains(&codes::PRESORT_NOT_POWER_OF_TWO),
            "{codes:?}"
        );
        assert!(!codes.contains(&codes::LUT_BUDGET_EXCEEDED), "{codes:?}");
    }

    #[test]
    fn zero_record_bits_reports_bon004_instead_of_guessing() {
        let lib = ComponentLibrary::paper();
        let hw = HardwareParams::aws_f1();
        let diags = check_full_config(&lib, &hw, &cfg(32, 64, 1, 1), 0, Some(16));
        assert!(
            diags.iter().any(|d| d.code == codes::RECORD_WIDTH_ZERO),
            "{diags:?}"
        );
    }

    #[test]
    fn dataflow_numbers_follow_the_tree_arithmetic() {
        // AMT(32, 64) on 4-byte records needs exactly the 128 B/cyc the
        // four DDR4 banks read; AMT(8, ℓ) exactly the 32 B/cyc of the
        // one SSD-throttled channel.
        let mut shapes = vec![SimEngineConfig::dram_sorter(AmtConfig::new(32, 64), 4)];
        for l in [64, 256] {
            let ssd = MemoryConfig::throttled_to_ssd();
            shapes.push(SimEngineConfig::with_memory(AmtConfig::new(8, l), 4, ssd));
        }
        // A tree with fewer leaves than DDR4 banks still reads on all
        // four: the loader issues each burst on any free bank port.
        for (p, l) in [(1, 2), (2, 4)] {
            shapes.push(SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4));
        }
        for config in shapes {
            assert_eq!(dataflow(&config), Vec::new(), "{config:?}");
        }
    }

    #[test]
    fn in_repo_shapes_pass_the_whole_engine_pass() {
        for (p, l) in [(4, 16), (8, 64), (16, 256), (32, 64), (32, 256)] {
            let config = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
            let diags = analyze_engine(&config);
            assert!(diags.is_empty(), "AMT({p},{l}): {diags:?}");
        }
    }

    #[test]
    fn engine_pass_stops_at_shape_errors() {
        // Configs with no pipeline to judge stop at the shape checks,
        // each code once.
        let mut config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        config.loader.record_bytes = 0;
        let codes: Vec<_> = analyze_engine(&config).iter().map(|d| d.code).collect();
        assert_eq!(codes, [codes::RECORD_WIDTH_ZERO]);
        // 12-byte records do not divide the 4 KiB batch: BON005, not an
        // assertion failure.
        config.loader.record_bytes = 12;
        let codes: Vec<_> = analyze_engine(&config).iter().map(|d| d.code).collect();
        assert_eq!(codes, [codes::BATCH_NOT_RECORD_MULTIPLE]);
    }

    #[test]
    fn ceiling_dominates_an_actual_simulation() {
        use bonsai_records::U32Rec;
        // The ceiling by hand for AMT(4, 16) on 4 096 DDR4 records: per
        // stage, four 4 KiB batches read (4·128 + 20·8 = 672) and
        // written (4·136 = 544), 4 096·(4 + 18 + 2) = 98 304 compute,
        // 256 runs of 4·6 flush (6 144) and 4·48 + 16 + 4 096 = 4 304
        // fill; two stages, doubled. Every simulation stays under half
        // of it, so only this pins the safety factor.
        let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let array = ArrayParams::from_bytes(4 << 12, 4);
        let per_stage = 672 + 544 + 98_304 + 6_144 + 4_304;
        assert_eq!(
            static_cycle_ceiling(&config, &array),
            Some(per_stage * 2 * 2)
        );
        for (p, l, n) in [(4, 16, 4096usize), (8, 64, 4096), (4, 16, 300)] {
            let config = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
            let array = ArrayParams {
                n_records: n as u64,
                record_bytes: config.loader.record_bytes,
            };
            let ceiling = static_cycle_ceiling(&config, &array).expect("bounded");
            let mut state = 0x9e37_79b9_u64;
            let data: Vec<U32Rec> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    U32Rec::new(state as u32)
                })
                .collect();
            let (_, report) = SimEngine::new(config).sort(data);
            assert!(
                report.total_cycles <= ceiling,
                "AMT({p},{l}) n={n}: sim {} > ceiling {ceiling}",
                report.total_cycles
            );
        }
    }

    #[test]
    fn ceiling_declines_trivial_and_malformed_inputs() {
        let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        // Fully presorted in one chunk: zero merge stages, no bound.
        let tiny = ArrayParams {
            n_records: 16,
            record_bytes: 4,
        };
        assert_eq!(static_cycle_ceiling(&config, &tiny), None);
        let mut broken = config;
        broken.loader.record_bytes = 0;
        let array = ArrayParams::from_bytes(1 << 20, 4);
        assert_eq!(static_cycle_ceiling(&broken, &array), None);
    }
}
