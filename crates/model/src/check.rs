//! Static analysis of full AMT configurations against the resource
//! model (Equations 8–10) and the tool-flow limits of §VI-B.
//!
//! This is the `BON02x` layer of the analyzer: where `bonsai-amt` and
//! `bonsai-memsim` validate their own shapes, this module owns the
//! checks that need the component cost library — the LUT budget of
//! Equation 9 and the BRAM budget of Equation 10.
//!
//! It also owns [`analyze_engine`], the one static pass over an engine
//! configuration: shape checks, the dataflow checks of the composed
//! loader → tree → memory pipeline (`BON03x`, each a closed form over
//! the configuration), the certification that the analytical latency
//! model (Eqs. 1–2) never predicts below the static lower bound derived
//! from that pipeline's max-flow and critical path (`BON033`) and the
//! static throughput floor (`BON064`). [`model_drift_probe`]
//! cross-checks the model against an actual `SimEngine` measurement
//! with a tolerance gate.

use crate::components::ComponentLibrary;
use crate::optimizer::FullConfig;
use crate::params::{ArrayParams, HardwareParams};
use crate::resource::Footprint;
use crate::{perf, resource};
use bonsai_amt::{SimEngine, SimEngineConfig};
use bonsai_check::{codes, has_errors, Diagnostic};
use bonsai_memsim::LEAF_BUFFER_BATCHES;

/// Relative slack granted to the model before `BON033` fires: the model
/// may predict down to `bound / (1 + CERTIFY_TOLERANCE)` to absorb the
/// critical-path term on equality-bound configurations.
const CERTIFY_TOLERANCE: f64 = 0.02;

/// Relative model-vs-simulation drift tolerated by
/// [`model_drift_probe`] before `BON036` fires. §VI-B reports the model
/// within 10 % of measurement at scale; small probe arrays see extra
/// fill/drain overhead, hence the looser gate.
const DRIFT_TOLERANCE: f64 = 0.35;

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

/// Array [`analyze_engine`] certifies each configuration against:
/// 1 GiB of records keeps every stage count realistic.
const CERTIFY_BYTES: u64 = 1 << 30;

/// The static pass over one engine configuration: the shape checks,
/// then the dataflow checks of the composed pipeline (`BON031`,
/// `BON032`, each a closed form over the configuration), the Eq. 1
/// latency-bound certification (`BON033`) on that pipeline's max-flow
/// and critical path and, for configurations clean so far, the static
/// throughput floor (`BON064`).
///
/// `payload_bytes` is the width written back per record; `None` means
/// the full record width. `Some(0)` is `BON017`: each write channel
/// would have to buffer infinitely many records per batch. The pass
/// judges only the engine [`SimEngine::try_new`] would build, so any
/// shape error stops it after the shape checks.
#[must_use]
pub fn analyze_engine(
    config: &SimEngineConfig,
    payload_bytes: Option<u64>,
    hw: &HardwareParams,
) -> Vec<Diagnostic> {
    let mut diagnostics = config.validate();
    if payload_bytes == Some(0) {
        diagnostics.push(
            Diagnostic::error(
                codes::WRITE_PAYLOAD_ZERO,
                "cannot lower to a pipeline graph: write-back payload width is zero",
            )
            .with("payload_bytes", 0),
        );
    }
    if has_errors(&diagnostics) {
        return diagnostics;
    }
    let record_bytes = config.loader.record_bytes;
    let flow = dataflow(config, payload_bytes.unwrap_or(record_bytes));
    diagnostics.extend(flow.diagnostics);
    // Built by hand: `from_bytes` asserts divisibility, and a record
    // width that does not divide the array (`--record-bytes 12`) is a
    // finding to report, not a reason to abort the linter.
    let array = ArrayParams {
        n_records: CERTIFY_BYTES / record_bytes,
        record_bytes,
    };
    diagnostics.extend(certify_latency_bound(
        config,
        &array,
        hw,
        flow.max_flow,
        flow.critical_path,
    ));
    // A throughput guarantee means nothing for a pipeline that wedges.
    if !has_errors(&diagnostics) {
        diagnostics.extend(check_static_bound(config, &array, hw));
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

/// What [`dataflow`] finds in one configuration.
struct Dataflow {
    /// `BON031`, `BON032`, in that order.
    diagnostics: Vec<Diagnostic>,
    /// Sustained memory-to-memory rate in bytes per cycle.
    max_flow: u64,
    /// Pipeline-fill latency from read channel to write channel, cycles.
    critical_path: u64,
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
///   leaf edges), or a write channel's `batch_bytes / payload_bytes`
///   holds none (both edges of every write channel).
/// - max-flow = `min(banks·R, p·r, banks·W)`, and `BON032` ⇔ it is below
///   the root's `p·r`. The cut is the read channels while `R ≤ W`, the
///   write channels otherwise.
/// - critical path = `2·burst_setup + 2 + log₂ℓ + min(log₂p, log₂ℓ − 1)`:
///   a setup per channel, the loader, the drain, one cycle per merger
///   level and one per coupler.
///
/// No other term can bind: an internal tree FIFO holds `max(8·w, 16)`
/// records, and every tree level carries at least the root's `p·r`.
/// Needs a configuration without shape errors and a non-zero payload.
fn dataflow(config: &SimEngineConfig, payload_bytes: u64) -> Dataflow {
    let (amt, loader, memory) = (config.amt, config.loader, config.memory);
    let leaves = amt.l;
    let levels = amt.levels();
    let bottom = levels - 1;
    let need = amt.merger_width_at_level(bottom) as u64 + 1;
    let leaf_depth = loader.batch_bytes / loader.record_bytes * LEAF_BUFFER_BATCHES;
    let banks = memory.banks;
    let (read, write) = (memory.read_bytes_per_cycle, memory.write_bytes_per_cycle);
    // Two leaf edges per bottom merger.
    let leaf_edge = |j: usize| format!("loader->merger_l{bottom}_{}", j / 2);

    let mut diagnostics = Vec::new();
    let shallow_leaves = if leaf_depth < need { leaves } else { 0 };
    let shallow_writes = if loader.batch_bytes / payload_bytes == 0 {
        2 * banks
    } else {
        0
    };
    let shallow = shallow_leaves + shallow_writes;
    if shallow > 0 {
        let edge = |i: usize| match i.checked_sub(shallow_leaves) {
            None => format!("{} (depth {leaf_depth}, need {need})", leaf_edge(i)),
            Some(w) if w % 2 == 0 => format!("drain->chan_w{} (depth 0, need 1)", w / 2),
            Some(w) => format!("chan_w{}->sink (depth 0, need 1)", w / 2),
        };
        diagnostics.push(
            Diagnostic::error(
                codes::GRAPH_FIFO_BELOW_FLUSH,
                "FIFO depth below the consumer's flush requirement (k-record tuple + terminal)",
            )
            .with("edges", name_some(shallow, edge))
            .with("count", shallow),
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

    let couplers = u64::from(amt.p.trailing_zeros()).min(levels as u64 - 1);
    Dataflow {
        diagnostics,
        max_flow,
        critical_path: 2 * memory.burst_setup_cycles + 2 + levels as u64 + couplers,
    }
}

/// Latency-bound certification (`BON033`).
///
/// From the pipeline's max-flow `cut` (bytes/cycle) and critical path
/// `critical_path` (cycles), derives a static lower bound on sorting
/// `array`: each of the `s` merge stages must move every byte through
/// the min-cut, plus one pipeline fill along the critical path —
///
/// ```text
/// bound = s · bytes / (min_cut · f)  +  critical_path / f
/// ```
///
/// The analytical model (Eq. 1 with `hw`) predicting *below* this bound
/// means the model and the configured hardware disagree — typically `hw`'s
/// `beta_dram` promising bandwidth the configured `MemoryConfig` does
/// not have. A [`CERTIFY_TOLERANCE`] relative slack absorbs the
/// critical-path term on configurations that sit exactly on the bound.
fn certify_latency_bound(
    config: &SimEngineConfig,
    array: &ArrayParams,
    hw: &HardwareParams,
    cut: u64,
    critical_path: u64,
) -> Vec<Diagnostic> {
    let presort = config.presort.unwrap_or(1);
    let s = perf::stages(array.n_records, config.amt.l, presort);
    if s == 0 {
        return Vec::new();
    }
    let f = hw.freq_hz;
    let model_secs = perf::eq1_latency(array, hw, config.amt.p, config.amt.l, presort);
    let bound_secs =
        f64::from(s) * array.total_bytes() as f64 / (cut as f64 * f) + critical_path as f64 / f;
    if model_secs * (1.0 + CERTIFY_TOLERANCE) < bound_secs {
        vec![Diagnostic::error(
            codes::GRAPH_LATENCY_BOUND_VIOLATION,
            "analytical model predicts below the graph's static latency lower bound",
        )
        .with("model_ms", format!("{:.3}", model_secs * 1e3))
        .with("bound_ms", format!("{:.3}", bound_secs * 1e3))
        .with("min_cut_bytes_per_cycle", cut)
        .with("critical_path_cycles", critical_path)
        .with("stages", s)]
    } else {
        Vec::new()
    }
}

/// Tolerance-gated drift report (`BON036`, warning).
///
/// Sorts `n_records` pseudo-random `u32` records through the actual
/// [`SimEngine`] and compares the measured latency against the Eq. 1
/// prediction for the same array. Drift beyond 35 % (`DRIFT_TOLERANCE`)
/// means the analytical model no longer tracks the simulator it claims
/// to describe — a warning, because either side may have legitimately
/// moved first.
#[must_use]
pub fn model_drift_probe(
    config: &SimEngineConfig,
    hw: &HardwareParams,
    n_records: usize,
    seed: u64,
) -> Vec<Diagnostic> {
    use bonsai_records::U32Rec;
    // xorshift64*: deterministic probe data without a generator dep.
    let mut state = seed.max(1);
    let data: Vec<U32Rec> = (0..n_records)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            U32Rec::new((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32)
        })
        .collect();
    let (_, report) = SimEngine::new(*config).sort(data);
    let array = ArrayParams {
        n_records: n_records as u64,
        record_bytes: config.loader.record_bytes,
    };
    let presort = config.presort.unwrap_or(1);
    let model_secs = perf::eq1_latency(&array, hw, config.amt.p, config.amt.l, presort);
    let sim_secs = report.seconds();
    if model_secs <= 0.0 || sim_secs <= 0.0 {
        return Vec::new();
    }
    let drift = (sim_secs - model_secs).abs() / model_secs;
    if drift > DRIFT_TOLERANCE {
        vec![Diagnostic::warning(
            codes::GRAPH_MODEL_DRIFT,
            "analytical model drifted beyond tolerance from a SimEngine measurement",
        )
        .with("model_us", format!("{:.1}", model_secs * 1e6))
        .with("simulated_us", format!("{:.1}", sim_secs * 1e6))
        .with("drift", format!("{:.2}", drift))
        .with("tolerance", format!("{DRIFT_TOLERANCE:.2}"))
        .with("n_records", n_records)]
    } else {
        Vec::new()
    }
}

/// Safety factor applied on top of the fully-serialized per-stage cost
/// in [`static_cycle_ceiling`]. The serialized sum already dominates
/// every overlap the simulator can miss; the factor absorbs fill/drain
/// artifacts on tiny arrays so the ceiling is *unconditionally* above
/// any simulated run — that inequality is the soundness contract
/// `bonsai-check`'s `accept_then_run` test enforces on every
/// configuration [`analyze_engine`] accepts.
const CEILING_SAFETY_FACTOR: u64 = 2;

/// Conservative static upper bound on the total cycles [`SimEngine`]
/// can spend sorting `array` under `config`, assuming **zero overlap**
/// between memory and compute: per merge stage, every batch pays a full
/// burst setup and serialized transfer on both the read and write side,
/// every record pays the full tree depth (plus the presorter network
/// depth), every run pays a per-level flush bubble, and a generous
/// pipeline-fill term is added — the whole sum then doubled
/// (`CEILING_SAFETY_FACTOR`).
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

/// Static steady-state throughput lower bound in bytes per second,
/// derived from [`static_cycle_ceiling`] at clock `freq_hz`: the engine
/// is guaranteed to sort `array` at *at least* this rate. `None` when
/// no ceiling exists.
fn throughput_floor(config: &SimEngineConfig, array: &ArrayParams, freq_hz: f64) -> Option<f64> {
    let ceiling = static_cycle_ceiling(config, array)?;
    if ceiling == 0 || freq_hz <= 0.0 {
        return None;
    }
    let total_bytes = array.n_records.saturating_mul(config.loader.record_bytes);
    Some(total_bytes as f64 * freq_hz / ceiling as f64)
}

/// Consistency check of the static throughput floor against the Eq. 1
/// analytical model (`BON064`).
///
/// The floor assumes full serialization, so it must sit *below* the
/// model's overlap-aware prediction; a floor above the model is a
/// contradiction — the ceiling's cost accounting dropped a term the
/// model still charges for — and is reported as an error.
fn check_static_bound(
    config: &SimEngineConfig,
    array: &ArrayParams,
    hw: &HardwareParams,
) -> Vec<Diagnostic> {
    let presort = config.presort.unwrap_or(1);
    let model_secs = perf::eq1_latency(array, hw, config.amt.p, config.amt.l, presort);
    if model_secs <= 0.0 || !model_secs.is_finite() {
        return Vec::new();
    }
    let total_bytes = array.n_records.saturating_mul(config.loader.record_bytes);
    let model_bytes_per_sec = total_bytes as f64 / model_secs;
    match throughput_floor(config, array, hw.freq_hz) {
        Some(floor) if floor > model_bytes_per_sec => vec![Diagnostic::error(
            codes::THROUGHPUT_FLOOR_UNSOUND,
            "static throughput lower bound exceeds the analytical model's throughput",
        )
        .with("floor_mb_s", format!("{:.3}", floor / 1e6))
        .with("model_mb_s", format!("{:.3}", model_bytes_per_sec / 1e6))
        .with("n_records", array.n_records)],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_amt::AmtConfig;
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

    fn engine_pass(config: &SimEngineConfig) -> Vec<Diagnostic> {
        analyze_engine(config, None, &HardwareParams::aws_f1())
    }

    #[test]
    fn dataflow_numbers_follow_the_tree_arithmetic() {
        // AMT(32, 64) on 4-byte records needs exactly the 128 B/cyc the
        // four DDR4 banks read.
        let flow = dataflow(&SimEngineConfig::dram_sorter(AmtConfig::new(32, 64), 4), 4);
        assert_eq!((flow.max_flow, flow.diagnostics), (128, Vec::new()));
        // AMT(4, 16) fills through two 8-cycle channel setups, the
        // loader, the drain, four merger levels and two couplers.
        let flow = dataflow(&SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4), 4);
        assert_eq!(flow.critical_path, 24);
        // A tree with fewer leaves than DDR4 banks still reads on all
        // four: the loader issues each burst on any free bank port.
        for (p, l) in [(1, 2), (2, 4)] {
            let config = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
            assert_eq!(dataflow(&config, 4).diagnostics, Vec::new(), "AMT({p},{l})");
        }
    }

    #[test]
    fn in_repo_shapes_pass_the_whole_engine_pass() {
        for (p, l) in [(4, 16), (8, 64), (16, 256), (32, 64), (32, 256)] {
            let config = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
            let diags = engine_pass(&config);
            assert!(diags.is_empty(), "AMT({p},{l}): {diags:?}");
        }
        // The SSD-throttled validation shapes are p-bound at 8 GB/s on
        // both sides of the latency comparison.
        for l in [64, 256] {
            let config = SimEngineConfig::with_memory(
                AmtConfig::new(8, l),
                4,
                MemoryConfig::throttled_to_ssd(),
            );
            let diags = engine_pass(&config);
            assert!(diags.is_empty(), "ssd l={l}: {diags:?}");
        }
    }

    #[test]
    fn model_promising_more_than_the_memory_violates_the_bound() {
        // p=16 against SSD-throttled memory: Eq. 1 with the F1 hardware
        // card claims 16 GB/s, but the one throttled channel carries
        // only 8 GB/s.
        let config = SimEngineConfig::with_memory(
            AmtConfig::new(16, 64),
            4,
            MemoryConfig::throttled_to_ssd(),
        );
        let diags = engine_pass(&config);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::GRAPH_LATENCY_BOUND_VIOLATION),
            "{diags:?}"
        );
    }

    #[test]
    fn certification_skips_trivial_and_shapeless_configs() {
        let hw = HardwareParams::aws_f1();
        let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        // 16 records presorted in one chunk: zero merge stages, so even
        // a one-byte-per-cycle cut certifies.
        let tiny = ArrayParams {
            n_records: 16,
            record_bytes: 4,
        };
        assert!(certify_latency_bound(&config, &tiny, &hw, 1, 1).is_empty());
        // Configs with no pipeline to judge stop at the shape checks,
        // each code once.
        let mut broken = config;
        broken.loader.record_bytes = 0;
        let codes: Vec<_> = engine_pass(&broken).iter().map(|d| d.code).collect();
        assert_eq!(codes, [codes::RECORD_WIDTH_ZERO]);
    }

    #[test]
    fn engine_pass_reports_a_record_width_that_does_not_divide_the_array() {
        // 12-byte records do not divide the 1 GiB certification array
        // (nor the 4 KiB batch): BON005, not an assertion failure.
        let mut config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        config.loader.record_bytes = 12;
        let diags = engine_pass(&config);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::BATCH_NOT_RECORD_MULTIPLE),
            "{diags:?}"
        );
    }

    #[test]
    fn drift_probe_is_quiet_on_the_paper_configuration() {
        let hw = HardwareParams::aws_f1();
        let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let diags = model_drift_probe(&config, &hw, 20_000, 7);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn drift_probe_flags_a_model_that_cannot_match_the_engine() {
        // Tell the model the hardware runs 10x faster than the engine
        // being measured: guaranteed drift beyond any tolerance.
        let mut hw = HardwareParams::aws_f1();
        hw.freq_hz *= 10.0;
        hw.beta_dram *= 10.0;
        let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let diags = model_drift_probe(&config, &hw, 20_000, 7);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::GRAPH_MODEL_DRIFT);
        assert!(!diags[0].is_error(), "drift is a warning");
    }

    #[test]
    fn ceiling_dominates_an_actual_simulation() {
        use bonsai_records::U32Rec;
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
        assert_eq!(throughput_floor(&broken, &array, 250e6), None);
    }

    #[test]
    fn floor_sits_below_the_analytical_model() {
        let hw = HardwareParams::aws_f1();
        let array = ArrayParams::from_bytes(1 << 24, 4);
        for (p, l) in [(4, 16), (8, 64), (16, 256), (32, 64)] {
            let config = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
            let floor = throughput_floor(&config, &array, hw.freq_hz).expect("bounded");
            assert!(floor > 0.0);
            let diags = check_static_bound(&config, &array, &hw);
            assert!(diags.is_empty(), "AMT({p},{l}): {diags:?}");
        }
    }

    #[test]
    fn contradicted_floor_reports_bon064() {
        let config = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let array = ArrayParams::from_bytes(1 << 24, 4);
        // A model card whose memory moves 1 B/s predicts a throughput
        // below any positive lower bound.
        let mut hw = HardwareParams::aws_f1();
        hw.beta_dram = 1.0;
        let diags = check_static_bound(&config, &array, &hw);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::THROUGHPUT_FLOOR_UNSOUND);
        assert!(diags[0].is_error());
    }
}
