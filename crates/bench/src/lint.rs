//! The static pass behind the `bonsai-lint` binary: every configuration
//! the experiment suite and the examples construct, pushed through the
//! `bonsai-check` analyzer.
//!
//! The experiment modules build their configs through the panicking
//! constructors, so a malformed config would already abort a run — but
//! only at the moment that experiment executes. This pass front-loads
//! the whole suite so CI rejects a bad config before any simulation
//! spends minutes on it.

use bonsai_amt::graph::{lower_to_graph, required_bytes_per_cycle, LowerOptions};
use bonsai_amt::prove::{replay_refutation, NetOptions, ReplayOutcome};
use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_check::prove::{prove_with_diagnostics, ProveOptions, ProveOutcome};
use bonsai_check::Diagnostic;
use bonsai_memsim::{MemoryConfig, DEFAULT_FREQ_HZ};
use bonsai_model::check::{
    certify_latency_bound, check_bound_against_observed, check_full_config, check_static_bound,
    model_drift_probe,
};
use bonsai_model::{ArrayParams, BonsaiOptimizer, ComponentLibrary, FullConfig, HardwareParams};
use bonsai_runtime::{AdaptiveConfig, PassScheduler, RuntimeConfig};

use crate::experiments::fig8_9;

/// Array the latency-bound certification runs each engine target
/// against: 1 GiB of records keeps every stage count realistic.
const CERTIFY_BYTES: u64 = 1 << 30;

/// Record count for the model-drift simulation probe; small enough that
/// the probe costs milliseconds, large enough for several merge stages.
const DRIFT_PROBE_RECORDS: usize = 20_000;

/// One linted configuration: where it came from and what the analyzer
/// said about it.
#[derive(Debug)]
pub struct LintFinding {
    /// Which experiment/example the configuration belongs to.
    pub target: String,
    /// The analyzer's findings (empty = clean).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintFinding {
    /// `true` if any finding is error severity.
    pub fn has_errors(&self) -> bool {
        bonsai_check::has_errors(&self.diagnostics)
    }
}

/// Every cycle-simulation configuration the experiment suite runs,
/// labelled by its table/figure.
pub fn engine_targets() -> Vec<(String, SimEngineConfig)> {
    let mut targets = Vec::new();

    // Figures 8/9: the model-validation shapes on the DRAM sorter.
    for amt in fig8_9::figure_amts() {
        targets.push((
            format!("fig8_9/{amt}"),
            SimEngineConfig::dram_sorter(amt, 4),
        ));
    }

    // §VI-D HBM validation: λ unrolled copies of narrower trees.
    for (lambda, p, l) in [(1usize, 32usize, 64usize), (2, 16, 64), (4, 8, 64)] {
        targets.push((
            format!("hbm_validation/lambda{lambda}_p{p}_l{l}"),
            SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4),
        ));
    }

    // §VI-E SSD validation: both phases on the throttled memory.
    for l in [64usize, 256] {
        targets.push((
            format!("ssd_validation/p8_l{l}"),
            SimEngineConfig::with_memory(AmtConfig::new(8, l), 4, MemoryConfig::throttled_to_ssd()),
        ));
    }

    // Record-width scaling: wider records at proportionally lower p.
    for (p, record_bytes) in [(8usize, 4u64), (4, 8), (2, 16)] {
        targets.push((
            format!("width_scaling/p{p}_r{record_bytes}"),
            SimEngineConfig::dram_sorter(AmtConfig::new(p, 64), record_bytes),
        ));
    }

    // Ablation benches: p-vs-ℓ shapes and the presorter on/off pair.
    for (p, l) in [(16usize, 16usize), (8, 64), (4, 256)] {
        targets.push((
            format!("ablations/p{p}_l{l}"),
            SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4),
        ));
    }
    targets.push((
        "ablations/no_presort".into(),
        SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4).without_presort(),
    ));

    targets
}

/// Every full (replicated) configuration the resource-model experiments
/// and the optimizer-driven examples rely on, with its presorter chunk.
pub fn model_targets() -> Vec<(String, FullConfig, Option<usize>)> {
    let mut targets = vec![
        // Table IV: the synthesized DRAM sorter.
        (
            "table4/dram_sorter".into(),
            FullConfig {
                throughput_p: 32,
                leaves_l: 64,
                unroll: 1,
                pipeline: 1,
            },
            Some(16),
        ),
    ];

    // §VI-D: the unrolled HBM configurations.
    for (lambda, p, l) in [(1usize, 32usize, 64usize), (2, 16, 64), (4, 8, 64)] {
        targets.push((
            format!("hbm_validation/lambda{lambda}"),
            FullConfig {
                throughput_p: p,
                leaves_l: l,
                unroll: lambda,
                pipeline: 1,
            },
            Some(16),
        ));
    }

    // The quickstart example's optimizer pick for a 16 GiB u32 sort:
    // whatever the optimizer emits must itself be analyzer-clean.
    let optimizer = BonsaiOptimizer::new(HardwareParams::aws_f1());
    if let Ok(best) = optimizer.latency_optimal(&ArrayParams::from_bytes(16 << 30, 4)) {
        let presort = (best.presort > 1).then_some(best.presort);
        targets.push(("quickstart/latency_optimal".into(), best.config, presort));
    }

    targets
}

/// Reference core count the in-repo runtime shapes are linted against.
/// Fixed (rather than the actual host's) so `lint_all` reports the same
/// findings on every machine; the CLI's `--runtime` mode uses the real
/// host count unless `--cores` overrides it.
pub const REF_CORES: usize = 8;

/// Every runtime topology the repo itself runs: the default shape,
/// both ends of `runtime_smoke`'s serial-vs-parallel gate, and the
/// adaptive-scheduler shape `perf_adaptive` and
/// `bonsai-serve --adaptive` run (whose `validate_for_cores`
/// additionally runs the BON08x knob checks).
pub fn runtime_targets() -> Vec<(String, RuntimeConfig)> {
    vec![
        ("runtime/default".into(), RuntimeConfig::default()),
        (
            "runtime_smoke/serial".into(),
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        ),
        (
            "runtime_smoke/per_core".into(),
            RuntimeConfig {
                workers: 0,
                ..RuntimeConfig::default()
            },
        ),
        (
            "runtime/adaptive".into(),
            RuntimeConfig {
                scheduler: PassScheduler::Adaptive,
                ..RuntimeConfig::default()
            },
        ),
    ]
}

/// The BON05x topology pass over every in-repo runtime shape, judged
/// on the [`REF_CORES`] reference host.
pub fn lint_runtime_all() -> Vec<LintFinding> {
    runtime_targets()
        .into_iter()
        .map(|(target, cfg)| LintFinding {
            target,
            diagnostics: cfg.validate_for_cores(REF_CORES),
        })
        .collect()
}

/// Options for the `bonsai-lint --prove` occupancy-reachability pass.
#[derive(Debug, Clone, Copy)]
pub struct ProveLintOptions {
    /// Explicit-state budget for the reachability search.
    pub state_budget: usize,
    /// Extra leaf-edge credits beyond capacity (the `BON061` probe).
    pub credit_slack: u32,
    /// Records for the counterexample replay; `0` disables replay.
    pub replay_records: usize,
    /// Observed throughput in bytes/second to cross-check the static
    /// lower bound against (`BON064`); `None` checks against the Eq. 1
    /// model instead.
    pub assume_throughput: Option<f64>,
}

impl Default for ProveLintOptions {
    fn default() -> Self {
        Self {
            state_budget: bonsai_check::prove::DEFAULT_STATE_BUDGET,
            credit_slack: 0,
            replay_records: bonsai_amt::prove::REPLAY_RECORDS,
            assume_throughput: None,
        }
    }
}

/// The occupancy-reachability pass for one engine configuration:
/// lower to the token net, exhaustively explore it, and
///
/// - on **certified**: re-verify the certificate (`BON063` if the
///   independent checker rejects it) and cross-check the static
///   throughput floor against the Eq. 1 model — or against
///   `assume_throughput` when given (`BON064`);
/// - on **refuted**: report the counterexample (`BON060`/`BON061`) and
///   replay it against `SimEngine`; a simulator that *completes* the
///   statically-wedged configuration earns a `BON065` divergence
///   warning, a reproduced wedge annotates the refutation with the
///   simulator's own failure;
/// - on **budget-exhausted**: pass through the `BON062` warning.
pub fn engine_prove_diagnostics(cfg: &SimEngineConfig, opts: &ProveLintOptions) -> Vec<Diagnostic> {
    let net = match bonsai_amt::prove::net_from_config(
        cfg,
        &NetOptions {
            credit_slack: opts.credit_slack,
        },
    ) {
        Ok(net) => net,
        Err(fatal) => return fatal,
    };
    let (outcome, mut diagnostics) = prove_with_diagnostics(
        &net,
        &ProveOptions {
            state_budget: opts.state_budget,
            ..ProveOptions::default()
        },
    );
    match outcome {
        ProveOutcome::Certified(_) => {
            let array = ArrayParams::from_bytes(CERTIFY_BYTES, cfg.loader.record_bytes.max(1));
            diagnostics.extend(match opts.assume_throughput {
                Some(observed) => {
                    check_bound_against_observed(cfg, &array, DEFAULT_FREQ_HZ, observed)
                }
                None => check_static_bound(cfg, &array, &HardwareParams::aws_f1()),
            });
        }
        ProveOutcome::Refuted(_) if opts.replay_records > 0 => {
            match replay_refutation(cfg, opts.replay_records, REPLAY_LINT_PASS_CYCLES, 1) {
                ReplayOutcome::Reproduced {
                    code,
                    stage,
                    cycles,
                } => {
                    // Attach the simulator's confirmation to the
                    // refutation diagnostic itself.
                    if let Some(pos) = diagnostics.iter().position(Diagnostic::is_error) {
                        let confirmed = diagnostics.remove(pos);
                        diagnostics.insert(
                            pos,
                            confirmed
                                .with("sim_reproduced", code)
                                .with("sim_stage", stage)
                                .with("sim_cycles", cycles),
                        );
                    }
                }
                ReplayOutcome::Completed { cycles } => {
                    diagnostics.push(
                        Diagnostic::warning(
                            bonsai_check::codes::PROVE_REPLAY_DIVERGED,
                            "static refutation did not reproduce in simulation: the cycle \
                             simulator relaxes the hardware contract the token net enforces",
                        )
                        .with("sim_cycles", cycles)
                        .with("replay_records", opts.replay_records),
                    );
                }
                ReplayOutcome::Rejected { .. } => {}
            }
        }
        _ => {}
    }
    diagnostics
}

/// Livelock bound for lint-time counterexample replays: generous for
/// the small replay workloads, tight enough to fail fast on a wedge.
const REPLAY_LINT_PASS_CYCLES: u64 = 300_000;

/// The occupancy-reachability pass over every in-repo engine
/// configuration.
pub fn prove_all(opts: &ProveLintOptions) -> Vec<LintFinding> {
    engine_targets()
        .into_iter()
        .map(|(target, cfg)| LintFinding {
            target: format!("prove/{target}"),
            diagnostics: engine_prove_diagnostics(&cfg, opts),
        })
        .collect()
}

/// The shape + graph + certification pass for one engine configuration:
/// the shape checks, then the four pipeline-graph analyses against the
/// config's own required throughput, then the Eq. 1 latency-bound
/// certification. Lowering failures add only codes the shape checks did
/// not already report (e.g. `BON017`, which only the lowering can see).
pub fn engine_diagnostics(
    cfg: &SimEngineConfig,
    opts: &LowerOptions,
    hw: &HardwareParams,
) -> Vec<Diagnostic> {
    let mut diagnostics = cfg.validate();
    match lower_to_graph(cfg, opts) {
        Ok(graph) => {
            diagnostics.extend(graph.analyze_all(required_bytes_per_cycle(cfg)));
            let array = ArrayParams::from_bytes(CERTIFY_BYTES, cfg.loader.record_bytes.max(1));
            diagnostics.extend(certify_latency_bound(cfg, &array, hw));
        }
        Err(fatal) => {
            for d in fatal {
                if !diagnostics.iter().any(|seen| seen.code == d.code) {
                    diagnostics.push(d);
                }
            }
        }
    }
    diagnostics
}

/// Runs the static pass over every in-repo configuration: shape checks,
/// the four pipeline-graph analyses and the latency-bound certification
/// for every engine target, the resource-model checks for every full
/// config, plus one model-vs-simulation drift probe.
pub fn lint_all() -> Vec<LintFinding> {
    let lib = ComponentLibrary::paper();
    let hw = HardwareParams::aws_f1();
    let opts = LowerOptions::default();
    let mut findings = Vec::new();
    for (target, cfg) in engine_targets() {
        findings.push(LintFinding {
            target,
            diagnostics: engine_diagnostics(&cfg, &opts, &hw),
        });
    }
    for (target, cfg, presort) in model_targets() {
        findings.push(LintFinding {
            target,
            diagnostics: check_full_config(&lib, &hw, &cfg, 32, presort),
        });
    }
    // One tolerance-gated drift probe: Eq. 1 against an actual engine
    // run on the paper's reference shape.
    let probe_cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    findings.push(LintFinding {
        target: format!("drift_probe/amt4_16_n{DRIFT_PROBE_RECORDS}"),
        diagnostics: model_drift_probe(&probe_cfg, &hw, DRIFT_PROBE_RECORDS, 7),
    });
    // The runtime topologies the repo itself spins up (BON05x).
    findings.extend(lint_runtime_all());
    findings
}

/// A raw runtime topology assembled from CLI numbers, for the
/// `bonsai-lint --runtime` probe mode (BON05x codes).
#[derive(Debug, Clone, Copy)]
pub struct RawRuntimeLint {
    /// Job workers (`0` = one per core).
    pub workers: usize,
    /// Per-job pass-sharding threads (`0` = one per core).
    pub pass_workers: usize,
    /// Bounded job-queue depth.
    pub queue_depth: usize,
    /// Concurrent submitting threads.
    pub producers: usize,
    /// Whether drop closes the queue before joining.
    pub close_on_drop: bool,
    /// Whether drop joins the workers at all.
    pub join_on_drop: bool,
    /// Host core count to judge against; `None` = this machine.
    pub cores: Option<usize>,
    /// When set, also bound `pass_workers` by the merge groups of a
    /// `records`-record job on the paper's reference DRAM engine
    /// (`BON051`).
    pub records: Option<usize>,
    /// When set, judge a pipelined group-DAG of this peak ready width
    /// (`SortPlan::max_ready_width`) against the queue/worker capacity
    /// (`BON056`).
    pub dag_width: Option<usize>,
    /// When set, also run the BON08x adaptive-scheduler pass over these
    /// knobs (the CLI arms this whenever any of `--cache-shapes`,
    /// `--shape-classes`, `--reprogram-us`, `--deadline-us` or
    /// `--fairness-stride` is given).
    pub adaptive: Option<RawAdaptiveLint>,
}

/// The adaptive scheduler's knobs as raw CLI numbers, for the BON08x
/// pass of `bonsai-lint --runtime`. Unlike `RuntimeConfig::validate*`
/// (which always judges the runtime's own two job classes), this probe
/// lets `--shape-classes` vary so CI can demonstrate the
/// cache-below-classes warning (`BON082`) at any cache size.
#[derive(Debug, Clone, Copy)]
pub struct RawAdaptiveLint {
    /// Compiled-shape cache capacity (`BON082`).
    pub cache_shapes: usize,
    /// Job classes the scheduler selects shapes for (`BON082`).
    pub shape_classes: usize,
    /// Modeled shape-switch cost in microseconds (`BON080`).
    pub reprogram_us: u64,
    /// Per-job latency deadline in microseconds, `0` = none (`BON081`).
    pub deadline_us: u64,
    /// Consecutive latency-lane dispatches before a waiting
    /// throughput-class job runs, `0` = pure priority (`BON083`).
    pub fairness_stride: u32,
}

impl Default for RawAdaptiveLint {
    fn default() -> Self {
        let defaults = AdaptiveConfig::default();
        Self {
            cache_shapes: defaults.cache_shapes,
            // The two-lane runtime's class count (latency, throughput).
            shape_classes: 2,
            reprogram_us: defaults.reprogram_cost_us,
            deadline_us: defaults.latency_deadline_us,
            fairness_stride: defaults.fairness_stride,
        }
    }
}

impl Default for RawRuntimeLint {
    fn default() -> Self {
        let defaults = RuntimeConfig::default();
        Self {
            workers: defaults.workers,
            pass_workers: defaults.pass_workers,
            queue_depth: defaults.queue_depth,
            producers: defaults.producers,
            close_on_drop: defaults.close_on_drop,
            join_on_drop: defaults.join_on_drop,
            cores: None,
            records: None,
            dag_width: None,
            adaptive: None,
        }
    }
}

impl RawRuntimeLint {
    /// The runtime configuration these raw numbers describe.
    pub fn config(&self) -> RuntimeConfig {
        RuntimeConfig {
            workers: self.workers,
            pass_workers: self.pass_workers,
            queue_depth: self.queue_depth,
            producers: self.producers,
            close_on_drop: self.close_on_drop,
            join_on_drop: self.join_on_drop,
            ..RuntimeConfig::default()
        }
    }

    /// Runs the BON05x topology pass over this raw configuration.
    pub fn lint(&self) -> LintFinding {
        let cores = self.cores.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let engine = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let mut diagnostics =
            self.config()
                .validate_for_engine(self.records.map(|_| &engine), self.records, cores);
        // The group DAG's capacity lint: a DAG whose ready
        // set outgrows the stated queue + pass-worker capacity has
        // tasks with nowhere to go (BON056). The `0` sentinels (auto
        // pool / unbounded queue) leave the capacity unstated, matching
        // `check_dag_capacity`'s contract.
        if let Some(width) = self.dag_width {
            diagnostics.extend(bonsai_check::check_dag_capacity(
                width,
                self.queue_depth,
                self.pass_workers,
            ));
        }
        // The adaptive scheduler's knob checks (BON08x), called
        // directly rather than through an Adaptive `RuntimeConfig` so
        // the probe's `--shape-classes` override is honored.
        if let Some(a) = self.adaptive {
            diagnostics.extend(bonsai_check::check_adaptive_runtime(
                a.cache_shapes,
                a.shape_classes,
                a.reprogram_us,
                a.deadline_us,
                a.fairness_stride,
            ));
        }
        LintFinding {
            target: format!(
                "cli/runtime_w{}_pw{}_q{}_prod{}",
                self.workers, self.pass_workers, self.queue_depth, self.producers
            ),
            diagnostics,
        }
    }
}

/// A raw engine configuration assembled from CLI numbers — deliberately
/// bypassing the panicking constructors so malformed shapes reach the
/// analyzer instead of aborting.
#[derive(Debug, Clone, Copy)]
pub struct RawEngineLint {
    /// Root throughput `p`.
    pub p: usize,
    /// Leaf count `l`.
    pub l: usize,
    /// Loader batch size in bytes.
    pub batch_bytes: u64,
    /// Record width in bytes.
    pub record_bytes: u64,
    /// Leaf buffer capacity in batches.
    pub buffer_batches: u64,
    /// Presorter chunk length.
    pub presort: Option<usize>,
    /// Memory model the engine streams through.
    pub memory: MemoryConfig,
    /// Override of the memory bank count (degenerate-config probe).
    pub banks: Option<usize>,
    /// Write-back payload width override; `Some(0)` is the `BON017`
    /// probe.
    pub payload_bytes: Option<u64>,
}

impl Default for RawEngineLint {
    fn default() -> Self {
        Self {
            p: 32,
            l: 64,
            batch_bytes: 4096,
            record_bytes: 4,
            buffer_batches: 2,
            presort: Some(16),
            memory: MemoryConfig::ddr4_aws_f1(),
            banks: None,
            payload_bytes: None,
        }
    }
}

impl RawEngineLint {
    /// The engine configuration these raw numbers describe.
    pub fn config(&self) -> SimEngineConfig {
        let mut memory = self.memory;
        if let Some(banks) = self.banks {
            memory.banks = banks;
        }
        SimEngineConfig {
            amt: AmtConfig {
                p: self.p,
                l: self.l,
            },
            loader: bonsai_memsim::LoaderConfig {
                batch_bytes: self.batch_bytes,
                record_bytes: self.record_bytes,
                buffer_batches: self.buffer_batches,
            },
            memory,
            presort: self.presort,
        }
    }

    /// Runs the full engine pass (shape + graph + certification) over
    /// this raw configuration.
    pub fn lint(&self) -> LintFinding {
        let cfg = self.config();
        let opts = LowerOptions {
            payload_bytes: self.payload_bytes,
        };
        LintFinding {
            target: format!(
                "cli/p{}_l{}_b{}_r{}",
                self.p, self.l, self.batch_bytes, self.record_bytes
            ),
            diagnostics: engine_diagnostics(&cfg, &opts, &HardwareParams::aws_f1()),
        }
    }
}

/// Lints a single raw engine configuration on the default DDR4 memory
/// (back-compat wrapper over [`RawEngineLint`]).
pub fn lint_raw_engine(
    p: usize,
    l: usize,
    batch_bytes: u64,
    record_bytes: u64,
    buffer_batches: u64,
    presort: Option<usize>,
) -> LintFinding {
    RawEngineLint {
        p,
        l,
        batch_bytes,
        record_bytes,
        buffer_batches,
        presort,
        ..RawEngineLint::default()
    }
    .lint()
}

/// Renders findings as a report; returns `(report, error_count,
/// warning_count)`.
pub fn render(findings: &[LintFinding]) -> (String, usize, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for f in findings {
        if f.diagnostics.is_empty() {
            let _ = writeln!(out, "ok    {}", f.target);
            continue;
        }
        let status = if f.has_errors() { "FAIL " } else { "warn " };
        let _ = writeln!(out, "{status} {}", f.target);
        for d in &f.diagnostics {
            if d.is_error() {
                errors += 1;
            } else {
                warnings += 1;
            }
            let _ = writeln!(out, "      {d}");
        }
    }
    let _ = writeln!(
        out,
        "{} configuration(s), {errors} error(s), {warnings} warning(s)",
        findings.len()
    );
    (out, errors, warnings)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a single JSON object for CI annotation tooling;
/// returns `(json, error_count, warning_count)`. Schema:
///
/// ```json
/// {
///   "targets": [
///     {"target": "...", "status": "ok|warn|fail",
///      "diagnostics": [{"code": "BONxxx", "severity": "error|warning",
///                       "message": "...", "context": {"name": "value"}}]}
///   ],
///   "errors": 0,
///   "warnings": 0
/// }
/// ```
pub fn render_json(findings: &[LintFinding]) -> (String, usize, usize) {
    use std::fmt::Write as _;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut out = String::from("{\"targets\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let status = if f.has_errors() {
            "fail"
        } else if f.diagnostics.is_empty() {
            "ok"
        } else {
            "warn"
        };
        let _ = write!(
            out,
            "{{\"target\":\"{}\",\"status\":\"{status}\",\"diagnostics\":[",
            json_escape(&f.target)
        );
        for (j, d) in f.diagnostics.iter().enumerate() {
            if d.is_error() {
                errors += 1;
            } else {
                warnings += 1;
            }
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"context\":{{",
                d.code,
                d.severity,
                json_escape(&d.message)
            );
            for (k, (name, value)) in d.context.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(name), json_escape(value));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
    }
    let _ = write!(out, "],\"errors\":{errors},\"warnings\":{warnings}}}");
    (out, errors, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_in_repo_config_is_clean_of_errors() {
        let findings = lint_all();
        assert!(!findings.is_empty());
        for f in &findings {
            assert!(!f.has_errors(), "{}: {:?}", f.target, f.diagnostics);
        }
    }

    #[test]
    fn raw_override_catches_bad_shapes() {
        let f = lint_raw_engine(6, 16, 4096, 4, 2, Some(16));
        assert!(f.has_errors());
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::P_NOT_POWER_OF_TWO));

        let f = lint_raw_engine(4, 16, 16, 4, 2, Some(16));
        assert!(
            f.diagnostics
                .iter()
                .any(|d| d.code == bonsai_check::codes::BATCH_BELOW_BUS_WIDTH),
            "{:?}",
            f.diagnostics
        );
    }

    #[test]
    fn in_repo_runtime_shapes_are_fully_clean() {
        for f in lint_runtime_all() {
            assert!(
                f.diagnostics.is_empty(),
                "{}: {:?}",
                f.target,
                f.diagnostics
            );
        }
    }

    #[test]
    fn raw_runtime_lint_catches_bad_topologies() {
        // Zero-depth queue under concurrent producers: BON050 (error).
        let f = RawRuntimeLint {
            queue_depth: 0,
            producers: 2,
            cores: Some(8),
            ..RawRuntimeLint::default()
        }
        .lint();
        assert!(f.has_errors());
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::RUNTIME_QUEUE_ZERO));

        // Joining without closing wedges drop: BON052 (error).
        let f = RawRuntimeLint {
            close_on_drop: false,
            cores: Some(8),
            ..RawRuntimeLint::default()
        }
        .lint();
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::RUNTIME_JOIN_WITHOUT_CLOSE));

        // Oversubscription is judged on the *stated* core count, not
        // the machine the lint happens to run on.
        let f = RawRuntimeLint {
            workers: 4,
            pass_workers: 4,
            cores: Some(4),
            ..RawRuntimeLint::default()
        }
        .lint();
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::RUNTIME_OVERSUBSCRIBED));

        // --dag-width judges a pipelined DAG's peak ready set against
        // the stated queue + pass-worker capacity: BON056 (error).
        let f = RawRuntimeLint {
            pass_workers: 4,
            queue_depth: 8,
            dag_width: Some(100),
            cores: Some(8),
            ..RawRuntimeLint::default()
        }
        .lint();
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::RUNTIME_DAG_OVER_CAPACITY));
        let f = RawRuntimeLint {
            pass_workers: 4,
            queue_depth: 8,
            dag_width: Some(12),
            cores: Some(8),
            ..RawRuntimeLint::default()
        }
        .lint();
        assert!(
            !f.diagnostics
                .iter()
                .any(|d| d.code == bonsai_check::codes::RUNTIME_DAG_OVER_CAPACITY),
            "{:?}",
            f.diagnostics
        );

        // --records bounds pass-workers by the engine's merge groups.
        let f = RawRuntimeLint {
            pass_workers: 64,
            records: Some(1_000),
            cores: Some(128),
            ..RawRuntimeLint::default()
        }
        .lint();
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::RUNTIME_WORKERS_EXCEED_GROUPS));
    }

    #[test]
    fn raw_adaptive_lint_fires_the_bon08x_codes() {
        let base = RawRuntimeLint {
            cores: Some(8),
            ..RawRuntimeLint::default()
        };
        let adaptive = |a: RawAdaptiveLint| {
            RawRuntimeLint {
                adaptive: Some(a),
                ..base
            }
            .lint()
        };

        // The defaults are lint-clean, so arming the pass alone adds
        // nothing.
        let f = adaptive(RawAdaptiveLint::default());
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);

        // Zero reprogram cost thrashes shapes: BON080 (warning).
        let f = adaptive(RawAdaptiveLint {
            reprogram_us: 0,
            ..RawAdaptiveLint::default()
        });
        assert!(!f.has_errors());
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::ADAPTIVE_RECONFIG_THRASH));

        // Deadline not above the reprogram cost: BON081 (error).
        let f = adaptive(RawAdaptiveLint {
            deadline_us: 100,
            reprogram_us: 200,
            ..RawAdaptiveLint::default()
        });
        assert!(f.has_errors());
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::ADAPTIVE_DEADLINE_INFEASIBLE));

        // Cache below the stated class count: BON082 (warning) — the
        // --shape-classes override is what makes this reachable at any
        // cache size.
        let f = adaptive(RawAdaptiveLint {
            cache_shapes: 8,
            shape_classes: 9,
            ..RawAdaptiveLint::default()
        });
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::ADAPTIVE_CACHE_BELOW_CLASSES));

        // Zero fairness stride starves the throughput lane: BON083
        // (warning).
        let f = adaptive(RawAdaptiveLint {
            fairness_stride: 0,
            ..RawAdaptiveLint::default()
        });
        assert!(f
            .diagnostics
            .iter()
            .any(|d| d.code == bonsai_check::codes::ADAPTIVE_FAIRNESS_STARVATION));

        // An un-armed lint of the same base topology stays BON08x-free.
        let f = base.lint();
        assert!(
            !f.diagnostics.iter().any(|d| d.code.starts_with("BON08")),
            "{:?}",
            f.diagnostics
        );
    }

    #[test]
    fn prove_pass_certifies_every_in_repo_config() {
        let findings = prove_all(&ProveLintOptions::default());
        assert!(!findings.is_empty());
        for f in &findings {
            assert!(f.target.starts_with("prove/"));
            assert!(
                f.diagnostics.is_empty(),
                "{}: {:?}",
                f.target,
                f.diagnostics
            );
        }
    }

    #[test]
    fn prove_pass_refutes_and_confirms_a_zero_credit_config() {
        let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        cfg.loader.buffer_batches = 0;
        let diags = engine_prove_diagnostics(&cfg, &ProveLintOptions::default());
        let deadlock = diags
            .iter()
            .find(|d| d.code == bonsai_check::codes::PROVE_DEADLOCK_REACHABLE)
            .unwrap_or_else(|| panic!("{diags:?}"));
        // The replay confirmation is folded into the refutation itself.
        assert!(
            deadlock
                .context
                .iter()
                .any(|(k, v)| *k == "sim_reproduced" && v == "BON040"),
            "{deadlock:?}"
        );
    }

    #[test]
    fn prove_pass_reports_divergence_as_bon065() {
        // Shallow leaf buffers wedge the hardware contract but not the
        // software simulator.
        let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(8, 4), 16);
        cfg.loader.batch_bytes = 32;
        let diags = engine_prove_diagnostics(&cfg, &ProveLintOptions::default());
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&bonsai_check::codes::PROVE_DEADLOCK_REACHABLE),
            "{codes:?}"
        );
        assert!(
            codes.contains(&bonsai_check::codes::PROVE_REPLAY_DIVERGED),
            "{codes:?}"
        );
    }

    #[test]
    fn prove_pass_budget_and_bound_probes() {
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let diags = engine_prove_diagnostics(
            &cfg,
            &ProveLintOptions {
                state_budget: 4,
                ..ProveLintOptions::default()
            },
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == bonsai_check::codes::PROVE_BUDGET_EXHAUSTED),
            "{diags:?}"
        );
        assert!(!bonsai_check::has_errors(&diags), "budget is a warning");

        // Claiming 1 B/s observed contradicts any positive floor.
        let diags = engine_prove_diagnostics(
            &cfg,
            &ProveLintOptions {
                assume_throughput: Some(1.0),
                ..ProveLintOptions::default()
            },
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == bonsai_check::codes::PROVE_BOUND_UNSOUND),
            "{diags:?}"
        );
    }

    #[test]
    fn report_counts_severities() {
        let findings = vec![
            LintFinding {
                target: "a".into(),
                diagnostics: vec![],
            },
            LintFinding {
                target: "b".into(),
                diagnostics: vec![
                    Diagnostic::error(bonsai_check::codes::BATCH_ZERO, "e"),
                    Diagnostic::warning(bonsai_check::codes::BUFFER_NOT_DOUBLE, "w"),
                ],
            },
        ];
        let (report, errors, warnings) = render(&findings);
        assert_eq!((errors, warnings), (1, 1));
        assert!(report.contains("FAIL  b"));
        assert!(report.contains("BON012"));
    }

    #[test]
    fn json_report_is_parseable_and_counts_match() {
        let findings = vec![
            LintFinding {
                target: "clean \"quoted\"".into(),
                diagnostics: vec![],
            },
            LintFinding {
                target: "broken".into(),
                diagnostics: vec![
                    Diagnostic::error(bonsai_check::codes::BATCH_ZERO, "e").with("batch_bytes", 0)
                ],
            },
        ];
        let (json, errors, warnings) = render_json(&findings);
        assert_eq!((errors, warnings), (1, 0));
        // The graph module's strict JSON reader doubles as a validator.
        assert!(
            bonsai_check::graph::PipelineGraph::from_json(&json)
                .unwrap_err()
                .contains("version"),
            "output must be syntactically valid JSON (only the schema differs)"
        );
        assert!(json.contains("\"code\":\"BON012\""));
        assert!(json.contains("\"status\":\"fail\""));
        assert!(json.contains("clean \\\"quoted\\\""));
    }

    #[test]
    fn raw_lint_runs_the_graph_analyses() {
        // Zero buffer batches: credits dry up -> BON030.
        let f = RawEngineLint {
            buffer_batches: 0,
            ..RawEngineLint::default()
        }
        .lint();
        assert!(
            f.diagnostics
                .iter()
                .any(|d| d.code == bonsai_check::codes::GRAPH_DEADLOCK),
            "{:?}",
            f.diagnostics
        );

        // Zero write payload: only the lowering can see this (BON017).
        let f = RawEngineLint {
            payload_bytes: Some(0),
            ..RawEngineLint::default()
        }
        .lint();
        assert!(
            f.diagnostics
                .iter()
                .any(|d| d.code == bonsai_check::codes::WRITE_PAYLOAD_ZERO),
            "{:?}",
            f.diagnostics
        );

        // Zero banks: BON013 from the shape pass and BON035 from the
        // graph, without duplicating the shape codes.
        let f = RawEngineLint {
            banks: Some(0),
            ..RawEngineLint::default()
        }
        .lint();
        let codes: Vec<_> = f.diagnostics.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&bonsai_check::codes::MEMORY_ZERO_BANKS),
            "{codes:?}"
        );
        assert!(
            codes.contains(&bonsai_check::codes::GRAPH_CHANNEL_ZERO_BANKS),
            "{codes:?}"
        );
    }

    #[test]
    fn shape_errors_are_not_duplicated_by_the_lowering() {
        let f = lint_raw_engine(6, 16, 4096, 4, 2, Some(16));
        let bon001 = f
            .diagnostics
            .iter()
            .filter(|d| d.code == bonsai_check::codes::P_NOT_POWER_OF_TWO)
            .count();
        assert_eq!(bon001, 1, "{:?}", f.diagnostics);
    }
}
