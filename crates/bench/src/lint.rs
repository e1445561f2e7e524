//! The static pass behind the `bonsai-lint` binary: every configuration
//! the experiment suite and the examples construct, pushed through the
//! `bonsai-check` analyzer.
//!
//! The experiment modules build their configs through the panicking
//! constructors, so a malformed config would already abort a run — but
//! only at the moment that experiment executes. This pass front-loads
//! the whole suite so CI rejects a bad config before any simulation
//! spends minutes on it.

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_check::Diagnostic;
use bonsai_memsim::MemoryConfig;
use bonsai_model::check::{analyze_engine, check_full_config, model_drift_probe};
use bonsai_model::{ArrayParams, BonsaiOptimizer, ComponentLibrary, FullConfig, HardwareParams};
use bonsai_runtime::{PassScheduler, RuntimeConfig};

use crate::experiments::fig8_9;

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
/// one worker and one worker per core (the two ends the runtime's
/// determinism tests compare), and the adaptive-scheduler shape
/// `bonsai-serve --adaptive` and the benchmark's `svc_mixed` run (whose
/// `validate_for_cores` additionally runs the BON08x knob checks).
pub fn runtime_targets() -> Vec<(String, RuntimeConfig)> {
    vec![
        ("runtime/default".into(), RuntimeConfig::default()),
        (
            "runtime/serial".into(),
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        ),
        (
            "runtime/per_core".into(),
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

/// Runs the static pass over every in-repo configuration:
/// [`analyze_engine`] (shape checks, pipeline dataflow checks,
/// latency-bound certification, static throughput floor) for every
/// engine target, the resource-model checks for every full config, plus
/// one model-vs-simulation drift probe.
pub fn lint_all() -> Vec<LintFinding> {
    let lib = ComponentLibrary::paper();
    let hw = HardwareParams::aws_f1();
    let mut findings = Vec::new();
    for (target, cfg) in engine_targets() {
        findings.push(LintFinding {
            target,
            diagnostics: analyze_engine(&cfg, None, &hw),
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

/// The probe values `bonsai-lint` accepts that no configuration struct
/// has a field for; everything else on its command line is parsed
/// straight onto [`SimEngineConfig`] / [`RuntimeConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeExtras {
    /// Override of the memory bank count (degenerate-config probe),
    /// applied after `--memory` has picked the preset.
    pub banks: Option<usize>,
    /// Write-back payload width override; `Some(0)` is the `BON017`
    /// probe.
    pub payload_bytes: Option<u64>,
    /// Host core count to judge a topology against; `None` = this
    /// machine.
    pub cores: Option<usize>,
}

impl ProbeExtras {
    /// `engine` with the bank-count override applied.
    pub fn apply_banks(&self, mut engine: SimEngineConfig) -> SimEngineConfig {
        if let Some(banks) = self.banks {
            engine.memory.banks = banks;
        }
        engine
    }
}

/// Runs the BON05x topology pass over one raw runtime configuration
/// (plus the BON08x knob checks when it selects
/// [`PassScheduler::Adaptive`]).
pub fn lint_runtime(cfg: &RuntimeConfig, extras: &ProbeExtras) -> LintFinding {
    let cores = extras.cores.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    LintFinding {
        // `pw1`: every job runs its passes on its own worker.
        target: format!("cli/runtime_w{}_pw1_q{}", cfg.workers, cfg.queue_depth),
        diagnostics: cfg.validate_for_cores(cores),
    }
}

/// Runs the full engine pass ([`analyze_engine`]) over one raw engine
/// configuration — built field by field, deliberately bypassing the
/// panicking constructors so malformed shapes reach the analyzer
/// instead of aborting.
pub fn lint_engine(cfg: &SimEngineConfig, extras: &ProbeExtras) -> LintFinding {
    let cfg = &extras.apply_banks(*cfg);
    LintFinding {
        target: format!(
            "cli/p{}_l{}_b{}_r{}",
            cfg.amt.p, cfg.amt.l, cfg.loader.batch_bytes, cfg.loader.record_bytes
        ),
        diagnostics: analyze_engine(cfg, extras.payload_bytes, &HardwareParams::aws_f1()),
    }
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
    use bonsai_benchmark::json::Value;
    use bonsai_runtime::AdaptiveConfig;

    #[test]
    fn every_in_repo_config_is_clean_of_errors() {
        let findings = lint_all();
        assert!(!findings.is_empty());
        for f in &findings {
            assert!(!f.has_errors(), "{}: {:?}", f.target, f.diagnostics);
        }
    }

    /// The CLI's default engine with `p`/`l` set field by field (no
    /// panicking constructor on the way).
    fn raw_engine(p: usize, l: usize) -> SimEngineConfig {
        SimEngineConfig {
            amt: AmtConfig { p, l },
            ..SimEngineConfig::dram_sorter(AmtConfig::new(32, 64), 4)
        }
    }

    fn has_code(f: &LintFinding, code: &str) -> bool {
        f.diagnostics.iter().any(|d| d.code == code)
    }

    #[test]
    fn raw_override_catches_bad_shapes() {
        let f = lint_engine(&raw_engine(6, 16), &ProbeExtras::default());
        assert!(f.has_errors());
        assert!(has_code(&f, bonsai_check::codes::P_NOT_POWER_OF_TWO));

        let mut cfg = raw_engine(4, 16);
        cfg.loader.batch_bytes = 16;
        let f = lint_engine(&cfg, &ProbeExtras::default());
        assert!(
            has_code(&f, bonsai_check::codes::BATCH_BELOW_BUS_WIDTH),
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
        let on_cores = |cores| ProbeExtras {
            cores: Some(cores),
            ..ProbeExtras::default()
        };

        // A zero-depth queue holds one job, too few for an explicit
        // pool of two: BON055 (warning).
        let f = lint_runtime(
            &RuntimeConfig {
                workers: 2,
                queue_depth: 0,
                ..RuntimeConfig::default()
            },
            &on_cores(8),
        );
        assert!(!f.has_errors());
        assert!(has_code(
            &f,
            bonsai_check::codes::RUNTIME_QUEUE_BELOW_WORKERS
        ));

        // Oversubscription is judged on the *stated* core count, not
        // the machine the lint happens to run on.
        let f = lint_runtime(
            &RuntimeConfig {
                workers: 8,
                ..RuntimeConfig::default()
            },
            &on_cores(4),
        );
        assert!(has_code(&f, bonsai_check::codes::RUNTIME_OVERSUBSCRIBED));
    }

    #[test]
    fn raw_adaptive_lint_fires_the_bon08x_codes() {
        let on_8_cores = ProbeExtras {
            cores: Some(8),
            ..ProbeExtras::default()
        };
        let adaptive = |edit: fn(&mut AdaptiveConfig)| {
            let mut cfg = RuntimeConfig {
                scheduler: PassScheduler::Adaptive,
                ..RuntimeConfig::default()
            };
            edit(&mut cfg.adaptive);
            lint_runtime(&cfg, &on_8_cores)
        };

        // The defaults are lint-clean.
        let f = adaptive(|_| {});
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);

        // Zero reprogram cost thrashes shapes: BON080 (warning).
        let f = adaptive(|a| a.reprogram_cost_us = 0);
        assert!(!f.has_errors());
        assert!(has_code(&f, bonsai_check::codes::ADAPTIVE_RECONFIG_THRASH));

        // One cached shape for the runtime's two job classes: BON082
        // (warning).
        let f = adaptive(|a| a.cache_shapes = 1);
        assert!(has_code(
            &f,
            bonsai_check::codes::ADAPTIVE_CACHE_BELOW_CLASSES
        ));

        // A FIFO runtime never consults the same broken knobs, so its
        // lint stays BON08x-free.
        let mut cfg = RuntimeConfig::default();
        cfg.adaptive.reprogram_cost_us = 0;
        let f = lint_runtime(&cfg, &on_8_cores);
        assert!(
            !f.diagnostics.iter().any(|d| d.code.starts_with("BON08")),
            "{:?}",
            f.diagnostics
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
        let report = bonsai_benchmark::json::parse(&json).expect("output is valid JSON");
        let field = |v: &Value, key| v.get(key).and_then(Value::as_str).map(str::to_owned);
        let targets = report.get("targets").and_then(Value::as_arr).unwrap();
        assert_eq!(field(&targets[0], "target").unwrap(), "clean \"quoted\"");
        assert_eq!(field(&targets[1], "status").unwrap(), "fail");
        let diagnostics = targets[1].get("diagnostics").and_then(Value::as_arr);
        assert_eq!(field(&diagnostics.unwrap()[0], "code").unwrap(), "BON012");
        assert_eq!(report.get("errors").and_then(Value::as_f64), Some(1.0));
        assert_eq!(report.get("warnings").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn raw_lint_runs_the_dataflow_checks() {
        // Zero buffer batches: credits dry up -> BON030.
        let mut cfg = raw_engine(32, 64);
        cfg.loader.buffer_batches = 0;
        let f = lint_engine(&cfg, &ProbeExtras::default());
        assert!(
            has_code(&f, bonsai_check::codes::GRAPH_DEADLOCK),
            "{:?}",
            f.diagnostics
        );

        // Zero write payload: only the engine pass can see this (BON017).
        let f = lint_engine(
            &raw_engine(32, 64),
            &ProbeExtras {
                payload_bytes: Some(0),
                ..ProbeExtras::default()
            },
        );
        assert!(
            has_code(&f, bonsai_check::codes::WRITE_PAYLOAD_ZERO),
            "{:?}",
            f.diagnostics
        );

        // Zero banks: BON013 from the shape pass and BON035 from the
        // dataflow checks, without duplicating the shape codes.
        let f = lint_engine(
            &raw_engine(32, 64),
            &ProbeExtras {
                banks: Some(0),
                ..ProbeExtras::default()
            },
        );
        assert!(
            has_code(&f, bonsai_check::codes::MEMORY_ZERO_BANKS)
                && has_code(&f, bonsai_check::codes::GRAPH_CHANNEL_ZERO_BANKS),
            "{:?}",
            f.diagnostics
        );
    }

    #[test]
    fn shape_errors_are_reported_once() {
        let f = lint_engine(&raw_engine(6, 16), &ProbeExtras::default());
        let bon001 = f
            .diagnostics
            .iter()
            .filter(|d| d.code == bonsai_check::codes::P_NOT_POWER_OF_TWO)
            .count();
        assert_eq!(bon001, 1, "{:?}", f.diagnostics);
    }
}
