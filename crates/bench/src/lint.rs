//! The static pass behind the `bonsai-lint` binary: every configuration
//! the experiment suite and the examples construct, pushed through the
//! `bonsai-check` analyzer.
//!
//! The experiment modules build their configs through the panicking
//! constructors, so a malformed config would already abort a run — but
//! only at the moment that experiment executes. This pass front-loads
//! the whole suite so CI rejects a bad config before any simulation
//! spends minutes on it.
//!
//! The pass judges configurations only. It runs no simulation, and the
//! engine checks read nothing but the engine configuration; how close
//! the analytical model comes to the simulator is a measurement, which
//! the model-validation tests make.

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_check::Diagnostic;
use bonsai_model::check::{analyze_engine, check_full_config};
use bonsai_model::{ArrayParams, BonsaiOptimizer, ComponentLibrary, FullConfig, HardwareParams};

use crate::experiments::{
    ablations, fig8_9, hbm_validation, ssd_validation, table4, width_scaling,
};

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
/// labelled by its table/figure. Each exhibit module owns its list;
/// this only reads them.
pub fn engine_targets() -> Vec<(String, SimEngineConfig)> {
    let mut targets = Vec::new();
    for amt in fig8_9::figure_amts() {
        targets.push((format!("fig8_9/{amt}"), fig8_9::config(amt)));
    }
    for (lambda, p, l) in hbm_validation::SHAPES {
        targets.push((
            format!("hbm_validation/lambda{lambda}_p{p}_l{l}"),
            hbm_validation::config(p, l),
        ));
    }
    for phase in ssd_validation::PHASES {
        targets.push((
            format!("ssd_validation/p{}_l{}", phase.p, phase.l),
            ssd_validation::config(AmtConfig::new(phase.p, phase.l)),
        ));
    }
    for (record_bytes, p) in width_scaling::SHAPES {
        targets.push((
            format!("width_scaling/p{p}_r{record_bytes}"),
            width_scaling::config(record_bytes, p),
        ));
    }
    for (label, cfg) in ablations::configs() {
        targets.push((format!("ablations/{label}"), cfg));
    }
    targets
}

/// Every full (replicated) configuration the resource-model experiments
/// and the optimizer-driven examples rely on, with its presorter chunk.
pub fn model_targets() -> Vec<(String, FullConfig, Option<usize>)> {
    let mut targets = vec![(
        "table4/dram_sorter".into(),
        table4::DESIGN,
        Some(table4::PRESORT),
    )];

    // §VI-D: the unrolled HBM configurations.
    for (lambda, p, l) in hbm_validation::SHAPES {
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

/// Runs the static pass over every in-repo configuration:
/// [`analyze_engine`] (shape checks, pipeline dataflow checks) for every
/// engine target and the resource-model checks for every full config.
pub fn lint_all() -> Vec<LintFinding> {
    let lib = ComponentLibrary::paper();
    let hw = HardwareParams::aws_f1();
    let mut findings = Vec::new();
    for (target, cfg) in engine_targets() {
        findings.push(LintFinding {
            target,
            diagnostics: analyze_engine(&cfg),
        });
    }
    for (target, cfg, presort) in model_targets() {
        findings.push(LintFinding {
            target,
            diagnostics: check_full_config(&lib, &hw, &cfg, 32, presort),
        });
    }
    findings
}

/// Runs the full engine pass ([`analyze_engine`]) over one raw engine
/// configuration — built field by field, deliberately bypassing the
/// panicking constructors so malformed shapes reach the analyzer
/// instead of aborting.
pub fn lint_engine(cfg: &SimEngineConfig) -> LintFinding {
    LintFinding {
        target: format!(
            "cli/p{}_l{}_b{}_r{}",
            cfg.amt.p, cfg.amt.l, cfg.loader.batch_bytes, cfg.loader.record_bytes
        ),
        diagnostics: analyze_engine(cfg),
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

    #[test]
    fn every_in_repo_config_is_clean_of_errors() {
        let findings = lint_all();
        assert!(!findings.is_empty());
        for f in &findings {
            assert!(!f.has_errors(), "{}: {:?}", f.target, f.diagnostics);
        }
    }

    /// The exhibit set's verdict, pinned: no error, and exactly the two
    /// warnings the ablations draw on purpose. A config an exhibit adds
    /// or changes shows up here as a diff.
    #[test]
    fn exhibit_configs_draw_exactly_the_intended_warnings() {
        let findings = lint_all();
        assert!(findings.iter().all(|f| !f.has_errors()));
        let mut warnings: Vec<(&str, &str)> = findings
            .iter()
            .flat_map(|f| f.diagnostics.iter().map(|d| (f.target.as_str(), d.code)))
            .collect();
        warnings.sort_unstable();
        assert_eq!(
            warnings,
            [
                (
                    "ablations/loader_batch64",
                    bonsai_check::codes::BURST_EFFICIENCY_LOW
                ),
                ("ablations/p32_l16", bonsai_check::codes::P_EXCEEDS_LEAVES),
            ]
        );
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
        let f = lint_engine(&raw_engine(6, 16));
        assert!(f.has_errors());
        assert!(has_code(&f, bonsai_check::codes::P_NOT_POWER_OF_TWO));

        let mut cfg = raw_engine(4, 16);
        cfg.loader.batch_bytes = 16;
        let f = lint_engine(&cfg);
        assert!(
            has_code(&f, bonsai_check::codes::BATCH_BELOW_BUS_WIDTH),
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
                    Diagnostic::warning(bonsai_check::codes::BURST_EFFICIENCY_LOW, "w"),
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
        // 8-byte records at p = 32 need 256 B/cycle; four banks read
        // 128 -> BON032.
        let mut cfg = raw_engine(32, 64);
        cfg.loader.record_bytes = 8;
        let f = lint_engine(&cfg);
        assert!(
            has_code(&f, bonsai_check::codes::GRAPH_BANDWIDTH_INFEASIBLE),
            "{:?}",
            f.diagnostics
        );

        // Zero banks: BON013 from the shape pass, and the dataflow
        // checks stand down rather than judge an engine that cannot be
        // built.
        let mut cfg = raw_engine(32, 64);
        cfg.memory.banks = 0;
        let f = lint_engine(&cfg);
        assert!(
            has_code(&f, bonsai_check::codes::MEMORY_ZERO_BANKS)
                && !f.diagnostics.iter().any(|d| d.code.starts_with("BON03")),
            "{:?}",
            f.diagnostics
        );
    }

    #[test]
    fn shape_errors_are_reported_once() {
        let f = lint_engine(&raw_engine(6, 16));
        let bon001 = f
            .diagnostics
            .iter()
            .filter(|d| d.code == bonsai_check::codes::P_NOT_POWER_OF_TWO)
            .count();
        assert_eq!(bon001, 1, "{:?}", f.diagnostics);
    }
}
