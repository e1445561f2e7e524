//! Exit-code and `--json` schema contract test for the `bonsai-lint`
//! binary, which has one mode: the engine pass over the in-repo configs
//! or over one raw configuration.
//!
//! The contract under test (documented in the binary's `--help`):
//!
//! - exit 0: no error-severity diagnostics (warnings allowed),
//! - exit 1: at least one `BONxxx` error fired,
//! - exit 2: invalid command line,
//! - `--json` emits one JSON object with the
//!   `{"targets": [...], "errors": N, "warnings": N}` schema, clean or
//!   failing.

use bonsai_benchmark::json::{self, Value};
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bonsai-lint"))
        .args(args)
        .output()
        .expect("bonsai-lint runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("not signal-killed")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

/// The `--json` output parsed as one JSON object.
fn report(out: &Output) -> Value {
    let json = stdout(out);
    json::parse(&json).unwrap_or_else(|e| panic!("must be valid JSON ({e}): {json}"))
}

/// The integer `key` of a report.
fn count(report: &Value, key: &str) -> f64 {
    report.get(key).and_then(Value::as_f64).expect(key)
}

/// Asserts the `--json` output carries the shared schema: a `targets`
/// array whose every entry has a `target`, a `status` and a
/// `diagnostics` array, next to integer `errors` and `warnings`.
fn assert_shared_json_schema(out: &Output) {
    let report = report(out);
    let targets = report.get("targets").and_then(Value::as_arr);
    for target in targets.expect("a targets array") {
        assert!(target.get("target").and_then(Value::as_str).is_some());
        let status = target.get("status").and_then(Value::as_str);
        assert!(matches!(status, Some("ok" | "warn" | "fail")), "{status:?}");
        assert!(target.get("diagnostics").and_then(Value::as_arr).is_some());
    }
    for key in ["errors", "warnings"] {
        assert_eq!(count(&report, key).fract(), 0.0, "{key}");
    }
}

#[test]
fn clean_invocations_exit_zero_in_every_mode() {
    // The in-repo suite, and one raw configuration.
    for args in [&[][..], &["--p", "4", "--l", "16"]] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn error_findings_exit_one() {
    for (args, code) in [
        (&["--p", "6", "--l", "16"][..], "BON001"),
        // Values the certification's own arithmetic used to abort on:
        // a record width that does not divide the certification array,
        // and zero-length presorted runs.
        (&["--record-bytes", "12"], "BON005"),
        (&["--presort", "0"], "BON025"),
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {}", stdout(&out));
        assert!(stdout(&out).contains(code), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn warnings_alone_keep_exit_zero() {
    for (args, code) in [
        // A root wider than the leaf count: the tree runs, wasting width.
        (&["--p", "32", "--l", "16"][..], "BON003"),
        // A 64-byte batch spends most of each burst on setup.
        (&["--batch-bytes", "64"], "BON016"),
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stdout(&out));
        let report = stdout(&out);
        assert!(report.contains(code), "{args:?}: {report}");
        assert!(
            report.ends_with("0 error(s), 1 warning(s)\n"),
            "{args:?}: {report}"
        );
    }
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--frobnicate"][..],
        &["--p"],                 // missing value
        &["--dump-graph", "dot"], // the deleted graph dump,
        &["--prove"],             // the deleted prover's mode...
        &["--prove-selftest"],    // ...and each of its flags are
        &["--state-budget", "4"], // unknown flags now
        &["--credit-slack", "2"],
        &["--replay-records", "0"],
        &["--assume-throughput", "1"],
        &["--runtime"],      // the deleted runtime mode...
        &["--workers", "2"], // ...each of its flags...
        &["--queue-depth", "2"],
        &["--cores", "8"],
        &["--cache-shapes", "1"], // ...and its adaptive knobs
        &["--reprogram-us", "0"],
        &["--runtime", "--pass-workers", "2"], // the retired runtime
        &["--runtime", "--records", "1000"],   // knobs and their probe
        &["--runtime", "--fairness-stride", "0"],
        &["--banks", "0"],         // the retired zero-bank probe
        &["--payload-bytes", "0"], // the retired write-payload probe
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
    }
}

#[test]
fn json_schema_is_identical_across_all_modes() {
    for args in [
        &["--json", "--p", "6", "--l", "16"][..],
        &["--json", "--p", "4", "--l", "16"],
        &["--json", "--p", "32", "--record-bytes", "8"],
    ] {
        let out = lint(args);
        assert_shared_json_schema(&out);
    }
}

#[test]
fn json_counts_agree_with_exit_codes() {
    let clean = lint(&["--json", "--p", "4", "--l", "16"]);
    assert_eq!(exit_code(&clean), 0);
    assert_eq!(count(&report(&clean), "errors"), 0.0);

    let failing = lint(&["--json", "--p", "32", "--record-bytes", "8"]);
    assert_eq!(exit_code(&failing), 1);
    let failing = report(&failing);
    assert!(count(&failing, "errors") > 0.0);
    let target = &failing.get("targets").and_then(Value::as_arr).unwrap()[0];
    let codes: Vec<_> = target
        .get("diagnostics")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|d| d.get("code").and_then(Value::as_str))
        .collect();
    assert!(codes.contains(&"BON032"), "{codes:?}");
}
