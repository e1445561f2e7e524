//! Exit-code and `--json` schema contract test for the `bonsai-lint`
//! binary, across both modes: the default config pass and `--runtime`.
//!
//! The contract under test (documented in the binary's `--help`):
//!
//! - exit 0: no error-severity diagnostics (warnings allowed),
//! - exit 1: at least one `BONxxx` error fired,
//! - exit 2: invalid command line,
//! - `--json` emits one JSON object with the same
//!   `{"targets": [...], "errors": N, "warnings": N}` schema in every
//!   mode — one serializer, no per-mode dialects.

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
    for args in [
        &["--p", "4", "--l", "16"][..],
        &["--runtime", "--cores", "8"],
        &[
            "--runtime",
            "--workers",
            "4",
            "--queue-depth",
            "8",
            "--cores",
            "8",
        ],
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stdout(&out));
    }
}

/// Only the engine pass has error codes; every runtime finding is a
/// warning (see `warnings_alone_keep_exit_zero`).
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
        // A zero-depth queue holds one job, too few for eight workers.
        (
            &[
                "--runtime",
                "--workers",
                "8",
                "--queue-depth",
                "0",
                "--cores",
                "16",
            ][..],
            "BON055",
        ),
        // One cached shape for the runtime's two job classes.
        (
            &["--runtime", "--cache-shapes", "1", "--cores", "8"],
            "BON082",
        ),
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stdout(&out));
        assert!(stdout(&out).contains(code), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--frobnicate"][..],
        &["--p"],                   // missing value
        &["--runtime", "--p", "4"], // mixed modes
        &["--workers", "2"],        // runtime flag without --runtime
        &["--dump-graph", "dot"],   // the deleted graph dump,
        &["--prove"],               // the deleted prover's mode...
        &["--prove-selftest"],      // ...and each of its flags are
        &["--state-budget", "4"],   // unknown flags now
        &["--credit-slack", "2"],
        &["--replay-records", "0"],
        &["--assume-throughput", "1"],
        &["--runtime", "--pass-workers", "2"], // the retired runtime
        &["--runtime", "--records", "1000"],   // knobs and their probe
        &["--runtime", "--fairness-stride", "0"],
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
    }
}

#[test]
fn json_schema_is_identical_across_all_modes() {
    for args in [
        &["--json", "--p", "6", "--l", "16"][..],
        &["--json", "--runtime", "--cores", "8"],
        &[
            "--json",
            "--runtime",
            "--workers",
            "8",
            "--queue-depth",
            "0",
            "--cores",
            "16",
        ],
        &["--json", "--p", "4", "--l", "16"],
        &["--json", "--buffer-batches", "0"],
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

    let failing = lint(&["--json", "--buffer-batches", "0"]);
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
    assert!(codes.contains(&"BON030"), "{codes:?}");
}
