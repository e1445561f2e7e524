//! The `bonsai` binary answers a bad number with one `error:` line and
//! exit 1, never a panic (exit 101).

use std::process::Command;

/// Runs `bonsai` on `args`; returns its exit code and stderr.
fn bonsai(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bonsai"))
        .args(args)
        .output()
        .expect("bonsai runs");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    (out.status.code().expect("not signal-killed"), stderr)
}

#[test]
fn bad_numbers_are_errors_not_panics() {
    for (args, expected) in [
        (
            &["plan", "--size", "16GB", "--record-bytes", "0"][..],
            "BON004",
        ),
        (
            &["project", "--size", "2TB", "--record-bytes", "0"],
            "BON004",
        ),
        (&["plan", "--size", "16GB", "--beta", "0"], "BON014"),
        (&["plan", "--size", "16GB", "--beta", "nan"], "BON014"),
        (&["plan", "--size", "16GB", "--beta", "-1"], "BON014"),
        (&["plan", "--size", "99999999999TB"], "bad size"),
        (&["project", "--size", "99999999999TB"], "bad size"),
    ] {
        let (code, stderr) = bonsai(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {expected}")) && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn good_numbers_still_plan() {
    let (code, stderr) = bonsai(&["plan", "--size", "16GB", "--beta", "16"]);
    assert_eq!(code, 0, "{stderr}");
}
