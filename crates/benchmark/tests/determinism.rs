//! Every metric marked exact must repeat bit for bit for a fixed seed,
//! and the seed must reach the inputs. One test per workload so the
//! harness runs them side by side; exact metrics are simulated counts
//! and byte counts, so sharing the host does not disturb them.

use std::collections::BTreeMap;
use std::process::Command;

use bonsai_benchmark::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_bonsai-benchmark");

/// The per-layer metrics `--list` marks exact on `workload`.
fn exact_metrics(workload: &str) -> Vec<String> {
    let out = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("run --list");
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let on = fields.get(4)?.strip_prefix("exact=")?;
            (fields[0] == "per_layer" && on.split(',').any(|w| w == workload))
                .then(|| fields[1].to_string())
        })
        .collect()
}

/// One traced run; returns its per-layer metrics as printed.
fn traced(workload: &str, seed: u64, tag: &str) -> BTreeMap<String, f64> {
    let out_file = format!(
        "{}/determinism/{workload}.{seed}.{tag}/out.json",
        env!("CARGO_TARGET_TMPDIR")
    );
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seconds", "0.5", "--trace", "1"])
        .args(["--seed", &seed.to_string(), "--out", &out_file])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "{workload} seed {seed}:\n{stdout}");
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("result json");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).expect("value"),
            )
        })
        .collect()
}

fn assert_exact_metrics_repeat(workload: &str) -> BTreeMap<String, f64> {
    let exact = exact_metrics(workload);
    assert!(!exact.is_empty(), "{workload} has exact metrics");
    let first = traced(workload, 11, "a");
    let second = traced(workload, 11, "b");
    for name in &exact {
        assert_eq!(
            first[name].to_bits(),
            second[name].to_bits(),
            "{workload}: {name} differs between two runs of seed 11"
        );
    }
    first
}

#[test]
fn svc_small_exact_metrics_repeat() {
    let metrics = assert_exact_metrics_repeat("svc_small");
    // Request and reply frame of a 2048-record job: 2 x (20 + 4 x 2048).
    assert_eq!(metrics["net.wire_bytes_per_job"], 16_424.0);
    assert!(metrics["sim_cycles_per_record"] > 0.0);
}

#[test]
fn svc_mixed_exact_metrics_repeat() {
    assert_exact_metrics_repeat("svc_mixed");
}

#[test]
fn sim_dram_exact_metrics_repeat_and_follow_the_seed() {
    let metrics = assert_exact_metrics_repeat("sim_dram");
    assert!(metrics["model_err_pct"] > 0.0);
    let other_seed = traced("sim_dram", 12, "c");
    assert_ne!(
        metrics["sim_cycles_per_record"], other_seed["sim_cycles_per_record"],
        "the seed must reach the inputs"
    );
}

#[test]
fn sim_ssd_exact_metrics_repeat() {
    let metrics = assert_exact_metrics_repeat("sim_ssd");
    assert!(metrics["amt.engine.fast_forwarded_share"] > 0.99);
}

#[test]
fn host_merge_exact_metrics_repeat() {
    // No simulator on this path: the exact metrics are all 0, and must
    // stay so (a simulated count appearing here means the path changed).
    let metrics = assert_exact_metrics_repeat("host_merge");
    assert_eq!(metrics["sim_cycles_per_record"], 0.0);
    assert!(metrics["sorters.dram_sort_us"] > 0.0);
}
