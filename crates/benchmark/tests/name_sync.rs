//! `BENCHMARK.json` and the binary's `--list` must name the same
//! workloads and metrics, and `BENCHMARK.json` must stay inside the
//! limits the benchmark driver refuses files outside of.

use std::collections::BTreeSet;
use std::process::Command;

use bonsai_benchmark::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_bonsai-benchmark");

fn benchmark_json() -> (String, Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let value = json::parse(&text).expect("BENCHMARK.json parses");
    (text, value)
}

fn list() -> Vec<Vec<String>> {
    let out = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|line| line.split_whitespace().map(str::to_string).collect())
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {v:?}"))
}

fn entries<'a>(file: &'a Value, key: &str) -> &'a [Value] {
    file.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

#[test]
fn benchmark_json_and_list_name_the_same_things() {
    let (_, file) = benchmark_json();
    let listed = list();
    let of_kind = |kind: &str| -> Vec<&Vec<String>> {
        listed.iter().filter(|line| line[0] == kind).collect()
    };

    let workloads: Vec<&str> = entries(&file, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let listed_workloads: Vec<&str> = of_kind("workload").iter().map(|l| l[1].as_str()).collect();
    assert_eq!(workloads, listed_workloads);

    // name, unit, better, bound — field for field, in order.
    let end_to_end: Vec<Vec<String>> = entries(&file, "end_to_end")
        .iter()
        .map(|m| {
            vec![
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
                m.get("bound")
                    .and_then(Value::as_f64)
                    .expect("bound")
                    .to_string(),
            ]
        })
        .collect();
    let listed_end_to_end: Vec<Vec<String>> = of_kind("end_to_end")
        .iter()
        .map(|l| l[1..5].to_vec())
        .collect();
    assert_eq!(end_to_end, listed_end_to_end);

    let per_layer: Vec<Vec<String>> = entries(&file, "per_layer")
        .iter()
        .map(|m| {
            vec![
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
            ]
        })
        .collect();
    let listed_per_layer: Vec<Vec<String>> = of_kind("per_layer")
        .iter()
        .map(|l| l[1..4].to_vec())
        .collect();
    assert_eq!(per_layer, listed_per_layer);

    // Every name is well formed, has a unit, and is used once.
    let mut seen = BTreeSet::new();
    for line in &listed {
        assert!(is_name(&line[1]), "bad name {:?}", line[1]);
        assert!(seen.insert(line[1].clone()), "{} is listed twice", line[1]);
        if line[0] != "workload" {
            assert!(is_unit(&line[2]), "bad unit {:?} on {}", line[2], line[1]);
            assert!(["lower", "higher"].contains(&line[3].as_str()));
        }
    }
}

#[test]
fn benchmark_json_is_inside_the_drivers_limits() {
    let (raw, file) = benchmark_json();
    assert!(raw.len() <= 64 * 1024);
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = entries(&file, "command");
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().expect("command strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths = entries(&file, "paths");
    assert!((1..=16).contains(&paths.len()));
    for path in paths {
        let path = path.as_str().expect("path strings");
        assert!(path.len() <= 200 && !path.starts_with('/') && !path.contains(".."));
        assert!(path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
    }

    let workloads = entries(&file, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let end_to_end = entries(&file, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!((0.0..=0.25).contains(&bound));
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));

    let per_layer = entries(&file, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    // 4 + 22 runs per workload, two builds and every set-up must fit
    // in 3420 s. Beyond its window a run costs three set-ups, the tail
    // of the first pool cycle and (traced) the single-layer calls: up
    // to 3 s on the 2-core build host, budgeted at 6 s; 240 s covers
    // two cold builds (50 s each there).
    let run_seconds = file
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (run_seconds + 6.0) + 240.0 <= 3420.0);
}

#[test]
fn refuses_to_start_under_an_environment_override() {
    for var in bonsai_benchmark::REFUSED_ENV {
        let out = Command::new(BIN)
            .args(["--workload", "svc_small", "--seconds", "0.1"])
            .env(var, "1")
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{var} must be refused");
        assert!(out.stdout.is_empty(), "no result line under {var}");
    }
}
