//! The repeatability tool: given the result files of two sets of runs
//! (`--out`, ideally with `--repeat`), prints each side's median and
//! quartiles per workload and end-to-end metric and says whether the
//! two agree within the metric's bound. Two sets from the same commit
//! that do not agree mean the metric is too noisy to be end to end.

use std::fmt::Write as _;

use crate::json::Value;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// The untraced values of one end-to-end metric on one workload, one
/// per run in the file.
#[must_use]
pub fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Value::as_str) == Some(workload)
                && run.get("trace").and_then(Value::as_f64) == Some(0.0)
        })
        .filter_map(|run| {
            run.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(Value::as_f64)
        })
        .collect()
}

/// Quartile distance as a share of the median — the spread the driver
/// checks against the bound.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let [q1, median, q3] = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// By what share of `base`'s median `other`'s median is worse
/// (negative when it is better).
#[must_use]
pub fn worse_by(metric: &EndToEnd, base: f64, other: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (other - base) / base,
        Better::Higher => (base - other) / base,
    }
}

fn describe(values: &[f64]) -> String {
    let [q1, median, q3] = quartiles(values);
    format!(
        "{median:>14.4} [{q1:>14.4}, {q3:>14.4}] n={:<2} spread {:>5.2}%",
        values.len(),
        100.0 * spread(values)
    )
}

/// One set of runs: median, quartiles and spread per workload and
/// metric, with the spread marked where it exceeds a third of the
/// bound (the steadiness the benchmark aims for).
#[must_use]
pub fn summary(file: &Value) -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let v = values(file, w.name, m.name);
            if v.is_empty() {
                continue;
            }
            let mark = if m.name != "setup_s" && spread(&v) > m.bound / 3.0 {
                "  > bound/3"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<11} {:<18} {} (bound {:>4.1}%){mark}",
                w.name,
                m.name,
                describe(&v),
                100.0 * m.bound
            );
        }
    }
    out
}

/// Compares two sets of runs. Returns the table and whether every
/// metric of every workload agreed within its bound in both
/// directions.
#[must_use]
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut all_agree = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (quartiles(&va)[1], quartiles(&vb)[1]);
            let worst = worse_by(m, ma, mb).max(worse_by(m, mb, ma));
            let agree = worst <= m.bound;
            all_agree &= agree;
            let _ = writeln!(
                out,
                "{:<11} {:<18}\n    A {}\n    B {}\n    medians differ {:>5.2}% (bound {:>4.1}%): {}",
                w.name,
                m.name,
                describe(&va),
                describe(&vb),
                100.0 * worst,
                100.0 * m.bound,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    (out, all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn file(jobs_per_s: &[f64]) -> Value {
        let runs: Vec<String> = jobs_per_s
            .iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"svc_small\", \"trace\": 0, \"metrics\": \
                     {{\"jobs_per_s\": {{\"value\": {v}, \"unit\": \"1/s\"}}}}}}"
                )
            })
            .collect();
        parse(&format!("{{\"runs\": [{}]}}", runs.join(", "))).expect("valid json")
    }

    #[test]
    fn agreement_is_judged_on_medians_against_the_bound() {
        let a = file(&[1000.0, 1010.0, 990.0]);
        let close = file(&[950.0, 960.0, 940.0]);
        let far = file(&[700.0, 710.0, 690.0]);
        assert!(compare(&a, &close).1);
        assert!(!compare(&a, &far).1);
        // Symmetric: a better B that far away is still not "the same".
        assert!(!compare(&far, &a).1);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert!(worse_by(lower, 1.0, 1.2) > 0.19);
        assert!(worse_by(higher, 1.0, 1.2) < 0.0);
    }
}
