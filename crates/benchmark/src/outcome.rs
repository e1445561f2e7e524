//! What one run of one workload produced: counts of jobs attempted and
//! failed, metric values by listed name, and the lines printed for a
//! person to read.

use std::collections::BTreeMap;

use crate::json::{obj, Value};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{Sample, Sorted, Steady, GROUPS};

/// How many failure reasons are kept verbatim (the count is exact
/// regardless).
const REASONS_KEPT: usize = 8;

/// One `name: {value, unit}` member of a result object.
fn metric(name: &str, unit: &str, value: f64) -> (String, Value) {
    (
        name.to_string(),
        obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.to_string())),
        ]),
    )
}

/// The result of a run, filled in as it goes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sorts asked for (replies awaited, direct calls made).
    pub attempted: u64,
    /// Of those: error replies, I/O errors, missing or duplicate
    /// replies, outputs that differ from the oracle.
    pub failed: u64,
    /// Checks that failed without belonging to one job (e.g. the
    /// server's counters disagreeing with the client's).
    pub inconsistencies: u64,
    reasons: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    info: Vec<String>,
}

impl Outcome {
    /// Records a listed metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec` does not list — a typo in this crate.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::unit_of(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(name, value);
    }

    /// Records a timed metric as its median, noting the tail and the
    /// sample count beside it.
    pub fn set_p50(&mut self, name: &'static str, samples: &Sorted) {
        self.set(name, samples.p50());
        self.notes.insert(name, samples.describe());
    }

    /// Records the timing metrics of an untraced window as [`Steady`]
    /// gives them, with the whole-window figures noted beside them.
    /// Returns the window's latencies, sorted.
    pub fn set_steady(&mut self, samples: &[Sample], elapsed_s: f64) -> Sorted {
        let steady = Steady::of(samples);
        let records: usize = samples.iter().map(|s| s.records).sum();
        let whole = |total: usize| {
            format!(
                "upper decile of {GROUPS} groups; whole window {:.4} (n={})",
                total as f64 / elapsed_s,
                samples.len()
            )
        };
        self.set("jobs_per_s", steady.jobs_per_s);
        self.note("jobs_per_s", whole(samples.len()));
        self.set("records_per_s", steady.records_per_s);
        self.note("records_per_s", whole(records));
        self.set("lat_p10_ms", steady.lat_p10_ms);
        let all = Sorted::new(samples.iter().map(|s| s.lat_ms).collect());
        self.note("lat_p10_ms", all.describe());
        all
    }

    /// Records the latency metrics the per-layer table carries: the
    /// tail of all jobs, and median and tail of the jobs of the
    /// workload's smallest size class. The tail is the fixed
    /// percentile `tail` (p99 where a window holds thousands of jobs,
    /// p90 where it holds about a hundred).
    pub fn set_tails(&mut self, all: &Sorted, smallest: &Sorted, tail: f64) {
        self.set("lat_tail_ms", all.p(tail));
        self.note("lat_tail_ms", format!("p{tail:.0} n={}", all.len()));
        self.set_p50("small_lat_p50_ms", smallest);
        self.set("small_lat_tail_ms", smallest.p(tail));
        self.note(
            "small_lat_tail_ms",
            format!("p{tail:.0} n={}", smallest.len()),
        );
    }

    /// Adds a remark printed beside metric `name`, after any already
    /// there.
    pub fn note(&mut self, name: &'static str, note: String) {
        let notes = self.notes.entry(name).or_default();
        if !notes.is_empty() {
            notes.push_str("; ");
        }
        notes.push_str(&note);
    }

    /// The value recorded for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds a free-form line to the human-readable output.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Counts one failed job.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.reasons.len() < REASONS_KEPT {
            self.reasons.push(why());
        }
    }

    /// Counts a failed cross-check that is not one job's failure.
    pub fn inconsistent(&mut self, why: String) {
        self.inconsistencies += 1;
        self.reasons.push(why);
    }

    /// Folds another thread's or phase's counts into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.inconsistencies += other.inconsistencies;
        let room = REASONS_KEPT.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
        self.info.extend(other.info);
    }

    /// Every output matched its oracle and every cross-check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.inconsistencies == 0
    }

    /// The lines for a person: every recorded metric by name with its
    /// unit, then the free-form lines and any failure reasons.
    #[must_use]
    pub fn human(&self, workload: &str, traced: bool) -> String {
        let mut out = format!(
            "== {workload} ({}) ==\n",
            if traced { "traced" } else { "untraced" }
        );
        let listed = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in listed {
            if let Some(value) = self.metrics.get(name) {
                let unit = spec::unit_of(name).unwrap_or("");
                let note = self.notes.get(name).map_or("", String::as_str);
                out.push_str(&format!("{name:<42} {value:>16.4} {unit:<6} {note}\n"));
            }
        }
        for line in &self.info {
            out.push_str(line);
            out.push('\n');
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "attempted {} failed {} failed_share {share} inconsistencies {}\n",
            self.attempted, self.failed, self.inconsistencies
        ));
        for reason in &self.reasons {
            out.push_str(&format!("FAILED: {reason}\n"));
        }
        out
    }

    /// The result object the driver reads: with `traced` every
    /// per-layer metric (0 where the workload bypasses the layer),
    /// without it every end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never recorded: each is
    /// defined on every workload.
    #[must_use]
    pub fn result(&self, traced: bool) -> Value {
        let metrics: Vec<(String, Value)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| metric(m.name, m.unit, self.get(m.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                    metric(m.name, m.unit, value)
                })
                .collect()
        };
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// Everything recorded, for `--out` files: the driver's object plus
    /// every other metric this run happened to measure.
    #[must_use]
    pub fn full(&self, workload: &str, traced: bool) -> Value {
        let all: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, value)| metric(name, spec::unit_of(name).unwrap_or(""), *value))
            .collect();
        obj([
            ("workload", Value::Str(workload.to_string())),
            ("trace", Value::Num(f64::from(u8::from(traced)))),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(all)),
        ])
    }
}
