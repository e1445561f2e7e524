//! Spans recorded from the benchmark's own files, around each call
//! into a layer. Nothing here touches the program under test: a span
//! is two `Instant` reads taken outside the call. Spans stay in memory
//! until the run ends, then go out as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every job.
pub const ROOT: &str = "job";

/// One timed interval. `id` is unique within its job; `parent` is the
/// id of the span that caused it (0 for the root, whose own id is 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` the interval covers, or [`ROOT`].
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u64,
    /// Span id within the job.
    pub id: u32,
    /// Id of the parent span within the job.
    pub parent: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span sink. With recording off every call still runs,
/// only the span is not kept — that pass is the baseline
/// `trace.overhead_pct` compares against.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch` (shared by all threads
    /// of a run so their spans line up).
    #[must_use]
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an interval measured by the caller.
    pub fn push(&mut self, name: &'static str, job: u64, id: u32, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                job,
                id,
                parent: 0,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Runs `call` as child span `id` of job `job`'s root.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        id: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return call();
        }
        let start = self.now();
        let out = call();
        let end = self.now();
        self.push(name, job, id, start, end);
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What the spans of a run add up to.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Jobs (root spans) seen.
    pub jobs: u64,
    /// Sum of root span lengths, ns.
    pub total_ns: u64,
    /// Self time by span name, ns, summed over jobs; the root's entry
    /// is the time no child span covers.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Mean self time per job of every span whose name starts with
    /// `prefix`, in microseconds.
    #[must_use]
    pub fn self_us(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e3 / self.jobs.max(1) as f64
    }

    /// Share of job time no child span accounts for, in percent.
    #[must_use]
    pub fn residual_pct(&self) -> f64 {
        let uncovered = self.self_ns.get(ROOT).copied().unwrap_or(0);
        100.0 * uncovered as f64 / self.total_ns.max(1) as f64
    }

    /// The non-root span name with the largest self time.
    #[must_use]
    pub fn largest(&self) -> Option<(&'static str, f64)> {
        self.self_ns
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .max_by_key(|(_, ns)| **ns)
            .map(|(name, ns)| (*name, *ns as f64 / 1e3 / self.jobs.max(1) as f64))
    }

    /// One line per span name: mean self time per job and its share.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (name, ns) in &self.self_ns {
            let _ = writeln!(
                out,
                "ledger {:<34} self {:>12.3} us/job {:>6.2} %",
                if *name == ROOT { "(uncovered)" } else { name },
                *ns as f64 / 1e3 / self.jobs.max(1) as f64,
                100.0 * *ns as f64 / self.total_ns.max(1) as f64,
            );
        }
        out
    }
}

/// A span's length minus the part of it its children cover (their
/// union, clipped to the span).
fn self_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.ns() - covered
}

/// Folds spans into per-name self times.
#[must_use]
pub fn ledger(spans: &[Span]) -> Ledger {
    let mut by_job: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_job.entry(span.job).or_default().push(span);
    }
    let mut ledger = Ledger::default();
    for job in by_job.values() {
        for span in job {
            let mut children: Vec<(u64, u64)> = job
                .iter()
                .filter(|c| c.parent == span.id && c.id != span.id)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            *ledger.self_ns.entry(span.name).or_default() += self_ns(span, &mut children);
            if span.name == ROOT {
                ledger.jobs += 1;
                ledger.total_ns += span.ns();
            }
        }
    }
    ledger
}

/// Lengths in microseconds of every span named `name`, summed per job.
#[must_use]
pub fn per_job_us(spans: &[Span], names: &[&str]) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| names.contains(&s.name)) {
        *out.entry(span.job).or_default() += span.ns() as f64 / 1e3;
    }
    out
}

/// The spans as JSON lines.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 112);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"job\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.job, s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 7,
            id,
            parent: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        // Root 0..100; children 10..30, 20..55 (overlapping), 90..120
        // (clipped): covered 45 + 10, uncovered 45.
        let spans = [
            span(ROOT, 0, 0, 100),
            span("a.x", 1, 10, 30),
            span("a.y", 2, 20, 55),
            span("b.z", 3, 90, 120),
        ];
        let l = ledger(&spans);
        assert_eq!(l.jobs, 1);
        assert_eq!(l.total_ns, 100);
        assert_eq!(l.self_ns[ROOT], 45);
        assert_eq!(l.self_ns["a.x"], 20);
        assert_eq!(l.self_ns["b.z"], 30);
        assert!((l.residual_pct() - 45.0).abs() < 1e-12);
        assert_eq!(l.largest().map(|(n, _)| n), Some("a.y"));
        assert!((l.self_us("a.") - 0.055).abs() < 1e-12);
    }

    #[test]
    fn recorder_off_keeps_nothing_but_still_runs_the_call() {
        let mut rec = Recorder::new(Instant::now(), false);
        assert_eq!(rec.time("a.x", 1, 1, || 5), 5);
        assert!(rec.into_spans().is_empty());
    }
}
