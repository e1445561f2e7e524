//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted sample, `p` in
/// `[0, 100]`. An empty sample reads 0.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99/p95/p90/p75 that still has ten samples beyond it
/// (the rule the per-layer timings are reported by); p50 for samples too
/// small for any of them.
#[must_use]
pub fn tail_percent(samples: usize) -> f64 {
    [99usize, 95, 90, 75]
        .into_iter()
        .find(|p| samples * (100 - p) >= 1000)
        .unwrap_or(50) as f64
}

/// A sample sorted once, read many times.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sorts `samples` ascending.
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Self(samples)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile.
    #[must_use]
    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }

    /// The median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.p(50.0)
    }

    /// The [`tail_percent`] percentile and which one it is.
    #[must_use]
    pub fn tail(&self) -> (f64, f64) {
        let p = tail_percent(self.len());
        (self.p(p), p)
    }

    /// `"p50 1.23 p99 4.56 n=1000"`, for the human-readable lines.
    #[must_use]
    pub fn describe(&self) -> String {
        let (tail, p) = self.tail();
        format!("p50 {:.3} p{p:.0} {tail:.3} n={}", self.p50(), self.len())
    }
}

/// One verified job of a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the job completed, seconds since the window opened.
    pub done_s: f64,
    /// Its latency in milliseconds.
    pub lat_ms: f64,
    /// Records it sorted.
    pub records: usize,
}

/// Groups a window's jobs are cut into; see [`Steady::of`].
pub const GROUPS: usize = 40;

/// The timing metrics of a window, steadied against a host that slows
/// in bursts: each is the decile on its good side, not the median.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Steady {
    /// Verified jobs per second, upper decile over the groups.
    pub jobs_per_s: f64,
    /// Records of verified jobs per second, upper decile over the
    /// groups.
    pub records_per_s: f64,
    /// Lower-decile latency within a group in milliseconds, lower
    /// decile over the groups.
    pub lat_p10_ms: f64,
}

impl Steady {
    /// Orders the jobs by completion, cuts them into [`GROUPS`] groups
    /// of equal count, takes each group's throughput (its jobs and
    /// records over the time from the previous group's last completion
    /// to its own) and the lower decile of its latencies, and reports
    /// the upper decile of the throughputs and the lower decile of the
    /// latencies over the groups.
    ///
    /// The 2-vCPU build host runs about 1.6x slower for seconds at a
    /// time. A whole-window figure moves with the share of the window
    /// such spells happen to cover, and so does a median once they
    /// cover about half of it; the good-side decile over the groups
    /// holds until they cover nine tenths. The decile *within* a group
    /// is there for a latency distribution with two modes (`svc_mixed`:
    /// a small job finds a worker free, or waits behind a big one): it
    /// stays clear of the edge between them, where the window's lower
    /// quartile moved by a quarter from run to run. A change that slows
    /// the program moves the whole distribution, its deciles included.
    #[must_use]
    pub fn of(samples: &[Sample]) -> Self {
        let mut jobs: Vec<&Sample> = samples.iter().collect();
        jobs.sort_unstable_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let groups = GROUPS.min(jobs.len());
        let mut jobs_per_s = Vec::with_capacity(groups);
        let mut records_per_s = Vec::with_capacity(groups);
        let mut lat_p10_ms = Vec::with_capacity(groups);
        let mut opened = 0.0;
        for g in 0..groups {
            let group = &jobs[g * jobs.len() / groups..(g + 1) * jobs.len() / groups];
            let closed = group[group.len() - 1].done_s;
            let seconds = closed - opened;
            opened = closed;
            if seconds > 0.0 {
                let records: usize = group.iter().map(|j| j.records).sum();
                jobs_per_s.push(group.len() as f64 / seconds);
                records_per_s.push(records as f64 / seconds);
            }
            lat_p10_ms.push(Sorted::new(group.iter().map(|j| j.lat_ms).collect()).p(10.0));
        }
        Self {
            jobs_per_s: Sorted::new(jobs_per_s).p(90.0),
            records_per_s: Sorted::new(records_per_s).p(90.0),
            lat_p10_ms: Sorted::new(lat_p10_ms).p(10.0),
        }
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method the driver's spread check uses). Fewer than two values have
/// no spread: all three read the value itself.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => [1usize, 2, 3].map(|i| {
            // Position i·(n+1)/4 on a 1-based axis, clamped to the ends.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percent(1000), 99.0);
        assert_eq!(tail_percent(999), 95.0);
        assert_eq!(tail_percent(100), 90.0);
        assert_eq!(tail_percent(40), 75.0);
        assert_eq!(tail_percent(39), 50.0);
    }

    #[test]
    fn steady_reports_the_good_side_decile_not_the_whole_window() {
        // 20 jobs a second for 10 s, but seconds 2 to 9 run at half
        // speed: the whole window reads 13 jobs/s and the median job
        // takes 100 ms; the deciles still show 20 jobs/s and 50 ms.
        let mut samples = Vec::new();
        let mut now = 0.0;
        while now < 10.0 {
            let slow = (2.0..9.0).contains(&now);
            let period = if slow { 0.1 } else { 0.05 };
            now += period;
            samples.push(Sample {
                done_s: now,
                lat_ms: period * 1e3,
                records: 100,
            });
        }
        let steady = Steady::of(&samples);
        assert!((steady.jobs_per_s - 20.0).abs() < 1e-6, "{steady:?}");
        assert!((steady.records_per_s - 2000.0).abs() < 1e-3, "{steady:?}");
        assert!((steady.lat_p10_ms - 50.0).abs() < 1e-9, "{steady:?}");
        // Fewer jobs than groups: one group per job. None: zeros.
        assert!((Steady::of(&samples[..3]).jobs_per_s - 20.0).abs() < 1e-6);
        assert_eq!(Steady::of(&[]), Steady::default());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
