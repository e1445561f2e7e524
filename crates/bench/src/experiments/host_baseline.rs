//! Measured host-CPU baseline table: the sorters this repository can
//! actually run (std sort, the PARADIS-flavored radix baseline, and the
//! AMT functional schedule) timed on the build machine.
//!
//! This is the reproduction's analogue of the paper's own measured CPU
//! column. Absolute numbers (and even the radix-vs-comparison ordering)
//! depend heavily on the host — constrained CI machines may show
//! neither the radix advantage nor thread scaling that a multicore
//! server exhibits — which is itself the paper's point about CPU
//! baselines.
//!
//! The `AMT functional` row runs every merge group through the one
//! loser-tree kernel (`bonsai_amt::LoserTree`), on every core: the
//! presort and each merge stage are spread over one worker per core,
//! and the last stage's one wide merge is cut by output rank.

use std::time::Instant;

use bonsai_amt::functional;
use bonsai_baselines::radix::parallel_radix_sort;
use bonsai_gensort::dist::uniform_u32;

use crate::table::Table;

/// One measured row.
#[derive(Debug, Clone)]
pub struct HostPoint {
    /// Sorter label.
    pub name: &'static str,
    /// Measured throughput in bytes/second on this host.
    pub throughput: f64,
}

fn time_it(mut f: impl FnMut()) -> f64 {
    // Best of three runs to tame scheduler noise.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measures every host sorter on `n` uniform u32 records.
pub fn measure(n: usize) -> Vec<HostPoint> {
    let data = uniform_u32(n, 0xC0FFEE);
    let bytes = (n * 4) as f64;
    let mut out = Vec::new();

    let secs = time_it(|| {
        let mut d = data.clone();
        d.sort_unstable();
        std::hint::black_box(&d);
    });
    out.push(HostPoint {
        name: "std sort_unstable",
        throughput: bytes / secs,
    });

    for threads in [1usize, 4] {
        let secs = time_it(|| {
            let mut d = data.clone();
            parallel_radix_sort(&mut d, threads);
            std::hint::black_box(&d);
        });
        out.push(HostPoint {
            name: if threads == 1 {
                "radix (1 thread)"
            } else {
                "radix (4 threads)"
            },
            throughput: bytes / secs,
        });
    }

    let secs = time_it(|| {
        let (d, _) = functional::sort_balanced(data.clone(), 256, 16);
        std::hint::black_box(&d);
    });
    out.push(HostPoint {
        name: "AMT functional (l=256, every core)",
        throughput: bytes / secs,
    });
    out
}

/// Renders the measured host table.
pub fn render(n: usize) -> String {
    let mut t = Table::new(vec!["sorter", "host throughput"]);
    for p in measure(n) {
        t.row(vec![
            p.name.to_string(),
            format!("{:.2} GB/s", p.throughput / 1e9),
        ]);
    }
    format!(
        "Host-measured software sorters ({n} uniform u32 records, best of 3)\nAbsolute numbers are host-dependent; the radix-vs-comparison relationship\nmirrors the paper's PARADIS CPU baseline.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sorters_measure_positive_throughput() {
        for p in measure(200_000) {
            assert!(p.throughput > 0.0, "{}", p.name);
        }
    }

    /// Thread scaling is a property of the host, not of the code (two
    /// wall clocks on a loaded 2-vCPU machine disagree one run in
    /// three), so this checks the work instead: more threads must
    /// produce exactly the single-threaded result, which is
    /// `sort_unstable`'s — every record scattered once, none twice.
    /// `bonsai_baselines::radix` checks the per-thread partition itself.
    #[test]
    fn multithreaded_radix_does_the_work_of_single() {
        let data = uniform_u32(400_000, 0xC0FFEE);
        let mut want = data.clone();
        want.sort_unstable();
        for threads in [1usize, 4] {
            let mut got = data.clone();
            parallel_radix_sort(&mut got, threads);
            assert!(got == want, "{threads}-thread radix output differs");
        }
    }
}
