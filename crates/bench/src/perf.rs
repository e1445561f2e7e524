//! Shared shapes and helpers for the performance suite
//! (`perf_baseline`, `perf_pipeline`, the `runtime_smoke` perf gate and
//! the equivalence tests): machine shapes and the `BENCH_*.json` writer
//! every bench binary shares.

use std::fmt::Write as _;

use bonsai_amt::{AmtConfig, SimEngineConfig, SortReport};
use bonsai_memsim::MemoryConfig;

/// The SSD-scale shape of the perf baseline: one slow flash access
/// stream ([`MemoryConfig::ssd_direct`]) with batches large enough to
/// amortize its access latency. The machine spends most cycles waiting
/// on memory, which is exactly what the event-driven fast-forward
/// scheduler collapses.
pub fn ssd_scale_config() -> SimEngineConfig {
    let mut cfg =
        SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::ssd_direct());
    cfg.loader.batch_bytes = 131_072;
    cfg
}

/// A multi-pass variant of the SSD-scale shape for the cross-pass
/// pipelining bench: a 4-leaf tree turns [`MULTIPASS_RECORDS`] records
/// (132 presorted runs) into a 4-pass sort with groups 33 → 9 → 3 → 1.
/// On this latency-bound stream every merge group costs roughly the
/// same simulated cycles regardless of pass (quadrupling the run
/// length quarters the per-record cost), so a per-pass barrier's
/// ceil-waste — 5 + 2 + 1 + 1 = 9 group-waves for 46 groups of work
/// that fit in 46/8 ≈ 5.75 — is exactly the idle cross-pass
/// pipelining exists to reclaim.
pub fn ssd_multipass_config() -> SimEngineConfig {
    let mut cfg = SimEngineConfig::with_memory(AmtConfig::new(4, 4), 4, MemoryConfig::ssd_direct());
    cfg.loader.batch_bytes = 131_072;
    cfg
}

/// Records per job for [`ssd_multipass_config`]: 132 presorted
/// 16-record runs.
pub const MULTIPASS_RECORDS: usize = 2112;

/// Simulated cycles per cycle the fast path actually stepped:
/// `total_cycles / (total_cycles − fast_forwarded_cycles)`. This is how
/// much simulated time the event-driven scheduler collapses, and it is
/// a property of the simulated machine and input alone — identical on
/// every host and unmoved by how fast either loop's `step` runs.
pub fn stepped_cycle_ratio(fast: &SortReport) -> f64 {
    let stepped = fast.total_cycles - fast.fast_forwarded_cycles;
    fast.total_cycles as f64 / stepped.max(1) as f64
}

/// The fast-forward gate on a latency-bound shape, in two host-
/// independent parts: the fast path must step at most one in
/// `min_stepped_ratio` of the simulated cycles (deterministic), and it
/// must not be slower than the reference loop it skips ahead of (5 %
/// wall-clock slack). A ratio of the two walls is deliberately *not*
/// gated: making a no-op reference step cheaper shrinks that ratio
/// while improving both walls.
///
/// # Panics
///
/// When either part fails.
pub fn assert_fast_forward_gate(
    name: &str,
    fast: &SortReport,
    reference_wall_s: f64,
    fast_wall_s: f64,
    min_stepped_ratio: f64,
) {
    let ratio = stepped_cycle_ratio(fast);
    assert!(
        ratio >= min_stepped_ratio,
        "{name}: the fast path stepped one cycle in {ratio:.1}, the gate is one in {min_stepped_ratio}"
    );
    assert!(
        fast_wall_s <= 1.05 * reference_wall_s,
        "{name}: the fast path ({fast_wall_s:.3}s) is slower than the reference loop ({reference_wall_s:.3}s)"
    );
}

/// Nearest-rank percentile over an *ascending-sorted* sample: `p` in
/// `[0, 100]`, so `percentile(s, 50.0)` is the median and
/// `percentile(s, 99.0)` the p99. Empty samples return 0 (the benches
/// only hit that on a zero-job row, which the gates reject anyway).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One value in a [`bench_json`] row.
#[derive(Debug, Clone)]
pub enum JsonField {
    /// A JSON string.
    Str(String),
    /// An integer.
    U64(u64),
    /// A float rendered with a fixed number of decimals (JSON floats
    /// round-trip poorly otherwise, and the files are diffed in git).
    F64 {
        /// The value.
        value: f64,
        /// Decimal places to render.
        precision: usize,
    },
}

impl core::fmt::Display for JsonField {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JsonField::Str(s) => write!(f, "\"{s}\""),
            JsonField::U64(v) => write!(f, "{v}"),
            JsonField::F64 { value, precision } => write!(f, "{value:.precision$}"),
        }
    }
}

/// Renders the shared `BENCH_*.json` shape every perf bench writes:
/// `{"bench": <name>, "configs": [<one object per row>]}`, with row
/// fields in the given order.
pub fn bench_json(bench: &str, rows: &[Vec<(&str, JsonField)>]) -> String {
    let mut out = format!("{{\n  \"bench\": \"{bench}\",\n  \"configs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (key, value)) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": {value}");
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Resolves where a bench binary writes its `BENCH_*.json`: the first
/// CLI argument if given, else the `BONSAI_BENCH_OUT` environment
/// variable, else `default` (the in-repo filename).
pub fn bench_out_path(default: &str) -> String {
    resolve_bench_out(
        std::env::args().nth(1),
        std::env::var("BONSAI_BENCH_OUT").ok(),
        default,
    )
}

/// The pure precedence rule behind [`bench_out_path`], pinned by a
/// unit test: an explicit CLI argument always beats the
/// `BONSAI_BENCH_OUT` environment variable, which beats the in-repo
/// default. An *empty* CLI argument or environment value is treated as
/// unset rather than producing an unopenable `""` path.
pub fn resolve_bench_out(cli: Option<String>, env: Option<String>, default: &str) -> String {
    cli.filter(|s| !s.is_empty())
        .or_else(|| env.filter(|s| !s.is_empty()))
        .unwrap_or_else(|| default.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_shape_and_field_order() {
        let rows = vec![vec![
            ("name", JsonField::Str("dram".into())),
            ("records", JsonField::U64(150_000)),
            (
                "speedup",
                JsonField::F64 {
                    value: 1.234_567,
                    precision: 3,
                },
            ),
        ]];
        let json = bench_json("perf_example", &rows);
        assert_eq!(
            json,
            "{\n  \"bench\": \"perf_example\",\n  \"configs\": [\n    \
             {\"name\": \"dram\", \"records\": 150000, \"speedup\": 1.235}\n  ]\n}\n"
        );
    }

    #[test]
    fn bench_out_precedence_cli_beats_env_beats_default() {
        let cli = || Some("cli.json".to_string());
        let env = || Some("env.json".to_string());
        assert_eq!(resolve_bench_out(cli(), env(), "default.json"), "cli.json");
        assert_eq!(resolve_bench_out(None, env(), "default.json"), "env.json");
        assert_eq!(
            resolve_bench_out(None, None, "default.json"),
            "default.json"
        );
        // Empty strings count as unset, not as a path.
        assert_eq!(
            resolve_bench_out(Some(String::new()), env(), "default.json"),
            "env.json"
        );
        assert_eq!(
            resolve_bench_out(Some(String::new()), Some(String::new()), "default.json"),
            "default.json"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn multipass_shape_really_is_multipass() {
        let cfg = ssd_multipass_config();
        let runs = MULTIPASS_RECORDS.div_ceil(cfg.initial_run_len());
        let plan = bonsai_amt::SortPlan::new(runs, cfg.amt.l);
        assert!(plan.num_passes() >= 3, "{} passes", plan.num_passes());
        let groups: Vec<usize> = (0..plan.num_passes())
            .map(|p| plan.pass(p).groups)
            .collect();
        assert_eq!(groups, vec![33, 9, 3, 1]);
    }
}
