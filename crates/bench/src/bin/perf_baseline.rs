//! Wall-clock baseline for the event-driven fast-forward scheduler.
//!
//! Sorts the same data on the reference per-cycle loop and on the fast
//! path for three machine shapes — compute-bound small DRAM, HBM, and
//! the memory-bound SSD-scale stream — verifies the two paths agree bit
//! for bit, and writes the measured speedups to `BENCH_5.json`.
//!
//! Gates: on every config the fast path must be no slower than the
//! reference loop (5 % wall-clock slack), and on the SSD-scale config
//! (where the machine spends most cycles waiting on flash) it must step
//! at most one simulated cycle in 40 — the deterministic stepped-cycle
//! ratio, 44.6 as committed, identical on every host. The wall-clock
//! speedup is reported but not gated: it *falls* when no-op steps get
//! cheaper, even though both walls improve.
//!
//! Usage: `perf_baseline [out.json]` (default `BENCH_5.json`; the
//! `BONSAI_BENCH_OUT` environment variable overrides the default when
//! no argument is given).

use std::time::Instant;

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, SortReport};
use bonsai_bench::perf::{
    assert_fast_forward_gate, bench_json, bench_out_path, ssd_scale_config, stepped_cycle_ratio,
    JsonField,
};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;

struct Row {
    name: &'static str,
    records: usize,
    reference_wall_s: f64,
    fast_wall_s: f64,
    speedup: f64,
    fast_report: SortReport,
    /// The config's gate on [`stepped_cycle_ratio`] (1.0 = no gate:
    /// nothing to skip on a compute-bound shape).
    min_stepped_ratio: f64,
}

fn time_once(
    cfg: SimEngineConfig,
    data: &[bonsai_records::U32Rec],
    reference: bool,
) -> (f64, (Vec<bonsai_records::U32Rec>, SortReport)) {
    let start = Instant::now();
    let result = SimEngine::new(cfg)
        .with_reference_loop(reference)
        .sort(data.to_vec());
    (start.elapsed().as_secs_f64(), result)
}

fn measure(
    name: &'static str,
    cfg: SimEngineConfig,
    records: usize,
    min_stepped_ratio: f64,
) -> Row {
    let data = uniform_u32(records, 2025);
    // Interleave the paths and keep each one's best wall time: min
    // absorbs scheduler noise, interleaving cancels thermal/load drift.
    let mut reference_wall_s = f64::INFINITY;
    let mut fast_wall_s = f64::INFINITY;
    let mut outputs = None;
    for _ in 0..5 {
        let (wall_ref, out_ref) = time_once(cfg, &data, true);
        let (wall_fast, out_fast) = time_once(cfg, &data, false);
        reference_wall_s = reference_wall_s.min(wall_ref);
        fast_wall_s = fast_wall_s.min(wall_fast);
        outputs = Some((out_ref, out_fast));
    }
    let ((out_ref, rep_ref), (out_fast, rep_fast)) = outputs.expect("ran at least once");

    assert_eq!(out_ref, out_fast, "{name}: paths sorted differently");
    assert_eq!(
        rep_ref.normalized(),
        rep_fast.clone().normalized(),
        "{name}: paths reported different accounting"
    );

    let row = Row {
        name,
        records,
        reference_wall_s,
        fast_wall_s,
        speedup: reference_wall_s / fast_wall_s,
        fast_report: rep_fast,
        min_stepped_ratio,
    };
    println!(
        "{name:<12} {records:>7} records: reference {reference_wall_s:>7.3}s, fast {fast_wall_s:>7.3}s \
         ({:.2}x; {:.1}% of {} cycles fast-forwarded)",
        row.speedup,
        100.0 * row.fast_report.fast_forwarded_cycles as f64
            / row.fast_report.total_cycles.max(1) as f64,
        row.fast_report.total_cycles,
    );
    row
}

fn render_json(rows: &[Row]) -> String {
    let json_rows: Vec<Vec<(&str, JsonField)>> = rows
        .iter()
        .map(|r| {
            vec![
                ("name", JsonField::Str(r.name.to_string())),
                ("records", JsonField::U64(r.records as u64)),
                (
                    "reference_wall_s",
                    JsonField::F64 {
                        value: r.reference_wall_s,
                        precision: 6,
                    },
                ),
                (
                    "fast_wall_s",
                    JsonField::F64 {
                        value: r.fast_wall_s,
                        precision: 6,
                    },
                ),
                (
                    "speedup",
                    JsonField::F64 {
                        value: r.speedup,
                        precision: 3,
                    },
                ),
                ("total_cycles", JsonField::U64(r.fast_report.total_cycles)),
                (
                    "fast_forwarded_cycles",
                    JsonField::U64(r.fast_report.fast_forwarded_cycles),
                ),
                (
                    "stepped_cycle_ratio",
                    JsonField::F64 {
                        value: stepped_cycle_ratio(&r.fast_report),
                        precision: 1,
                    },
                ),
            ]
        })
        .collect();
    bench_json("perf_baseline", &json_rows)
}

fn main() {
    let out_path = bench_out_path("BENCH_5.json");

    println!("== perf_baseline: reference per-cycle loop vs fast-forward ==");
    let rows = vec![
        measure(
            "dram_small",
            SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
            150_000,
            1.0,
        ),
        measure(
            "hbm",
            SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::hbm_u50()),
            150_000,
            1.0,
        ),
        measure("ssd_scale", ssd_scale_config(), 150_000, 40.0),
    ];

    // Parity everywhere: the compute-bound configs have almost nothing
    // to skip (< 1 % of cycles), so all the fast path owes them is not
    // to regress the per-cycle loop. The SSD-scale stream additionally
    // has to collapse: 44.6 simulated cycles per stepped one as
    // committed, gated at 40.
    for row in &rows {
        assert_fast_forward_gate(
            row.name,
            &row.fast_report,
            row.reference_wall_s,
            row.fast_wall_s,
            row.min_stepped_ratio,
        );
    }

    std::fs::write(&out_path, render_json(&rows)).expect("write baseline json");
    println!("gates passed; wrote {out_path}");
}
