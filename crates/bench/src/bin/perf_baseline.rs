//! Wall-clock baseline for the event-driven fast-forward scheduler.
//!
//! Sorts the same data on the reference per-cycle loop and on the fast
//! path for three machine shapes — compute-bound small DRAM, HBM, and
//! the memory-bound SSD-scale stream — verifies the two paths agree bit
//! for bit, and writes the measured speedups to `BENCH_5.json`.
//!
//! Gates: the fast path must be no slower than the reference loop on
//! the compute-bound DRAM config (where there is little to skip) and at
//! least 5x faster on the SSD-scale config (where the machine spends
//! most cycles waiting on flash).
//!
//! Usage: `perf_baseline [out.json]` (default `BENCH_5.json`; the
//! `BONSAI_BENCH_OUT` environment variable overrides the default when
//! no argument is given).

use std::time::Instant;

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, SortReport};
use bonsai_bench::perf::{bench_json, bench_out_path, ssd_scale_config, JsonField};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;

struct Row {
    name: &'static str,
    records: usize,
    reference_wall_s: f64,
    fast_wall_s: f64,
    speedup: f64,
    total_cycles: u64,
    fast_forwarded_cycles: u64,
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

fn measure(name: &'static str, cfg: SimEngineConfig, records: usize) -> Row {
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
        total_cycles: rep_fast.total_cycles,
        fast_forwarded_cycles: rep_fast.fast_forwarded_cycles,
    };
    println!(
        "{name:<12} {records:>7} records: reference {reference_wall_s:>7.3}s, fast {fast_wall_s:>7.3}s \
         ({:.2}x; {:.1}% of {} cycles fast-forwarded)",
        row.speedup,
        100.0 * row.fast_forwarded_cycles as f64 / row.total_cycles.max(1) as f64,
        row.total_cycles,
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
                ("total_cycles", JsonField::U64(r.total_cycles)),
                (
                    "fast_forwarded_cycles",
                    JsonField::U64(r.fast_forwarded_cycles),
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
        ),
        measure(
            "hbm",
            SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::hbm_u50()),
            150_000,
        ),
        measure("ssd_scale", ssd_scale_config(), 150_000),
    ];

    let dram = &rows[0];
    let ssd = &rows[2];
    // Compute-bound gate: the fast path has almost nothing to skip here
    // (< 1% of cycles), so the requirement is parity — it must not
    // regress the per-cycle loop. 5% floor absorbs wall-clock noise on
    // shared CI hosts; the raw single-pass loop measures slightly
    // *faster* than the reference (the quiescent windows it does skip
    // are free wins).
    assert!(
        dram.speedup >= 0.95,
        "fast path regressed the compute-bound config beyond noise: {:.2}x",
        dram.speedup
    );
    assert!(
        ssd.speedup >= 5.0,
        "fast path under 5x on the memory-bound SSD-scale config: {:.2}x",
        ssd.speedup
    );

    std::fs::write(&out_path, render_json(&rows)).expect("write baseline json");
    println!("gates passed; wrote {out_path}");
}
