//! Wall-clock and virtual-makespan gate for cross-job pipelining on the
//! group DAG.
//!
//! Every row runs the same jobs twice — back to back, each alone on the
//! DAG (`sort_pipelined`), and as one forest (`sort_batch_pipelined`) —
//! and verifies outputs and reports bit-identical between the two:
//!
//! - `ssd_batch` — **the headline gate.** A batch of 4-pass SSD-scale
//!   sorts executed as one forest DAG vs the same jobs run back to
//!   back. A single merge sort is single-rooted — its final task
//!   transitively depends on every other task, so no schedule can start
//!   the tail early and any scheduler is pinned within a few
//!   group-costs of a per-pass barrier's makespan. Across *jobs* that
//!   bound disappears: one job's narrow tail passes (3 → 1 groups leave
//!   most of the pool dark) overlap with the next job's 33-group first
//!   pass, and the forest stays work-conserving. This is the
//!   batch-runtime workload cross-pass pipelining exists for.
//! - `ssd_multipass` — one such sort alone, reported for honesty: the
//!   single-root bound caps its speedup near 1x, and the row shows the
//!   measured residual overlap rather than pretending otherwise.
//! - `dram_single` / `hbm_single` — single-pass shapes where the DAG
//!   degenerates to one task and has nothing to overlap.
//!
//! Two speedup notions are reported per row:
//!
//! - **virtual speedup** — barrier virtual makespan / DAG virtual
//!   makespan on the fixed [`VIRTUAL_WORKERS`]-worker reference pool,
//!   computed from per-group *simulated* cycles (the barrier makespan
//!   is `Σ (busy + idle) / VIRTUAL_WORKERS` over passes and jobs; the
//!   DAG makespan subtracts `pipeline_overlap_cycles`). Deterministic
//!   on any host, including single-core CI — this is the always-on
//!   gate.
//! - **wall speedup** — measured wall clock at `workers = max` (one
//!   per core), back-to-back over forest. Meaningful only when the host
//!   has cores to overlap, so its gate follows the `runtime_smoke`
//!   precedent and arms only on multi-core hosts. On the one-job rows
//!   both sides run the same code, so the number is timer noise around
//!   1x. The JSON keeps the column names `BENCH_7.json` was committed
//!   with: `barrier_wall_s` is the back-to-back side.
//!
//! Gates: virtual speedup ≥ 1.3x on the multi-pass SSD batch (and the
//! wall-clock equivalent on hosts with ≥ 4 cores).
//!
//! Usage: `perf_pipeline [out.json]` (default `BENCH_7.json`; the
//! `BONSAI_BENCH_OUT` environment variable overrides the default when
//! no argument is given).

use std::time::Instant;

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, SortReport, VIRTUAL_WORKERS};
use bonsai_bench::perf::{
    bench_json, bench_out_path, ssd_multipass_config, ssd_scale_config, JsonField,
    MULTIPASS_RECORDS,
};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::U32Rec;

/// Jobs in the `ssd_batch` row: enough wide first passes to keep the
/// virtual pool fed through every earlier job's serial tail.
const BATCH_JOBS: usize = 8;

struct Row {
    name: &'static str,
    records: usize,
    jobs: usize,
    passes: u32,
    barrier_wall_s: f64,
    pipelined_wall_s: f64,
    wall_speedup: f64,
    virtual_speedup: f64,
    pipeline_overlap_cycles: u64,
    total_cycles: u64,
}

/// Barrier virtual makespan on the reference pool, from the
/// deterministic utilization counters (`busy + idle` is exactly
/// `VIRTUAL_WORKERS ×` the pass's list-schedule makespan).
fn barrier_virtual_makespan(report: &SortReport) -> u64 {
    report
        .passes
        .iter()
        .map(|p| (p.busy_worker_cycles + p.idle_worker_cycles) / VIRTUAL_WORKERS as u64)
        .sum()
}

fn print_row(row: &Row) {
    println!(
        "{:<14} {:>7} records x{}, {} passes: back to back {:>7.3}s, \
         forest {:>7.3}s ({:.2}x wall, {:.2}x virtual)",
        row.name,
        row.records,
        row.jobs,
        row.passes,
        row.barrier_wall_s,
        row.pipelined_wall_s,
        row.wall_speedup,
        row.virtual_speedup,
    );
}

/// One row: `jobs` equal sorts scheduled as one forest DAG vs the same
/// jobs run back to back, each alone on the DAG.
fn measure(name: &'static str, cfg: SimEngineConfig, records: usize, jobs: usize) -> Row {
    let datasets: Vec<Vec<U32Rec>> = (0..jobs)
        .map(|j| uniform_u32(records, 2026 + j as u64))
        .collect();
    // Interleave the two sides and keep each one's best wall time: min
    // absorbs scheduler noise, interleaving cancels thermal/load drift.
    // workers = 0: one per core, the `workers=max` point of the gate.
    let mut barrier_wall_s = f64::INFINITY;
    let mut pipelined_wall_s = f64::INFINITY;
    let mut outputs = None;
    for _ in 0..5 {
        let start = Instant::now();
        let solo: Vec<(Vec<U32Rec>, SortReport)> = datasets
            .iter()
            .map(|d| SimEngine::new(cfg).sort_pipelined(d.clone(), 0))
            .collect();
        barrier_wall_s = barrier_wall_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let pipelined = SimEngine::new(cfg).sort_batch_pipelined(datasets.clone(), 0);
        pipelined_wall_s = pipelined_wall_s.min(start.elapsed().as_secs_f64());
        outputs = Some((solo, pipelined));
    }
    let (solo, (pipelined, overlap)) = outputs.expect("ran at least once");

    // Every job bit-identical to sorting it alone: same output, same
    // report, except that the overlap belongs to the batch.
    assert_eq!(solo.len(), pipelined.len());
    for (j, ((out_s, rep_s), (out_p, rep_p))) in solo.iter().zip(&pipelined).enumerate() {
        assert_eq!(out_s, out_p, "{name}: job {j} sorted differently");
        assert_eq!(rep_p.pipeline_overlap_cycles, 0, "{name}: job {j}");
        let mut rep_s = rep_s.clone();
        rep_s.pipeline_overlap_cycles = 0;
        assert_eq!(
            &rep_s, rep_p,
            "{name}: job {j} reported different accounting"
        );
    }

    // Both makespans are in simulated cycles: `pipeline_overlap_cycles`
    // is defined as barrier makespan − DAG makespan on the same pool.
    let barrier_virtual: u64 = pipelined
        .iter()
        .map(|(_, r)| barrier_virtual_makespan(r))
        .sum();
    let dag_virtual = barrier_virtual - overlap;
    let row = Row {
        name,
        records,
        jobs,
        passes: pipelined[0].1.stages(),
        barrier_wall_s,
        pipelined_wall_s,
        wall_speedup: barrier_wall_s / pipelined_wall_s,
        virtual_speedup: barrier_virtual as f64 / dag_virtual.max(1) as f64,
        pipeline_overlap_cycles: overlap,
        total_cycles: pipelined.iter().map(|(_, r)| r.total_cycles).sum(),
    };
    print_row(&row);
    row
}

fn render_json(rows: &[Row]) -> String {
    let json_rows: Vec<Vec<(&str, JsonField)>> = rows
        .iter()
        .map(|r| {
            vec![
                ("name", JsonField::Str(r.name.to_string())),
                ("records", JsonField::U64(r.records as u64)),
                ("jobs", JsonField::U64(r.jobs as u64)),
                ("passes", JsonField::U64(u64::from(r.passes))),
                (
                    "barrier_wall_s",
                    JsonField::F64 {
                        value: r.barrier_wall_s,
                        precision: 6,
                    },
                ),
                (
                    "pipelined_wall_s",
                    JsonField::F64 {
                        value: r.pipelined_wall_s,
                        precision: 6,
                    },
                ),
                (
                    "wall_speedup",
                    JsonField::F64 {
                        value: r.wall_speedup,
                        precision: 3,
                    },
                ),
                (
                    "virtual_speedup",
                    JsonField::F64 {
                        value: r.virtual_speedup,
                        precision: 3,
                    },
                ),
                (
                    "pipeline_overlap_cycles",
                    JsonField::U64(r.pipeline_overlap_cycles),
                ),
                ("total_cycles", JsonField::U64(r.total_cycles)),
            ]
        })
        .collect();
    bench_json("perf_pipeline", &json_rows)
}

fn main() {
    let out_path = bench_out_path("BENCH_7.json");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("== perf_pipeline: jobs back to back vs one forest DAG ==");
    // Single-pass shapes: 1024 records / 16-record presorted runs = 64
    // runs on a 64-leaf tree — one pass, one group, nothing to
    // pipeline. The DAG must degenerate gracefully.
    let dram_single = SimEngineConfig::dram_sorter(AmtConfig::new(8, 64), 4);
    let hbm_single = {
        let mut cfg = ssd_scale_config();
        cfg.memory = bonsai_memsim::MemoryConfig::hbm_u50();
        cfg
    };
    let rows = vec![
        measure(
            "ssd_batch",
            ssd_multipass_config(),
            MULTIPASS_RECORDS,
            BATCH_JOBS,
        ),
        measure(
            "ssd_multipass",
            ssd_multipass_config(),
            MULTIPASS_RECORDS,
            1,
        ),
        measure("dram_single", dram_single, 1_024, 1),
        measure("hbm_single", hbm_single, 1_024, 1),
    ];

    let batch = &rows[0];
    let multipass = &rows[1];
    assert!(
        batch.passes >= 3 && multipass.passes >= 3,
        "the SSD shape must be multi-pass, got {} / {}",
        batch.passes,
        multipass.passes
    );
    assert_eq!(rows[2].passes, 1, "dram_single must be single-pass");
    assert_eq!(rows[3].passes, 1, "hbm_single must be single-pass");

    // The always-on gate: deterministic virtual-makespan speedup on the
    // reference pool for the batch workload.
    assert!(
        batch.virtual_speedup >= 1.3,
        "pipelining under 1.3x virtual speedup on the multi-pass SSD batch: {:.3}x",
        batch.virtual_speedup
    );
    // The lone multi-pass sort can't beat its single-root bound, but
    // the DAG must still reclaim *some* straggler idle and never lose.
    assert!(
        multipass.pipeline_overlap_cycles > 0 && multipass.virtual_speedup >= 1.0,
        "a lone multi-pass sort should still overlap stragglers: {:.3}x",
        multipass.virtual_speedup
    );
    // Wall-clock gate arms only where the host can actually overlap
    // groups (runtime_smoke precedent for core-gated perf assertions).
    if cores >= 4 {
        assert!(
            batch.wall_speedup >= 1.3,
            "pipelining under 1.3x wall speedup at workers=max on {cores} cores: {:.3}x",
            batch.wall_speedup
        );
    } else {
        println!(
            "note: {cores} core(s) — wall-clock speedup gate skipped (virtual gate still enforced)"
        );
    }
    for row in &rows[2..] {
        assert_eq!(
            row.pipeline_overlap_cycles, 0,
            "{}: a single-pass sort has nothing to overlap",
            row.name
        );
    }

    std::fs::write(&out_path, render_json(&rows)).expect("write pipeline json");
    println!("gates passed; wrote {out_path}");
}
