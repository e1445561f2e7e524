//! Parallel-throughput smoke bench for the batch sort runtime.
//!
//! CI gate for the batch runtime: sorts the same batch of jobs with a
//! single worker and with one worker per core, verifies the results are
//! bit-identical (the determinism contract), and — on a multi-core host
//! — fails if the multi-worker runtime is slower than single-threaded
//! on the DRAM config. On the HBM config it reports the speedup the
//! acceptance bar measures on a ≥ 4-core host.
//!
//! Usage: `runtime_smoke [jobs] [records_per_job] [workers]`
//! (defaults 8 × 60 000 on one worker per core). The serial/parallel
//! rows — wall time, jobs/sec and per-job latency p50/p99 — are also
//! written as `BENCH_10.json` (the `BONSAI_BENCH_OUT` environment
//! variable overrides the path).

use std::time::{Duration, Instant};

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, VIRTUAL_WORKERS};
use bonsai_bench::perf::{
    assert_fast_forward_gate, bench_json, percentile, resolve_bench_out, ssd_multipass_config,
    ssd_scale_config, stepped_cycle_ratio, JsonField, MULTIPASS_RECORDS,
};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::MemoryConfig;
use bonsai_records::U32Rec;
use bonsai_runtime::{JobOutput, Runtime, RuntimeConfig, SortJob};

/// One serial-or-parallel batch run, as a `BENCH_10.json` row.
struct SmokeRow {
    config: &'static str,
    workers: usize,
    jobs: u64,
    records: usize,
    elapsed_s: f64,
    /// Per-job submit-to-completion latency in milliseconds, ascending.
    latencies_ms: Vec<f64>,
}

/// Sorts `jobs` copies of `data` under `cfg` on `workers` threads,
/// returning the batch wall time, every job's output, and each job's
/// own wall time (ascending, in milliseconds).
fn run_batch(
    cfg: SimEngineConfig,
    data: &[U32Rec],
    jobs: u64,
    workers: usize,
) -> (Duration, Vec<JobOutput<U32Rec>>, Vec<f64>) {
    let runtime = Runtime::start(RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    });
    let start = Instant::now();
    for id in 0..jobs {
        runtime
            .submit(SortJob::new(id, cfg, data.to_vec()))
            .expect("runtime open");
    }
    let results = runtime.finish();
    let wall = start.elapsed();
    let mut latencies_ms: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    latencies_ms.sort_unstable_by(f64::total_cmp);
    let outputs = results
        .into_iter()
        .map(|r| r.result.unwrap_or_else(|e| panic!("job failed: {e}")))
        .collect();
    (wall, outputs, latencies_ms)
}

/// One config's smoke run: serial vs parallel wall time, with the
/// determinism check. Returns `(serial_s, parallel_s)` and pushes both
/// runs onto `rows` for the JSON report.
fn smoke(
    name: &'static str,
    cfg: SimEngineConfig,
    data: &[U32Rec],
    jobs: u64,
    cores: usize,
    rows: &mut Vec<SmokeRow>,
) -> (f64, f64) {
    let (wall_1, out_1, lat_1) = run_batch(cfg, data, jobs, 1);
    let (wall_n, out_n, lat_n) = run_batch(cfg, data, jobs, cores);
    assert_eq!(
        out_1, out_n,
        "{name}: runtime output depends on worker count"
    );
    let (s, p) = (wall_1.as_secs_f64(), wall_n.as_secs_f64());
    println!(
        "{name:<12} {jobs} jobs x {} records: 1 worker {s:>7.3}s, {cores} workers {p:>7.3}s ({:.2}x) \
         [job p50 {:.3}ms p99 {:.3}ms]",
        data.len(),
        s / p,
        percentile(&lat_n, 50.0),
        percentile(&lat_n, 99.0),
    );
    for (workers, elapsed_s, latencies_ms) in [(1, s, lat_1), (cores, p, lat_n)] {
        rows.push(SmokeRow {
            config: name,
            workers,
            jobs,
            records: data.len(),
            elapsed_s,
            latencies_ms,
        });
    }
    (s, p)
}

fn render_json(rows: &[SmokeRow]) -> String {
    let json_rows: Vec<Vec<(&str, JsonField)>> = rows
        .iter()
        .map(|r| {
            vec![
                ("config", JsonField::Str(r.config.into())),
                ("workers", JsonField::U64(r.workers as u64)),
                ("jobs", JsonField::U64(r.jobs)),
                ("records", JsonField::U64(r.records as u64)),
                (
                    "elapsed_s",
                    JsonField::F64 {
                        value: r.elapsed_s,
                        precision: 6,
                    },
                ),
                (
                    "jobs_per_s",
                    JsonField::F64 {
                        value: r.jobs as f64 / r.elapsed_s.max(1e-9),
                        precision: 1,
                    },
                ),
                (
                    "lat_p50_ms",
                    JsonField::F64 {
                        value: percentile(&r.latencies_ms, 50.0),
                        precision: 3,
                    },
                ),
                (
                    "lat_p99_ms",
                    JsonField::F64 {
                        value: percentile(&r.latencies_ms, 99.0),
                        precision: 3,
                    },
                ),
            ]
        })
        .collect();
    bench_json("runtime_smoke", &json_rows)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let records: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60_000);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = args
        .next()
        .and_then(|a| a.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(cores);
    let data = uniform_u32(records, 2024);

    println!("== runtime_smoke ({cores} core(s), {workers} worker(s)) ==");
    let mut rows = Vec::new();
    let dram = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let (serial, parallel) = smoke("dram", dram, &data, jobs, workers, &mut rows);
    let hbm = SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::hbm_u50());
    smoke("hbm", hbm, &data, jobs, workers, &mut rows);

    // The positional CLI args are workload numbers, so the JSON path is
    // env-only here (unlike the `[out.json]` benches).
    let out_path = resolve_bench_out(
        None,
        std::env::var("BONSAI_BENCH_OUT").ok(),
        "BENCH_10.json",
    );
    std::fs::write(&out_path, render_json(&rows)).expect("write bench json");
    println!("wrote {out_path}");

    // Worker-utilization observability: one multi-pass job through the
    // runtime, reporting each pass's busy vs idle worker time on the
    // deterministic virtual reference pool and the
    // pipeline_overlap_cycles the DAG reclaimed from a per-pass barrier.
    let runtime = Runtime::start(RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    });
    runtime
        .submit(SortJob::new(
            0,
            ssd_multipass_config(),
            uniform_u32(MULTIPASS_RECORDS, 2026),
        ))
        .expect("runtime open");
    let report = runtime
        .finish()
        .remove(0)
        .result
        .unwrap_or_else(|e| panic!("utilization smoke job failed: {e}"))
        .report;
    println!(
        "pipelined    {} records, {} passes on the {VIRTUAL_WORKERS}-worker reference pool:",
        MULTIPASS_RECORDS,
        report.stages()
    );
    for p in &report.passes {
        let total = p.busy_worker_cycles + p.idle_worker_cycles;
        println!(
            "  stage {}: {:>4} groups, busy {:>9} idle {:>9} cycles ({:>5.1}% utilized)",
            p.stage,
            p.runs_out,
            p.busy_worker_cycles,
            p.idle_worker_cycles,
            100.0 * p.busy_worker_cycles as f64 / total.max(1) as f64,
        );
    }
    println!(
        "  pipeline_overlap_cycles {} (barrier-makespan cycles the DAG reclaimed)",
        report.pipeline_overlap_cycles
    );
    assert!(
        report.stages() >= 3 && report.pipeline_overlap_cycles > 0,
        "the utilization smoke must overlap a multi-pass shape: {report:?}"
    );

    // Fast-forward perf smoke: on the SSD-scale shape the event-driven
    // fast path must step at most one simulated cycle in 20 (the
    // deterministic ratio; the full perf_baseline gates its larger
    // input at one in 40) and not be slower than the reference
    // per-cycle loop, while agreeing with it bit for bit.
    let ssd = ssd_scale_config();
    let ssd_data = uniform_u32(100_000, 77);
    let start = Instant::now();
    let (out_ref, rep_ref) = SimEngine::new(ssd)
        .with_reference_loop(true)
        .sort(ssd_data.clone());
    let wall_ref = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (out_fast, rep_fast) = SimEngine::new(ssd)
        .with_reference_loop(false)
        .sort(ssd_data);
    let wall_fast = start.elapsed().as_secs_f64();
    assert_eq!(out_ref, out_fast, "ssd smoke: paths sorted differently");
    assert_eq!(
        rep_ref.normalized(),
        rep_fast.clone().normalized(),
        "ssd smoke: paths reported different accounting"
    );
    println!(
        "ssd_scale    fast-forward smoke: reference {wall_ref:>7.3}s, fast {wall_fast:>7.3}s ({:.2}x), \
         one cycle in {:.1} stepped",
        wall_ref / wall_fast,
        stepped_cycle_ratio(&rep_fast)
    );
    assert_fast_forward_gate("ssd smoke", &rep_fast, wall_ref, wall_fast, 20.0);
    println!("gate passed: the fast path collapses the SSD-scale smoke and is not slower");

    if cores < 2 {
        println!("single-core host: skipping the speedup gate");
        return;
    }
    // The gate the satellite demands: N workers must not be slower than
    // one on the DRAM config. 10% slack absorbs scheduler noise.
    assert!(
        parallel <= serial * 1.10,
        "parallel runtime is slower than single-threaded: {parallel:.3}s vs {serial:.3}s"
    );
    println!("gate passed: {workers}-worker batch is not slower than single-threaded");
}
