//! Adaptive-vs-FIFO scheduling bench: small-job tail latency under a
//! mixed workload, at matched throughput.
//!
//! One fixed job mix — [`BIG_JOBS`] large throughput-class sorts
//! interleaved with [`SMALL_JOBS`] small latency-class sorts, submitted
//! in the same order — runs twice through the same two-worker runtime:
//!
//! - **fifo**: `PassScheduler::Fifo`, which executes every job with
//!   `try_sort_pipelined` on the one submitted shape in strict
//!   submission order. This is the one-shape FIFO baseline.
//! - **adaptive**: the adaptive scheduler — same per-job executor, plus
//!   optimizer-driven shape selection (wide trees for the latency
//!   class, Eq. 5 shapes for the throughput class), the compiled-shape
//!   cache, and the two-lane deadline-aware queue that lets small jobs
//!   overtake queued large ones.
//!
//! Both modes sort one untimed warm-up job first. Beyond the usual
//! allocator warm-up this pins the adaptive planner's modeled device to
//! the steady-state throughput shape, exactly as a long-running service
//! would sit: the measured mix then exercises the keep-vs-reprogram
//! policy from a programmed device rather than from the cold-start
//! corner, where whichever job class happens to plan first would pick
//! the device shape for the whole run.
//!
//! The figure of merit is the small-job submit-to-completion p99: under
//! FIFO a small job queues behind every large job submitted before it,
//! under the adaptive scheduler it overtakes them (bounded by the
//! fairness stride). Gates, armed on hosts with ≥ 4 cores like every
//! wall-clock gate in the suite:
//!
//! - adaptive must cut the small-job p99 by ≥ 1.3x vs FIFO, and
//! - adaptive aggregate throughput must stay ≥ 0.95x of FIFO's
//!   (lane priority must not cost the large jobs their bandwidth).
//!
//! Sorted outputs are verified identical across the two modes on every
//! host (the optimizer may change the shape, never the answer).
//!
//! Usage: `perf_adaptive [out.json]` (default `BENCH_11.json`; the
//! `BONSAI_BENCH_OUT` environment variable overrides the default when
//! no argument is given).

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_bench::perf::{bench_json, bench_out_path, percentile, JsonField};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::U32Rec;
use bonsai_runtime::{AdaptiveStats, PassScheduler, Runtime, RuntimeConfig, SortJob};

/// Large throughput-class jobs per run.
const BIG_JOBS: u64 = 8;

/// Records per large job (well above the latency cutoff).
const BIG_RECORDS: usize = 65_536;

/// Small latency-class jobs per run, interleaved between the large
/// ones ([`SMALL_PER_BIG`] after each).
const SMALL_JOBS: u64 = 24;

/// Records per small job (under the default 4096-record cutoff).
const SMALL_RECORDS: usize = 1_024;

const SMALL_PER_BIG: u64 = SMALL_JOBS / BIG_JOBS;

/// Small-job ids start here so the two classes are distinguishable in
/// the completion stream.
const SMALL_ID_BASE: u64 = 1_000;

/// Id of the untimed warm-up job (outside both id ranges).
const WARMUP_ID: u64 = 999;

/// Workers per runtime: two, so one large job in flight never blocks
/// the whole pool and the contrast is purely scheduling order.
const WORKERS: usize = 2;

struct ModeRun {
    mode: &'static str,
    elapsed_s: f64,
    records_per_s: f64,
    /// Small-job submit-to-completion latency in ms, ascending.
    small_lat_ms: Vec<f64>,
    /// Large-job submit-to-completion latency in ms, ascending.
    big_lat_ms: Vec<f64>,
    stats: AdaptiveStats,
    /// `id → sorted output`, for the cross-mode identity check.
    outputs: HashMap<u64, Vec<U32Rec>>,
}

/// Runs the fixed mix under one scheduler and measures every job's
/// submit-to-completion latency through the reply channel.
fn run_mode(mode: &'static str, scheduler: PassScheduler) -> ModeRun {
    let runtime = Runtime::start(RuntimeConfig {
        workers: WORKERS,
        scheduler,
        // Deeper than the whole mix: submission never blocks, so the
        // measured latency is pure queue wait + service time.
        queue_depth: 64,
        ..RuntimeConfig::default()
    });
    let engine = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);

    // Untimed warm-up (see module docs): one large job completes before
    // the clock starts, so the adaptive planner measures from a
    // programmed device, not from the cold-start corner.
    let (warm_tx, warm_rx) = mpsc::channel();
    runtime
        .submit_with_reply(
            SortJob::new(WARMUP_ID, engine, uniform_u32(BIG_RECORDS, 6_999)),
            warm_tx,
        )
        .expect("runtime open");
    let warm = warm_rx.recv().expect("warm-up completes");
    assert!(warm.result.is_ok(), "warm-up job failed");

    let (tx, rx) = mpsc::channel();
    // Completion instants are stamped the moment each result arrives,
    // off the submission thread.
    let receiver = std::thread::spawn(move || {
        rx.iter()
            .map(|result| (result, Instant::now()))
            .collect::<Vec<_>>()
    });

    let start = Instant::now();
    let mut submitted: HashMap<u64, Instant> = HashMap::new();
    for round in 0..BIG_JOBS {
        let data = uniform_u32(BIG_RECORDS, 7_000 + round);
        submitted.insert(round, Instant::now());
        runtime
            .submit_with_reply(SortJob::new(round, engine, data), tx.clone())
            .expect("runtime open");
        for s in 0..SMALL_PER_BIG {
            let id = SMALL_ID_BASE + round * SMALL_PER_BIG + s;
            let data = uniform_u32(SMALL_RECORDS, 9_000 + id);
            submitted.insert(id, Instant::now());
            runtime
                .submit_with_reply(SortJob::new(id, engine, data), tx.clone())
                .expect("runtime open");
        }
    }
    drop(tx);
    let results = receiver.join().expect("receiver thread");
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = runtime.adaptive_stats();
    let leftover = runtime.finish();
    assert!(
        leftover.is_empty(),
        "all results stream through the reply channel"
    );

    assert_eq!(results.len() as u64, BIG_JOBS + SMALL_JOBS);
    let mut small_lat_ms = Vec::new();
    let mut big_lat_ms = Vec::new();
    let mut outputs = HashMap::new();
    for (result, done_at) in results {
        let sent_at = submitted[&result.id];
        let lat_ms = done_at.duration_since(sent_at).as_secs_f64() * 1e3;
        if result.id >= SMALL_ID_BASE {
            small_lat_ms.push(lat_ms);
        } else {
            big_lat_ms.push(lat_ms);
        }
        let output = result
            .result
            .unwrap_or_else(|e| panic!("{mode}: job {} failed: {e}", result.id));
        outputs.insert(result.id, output.sorted);
    }
    small_lat_ms.sort_unstable_by(f64::total_cmp);
    big_lat_ms.sort_unstable_by(f64::total_cmp);

    let total_records =
        BIG_JOBS as f64 * BIG_RECORDS as f64 + SMALL_JOBS as f64 * SMALL_RECORDS as f64;
    let run = ModeRun {
        mode,
        elapsed_s,
        records_per_s: total_records / elapsed_s.max(1e-9),
        small_lat_ms,
        big_lat_ms,
        stats,
        outputs,
    };
    println!(
        "{mode:<9} {:>6.3}s, {:>11.0} records/sec; small p50 {:>8.3}ms p99 {:>8.3}ms; \
         big p99 {:>8.3}ms; cache {}h/{}m, reprograms {}",
        run.elapsed_s,
        run.records_per_s,
        percentile(&run.small_lat_ms, 50.0),
        percentile(&run.small_lat_ms, 99.0),
        percentile(&run.big_lat_ms, 99.0),
        run.stats.shape_cache_hits,
        run.stats.shape_cache_misses,
        run.stats.reprograms,
    );
    run
}

/// Full latency picture of both modes — printed before a gate panics so
/// the failure shows where the tail moved.
fn print_latency_distributions(runs: &[&ModeRun]) {
    eprintln!("per-mode latency distribution (ms):");
    for r in runs {
        for (class, lat) in [("small", &r.small_lat_ms), ("big", &r.big_lat_ms)] {
            eprintln!(
                "  {:<9} {class:<5}: min {:>9.3}  p50 {:>9.3}  p90 {:>9.3}  p99 {:>9.3}  max {:>9.3}",
                r.mode,
                lat.first().copied().unwrap_or(0.0),
                percentile(lat, 50.0),
                percentile(lat, 90.0),
                percentile(lat, 99.0),
                lat.last().copied().unwrap_or(0.0),
            );
        }
    }
}

fn render_json(fifo: &ModeRun, adaptive: &ModeRun) -> String {
    let mut rows = Vec::new();
    for r in [fifo, adaptive] {
        let mut row = vec![
            ("mode", JsonField::Str(r.mode.into())),
            ("workers", JsonField::U64(WORKERS as u64)),
            ("big_jobs", JsonField::U64(BIG_JOBS)),
            ("big_records", JsonField::U64(BIG_RECORDS as u64)),
            ("small_jobs", JsonField::U64(SMALL_JOBS)),
            ("small_records", JsonField::U64(SMALL_RECORDS as u64)),
            (
                "elapsed_s",
                JsonField::F64 {
                    value: r.elapsed_s,
                    precision: 6,
                },
            ),
            (
                "records_per_s",
                JsonField::F64 {
                    value: r.records_per_s,
                    precision: 0,
                },
            ),
            (
                "small_lat_p50_ms",
                JsonField::F64 {
                    value: percentile(&r.small_lat_ms, 50.0),
                    precision: 3,
                },
            ),
            (
                "small_lat_p99_ms",
                JsonField::F64 {
                    value: percentile(&r.small_lat_ms, 99.0),
                    precision: 3,
                },
            ),
            (
                "big_lat_p99_ms",
                JsonField::F64 {
                    value: percentile(&r.big_lat_ms, 99.0),
                    precision: 3,
                },
            ),
            ("shape_cache_hits", JsonField::U64(r.stats.shape_cache_hits)),
            (
                "shape_cache_misses",
                JsonField::U64(r.stats.shape_cache_misses),
            ),
            ("reprograms", JsonField::U64(r.stats.reprograms)),
        ];
        if r.mode == "adaptive" {
            row.push((
                "small_p99_speedup_vs_fifo",
                JsonField::F64 {
                    value: percentile(&fifo.small_lat_ms, 99.0)
                        / percentile(&r.small_lat_ms, 99.0).max(1e-9),
                    precision: 3,
                },
            ));
            row.push((
                "throughput_ratio_vs_fifo",
                JsonField::F64 {
                    value: r.records_per_s / fifo.records_per_s.max(1e-9),
                    precision: 3,
                },
            ));
        }
        rows.push(row);
    }
    bench_json("perf_adaptive", &rows)
}

fn main() {
    let out_path = bench_out_path("BENCH_11.json");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("== perf_adaptive: adaptive scheduling vs one-shape FIFO ==");
    let fifo = run_mode("fifo", PassScheduler::Fifo);
    let adaptive = run_mode("adaptive", PassScheduler::Adaptive);

    // Identity across modes, every host: different shapes and dispatch
    // order, same sorted output per job.
    assert_eq!(fifo.outputs.len(), adaptive.outputs.len());
    for (id, sorted) in &fifo.outputs {
        assert_eq!(
            sorted, &adaptive.outputs[id],
            "job {id}: adaptive shape selection changed the sorted output"
        );
    }
    // The adaptive run must exercise the machinery it claims to: both
    // lanes populated, at least one cache hit (the mix repeats shapes),
    // and the FIFO baseline reports no adaptive activity at all.
    assert_eq!(fifo.stats, AdaptiveStats::default());
    assert_eq!(adaptive.stats.latency_jobs, SMALL_JOBS);
    // The warm-up job is throughput class too.
    assert_eq!(adaptive.stats.throughput_jobs, BIG_JOBS + 1);
    assert!(adaptive.stats.shape_cache_hits > 0, "{:?}", adaptive.stats);
    assert!(adaptive.stats.reprograms >= 1, "{:?}", adaptive.stats);

    let small_speedup =
        percentile(&fifo.small_lat_ms, 99.0) / percentile(&adaptive.small_lat_ms, 99.0).max(1e-9);
    let throughput_ratio = adaptive.records_per_s / fifo.records_per_s.max(1e-9);
    println!("small-job p99 speedup {small_speedup:.2}x at {throughput_ratio:.2}x FIFO throughput");

    // The scheduling gates are wall clock, so they arm only where
    // parallel dispatch is possible at all (≥ 4 cores, like every
    // wall-clock gate in the suite).
    if cores >= 4 {
        if small_speedup < 1.3 || throughput_ratio < 0.95 {
            print_latency_distributions(&[&fifo, &adaptive]);
            panic!(
                "adaptive gate failed on a {cores}-core host: small-job p99 speedup \
                 {small_speedup:.2}x (need >= 1.3x), throughput ratio {throughput_ratio:.2}x \
                 (need >= 0.95x)"
            );
        }
        println!("gate passed: >= 1.3x small-job p99 at >= 0.95x throughput");
    } else {
        println!(
            "note: {cores}-core host, adaptive gate not armed \
             (verification ran on both modes)"
        );
    }

    let json = render_json(&fifo, &adaptive);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
