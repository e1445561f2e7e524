//! End-to-end behavior of the adaptive scheduler: per-job shape
//! selection, compiled-shape cache observability, cached-vs-cold
//! equivalence through the runtime, deadline-lane dispatch order, and
//! what the two together buy a mixed load in simulated time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bonsai_amt::{AmtConfig, SimEngineConfig, SortReport};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::{Record, U32Rec};
use bonsai_runtime::{
    AdaptiveStats, ClassQueue, Classed, JobClass, PassScheduler, Runtime, RuntimeConfig, SortJob,
};

fn dram_cfg() -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4)
}

fn adaptive_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        scheduler: PassScheduler::Adaptive,
        ..RuntimeConfig::default()
    }
}

#[test]
fn adaptive_sorts_correctly_and_cuts_passes_for_latency_jobs() {
    let data = uniform_u32(50_000, 5);
    let fifo = {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            scheduler: PassScheduler::Fifo,
            ..RuntimeConfig::default()
        });
        runtime
            .submit(SortJob::new(0, dram_cfg(), data.clone()))
            .expect("open");
        runtime.finish().remove(0).result.expect("sorts")
    };
    let adaptive = {
        // Classify the job latency-bound: the latency-optimal design is
        // the wide tree (fewer merge passes); the throughput-optimal one
        // trades tree width for fabric copies and keeps the pass count.
        let mut config = adaptive_config(1);
        config.adaptive.small_job_records = 100_000;
        let runtime = Runtime::start(config);
        runtime
            .submit(SortJob::new(0, dram_cfg(), data.clone()))
            .expect("open");
        runtime.finish().remove(0).result.expect("sorts")
    };
    assert_eq!(fifo.sorted, adaptive.sorted, "same sorted output");
    // 50 000 records in 16-record runs is 3125 runs: AMT(4,16) needs 3
    // merge passes, the optimizer's wide tree strictly fewer.
    assert!(
        adaptive.report.passes.len() < fifo.report.passes.len(),
        "adaptive must reduce pass count ({} vs {})",
        adaptive.report.passes.len(),
        fifo.report.passes.len()
    );
}

#[test]
fn cache_counters_ride_the_reports_and_aggregate_on_stats() {
    let runtime = Runtime::start(adaptive_config(1));
    let data = uniform_u32(10_000, 11);
    for id in 0..3 {
        runtime
            .submit(SortJob::new(id, dram_cfg(), data.clone()))
            .expect("open");
    }
    let results = runtime.finish();
    assert_eq!(results.len(), 3);
    let reports: Vec<&SortReport> = results
        .iter()
        .map(|r| &r.result.as_ref().expect("sorts").report)
        .collect();
    // One worker: the first identical job compiles, the rest hit.
    assert_eq!(
        (reports[0].shape_cache_hits, reports[0].shape_cache_misses),
        (0, 1)
    );
    for report in &reports[1..] {
        assert_eq!((report.shape_cache_hits, report.shape_cache_misses), (1, 0));
    }
}

#[test]
fn adaptive_stats_snapshot_counts_lanes_hits_and_reprograms() {
    let mut config = adaptive_config(1);
    config.adaptive.small_job_records = 1_000;
    let runtime = Runtime::start(config);
    let small = uniform_u32(500, 2);
    let big = uniform_u32(20_000, 3);
    assert_eq!(runtime.classify(small.len()), JobClass::Latency);
    assert_eq!(runtime.classify(big.len()), JobClass::Throughput);
    for id in 0..2 {
        runtime
            .submit(SortJob::new(id, dram_cfg(), small.clone()))
            .expect("open");
        runtime
            .submit(SortJob::new(10 + id, dram_cfg(), big.clone()))
            .expect("open");
    }
    // Wait for the queue to drain so the snapshot covers all 4 jobs.
    while runtime.pending() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    let stats = runtime.adaptive_stats();
    assert_eq!(stats.latency_jobs + stats.throughput_jobs, 4);
    assert_eq!(stats.latency_jobs, 2);
    assert_eq!(stats.shape_cache_hits + stats.shape_cache_misses, 4);
    assert!(stats.shape_cache_misses >= 1);
    assert!(stats.reprograms >= 1, "first plan programs the device");
    let results = runtime.finish();
    assert!(results.iter().all(|r| r.result.is_ok()));
}

#[test]
fn fifo_runtimes_report_zero_adaptive_stats() {
    let runtime = Runtime::<U32Rec>::start(RuntimeConfig {
        workers: 1,
        scheduler: PassScheduler::Fifo,
        ..RuntimeConfig::default()
    });
    assert_eq!(runtime.adaptive_stats(), Default::default());
    let _ = runtime.finish();
}

#[test]
fn cache_hit_jobs_are_bit_identical_to_the_cold_job() {
    // Same job through one adaptive runtime, serialized on one worker:
    // the first pays the compile (miss), the rest hit the cache. Output
    // and report must be bit-identical modulo the cache counters
    // (asserted directly above the comparison) — at one, two and
    // all-cores pass workers.
    for pass_workers in [1usize, 2, 0] {
        let mut config = adaptive_config(1);
        config.pass_workers = pass_workers;
        let runtime = Runtime::start(config);
        let data = uniform_u32(15_000, 42);
        for id in 0..3 {
            runtime
                .submit(SortJob::new(id, dram_cfg(), data.clone()))
                .expect("open");
        }
        let results = runtime.finish();
        let cold = results[0].result.as_ref().expect("sorts");
        assert_eq!(cold.report.shape_cache_misses, 1);
        for hit in &results[1..] {
            let hit = hit.result.as_ref().expect("sorts");
            assert_eq!(hit.report.shape_cache_hits, 1, "must be a cache hit");
            assert_eq!(cold.sorted, hit.sorted, "pass_workers={pass_workers}");
            assert_eq!(
                (
                    cold.report.fast_forwarded_cycles,
                    cold.report.pipeline_overlap_cycles
                ),
                (
                    hit.report.fast_forwarded_cycles,
                    hit.report.pipeline_overlap_cycles
                ),
                "only the cache counters may differ (pass_workers={pass_workers})"
            );
            assert_eq!(
                cold.report.clone().normalized(),
                hit.report.clone().normalized(),
                "cached shape changed the datapath (pass_workers={pass_workers})"
            );
        }
    }
}

/// A record whose comparison parks until the gate opens — pins the
/// single worker deterministically so queued dispatch order can be
/// observed without racing the submitter.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct GateRec(u32);

static GATE_OPEN: AtomicBool = AtomicBool::new(false);

impl PartialOrd for GateRec {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GateRec {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        while !GATE_OPEN.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.0.cmp(&other.0)
    }
}

impl Record for GateRec {
    type Key = u32;
    const WIDTH_BYTES: usize = 4;
    const TERMINAL: Self = GateRec(0);
    const MAX: Self = GateRec(u32::MAX);

    fn key(&self) -> u32 {
        self.0
    }

    fn sanitize(self) -> Self {
        if self.0 == 0 {
            GateRec(1)
        } else {
            self
        }
    }
}

#[test]
fn latency_jobs_overtake_queued_throughput_jobs() {
    let mut config = adaptive_config(1);
    config.adaptive.small_job_records = 1_000;
    config.queue_depth = 8;
    let runtime = Runtime::start(config);
    let (tx, rx) = std::sync::mpsc::channel();
    let gated: Vec<GateRec> = (0..64u32).map(|i| GateRec(i | 1)).collect();
    let big: Vec<GateRec> = (0..2_000u32)
        .map(|i| GateRec(i.wrapping_mul(7) | 1))
        .collect();
    let small: Vec<GateRec> = (0..100u32)
        .map(|i| GateRec(i.wrapping_mul(3) | 1))
        .collect();
    // Job 0 pins the worker at its first comparison; 1 (throughput
    // class) and 2 (latency class) queue behind it in that order.
    runtime
        .submit_with_reply(SortJob::new(0, dram_cfg(), gated), tx.clone())
        .expect("open");
    runtime
        .submit_with_reply(SortJob::new(1, dram_cfg(), big), tx.clone())
        .expect("open");
    runtime
        .submit_with_reply(SortJob::new(2, dram_cfg(), small), tx.clone())
        .expect("open");
    while runtime.pending() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    GATE_OPEN.store(true, Ordering::SeqCst);
    drop(tx);
    let completion_order: Vec<u64> = rx
        .iter()
        .map(|r| {
            assert!(r.result.is_ok());
            r.id
        })
        .collect();
    assert_eq!(
        completion_order,
        vec![0, 2, 1],
        "the latency-class job must overtake the queued throughput job"
    );
    let _ = runtime.finish();
}

/// A queued job of the mixed load: its index in submission order.
struct Queued(usize, JobClass);

impl Classed for Queued {
    fn job_class(&self) -> JobClass {
        self.1
    }
}

/// One mixed load — 8 jobs of 65 536 records, each followed by 3 of
/// 1 024, all queued at time 0 behind one warm-up job that has already
/// programmed the modeled device — on two workers under `scheduler`, in
/// simulated cycles. A job costs the `total_cycles` the runtime reports
/// for it, the order is what the runtime's own queue dispatches, and a
/// free worker takes the next job. Returns the slowest small job's
/// completion (the nearest-rank p99 of 24), the makespan, every sorted
/// output in submission order and the adaptive counters.
fn mixed_load_in_virtual_time(
    scheduler: PassScheduler,
) -> (u64, u64, Vec<Vec<U32Rec>>, AdaptiveStats) {
    let config = RuntimeConfig {
        workers: 1,
        scheduler,
        queue_depth: 64,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::start(config);
    // One job at a time, so the planner sees them in submission order.
    let (tx, rx) = std::sync::mpsc::channel();
    let sort = |data: Vec<U32Rec>| {
        runtime
            .submit_with_reply(SortJob::new(0, dram_cfg(), data), tx.clone())
            .expect("open");
        rx.recv().expect("replies").result.expect("sorts")
    };
    sort(uniform_u32(65_536, 6_999));
    let (mut cycles, mut outputs) = (Vec::new(), Vec::new());
    let queue = ClassQueue::<Queued>::new(config.queue_depth, config.adaptive.fairness_stride);
    for round in 0..8u64 {
        let smalls = (0..3).map(|s| uniform_u32(1_024, 10_000 + round * 3 + s));
        for data in std::iter::once(uniform_u32(65_536, 7_000 + round)).chain(smalls) {
            let class = runtime.classify(data.len());
            assert!(queue.push(Queued(cycles.len(), class)).is_ok());
            let output = sort(data);
            cycles.push(output.report.total_cycles);
            outputs.push(output.sorted);
        }
    }
    let stats = runtime.adaptive_stats();
    let _ = runtime.finish();

    queue.close();
    let mut free_at = [0u64; 2];
    let mut slowest_small = 0;
    while let Some(Queued(job, _)) = queue.pop() {
        let worker = free_at.iter_mut().min().expect("two workers");
        *worker += cycles[job];
        if outputs[job].len() == 1_024 {
            slowest_small = slowest_small.max(*worker);
        }
    }
    (slowest_small, free_at[0].max(free_at[1]), outputs, stats)
}

#[test]
fn adaptive_cuts_small_job_tail_at_no_cost_in_makespan() {
    let (fifo_p99, fifo_makespan, fifo_out, fifo_stats) =
        mixed_load_in_virtual_time(PassScheduler::Fifo);
    let (p99, makespan, out, stats) = mixed_load_in_virtual_time(PassScheduler::Adaptive);
    // The optimizer may change the shape and the lanes the order, never
    // the answer.
    assert_eq!(fifo_out, out);
    assert_eq!(fifo_stats, AdaptiveStats::default());
    // The warm-up job is throughput class too.
    assert_eq!((stats.latency_jobs, stats.throughput_jobs), (24, 9));
    assert!(stats.shape_cache_hits >= 1, "{stats:?}");
    assert!(stats.reprograms >= 1, "{stats:?}");
    // Small jobs overtake queued large ones, 2.762x on their tail, and
    // the optimizer's shapes finish the whole load 1.456x sooner.
    assert_eq!((fifo_p99, fifo_makespan), (324_566, 324_745));
    assert_eq!((p99, makespan), (117_501, 223_047));
}
