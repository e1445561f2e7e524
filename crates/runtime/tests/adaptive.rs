//! End-to-end behavior of the adaptive scheduler: per-job shape
//! selection, compiled-shape cache observability, cached-vs-cold
//! equivalence through the runtime, deadline-lane dispatch order,
//! lending a running throughput job's worker to latency jobs, and what
//! the lanes and shapes together buy a mixed load in simulated time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::{Record, U32Rec};
use bonsai_runtime::{
    AdaptiveStats, ClassQueue, Classed, JobClass, JobError, JobOutput, JobResult, PassScheduler,
    Runtime, RuntimeConfig, SortJob,
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

/// Sorts `jobs` on `runtime`, each submitted once the one before it has
/// replied: every job alone on the worker, the planner seeing them in
/// order. Returns the outputs in that order.
fn sort_in_turn<R: Record>(
    runtime: &Runtime<R>,
    jobs: impl IntoIterator<Item = Vec<R>>,
) -> Vec<Result<JobOutput<R>, JobError>> {
    let (tx, rx) = mpsc::channel();
    jobs.into_iter()
        .map(|data| {
            runtime
                .submit_with_reply(SortJob::new(0, dram_cfg(), data), tx.clone())
                .expect("open");
            rx.recv().expect("replies").result
        })
        .collect()
}

/// Sorts `data` once on a fresh runtime of `config`.
fn sort_once(config: RuntimeConfig, data: &[U32Rec]) -> JobOutput<U32Rec> {
    let runtime = Runtime::start(config);
    let output = sort_in_turn(&runtime, [data.to_vec()]).remove(0);
    runtime.finish();
    output.expect("sorts")
}

#[test]
fn adaptive_sorts_correctly_and_cuts_passes_for_latency_jobs() {
    // At the latency cutoff: the largest job that is latency class.
    let data = uniform_u32(4_096, 5);
    let fifo = sort_once(
        RuntimeConfig {
            workers: 1,
            scheduler: PassScheduler::Fifo,
            ..RuntimeConfig::default()
        },
        &data,
    );
    // A latency-class job: the latency-optimal design is the wide tree
    // (fewer merge passes); the throughput-optimal one trades tree width
    // for fabric copies and keeps the pass count.
    let adaptive = sort_once(adaptive_config(1), &data);
    assert_eq!(fifo.sorted, adaptive.sorted, "same sorted output");
    // 4 096 records in 16-record runs is 256 runs: AMT(4,16) needs 2
    // merge passes, the optimizer's wide tree strictly fewer.
    assert!(
        adaptive.report.passes.len() < fifo.report.passes.len(),
        "adaptive must reduce pass count ({} vs {})",
        adaptive.report.passes.len(),
        fifo.report.passes.len()
    );
}

#[test]
fn jobs_of_at_most_4096_records_are_latency_class() {
    let adaptive = Runtime::<U32Rec>::start(adaptive_config(1));
    assert_eq!(adaptive.classify(0), JobClass::Latency);
    assert_eq!(adaptive.classify(4_096), JobClass::Latency);
    assert_eq!(adaptive.classify(4_097), JobClass::Throughput);
    let fifo = Runtime::<U32Rec>::start(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    for records in [0, 4_096, 4_097, 1 << 20] {
        assert_eq!(fifo.classify(records), JobClass::Latency, "{records}");
    }
}

#[test]
fn adaptive_stats_snapshot_counts_lanes_hits_and_reprograms() {
    let runtime = Runtime::start(adaptive_config(1));
    let small = uniform_u32(500, 2);
    let big = uniform_u32(20_000, 3);
    assert_eq!(runtime.classify(small.len()), JobClass::Latency);
    assert_eq!(runtime.classify(big.len()), JobClass::Throughput);
    let (tx, rx) = mpsc::channel();
    for id in 0..2 {
        runtime
            .submit_with_reply(SortJob::new(id, dram_cfg(), small.clone()), tx.clone())
            .expect("open");
        runtime
            .submit_with_reply(SortJob::new(10 + id, dram_cfg(), big.clone()), tx.clone())
            .expect("open");
    }
    // Every job has replied, so the snapshot covers all 4.
    drop(tx);
    assert!(rx.iter().all(|r| r.result.is_ok()));
    let stats = runtime.adaptive_stats();
    assert_eq!(stats.latency_jobs + stats.throughput_jobs, 4);
    assert_eq!(stats.latency_jobs, 2);
    assert_eq!(stats.shape_cache_hits + stats.shape_cache_misses, 4);
    assert!(stats.shape_cache_misses >= 1);
    assert!(stats.reprograms >= 1, "first plan programs the device");
    runtime.finish();
}

#[test]
fn fifo_runtimes_report_zero_adaptive_stats() {
    let runtime = Runtime::<U32Rec>::start(RuntimeConfig {
        workers: 1,
        scheduler: PassScheduler::Fifo,
        ..RuntimeConfig::default()
    });
    assert_eq!(runtime.adaptive_stats(), Default::default());
    runtime.finish();
}

#[test]
fn cache_hit_jobs_are_bit_identical_to_the_cold_job() {
    // Same job through one adaptive runtime, one at a time on one
    // worker: the first pays the compile (miss), the rest hit the cache.
    // The cache tally lives in the stats alone, so the outputs, reports
    // included, are equal as they stand.
    let runtime = Runtime::start(adaptive_config(1));
    let data = uniform_u32(15_000, 42);
    let outputs = sort_in_turn(&runtime, vec![data; 3]);
    let stats = runtime.adaptive_stats();
    assert_eq!((stats.shape_cache_hits, stats.shape_cache_misses), (2, 1));
    runtime.finish();
    let cold = outputs[0].as_ref().expect("sorts");
    for hit in &outputs[1..] {
        assert_eq!(
            hit.as_ref().expect("sorts"),
            cold,
            "cached shape changed the datapath"
        );
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
    config.queue_depth = 8;
    let runtime = Runtime::start(config);
    let (tx, rx) = mpsc::channel();
    let gated: Vec<GateRec> = (0..64u32).map(|i| GateRec(i | 1)).collect();
    // Above the 4 096-record latency cutoff: throughput class.
    let big: Vec<GateRec> = (0..5_000u32)
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
    runtime.finish();
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
    let (tx, rx) = mpsc::channel();
    let sort = |data: Vec<U32Rec>| {
        runtime
            .submit_with_reply(SortJob::new(0, dram_cfg(), data), tx.clone())
            .expect("open");
        rx.recv().expect("replies").result.expect("sorts")
    };
    sort(uniform_u32(65_536, 6_999));
    let (mut cycles, mut outputs) = (Vec::new(), Vec::new());
    // The runtime's own fairness stride.
    let queue = ClassQueue::<Queued>::new(config.queue_depth, 4);
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
    runtime.finish();

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

/// Sorts `jobs` in turn on a fresh one-worker adaptive runtime.
fn solo_runs<R: Record>(jobs: &[Vec<R>]) -> Vec<Result<JobOutput<R>, JobError>> {
    sort_in_turn(&Runtime::start(adaptive_config(1)), jobs.to_vec())
}

/// On a fresh one-worker runtime under `scheduler`: submits `big` as
/// job 0, waits until the worker has claimed it, then submits `small`
/// as job 1. Returns both replies in completion order, once the runtime
/// has been dropped.
fn small_after_claimed_big<R: Record>(
    scheduler: PassScheduler,
    big: Vec<R>,
    small: Vec<R>,
) -> Vec<JobResult<R>> {
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        scheduler,
        ..RuntimeConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    runtime
        .submit_with_reply(SortJob::new(0, dram_cfg(), big), tx.clone())
        .expect("open");
    while runtime.pending() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    runtime
        .submit_with_reply(SortJob::new(1, dram_cfg(), small), tx)
        .expect("open");
    let replies = rx.iter().take(2).collect();
    drop(runtime);
    replies
}

fn ids<R>(replies: &[JobResult<R>]) -> Vec<u64> {
    replies.iter().map(|r| r.id).collect()
}

#[test]
fn a_small_job_runs_inside_a_claimed_large_one_and_sorts_as_it_would_alone() {
    let jobs = [uniform_u32(65_536, 71), uniform_u32(1_024, 72)];
    let replies =
        small_after_claimed_big(PassScheduler::Adaptive, jobs[0].clone(), jobs[1].clone());
    assert_eq!(ids(&replies), [1, 0], "the small job replies first");
    let solo = solo_runs(&jobs);
    for reply in replies {
        let got = reply.result.expect("sorts");
        let want = solo[reply.id as usize].as_ref().expect("sorts");
        assert_eq!(&got, want, "job {}", reply.id);
    }
    // Under `Fifo` every job is latency class, and nothing lends.
    let fifo = small_after_claimed_big(PassScheduler::Fifo, jobs[0].clone(), jobs[1].clone());
    assert_eq!(ids(&fifo), [0, 1], "a Fifo job never lends its worker");
}

/// A record whose comparison panics on a poison value: a job that blows
/// up mid-sort.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct PanicRec(u32);

const POISON: u32 = 0xDEAD_BEEF;

impl PartialOrd for PanicRec {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PanicRec {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        assert!(
            self.0 != POISON && other.0 != POISON,
            "poisoned record reached the datapath"
        );
        self.0.cmp(&other.0)
    }
}

impl Record for PanicRec {
    type Key = u32;
    const WIDTH_BYTES: usize = 4;
    const TERMINAL: Self = PanicRec(0);
    const MAX: Self = PanicRec(u32::MAX);

    fn key(&self) -> u32 {
        self.0
    }

    fn sanitize(self) -> Self {
        if self.0 == 0 {
            PanicRec(1)
        } else {
            self
        }
    }
}

/// Thread count of this process via /proc (Linux-only; 0 elsewhere,
/// which passes the check trivially).
fn count_own_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[test]
fn a_panicking_lent_job_fails_alone_and_leaks_no_thread() {
    let threads = count_own_threads();
    let records = |n: u32, seed: u32| -> Vec<PanicRec> {
        (0..n)
            .map(|i| PanicRec((i ^ seed).wrapping_mul(2_654_435_761) | 1))
            .collect()
    };
    let big = records(20_000, 3);
    let mut small = records(1_024, 5);
    small[512] = PanicRec(POISON);
    let mut replies = small_after_claimed_big(PassScheduler::Adaptive, big.clone(), small);
    assert_eq!(ids(&replies), [1, 0], "the poisoned job ran lent");
    match &replies[0].result {
        Err(JobError::Panic(message)) => assert!(message.contains("poisoned record"), "{message}"),
        other => panic!("expected JobError::Panic, got {other:?}"),
    }
    let got = replies.remove(1).result.expect("the lending job survives");
    let want = solo_runs(&[big]).remove(0).expect("sorts");
    assert_eq!(got, want);
    // Other tests run concurrently in this process: wait for the count
    // to come back down rather than demanding it at once.
    let deadline = Instant::now() + Duration::from_secs(60);
    while count_own_threads() > threads {
        assert!(Instant::now() < deadline, "drop must join every worker");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_large_job_lends_at_most_a_quarter_of_its_own_time() {
    let runtime = Arc::new(Runtime::start(adaptive_config(1)));
    let (tx, rx) = mpsc::channel();
    let big_id = u64::MAX;
    let submitted = Instant::now();
    runtime
        .submit_with_reply(
            SortJob::new(big_id, dram_cfg(), uniform_u32(65_536, 81)),
            tx.clone(),
        )
        .expect("open");
    while runtime.pending() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // A steady latency stream: the feeder keeps the queue full until
    // the large job has replied.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let (runtime, stop) = (Arc::clone(&runtime), Arc::clone(&stop));
        std::thread::spawn(move || {
            for id in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                runtime
                    .submit_with_reply(
                        SortJob::new(id, dram_cfg(), uniform_u32(1_024, id)),
                        tx.clone(),
                    )
                    .expect("open");
            }
        })
    };
    // One worker: every small job that replies before the large one ran
    // lent inside it.
    let mut lent = Vec::new();
    let big = loop {
        let reply = rx.recv().expect("replies");
        if reply.id == big_id {
            break reply;
        }
        lent.push(reply.wall);
    };
    let observed = submitted.elapsed();
    stop.store(true, Ordering::SeqCst);
    feeder.join().expect("feeder");
    big.result.expect("sorts");
    let (total, largest) = (lent.iter().sum::<Duration>(), lent.iter().max());
    let largest = *largest.expect("a steady latency stream is lent to");
    // The large job's wall is its own time: it excludes what it lent.
    assert!(big.wall + total <= observed, "{:?} + {total:?}", big.wall);
    assert!(
        total <= big.wall / 4 + largest,
        "lent {total:?} in {} jobs against own {:?}",
        lent.len(),
        big.wall
    );
}
