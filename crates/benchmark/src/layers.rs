//! Single layers timed from outside through their public functions,
//! and the simulated counts folded out of `SortReport`s. Everything
//! here is called from the traced run (the counts also after the
//! untraced one); nothing in the measured programs is edited to make
//! it easier to time.

use std::hint::black_box;
use std::time::Instant;

use bonsai_amt::functional::{kway_merge, sort_balanced};
use bonsai_amt::{
    loser_tree_merge, CompiledShape, ShapeCache, SimEngine, SimEngineConfig, SortReport,
};
use bonsai_baselines::radix::parallel_radix_sort;
use bonsai_bitonic::Presorter;
use bonsai_memsim::MemoryConfig;
use bonsai_model::reconfig::ReconfigPlanner;
use bonsai_model::{perf, ArrayParams, BonsaiOptimizer, HardwareParams};
use bonsai_records::U32Rec;
use bonsai_sorters::DramSorter;

use crate::inputs::Pool;
use crate::outcome::Outcome;
use crate::stats::Sorted;

/// Times one call in microseconds.
pub fn time_us<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(call());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// The analytical model's hardware for a simulated memory backend: the
/// F1-class device with `β_DRAM` set to the backend's aggregate read
/// bandwidth at the kernel clock — the mapping the adaptive runtime
/// plans with, so drift is measured against the model the system uses.
#[must_use]
pub fn hardware_for(memory: &MemoryConfig) -> HardwareParams {
    let hw = HardwareParams::aws_f1();
    let bytes_per_cycle = memory.banks as u64 * memory.read_bytes_per_cycle;
    hw.with_beta_dram(bytes_per_cycle as f64 * hw.freq_hz)
}

/// Simulated counts summed over the jobs of one pool cycle. All of it
/// is simulated time and traffic, none of it host time, so for a fixed
/// seed and shape it repeats bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    jobs: u64,
    records: u64,
    bytes: u64,
    passes: u64,
    cycles: u64,
    fast_forwarded: u64,
    overlap: u64,
    input_stalls: u64,
    output_stalls: u64,
    bytes_read: u64,
    bytes_written: u64,
    /// Simulated and modelled time in whole picoseconds: integer sums
    /// do not depend on the order worker threads finish in, `f64`
    /// sums do in their last bits.
    sim_ps: u64,
    model_ps: u64,
}

fn picoseconds(seconds: f64) -> u64 {
    (seconds * 1e12).round() as u64
}

impl SimCounts {
    /// Adds one job's report. `config` is the shape the job was
    /// submitted with, or `None` where the shape that ran is not
    /// visible from outside (adaptive scheduling), which leaves the
    /// model term out.
    pub fn add(&mut self, report: &SortReport, config: Option<&SimEngineConfig>) {
        self.jobs += 1;
        self.records += report.n_records;
        self.bytes += report.total_bytes();
        self.passes += u64::from(report.stages());
        self.cycles += report.total_cycles;
        self.fast_forwarded += report.fast_forwarded_cycles;
        self.overlap += report.pipeline_overlap_cycles;
        for pass in &report.passes {
            self.input_stalls += pass.input_stalls;
            self.output_stalls += pass.output_stalls;
            self.bytes_read += pass.bytes_read;
            self.bytes_written += pass.bytes_written;
        }
        self.sim_ps += picoseconds(report.seconds());
        if let Some(config) = config {
            let array = ArrayParams::new(report.n_records, report.record_bytes);
            self.model_ps += picoseconds(perf::eq1_latency(
                &array,
                &hardware_for(&config.memory),
                config.amt.p,
                config.amt.l,
                config.presort.unwrap_or(1),
            ));
        }
    }

    /// Adds another thread's counts.
    pub fn merge(&mut self, other: &SimCounts) {
        self.jobs += other.jobs;
        self.records += other.records;
        self.bytes += other.bytes;
        self.passes += other.passes;
        self.cycles += other.cycles;
        self.fast_forwarded += other.fast_forwarded;
        self.overlap += other.overlap;
        self.input_stalls += other.input_stalls;
        self.output_stalls += other.output_stalls;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.sim_ps += other.sim_ps;
        self.model_ps += other.model_ps;
    }

    /// Publishes the counts as per-layer metrics. `memory` gives the β
    /// that bandwidth efficiency is taken against.
    pub fn publish(&self, memory: &MemoryConfig, out: &mut Outcome) {
        if self.jobs == 0 {
            return;
        }
        let per_record = |n: u64| n as f64 / self.records.max(1) as f64;
        out.set("amt.engine.passes", self.passes as f64 / self.jobs as f64);
        out.note("amt.engine.passes", "mean per job".into());
        out.set("amt.engine.cycles", self.cycles as f64);
        out.set(
            "amt.engine.fast_forwarded_share",
            self.fast_forwarded as f64 / self.cycles.max(1) as f64,
        );
        out.set("amt.engine.pipeline_overlap_cycles", self.overlap as f64);
        out.set("sim_cycles_per_record", per_record(self.cycles));
        out.note(
            "sim_cycles_per_record",
            format!("simulated time, {} jobs of the first pool cycle", self.jobs),
        );
        out.set(
            "merge-hw.input_stall_cycles_per_record",
            per_record(self.input_stalls),
        );
        out.set(
            "merge-hw.output_stall_cycles_per_record",
            per_record(self.output_stalls),
        );
        out.note(
            "merge-hw.input_stall_cycles_per_record",
            "raw count: stalls overlap across mergers".into(),
        );
        out.set("memsim.bytes_read", self.bytes_read as f64);
        out.set("memsim.bytes_written", self.bytes_written as f64);
        let beta = hardware_for(memory).beta_dram;
        if self.sim_ps > 0 {
            out.set(
                "memsim.bandwidth_efficiency",
                self.bytes as f64 / (self.sim_ps as f64 * 1e-12) / beta,
            );
        }
        if self.model_ps > 0 {
            out.set(
                "model_err_pct",
                100.0 * self.sim_ps.abs_diff(self.model_ps) as f64 / self.model_ps as f64,
            );
            out.note(
                "model_err_pct",
                "simulator vs Eq. 1 drift; the repo holds no hardware reference, so not a validated error"
                    .into(),
            );
        }
    }
}

/// `try_new` + `try_sort_pipelined` on every array of `pool`, timed
/// per call; checks each output.
pub fn engine_direct(config: SimEngineConfig, pool: &Pool, out: &mut Outcome) {
    let mut sort_us = Vec::with_capacity(pool.len());
    let mut ns_per_cycle = Vec::with_capacity(pool.len());
    for (input, oracle) in pool.inputs.iter().zip(&pool.oracles) {
        let data = input.clone();
        let (result, us) = time_us(|| {
            SimEngine::try_new(config)
                .map_err(|d| format!("{d:?}"))
                .and_then(|mut e| e.try_sort_pipelined(data, 1).map_err(|e| e.to_string()))
        });
        out.attempted += 1;
        match result {
            Ok((sorted, report)) if sorted == *oracle => {
                sort_us.push(us);
                ns_per_cycle.push(us * 1e3 / report.total_cycles.max(1) as f64);
            }
            Ok(_) => out.fail(|| "amt.engine direct call: output differs from oracle".into()),
            Err(e) => out.fail(|| format!("amt.engine direct call: {e}")),
        }
    }
    let sort_us = Sorted::new(sort_us);
    out.set_p50("amt.engine.sort_us", &sort_us);
    out.set("amt.engine.sort_tail_us", sort_us.tail().0);
    out.set_p50("amt.engine.host_ns_per_cycle", &Sorted::new(ns_per_cycle));
}

/// The model calls the adaptive scheduler makes per job, on the two
/// power-of-two size buckets of `svc_mixed`. One planner serves both
/// classes (one modelled device per memory backend), so the calls
/// alternate as they do under the adaptive lock.
pub fn model_calls(
    memory: &MemoryConfig,
    reprogram_seconds: f64,
    latency_records: usize,
    throughput_records: usize,
    out: &mut Outcome,
) {
    const REPS: usize = 40;
    let hw = hardware_for(memory);
    let small = ArrayParams::new((latency_records as u64).next_power_of_two(), 4);
    let large = ArrayParams::new((throughput_records as u64).next_power_of_two(), 4);
    let mut planner = ReconfigPlanner::new(hw, reprogram_seconds);
    let optimizer = BonsaiOptimizer::new(hw);
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        samples[0].push(time_us(|| planner.plan_job_with_deadline(&small, None)).1);
        samples[1].push(time_us(|| planner.plan_throughput_job(&large)).1);
        samples[2].push(time_us(|| optimizer.latency_optimal(&small)).1);
        samples[3].push(time_us(|| optimizer.throughput_optimal(&large)).1);
    }
    let [plan_lat, plan_thr, opt_lat, opt_thr] = samples.map(Sorted::new);
    out.set_p50("model.plan_latency_us", &plan_lat);
    out.set_p50("model.plan_throughput_us", &plan_thr);
    out.set_p50("model.optimizer_latency_us", &opt_lat);
    out.set_p50("model.optimizer_throughput_us", &opt_thr);
}

/// What the shape cache saves: a cold `CompiledShape::compile` against
/// a warm `ShapeCache::get_or_compile`. Both are far below the clock's
/// resolution, so each sample is the mean of a batch of calls.
pub fn cache_calls(config: SimEngineConfig, capacity: usize, out: &mut Outcome) {
    const BATCH: usize = 1000;
    const BATCHES: usize = 30;
    let mut cache = ShapeCache::new(capacity);
    let _ = cache.get_or_compile(&config);
    let mut compile = Vec::with_capacity(BATCHES);
    let mut hit = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let ((), us) = time_us(|| {
            for _ in 0..BATCH {
                let _ = black_box(CompiledShape::compile(black_box(config)));
            }
        });
        compile.push(us / BATCH as f64);
        let ((), us) = time_us(|| {
            for _ in 0..BATCH {
                let _ = black_box(cache.get_or_compile(black_box(&config)));
            }
        });
        hit.push(us / BATCH as f64);
    }
    out.set_p50("amt.compile_us", &Sorted::new(compile));
    out.set_p50("amt.cache_hit_us", &Sorted::new(hit));
}

/// Runs `call` `reps` times on fresh copies of its input, checking
/// every output against `oracle`; returns the per-call microseconds.
fn timed_sorts(
    what: &str,
    reps: usize,
    oracle: &[U32Rec],
    out: &mut Outcome,
    mut call: impl FnMut() -> (Vec<U32Rec>, f64),
) -> Sorted {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (sorted, elapsed) = call();
        out.attempted += 1;
        if sorted == oracle {
            us.push(elapsed);
        } else {
            out.fail(|| format!("{what}: output differs from oracle"));
        }
    }
    Sorted::new(us)
}

/// The host kernels on and beside `host_merge`'s path, each on one
/// array of the pool: the two k-way merge kernels at three fan-ins,
/// the presorter, the functional merge sort, the model call
/// `DramSorter::sort` makes, and the radix reference line.
pub fn host_kernels(pool: &Pool, out: &mut Outcome) {
    const REPS: usize = 3;
    let input = &pool.inputs[0];
    let oracle = &pool.oracles[0];
    let n = input.len() as f64;
    let ns_per_record = |us: &Sorted| us.p50() * 1e3 / n;

    let fan_ins = [
        (
            2usize,
            "amt.functional.kway_ns_per_record.k2",
            "amt.loser_tree.kway_ns_per_record.k2",
        ),
        (
            16,
            "amt.functional.kway_ns_per_record.k16",
            "amt.loser_tree.kway_ns_per_record.k16",
        ),
        (
            256,
            "amt.functional.kway_ns_per_record.k256",
            "amt.loser_tree.kway_ns_per_record.k256",
        ),
    ];
    for (k, heap_name, tree_name) in fan_ins {
        let mut runs: Vec<Vec<U32Rec>> = input
            .chunks(input.len().div_ceil(k))
            .map(<[U32Rec]>::to_vec)
            .collect();
        for run in &mut runs {
            run.sort_unstable();
        }
        let views: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
        let heap = timed_sorts("functional::kway_merge", REPS, oracle, out, || {
            time_us(|| kway_merge(&views))
        });
        let tree = timed_sorts("loser_tree_merge", REPS, oracle, out, || {
            time_us(|| loser_tree_merge(&views))
        });
        out.set(heap_name, ns_per_record(&heap));
        out.set(tree_name, ns_per_record(&tree));
    }

    let presorter = Presorter::new(16);
    let presort_us: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut data = input.clone();
            let ((), us) = time_us(|| presorter.presort(&mut data));
            black_box(&data);
            us
        })
        .collect();
    out.set(
        "bitonic.presort_ns_per_record",
        ns_per_record(&Sorted::new(presort_us)),
    );

    let functional = timed_sorts("functional::sort_balanced", REPS, oracle, out, || {
        let data = input.clone();
        let ((sorted, _stages), us) = time_us(|| sort_balanced(data, 16, 16));
        (sorted, us)
    });
    out.set_p50("amt.functional.sort_us", &functional);

    let radix = timed_sorts("radix::parallel_radix_sort", REPS, oracle, out, || {
        let mut data = input.clone();
        let ((), us) = time_us(|| parallel_radix_sort(&mut data, 1));
        (data, us)
    });
    out.set("baselines.radix_ns_per_record", ns_per_record(&radix));

    let sorter = DramSorter::new(HardwareParams::aws_f1());
    let array = ArrayParams::new(input.len() as u64, 4);
    let plan_us: Vec<f64> = (0..20).map(|_| time_us(|| sorter.plan(&array)).1).collect();
    out.set_p50("model.optimizer_latency_us", &Sorted::new(plan_us));
    out.note(
        "model.optimizer_latency_us",
        "DramSorter::plan, the model call inside every host_merge sort".into(),
    );
}
