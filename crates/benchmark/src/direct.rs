//! The three workloads that call a sorter directly, from one thread,
//! with no net and no runtime: `sim_dram`, `sim_ssd` (the engine) and
//! `host_merge` (the functional DRAM sorter).

use std::time::{Duration, Instant};

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, SortReport};
use bonsai_gensort::dist::Distribution;
use bonsai_memsim::MemoryConfig;
use bonsai_model::HardwareParams;
use bonsai_records::U32Rec;
use bonsai_sorters::DramSorter;

use crate::inputs::Pool;
use crate::layers::{self, SimCounts};
use crate::outcome::Outcome;
use crate::stats::{Sample, Sorted};
use crate::trace::{self, Recorder, Span, ROOT};
use crate::{peak_rss_mb, set_up_repeatedly, Params};

/// The latency tail reported: about a hundred sorts fit a window, too
/// few for a p99.
const TAIL: f64 = 90.0;

/// Which sorter a direct workload calls, and on what.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// `SimEngine::try_new` + `try_sort_pipelined(data, 1)`.
    Engine(SimEngineConfig),
    /// `DramSorter::new(aws_f1).sort(data)`.
    DramSorter,
}

struct Shape {
    target: Target,
    pool_len: usize,
    records: usize,
    dists: &'static [Distribution],
    /// Untimed sorts before the window, so lazily set-up state and the
    /// allocator's arenas are in place.
    warm_up: usize,
}

fn shape(workload: &str) -> Shape {
    match workload {
        "sim_dram" => Shape {
            target: Target::Engine(SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4)),
            pool_len: 12,
            records: 150_000,
            dists: &[
                Distribution::Uniform,
                Distribution::Skewed { hot_fraction: 0.1 },
                Distribution::AlmostSorted(0.05),
            ],
            warm_up: 3,
        },
        "sim_ssd" => {
            let mut config =
                SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::ssd_direct());
            config.loader.batch_bytes = 131_072;
            Shape {
                target: Target::Engine(config),
                pool_len: 12,
                records: 150_000,
                dists: &[Distribution::Uniform],
                warm_up: 2,
            }
        }
        "host_merge" => Shape {
            target: Target::DramSorter,
            pool_len: 8,
            records: 1_000_000,
            dists: &[Distribution::Uniform],
            warm_up: 2,
        },
        other => unreachable!("{other} is not a direct workload"),
    }
}

/// One call into the sorter under test, as child spans of job `job`.
fn call(
    target: Target,
    data: Vec<U32Rec>,
    job: u64,
    rec: &mut Recorder,
) -> Result<(Vec<U32Rec>, Option<SortReport>), String> {
    match target {
        Target::Engine(config) => {
            let mut engine = rec
                .time("amt.engine.try_new", job, 1, || SimEngine::try_new(config))
                .map_err(|d| format!("{d:?}"))?;
            rec.time("amt.engine.try_sort_pipelined", job, 2, || {
                engine.try_sort_pipelined(data, 1)
            })
            .map(|(sorted, report)| (sorted, Some(report)))
            .map_err(|e| e.to_string())
        }
        Target::DramSorter => {
            let sorter = rec.time("sorters.dram.new", job, 1, || {
                DramSorter::new(HardwareParams::aws_f1())
            });
            rec.time("sorters.dram.sort", job, 2, || sorter.sort(data))
                .map(|(sorted, _modeled)| (sorted, None))
                .map_err(|e| e.to_string())
        }
    }
}

/// What one pass over the pool measured.
struct Pass {
    /// One per verified call, in call order; a call is complete once
    /// its output is checked, so the samples tile the pass.
    samples: Vec<Sample>,
    /// Host nanoseconds per simulated cycle, per call.
    ns_per_cycle: Vec<f64>,
    elapsed: Duration,
    /// Simulated counts of the first pool cycle.
    counts: SimCounts,
    spans: Vec<Span>,
}

/// Calls the sorter on the pool's arrays in order until `window` has
/// passed and (with `full_cycle`) every array has been sorted once;
/// checks every output.
fn pass(
    shape: &Shape,
    pool: &Pool,
    window: Duration,
    full_cycle: bool,
    record: bool,
    out: &mut Outcome,
) -> Pass {
    let start = Instant::now();
    let mut rec = Recorder::new(start, record);
    let mut result = Pass {
        samples: Vec::new(),
        ns_per_cycle: Vec::new(),
        elapsed: Duration::ZERO,
        counts: SimCounts::default(),
        spans: Vec::new(),
    };
    let mut job = 0usize;
    while start.elapsed() < window || job == 0 || (full_cycle && job < pool.len()) {
        let index = job % pool.len();
        let data = pool.inputs[index].clone();
        let begin = rec.now();
        let sorted = call(shape.target, data, job as u64, &mut rec);
        let end = rec.now();
        rec.push(ROOT, job as u64, 0, begin, end);
        out.attempted += 1;
        match sorted {
            Ok((sorted, report)) if sorted == pool.oracles[index] => {
                let ns = (end - begin) as f64;
                result.samples.push(Sample {
                    done_s: start.elapsed().as_secs_f64(),
                    lat_ms: ns / 1e6,
                    records: shape.records,
                });
                if let (Some(report), Target::Engine(config)) = (report, shape.target) {
                    result
                        .ns_per_cycle
                        .push(ns / report.total_cycles.max(1) as f64);
                    if job < pool.len() {
                        result.counts.add(&report, Some(&config));
                    }
                }
            }
            Ok(_) => out.fail(|| format!("job {job}: output differs from oracle")),
            Err(e) => out.fail(|| format!("job {job}: {e}")),
        }
        job += 1;
    }
    result.elapsed = start.elapsed();
    result.spans = rec.into_spans();
    result
}

fn latencies(pass: &Pass) -> Sorted {
    Sorted::new(pass.samples.iter().map(|s| s.lat_ms).collect())
}

/// Generates the pool and warms the sorter up; this is what `setup_s`
/// times.
fn set_up(shape: &Shape, seed: u64, out: &mut Outcome) -> Pool {
    let pool = Pool::generate(seed, 0, shape.pool_len, shape.records, shape.dists);
    let mut rec = Recorder::new(Instant::now(), false);
    for index in 0..shape.warm_up.min(pool.len()) {
        out.attempted += 1;
        match call(shape.target, pool.inputs[index].clone(), 0, &mut rec) {
            Ok((sorted, _)) if sorted == pool.oracles[index] => {}
            Ok(_) => out.fail(|| format!("warm-up {index}: output differs from oracle")),
            Err(e) => out.fail(|| format!("warm-up {index}: {e}")),
        }
    }
    pool
}

fn set_up_all(shape: &Shape, seed: u64, out: &mut Outcome) -> (Pool, f64) {
    let set_up = |out: &mut Outcome| Ok::<_, std::convert::Infallible>(set_up(shape, seed, out));
    match set_up_repeatedly(out, set_up, |pool, _| drop(pool)) {
        Ok(done) => done,
        Err(never) => match never {},
    }
}

fn publish_counts(shape: &Shape, counts: &SimCounts, out: &mut Outcome) {
    if let Target::Engine(config) = shape.target {
        counts.publish(&config.memory, out);
    }
}

/// The untraced run: set-up several times, then one window.
pub fn run(workload: &str, params: &Params, out: &mut Outcome) {
    let shape = shape(workload);
    let (pool, setup_s) = set_up_all(&shape, params.seed, out);
    let measured = pass(&shape, &pool, params.window(), true, false, out);

    out.set("setup_s", setup_s);
    let lat = out.set_steady(&measured.samples, measured.elapsed.as_secs_f64());
    // One job size, so the smallest size class is every job.
    out.set_tails(&lat, &lat, TAIL);
    out.set("peak_rss_mb", peak_rss_mb());
    publish_counts(&shape, &measured.counts, out);
    if !measured.ns_per_cycle.is_empty() {
        out.set_p50(
            "amt.engine.host_ns_per_cycle",
            &Sorted::new(measured.ns_per_cycle),
        );
    }
}

/// The traced run: the same call sequence twice, spans on then off,
/// each for half the window, then the single-layer calls.
pub fn run_traced(workload: &str, params: &Params, out: &mut Outcome) -> Vec<Span> {
    let shape = shape(workload);
    let (pool, _) = set_up_all(&shape, params.seed, out);
    let half = params.window() / 2;
    let on = pass(&shape, &pool, half, true, true, out);
    let off = pass(&shape, &pool, half, false, false, out);

    let ledger = trace::ledger(&on.spans);
    let on_lat = latencies(&on);
    out.set_tails(&on_lat, &on_lat, TAIL);
    let off_lat = latencies(&off);
    let sort_us = Sorted::new(
        trace::per_job_us(
            &on.spans,
            &["amt.engine.try_sort_pipelined", "sorters.dram.sort"],
        )
        .into_values()
        .collect(),
    );
    match shape.target {
        Target::Engine(_) => {
            out.set_p50("amt.engine.sort_us", &sort_us);
            out.set("amt.engine.sort_tail_us", sort_us.tail().0);
            out.set_p50(
                "amt.engine.host_ns_per_cycle",
                &Sorted::new(on.ns_per_cycle),
            );
        }
        Target::DramSorter => {
            out.set_p50("sorters.dram_sort_us", &sort_us);
            out.set("sorters.dram_sort_tail_us", sort_us.tail().0);
            layers::host_kernels(&pool, out);
        }
    }
    publish_counts(&shape, &on.counts, out);
    out.set("trace.ledger_residual_pct", ledger.residual_pct());
    out.set(
        "trace.overhead_pct",
        100.0 * (on_lat.p50() - off_lat.p50()) / off_lat.p50(),
    );
    out.note(
        "trace.overhead_pct",
        format!(
            "median call {:.3} ms with spans (n={}), {:.3} ms without (n={})",
            on_lat.p50(),
            on_lat.len(),
            off_lat.p50(),
            off_lat.len()
        ),
    );
    out.info(ledger.describe());
    on.spans
}
