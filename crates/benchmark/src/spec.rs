//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root repeats this table for the driver; the `name_sync`
//! test fails when the two disagree.

use std::fmt::Write as _;

/// One named set of inputs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; defined on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of a single layer, from the traced run. `0` on a workload
/// whose path bypasses the layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Repeats bit for bit for a fixed seed (on every workload but
    /// `svc_mixed`, see [`exact_on`]).
    pub exact: bool,
}

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "svc_small",
        why: "loopback sort service, 2048-record jobs: smallest simulation per job, so wire, socket hand-off and queue take their largest share",
    },
    Workload {
        name: "svc_mixed",
        why: "adaptive scheduler with 65536- and 1024-record streams: the only workload the class queue, planner and shape cache decide",
    },
    Workload {
        name: "sim_dram",
        why: "direct engine calls on the bandwidth-bound DRAM shape, three key distributions: per-cycle PassSim stepping does the work",
    },
    Workload {
        name: "sim_ssd",
        why: "same engine on the latency-bound SSD shape: nearly all cycles fast-forward, so it taxes the event path, not the step",
    },
    Workload {
        name: "host_merge",
        why: "DramSorter::sort on 1M records: the host k-way merge kernel alone, the no-change control for simulator, net and runtime work",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics. Every one is defined on every workload.
///
/// The timing bounds are the widest the driver allows. The 2-vCPU
/// build host runs about 1.6x slower for seconds to minutes at a time;
/// [`crate::stats::Steady`] keeps the short spells out of the timing
/// metrics, but ten runs that straddle a long one spread by 20 % or
/// more whatever is reported, and a tighter bound would flag the host,
/// not the change. `peak_rss_mb` has the same bound because on
/// `svc_small` it grows with the jobs a window completes (9.3 MiB at
/// 22 000 jobs, 11.0 MiB at 34 000), and so follows the host as well.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("records_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p10_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

/// Per-layer metrics, grouped by the module they measure.
pub const PER_LAYER: [PerLayer; 57] = [
    timed("lat_tail_ms", "ms"),
    timed("small_lat_p50_ms", "ms"),
    timed("small_lat_tail_ms", "ms"),
    timed("net.frame.encode_us", "us"),
    timed("net.frame.decode_us", "us"),
    timed("net.socket_us", "us"),
    count("net.wire_bytes_per_job", "bytes", Better::Lower, true),
    count("net.wire_errors", "count", Better::Lower, false),
    count("net.jobs_rejected", "count", Better::Lower, false),
    count("net.connections", "count", Better::Lower, false),
    timed("runtime.queue_wait_us.latency", "us"),
    timed("runtime.queue_wait_tail_us.latency", "us"),
    timed("runtime.queue_wait_us.throughput", "us"),
    timed("runtime.service_us.latency", "us"),
    timed("runtime.service_us.throughput", "us"),
    count("runtime.pending_max", "count", Better::Lower, false),
    count(
        "runtime.shape_cache_hit_ratio",
        "ratio",
        Better::Higher,
        false,
    ),
    count(
        "runtime.shape_cache_evictions",
        "count",
        Better::Lower,
        false,
    ),
    count("runtime.reprograms", "count", Better::Lower, false),
    count("runtime.latency_jobs", "count", Better::Higher, false),
    count("runtime.throughput_jobs", "count", Better::Higher, false),
    timed("model.plan_latency_us", "us"),
    timed("model.plan_throughput_us", "us"),
    timed("model.optimizer_latency_us", "us"),
    timed("model.optimizer_throughput_us", "us"),
    count("model_err_pct", "%", Better::Lower, true),
    timed("amt.compile_us", "us"),
    timed("amt.cache_hit_us", "us"),
    timed("amt.engine.sort_us", "us"),
    timed("amt.engine.sort_tail_us", "us"),
    timed("amt.engine.host_ns_per_cycle", "ns"),
    count("amt.engine.passes", "count", Better::Lower, true),
    count("amt.engine.cycles", "cycles", Better::Lower, true),
    count(
        "amt.engine.fast_forwarded_share",
        "ratio",
        Better::Higher,
        true,
    ),
    count(
        "amt.engine.pipeline_overlap_cycles",
        "cycles",
        Better::Higher,
        true,
    ),
    count("sim_cycles_per_record", "cycles", Better::Lower, true),
    count(
        "merge-hw.input_stall_cycles_per_record",
        "cycles",
        Better::Lower,
        true,
    ),
    count(
        "merge-hw.output_stall_cycles_per_record",
        "cycles",
        Better::Lower,
        true,
    ),
    count("memsim.bytes_read", "bytes", Better::Lower, true),
    count("memsim.bytes_written", "bytes", Better::Lower, true),
    count("memsim.bandwidth_efficiency", "ratio", Better::Higher, true),
    timed("bitonic.presort_ns_per_record", "ns"),
    timed("amt.functional.sort_us", "us"),
    timed("amt.functional.kway_ns_per_record.k2", "ns"),
    timed("amt.functional.kway_ns_per_record.k16", "ns"),
    timed("amt.functional.kway_ns_per_record.k256", "ns"),
    timed("amt.loser_tree.kway_ns_per_record.k2", "ns"),
    timed("amt.loser_tree.kway_ns_per_record.k16", "ns"),
    timed("amt.loser_tree.kway_ns_per_record.k256", "ns"),
    timed("baselines.radix_ns_per_record", "ns"),
    timed("sorters.dram_sort_us", "us"),
    timed("sorters.dram_sort_tail_us", "us"),
    timed("trace.overhead_pct", "%"),
    timed("trace.ledger_residual_pct", "%"),
    timed("trace.self_us.net", "us"),
    timed("trace.self_us.runtime.queue_wait", "us"),
    timed("trace.self_us.runtime.service", "us"),
];

/// Whether an [`PerLayer::exact`] metric repeats bit for bit on
/// `workload`. Under the adaptive scheduler the planner's
/// keep-or-reprogram decision depends on the order in which the two
/// job classes reach the workers, which is a thread race, so on
/// `svc_mixed` the shapes (and every simulated count) may differ
/// between runs; only the wire byte count is exact there.
#[must_use]
pub fn exact_on(metric: &PerLayer, workload: &str) -> bool {
    metric.exact && (workload != "svc_mixed" || metric.name == "net.wire_bytes_per_job")
}

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The unit of a listed metric of either kind.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The `--list` output: one line per workload and metric, the form the
/// `name_sync` test parses.
#[must_use]
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(out, "workload {}", w.name);
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    for m in &PER_LAYER {
        let exact: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| exact_on(m, w.name))
            .map(|w| w.name)
            .collect();
        let _ = writeln!(
            out,
            "per_layer {} {} {} exact={}",
            m.name,
            m.unit,
            m.better.as_str(),
            if exact.is_empty() {
                "-".to_string()
            } else {
                exact.join(",")
            }
        );
    }
    out
}
