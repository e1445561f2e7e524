//! The repository's one repeatable benchmark.
//!
//! Five named workloads drive the stack end to end — `net` → `runtime`
//! → `model`/`amt` → `merge-hw`/`memsim` — or deliberately bypass
//! parts of it, verify every output against a precomputed oracle, and
//! report end-to-end metrics a user of the system would see. A traced
//! run of the same workload times each layer from outside, through its
//! public functions, into a per-layer ledger. See `README.md` beside
//! this crate for the tables; [`spec`] holds the names.
//!
//! This crate is the instrument later changes are judged with: it
//! claims no gain itself and edits nothing it measures.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod direct;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod outcome;
pub mod spec;
pub mod stats;
pub mod svc;
pub mod trace;

use std::time::Duration;

use outcome::Outcome;
use trace::Span;

/// Times set-up runs per process, at least; `setup_s` is the lower
/// quartile (of nine: the third quickest), on the good side for the
/// reason [`stats::Steady`] gives. Nine, because a slow spell of the
/// host outlasts five set-ups of half a second more often than the
/// bound on `setup_s` forgives. Not the decile: about one `svc_small`
/// set-up in seven takes 10 ms where the rest take 15 ms, and the
/// decile sits on the edge of that cluster.
pub const SETUP_REPEATS: usize = 9;

/// A set-up quicker than a ninth of this many seconds (`svc_small`:
/// 12 ms) is repeated until this much time has gone into it, so that
/// its quartile is taken over more than a handful of scheduler wake-ups.
const SETUP_MIN_SECONDS: f64 = 0.5;

/// The most set-up repeats that rule may take.
const SETUP_REPEATS_MAX: usize = 50;

/// Environment variables that would silently change what the measured
/// program does; the benchmark refuses to start under any of them.
pub const REFUSED_ENV: [&str; 3] = [
    "BONSAI_RUNTIME_SCHEDULER",
    "BONSAI_SIM_REFERENCE",
    "BONSAI_BENCH_OUT",
];

/// What one run of one workload is given.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
}

impl Params {
    /// The measured window.
    #[must_use]
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Sets the workload up [`SETUP_REPEATS`] times or more, tearing each
/// but the last down again, and returns the last with the lower
/// quartile of the set-up times in seconds. The traced run repeats set-up the same way
/// so that the process it measures in has the same history (allocator
/// state included) as the untraced one.
///
/// # Errors
///
/// The first error `set_up` returns.
pub fn set_up_repeatedly<S, E>(
    out: &mut Outcome,
    mut set_up: impl FnMut(&mut Outcome) -> Result<S, E>,
    mut tear_down: impl FnMut(S, &mut Outcome),
) -> Result<(S, f64), E> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    loop {
        let start = std::time::Instant::now();
        let state = set_up(out)?;
        seconds.push(start.elapsed().as_secs_f64());
        let quick = seconds.iter().sum::<f64>() < SETUP_MIN_SECONDS;
        if seconds.len() >= SETUP_REPEATS_MAX || (seconds.len() >= SETUP_REPEATS && !quick) {
            return Ok((state, stats::Sorted::new(seconds).p(25.0)));
        }
        tear_down(state, out);
    }
}

/// `W = min(nproc, 4)`: runtime workers, and the most load-generator
/// threads and connections any workload uses.
#[must_use]
pub fn load_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` does not say.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one workload in this process, untraced or traced, and returns
/// what it measured (and, traced, its spans).
///
/// # Errors
///
/// The workload is not listed, or a service workload could not bind or
/// connect on loopback.
pub fn run_workload(
    workload: &str,
    params: &Params,
    traced: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let mut out = Outcome::default();
    let spans = match (workload, traced) {
        ("svc_small" | "svc_mixed", false) => svc::run(workload, params, &mut out)
            .map(|()| Vec::new())
            .map_err(|e| e.to_string())?,
        ("svc_small" | "svc_mixed", true) => {
            svc::run_traced(workload, params, &mut out).map_err(|e| e.to_string())?
        }
        ("sim_dram" | "sim_ssd" | "host_merge", false) => {
            direct::run(workload, params, &mut out);
            Vec::new()
        }
        ("sim_dram" | "sim_ssd" | "host_merge", true) => {
            direct::run_traced(workload, params, &mut out)
        }
        _ => return Err(format!("unknown workload {workload}")),
    };
    Ok((out, spans))
}
