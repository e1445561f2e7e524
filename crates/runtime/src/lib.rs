//! Batch sort-job runtime over the per-group [`SimEngine`] sort.
//!
//! The bench configs are CPU-bound on one core; under batch traffic the
//! host has two axes of parallelism to spend:
//!
//! - **across jobs** — independent sorts run on a pool of worker
//!   threads fed by the bounded [`ClassQueue`], whose depth gives
//!   submitters backpressure instead of unbounded buffering;
//! - **within a job** — each worker drives
//!   [`SimEngine::try_sort_yielding`] on its own thread, one pass at a
//!   time; a job's intra-sort parallelism is the optimizer's shape, not
//!   extra host threads. Under [`PassScheduler::Adaptive`] a running
//!   throughput-class job *lends* its worker at the sort's yield points:
//!   a queued latency-class job runs to completion on the same thread,
//!   then the large sort resumes where it stopped.
//!
//! A job pays for its simulation, not for set-up a previous job already
//! did: the engine parks its pass scratch (tree, loader, drain, memory)
//! on the worker's thread between sorts, one per shape for the worker's
//! own jobs and the ones it lends to, and under the adaptive scheduler
//! the planner searches again only when a class's size bucket changes.
//!
//! Failures stay per-job: an invalid configuration
//! ([`JobError::Invalid`], `BONxxx` diagnostics), a livelocked pass
//! ([`JobError::Sim`], `BON040`) or even a panicking job
//! ([`JobError::Panic`]) fails that [`JobResult`] while the rest of the
//! batch keeps sorting. A job's report does not depend on the worker
//! count: each job is sorted on one worker's thread, as a pure function
//! of its shape and data.
//!
//! Results come back two ways:
//!
//! - **batch** — [`Runtime::finish`] consumes the runtime and returns
//!   every [`JobResult`] in submission order (by the runtime-assigned
//!   [`JobResult::ticket`], so caller-chosen [`SortJob::id`]s may
//!   collide freely — the id is an opaque tag, echoed back untouched);
//! - **streaming** — [`Runtime::submit_with_reply`] attaches a
//!   completion channel to one job, and the worker delivers that
//!   [`JobResult`] the moment it finishes, while the runtime keeps
//!   accepting jobs. This is what a long-lived front end (for example
//!   `bonsai-net`'s TCP server) sits on: `finish` never has to be
//!   called just to see a result.
//!
//! The queue and pool are generic over the `bonsai_mc` sync facade:
//! production builds monomorphize to plain `std::sync` (zero overhead),
//! while `tests/mc_class_queue.rs` and `tests/mc_pool_shutdown.rs`
//! instantiate the same code with the model checker's shims and
//! exhaustively explore the queue and shutdown protocols.
//! Static shape checks for [`RuntimeConfig`] live in
//! [`bonsai_check::check_runtime_shape`] (BON05x) and are surfaced by
//! `bonsai-lint --runtime`.
//!
//! # Example
//!
//! ```
//! use bonsai_amt::{AmtConfig, SimEngineConfig};
//! use bonsai_gensort::dist::uniform_u32;
//! use bonsai_runtime::{Runtime, RuntimeConfig, SortJob};
//!
//! let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
//! let runtime = Runtime::start(RuntimeConfig::default());
//! for id in 0..4 {
//!     runtime
//!         .submit(SortJob::new(id, cfg, uniform_u32(10_000, id)))
//!         .expect("runtime is open");
//! }
//! let results = runtime.finish();
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.result.is_ok()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod class_queue;
mod pool;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bonsai_amt::{SimEngine, SimEngineConfig, SortError, SortReport};
use bonsai_check::Diagnostic;
use bonsai_records::Record;

pub use adaptive::{AdaptiveConfig, AdaptiveStats};
pub use bonsai_mc::facade::{StdSync, SyncOps};
pub use class_queue::{ClassQueue, Classed, JobClass, PushError};
pub use pool::WorkerPool;

use adaptive::AdaptiveState;

/// How the runtime picks each job's queue lane and AMT shape. Within a
/// job the merge passes always run group by group
/// ([`SimEngine::try_sort_yielding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PassScheduler {
    /// First in, first out, each job sorted on the shape it was
    /// submitted with.
    #[default]
    Fifo,
    /// Optimizer-driven adaptive scheduling: each job is classed by
    /// size ([`JobClass`]), dispatched through the two lanes of the
    /// [`ClassQueue`] (small latency-bound jobs overtake queued batch
    /// work), and sorted on the AMT shape the analytical optimizer
    /// picks for it — latency-optimal for the latency class,
    /// throughput-optimal for the throughput class — with shape
    /// switches charged through the reconfiguration planner and
    /// validated shapes served from a bounded compiled-shape cache
    /// ([`bonsai_amt::ShapeCache`]). Knobs live in [`AdaptiveConfig`];
    /// shape checks are `BON080` and `BON082`.
    ///
    /// Small jobs do not wait out a running large one either: at each
    /// yield point of a throughput-class sort (before every merge group
    /// and every 128 simulation steps inside one) its worker runs at
    /// most one queued latency-class job, through the same shape
    /// selection, engine and panic isolation as a dispatched job. It
    /// lends only while the time lent stays within a quarter (the
    /// fairness stride, 4) of the large job's own time, and a lent job
    /// never lends. The lent job sorts on the shape the planner selects
    /// for it, as if it had been dispatched; jobs share no simulated
    /// state, so every output and report is what it would have been.
    Adaptive,
}

/// Knobs of the batch runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads draining the job queue (`0` = one per core).
    pub workers: usize,
    /// Bounded queue depth; a full queue blocks [`Runtime::submit`]
    /// (backpressure).
    pub queue_depth: usize,
    /// Lane and shape policy: [`PassScheduler::Fifo`] (the default) or
    /// [`PassScheduler::Adaptive`].
    pub scheduler: PassScheduler,
    /// Per-pass livelock cycle bound handed to the engine; `None` keeps
    /// the engine default.
    pub max_pass_cycles: Option<u64>,
    /// Knobs of the adaptive scheduler (shape cache size, reprogram
    /// cost). Only consulted when [`RuntimeConfig::scheduler`] is
    /// [`PassScheduler::Adaptive`].
    pub adaptive: AdaptiveConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 16,
            scheduler: PassScheduler::Fifo,
            max_pass_cycles: None,
            adaptive: AdaptiveConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Runs the BON05x runtime-topology shape checks against this
    /// config on a host with `cores` cores, plus the BON08x knob checks
    /// under [`PassScheduler::Adaptive`].
    ///
    /// Returns an empty vector when the shape is clean; every finding is
    /// a warning: the runtime works, it only wastes threads or time.
    #[must_use]
    pub fn validate_for_cores(&self, cores: usize) -> Vec<Diagnostic> {
        let mut diagnostics =
            bonsai_check::check_runtime_shape(self.workers, self.queue_depth, cores);
        if self.scheduler == PassScheduler::Adaptive {
            diagnostics.extend(bonsai_check::check_adaptive_runtime(
                self.adaptive.cache_shapes,
                adaptive::SHAPE_CLASSES,
                self.adaptive.reprogram_cost_us,
            ));
        }
        diagnostics
    }
}

/// Latency-class cutoff under [`PassScheduler::Adaptive`]: 4 096 records
/// are 256 presorted runs, at most two passes even on AMT(4, 16).
const SMALL_JOB_RECORDS: usize = 4096;

/// Latency-lane dispatches before a waiting throughput job runs anyway:
/// a large job waits behind at most four small ones. A running large job
/// likewise lends its worker for at most a quarter of its own time.
const FAIRNESS_STRIDE: u32 = 4;

/// One worker per core when a knob is `0`.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One sort request: records plus the engine configuration to sort
/// them under.
#[derive(Debug, Clone)]
pub struct SortJob<R> {
    /// Caller-chosen identifier, echoed in the [`JobResult`]. An opaque
    /// tag: the runtime never interprets it, and ids may collide across
    /// submitters — results are attributed and ordered by the
    /// runtime-assigned [`JobResult::ticket`], not by this id.
    pub id: u64,
    /// Engine configuration for this job.
    pub config: SimEngineConfig,
    /// The records to sort.
    pub data: Vec<R>,
}

impl<R> SortJob<R> {
    /// Bundles a job.
    pub fn new(id: u64, config: SimEngineConfig, data: Vec<R>) -> Self {
        Self { id, config, data }
    }
}

/// Why [`Runtime::submit`] rejected a job. The job rides along so the
/// caller gets its records back instead of losing them to the error
/// path.
pub enum SubmitError<R> {
    /// The queue was closed (by [`Runtime::close`], typically from
    /// another handle to an `Arc`-shared runtime) before the job could
    /// be enqueued. Boxed so the `Result` stays small on the hot
    /// accept path; the allocation only happens on rejection.
    Closed(Box<SortJob<R>>),
}

// Manual impls keep `R: Debug` off the public bound (and keep the
// record payload out of error output).
impl<R> core::fmt::Debug for SubmitError<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Closed(job) => f
                .debug_struct("SubmitError::Closed")
                .field("id", &job.id)
                .field("records", &job.data.len())
                .finish(),
        }
    }
}

impl<R> core::fmt::Display for SubmitError<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Closed(job) => {
                write!(
                    f,
                    "runtime closed; job {} handed back to the caller",
                    job.id
                )
            }
        }
    }
}

impl<R> std::error::Error for SubmitError<R> {}

/// Why one job failed (the rest of the batch is unaffected).
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job's engine configuration was rejected (`BONxxx` errors
    /// from [`bonsai_amt::SimEngineConfig::validate`]).
    Invalid(Vec<Diagnostic>),
    /// The simulation itself failed (e.g. `BON040` pass livelock).
    Sim(SortError),
    /// The job panicked mid-sort; the worker caught it, so the rest of
    /// the batch (and the pool itself) is unaffected.
    Panic(String),
}

impl core::fmt::Display for JobError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JobError::Invalid(diagnostics) => {
                write!(f, "invalid job configuration: {diagnostics:?}")
            }
            JobError::Sim(err) => write!(f, "{err}"),
            JobError::Panic(message) => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The sorted records and timing report of one successful job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput<R> {
    /// The sorted records.
    pub sorted: Vec<R>,
    /// The engine's cycle-approximate timing report.
    pub report: SortReport,
}

/// Outcome of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<R> {
    /// The identifier from [`SortJob::id`] — an opaque caller tag,
    /// echoed back untouched (it may collide with other jobs' ids).
    pub id: u64,
    /// Runtime-assigned monotonic submission ticket, unique per
    /// runtime. [`Runtime::finish`] orders results by this, so
    /// colliding caller ids can never misattribute or reorder results.
    pub ticket: u64,
    /// The sorted output, or why this job failed.
    pub result: Result<JobOutput<R>, JobError>,
    /// Wall-clock time the worker spent on the job, excluding any time
    /// it lent to latency-class jobs at the job's yield points.
    pub wall: Duration,
}

/// What travels through the queue: the job plus its ticket, scheduling
/// class and an optional completion channel (`None` = collect for
/// `finish`).
struct Dispatch<R> {
    ticket: u64,
    job: SortJob<R>,
    class: JobClass,
    reply: Option<std::sync::mpsc::Sender<JobResult<R>>>,
}

impl<R> Classed for Dispatch<R> {
    fn job_class(&self) -> JobClass {
        self.class
    }
}

/// Sorts one job, calling `poll` at the engine's yield points.
fn run_job<R: Record>(
    job: SortJob<R>,
    class: JobClass,
    config: &RuntimeConfig,
    adaptive: Option<&Mutex<AdaptiveState>>,
    poll: &mut dyn FnMut(),
) -> Result<JobOutput<R>, JobError> {
    // Under the adaptive scheduler the shape selection (optimizer +
    // planner + compiled-shape cache) replaces `SimEngine::try_new`'s
    // validate-then-build; the cache outcome rides on the report.
    let engine = match adaptive {
        Some(state) => {
            let mut state = state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state
                .select(&job.config, job.data.len(), class)
                .map(|selection| (selection.shape.engine(), Some(selection.cache_hit)))
        }
        None => SimEngine::try_new(job.config).map(|engine| (engine, None)),
    };
    engine
        .map_err(JobError::Invalid)
        .and_then(|(engine, cache_hit)| {
            let mut engine = match config.max_pass_cycles {
                Some(bound) => engine.with_max_pass_cycles(bound),
                None => engine,
            };
            engine
                .try_sort_yielding(job.data, poll)
                .map(|(sorted, mut report)| {
                    if let Some(hit) = cache_hit {
                        report.shape_cache_hits = u64::from(hit);
                        report.shape_cache_misses = u64::from(!hit);
                    }
                    JobOutput { sorted, report }
                })
                .map_err(JobError::Sim)
        })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "job panicked".to_string())
}

/// A worker pool sorting batches of [`SortJob`]s.
///
/// Submissions flow through a bounded queue; [`Runtime::finish`] closes
/// the queue, joins the workers and returns every collected
/// [`JobResult`] in submission order (by [`JobResult::ticket`]).
/// Jobs submitted with [`Runtime::submit_with_reply`] stream their
/// result through the caller's channel the moment they complete
/// instead, so a long-lived service never has to consume the runtime to
/// observe results. Dropping the runtime without `finish` also closes
/// the queue and joins the workers, discarding any collected results.
#[derive(Debug)]
pub struct Runtime<R: Record> {
    config: RuntimeConfig,
    next_ticket: std::sync::atomic::AtomicU64,
    // The adaptive brain (shape cache + planners), shared with the
    // workers; `None` under `PassScheduler::Fifo`.
    adaptive: Option<Arc<Mutex<AdaptiveState>>>,
    // Reply-path results are delivered through their channel and return
    // `None` from the runner, which the pool does not store, so an
    // always-on service does not accumulate anything per job.
    pool: WorkerPool<Dispatch<R>, JobResult<R>>,
}

impl<R: Record> Runtime<R> {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(config: RuntimeConfig) -> Self {
        let workers = if config.workers == 0 {
            available_cores()
        } else {
            config.workers
        };
        let adaptive = (config.scheduler == PassScheduler::Adaptive)
            .then(|| Arc::new(Mutex::new(AdaptiveState::new(&config.adaptive))));
        let worker_adaptive = adaptive.clone();
        let runner = move |dispatch: Dispatch<R>, lend: &mut dyn FnMut() -> bool| {
            let Dispatch {
                ticket,
                job,
                class,
                reply,
            } = dispatch;
            let id = job.id;
            let start = Instant::now();
            let mut lent = Duration::ZERO;
            // A throughput job lends its worker to queued latency jobs at
            // the engine's yield points, one job a call, while the time
            // lent stays within a FAIRNESS_STRIDE-th of its own.
            let mut poll = || {
                if class == JobClass::Throughput
                    && lent * FAIRNESS_STRIDE <= start.elapsed().saturating_sub(lent)
                {
                    let lending = Instant::now();
                    if lend() {
                        lent += lending.elapsed();
                    }
                }
            };
            // A panicking job must fail alone: catch it here so the
            // worker survives to drain the rest of the queue, and so
            // shutdown never has to join a dead thread.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(job, class, &config, worker_adaptive.as_deref(), &mut poll)
            }))
            .unwrap_or_else(|payload| Err(JobError::Panic(panic_message(payload.as_ref()))));
            let result = JobResult {
                id,
                ticket,
                result,
                wall: start.elapsed().saturating_sub(lent),
            };
            match reply {
                // A dropped receiver means the submitter stopped
                // listening (e.g. its connection died); the result is
                // discarded, never wedging the worker.
                Some(tx) => {
                    let _ = tx.send(result);
                    None
                }
                None => Some(result),
            }
        };
        let queue = ClassQueue::new(config.queue_depth, FAIRNESS_STRIDE);
        let pool = WorkerPool::start(workers, queue, runner);
        Self {
            config,
            next_ticket: std::sync::atomic::AtomicU64::new(0),
            adaptive,
            pool,
        }
    }

    /// Snapshot of the adaptive layer's counters (shape-cache hit rate,
    /// reprograms, per-lane job counts). All zero under
    /// [`PassScheduler::Fifo`].
    #[must_use]
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        self.adaptive
            .as_deref()
            .map(|state| {
                state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .stats()
            })
            .unwrap_or_default()
    }

    /// The scheduling class the runtime assigns a `records`-record job:
    /// latency for jobs of at most 4 096 records under the adaptive
    /// scheduler; everything is latency class (which makes the queue an
    /// exact FIFO) under [`PassScheduler::Fifo`].
    #[must_use]
    pub fn classify(&self, records: usize) -> JobClass {
        match self.config.scheduler {
            PassScheduler::Adaptive if records > SMALL_JOB_RECORDS => JobClass::Throughput,
            _ => JobClass::Latency,
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Jobs waiting in the queue (not yet claimed by a worker).
    pub fn pending(&self) -> usize {
        self.pool.pending()
    }

    fn dispatch(
        &self,
        job: SortJob<R>,
        reply: Option<std::sync::mpsc::Sender<JobResult<R>>>,
    ) -> Result<u64, SubmitError<R>> {
        let ticket = self
            .next_ticket
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let class = self.classify(job.data.len());
        match self.pool.submit(Dispatch {
            ticket,
            job,
            class,
            reply,
        }) {
            Ok(()) => Ok(ticket),
            // A closed queue hands the job back instead of dropping (or
            // panicking over) it.
            Err(PushError::Closed(d)) => Err(SubmitError::Closed(Box::new(d.job))),
        }
    }

    /// Submits a job, blocking while the queue is full (backpressure),
    /// and returns its submission ticket.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] hands the job back if the queue was
    /// closed — e.g. by [`Runtime::close`] on another handle to an
    /// `Arc`-shared runtime. (This used to be an `unreachable!` panic.)
    pub fn submit(&self, job: SortJob<R>) -> Result<u64, SubmitError<R>> {
        self.dispatch(job, None)
    }

    /// Submits a job whose [`JobResult`] is delivered through `reply`
    /// as soon as a worker completes it, instead of being collected for
    /// [`Runtime::finish`]. Blocks while the queue is full
    /// (backpressure) and returns the submission ticket.
    ///
    /// If the receiver is dropped before the job completes, the result
    /// is discarded — the worker never blocks on delivery.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] hands the job back if the queue was
    /// closed.
    pub fn submit_with_reply(
        &self,
        job: SortJob<R>,
        reply: std::sync::mpsc::Sender<JobResult<R>>,
    ) -> Result<u64, SubmitError<R>> {
        self.dispatch(job, Some(reply))
    }

    /// Closes the job queue without consuming the runtime: queued jobs
    /// still drain (and reply-path results still deliver), but every
    /// subsequent submit gets its job back as [`SubmitError::Closed`].
    /// This is the shutdown seam for `Arc`-shared runtimes — a server
    /// can stop intake while connection handlers still hold clones.
    pub fn close(&self) {
        self.pool.close();
    }

    /// Drains the queue, stops the workers and returns every collected
    /// job result in submission order ([`JobResult::ticket`]). Results
    /// already streamed through [`Runtime::submit_with_reply`] channels
    /// are not duplicated here.
    #[must_use]
    pub fn finish(self) -> Vec<JobResult<R>> {
        let mut results = self.pool.finish();
        results.sort_by_key(|r| r.ticket);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_amt::AmtConfig;
    use bonsai_gensort::dist::uniform_u32;
    use bonsai_records::U32Rec;

    fn dram_cfg() -> SimEngineConfig {
        SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4)
    }

    #[test]
    fn batch_sorts_every_job_in_id_order() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let inputs: Vec<Vec<U32Rec>> = (0..6).map(|id| uniform_u32(5_000, id)).collect();
        for (id, data) in inputs.iter().enumerate() {
            runtime
                .submit(SortJob::new(id as u64, dram_cfg(), data.clone()))
                .expect("runtime open");
        }
        let results = runtime.finish();
        assert_eq!(results.len(), 6);
        for (id, r) in results.iter().enumerate() {
            assert_eq!(r.id, id as u64, "results must be ordered by job id");
            let out = r.result.as_ref().expect("valid jobs succeed");
            assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(out.sorted.len(), inputs[id].len());
            assert!(out.report.total_cycles > 0);
        }
    }

    #[test]
    fn invalid_job_fails_alone() {
        let mut bad = dram_cfg();
        bad.loader.record_bytes = 0;
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        runtime
            .submit(SortJob::new(0, dram_cfg(), uniform_u32(2_000, 1)))
            .expect("runtime open");
        runtime
            .submit(SortJob::new(1, bad, uniform_u32(2_000, 2)))
            .expect("runtime open");
        runtime
            .submit(SortJob::new(2, dram_cfg(), uniform_u32(2_000, 3)))
            .expect("runtime open");
        let results = runtime.finish();
        assert!(results[0].result.is_ok());
        assert!(results[2].result.is_ok(), "batch survives a bad job");
        match &results[1].result {
            Err(JobError::Invalid(diagnostics)) => {
                assert!(diagnostics
                    .iter()
                    .any(|d| d.code == bonsai_check::codes::RECORD_WIDTH_ZERO));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn livelock_bound_fails_the_job_not_the_process() {
        let runtime = Runtime::<U32Rec>::start(RuntimeConfig {
            workers: 1,
            max_pass_cycles: Some(10),
            ..RuntimeConfig::default()
        });
        runtime
            .submit(SortJob::new(0, dram_cfg(), uniform_u32(50_000, 4)))
            .expect("runtime open");
        let results = runtime.finish();
        match &results[0].result {
            Err(JobError::Sim(err)) => {
                assert_eq!(err.code(), bonsai_check::codes::SIM_PASS_LIVELOCK);
                assert_eq!(err.stage, 1);
            }
            other => panic!("expected a BON040 Sim error, got {other:?}"),
        }
    }

    #[test]
    fn reports_are_identical_across_runtime_shapes() {
        let data = uniform_u32(20_000, 9);
        let shapes = [
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            RuntimeConfig {
                workers: 4,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        ];
        let outputs: Vec<JobOutput<U32Rec>> = shapes
            .iter()
            .map(|&shape| {
                let runtime = Runtime::start(shape);
                for id in 0..3 {
                    runtime
                        .submit(SortJob::new(id, dram_cfg(), data.clone()))
                        .expect("runtime open");
                }
                let mut results = runtime.finish();
                assert_eq!(results.len(), 3);
                results.remove(0).result.expect("sorts")
            })
            .collect();
        assert_eq!(outputs[0].sorted, outputs[1].sorted);
        assert_eq!(
            outputs[0].report, outputs[1].report,
            "reports must not depend on worker shape"
        );
    }

    /// A record whose *comparison* panics on a poison value — the
    /// smallest way to make a job blow up mid-merge rather than at
    /// submission time (the engine orders records through `Ord`).
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

    #[test]
    fn panicking_job_fails_alone_and_shutdown_still_joins() {
        // The panic fires mid-merge while the other worker may still be
        // sorting: the job-level catch records the failure and the
        // worker goes on draining the queue.
        let runtime = Runtime::<PanicRec>::start(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let clean = |seed: u32| {
            (0..3_000u32)
                .map(|i| PanicRec(i.wrapping_mul(2_654_435_761).wrapping_add(seed) | 1))
                .collect::<Vec<_>>()
        };
        let mut poisoned = clean(7);
        poisoned[1_234] = PanicRec(POISON);
        runtime
            .submit(SortJob::new(0, dram_cfg(), clean(1)))
            .expect("runtime open");
        runtime
            .submit(SortJob::new(1, dram_cfg(), poisoned))
            .expect("runtime open");
        runtime
            .submit(SortJob::new(2, dram_cfg(), clean(2)))
            .expect("runtime open");
        // finish() joins every worker; if the panic had killed a worker
        // instead of failing the job, the remaining jobs could sit in
        // the queue forever and this would hang (tier-1 timeout).
        let results = runtime.finish();
        assert_eq!(results.len(), 3, "every job must produce a result");
        assert!(results[0].result.is_ok());
        assert!(results[2].result.is_ok(), "batch survives a panicking job");
        match &results[1].result {
            Err(JobError::Panic(message)) => {
                assert!(
                    message.contains("poisoned record"),
                    "panic payload must be preserved, got: {message}"
                );
            }
            other => panic!("expected JobError::Panic, got {other:?}"),
        }
    }

    #[test]
    fn drop_after_panicking_job_neither_wedges_nor_leaks() {
        let before = count_own_threads();
        {
            let runtime = Runtime::<PanicRec>::start(RuntimeConfig {
                workers: 2,
                ..RuntimeConfig::default()
            });
            let data: Vec<PanicRec> = (0..2_000u32)
                .map(|i| PanicRec(if i == 999 { POISON } else { i | 1 }))
                .collect();
            runtime
                .submit(SortJob::new(0, dram_cfg(), data))
                .expect("runtime open");
            // Dropped without finish: the drop closes the queue, which
            // unparks any worker still waiting in pop, then joins both.
        }
        // Other tests run concurrently in this process, so poll for the
        // count to come back down instead of demanding instant equality.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if count_own_threads() <= before {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "drop must join every worker thread, panicking job or not"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Thread count of this process via /proc (Linux-only; returns 0 and
    /// trivially passes the leak check elsewhere).
    fn count_own_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
    }

    /// Regression: submitting after the queue was closed out from under
    /// the caller (an `Arc`-shared runtime whose other handle called
    /// `close`) used to hit `unreachable!`; it must hand the job back
    /// as a structured error instead.
    #[test]
    fn submit_after_close_hands_the_job_back() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let data = uniform_u32(1_000, 3);
        runtime.close();
        match runtime.submit(SortJob::new(42, dram_cfg(), data.clone())) {
            Err(SubmitError::Closed(job)) => {
                assert_eq!(job.id, 42, "the rejected job comes back intact");
                assert_eq!(job.data, data, "with its records");
            }
            Ok(ticket) => panic!("closed runtime accepted ticket {ticket}"),
        }
        assert!(
            runtime.finish().is_empty(),
            "nothing was enqueued after close"
        );
    }

    /// Regression: caller-chosen ids may collide (independent clients
    /// pick their own); results must still come back in submission
    /// order with each output attributable to its own submission via
    /// the runtime-assigned ticket.
    #[test]
    fn colliding_ids_are_ordered_and_attributed_by_ticket() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        // Three jobs, all claiming id 7, with distinguishable sizes.
        let sizes = [1_000usize, 2_000, 3_000];
        let tickets: Vec<u64> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                runtime
                    .submit(SortJob::new(7, dram_cfg(), uniform_u32(n, i as u64)))
                    .expect("runtime open")
            })
            .collect();
        assert!(
            tickets.windows(2).all(|w| w[0] < w[1]),
            "tickets are monotonic: {tickets:?}"
        );
        let results = runtime.finish();
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, 7, "caller tag echoed untouched");
            assert_eq!(r.ticket, tickets[i], "submission order preserved");
            let out = r.result.as_ref().expect("sorts");
            assert_eq!(
                out.sorted.len(),
                sizes[i],
                "result {i} must belong to submission {i}, not another id-7 job"
            );
        }
    }

    /// The streaming completion path: each result arrives through the
    /// reply channel as its job finishes, without consuming the
    /// runtime, and `finish` does not return those results again.
    #[test]
    fn submit_with_reply_streams_results_as_they_finish() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let inputs: Vec<Vec<U32Rec>> = (0..4).map(|id| uniform_u32(4_000, id)).collect();
        for (id, data) in inputs.iter().enumerate() {
            runtime
                .submit_with_reply(
                    SortJob::new(id as u64, dram_cfg(), data.clone()),
                    tx.clone(),
                )
                .expect("runtime open");
        }
        drop(tx);
        // Results stream in completion order while the runtime is live.
        let mut streamed: Vec<JobResult<U32Rec>> = rx.iter().collect();
        assert_eq!(streamed.len(), 4, "every reply-path job streams back");
        streamed.sort_by_key(|r| r.ticket);
        for (id, r) in streamed.iter().enumerate() {
            assert_eq!(r.id, id as u64);
            let out = r.result.as_ref().expect("sorts");
            assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(out.sorted.len(), inputs[id].len());
        }
        assert!(
            runtime.finish().is_empty(),
            "streamed results must not be collected a second time"
        );
    }

    /// Regression: the pool used to keep one `None` per reply-path job
    /// until `finish`, so a server that never finishes grew by a
    /// full-width empty slot per job served. Reply-path jobs must leave
    /// nothing stored, while they run and at `finish`.
    #[test]
    fn reply_path_jobs_leave_nothing_in_the_pool() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let jobs = 64;
        for id in 0..jobs {
            runtime
                .submit_with_reply(
                    SortJob::new(id, dram_cfg(), uniform_u32(64, id)),
                    tx.clone(),
                )
                .expect("runtime open");
            assert_eq!(runtime.pool.stored_results(), 0, "after submitting {id}");
        }
        drop(tx);
        assert_eq!(rx.iter().count() as u64, jobs, "every job replies");
        assert_eq!(runtime.pool.stored_results(), 0);
        assert!(runtime.finish().is_empty());
    }

    /// Streamed and batch-collected runs of the same jobs produce
    /// bit-identical outputs and reports: the completion path must not
    /// disturb the sort itself.
    #[test]
    fn reply_path_is_bit_identical_to_batch_path() {
        let data = uniform_u32(10_000, 77);
        let batch = {
            let runtime = Runtime::start(RuntimeConfig {
                workers: 2,
                ..RuntimeConfig::default()
            });
            runtime
                .submit(SortJob::new(0, dram_cfg(), data.clone()))
                .expect("runtime open");
            runtime.finish().remove(0).result.expect("sorts")
        };
        let streamed = {
            let runtime = Runtime::start(RuntimeConfig {
                workers: 2,
                ..RuntimeConfig::default()
            });
            let (tx, rx) = std::sync::mpsc::channel();
            runtime
                .submit_with_reply(SortJob::new(0, dram_cfg(), data.clone()), tx)
                .expect("runtime open");
            let result = rx.recv().expect("reply delivered");
            drop(runtime);
            result.result.expect("sorts")
        };
        assert_eq!(batch.sorted, streamed.sorted);
        assert_eq!(batch.report, streamed.report);
    }

    /// A dropped reply receiver (a client that hung up) must not wedge
    /// or kill the worker; later jobs still complete.
    #[test]
    fn dropped_reply_receiver_does_not_disturb_the_pool() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        drop(rx);
        runtime
            .submit_with_reply(SortJob::new(0, dram_cfg(), uniform_u32(2_000, 5)), tx)
            .expect("runtime open");
        runtime
            .submit(SortJob::new(1, dram_cfg(), uniform_u32(2_000, 6)))
            .expect("runtime open");
        let results = runtime.finish();
        assert_eq!(results.len(), 1, "only the batch job is collected");
        assert_eq!(results[0].id, 1);
        assert!(results[0].result.is_ok());
    }
}
