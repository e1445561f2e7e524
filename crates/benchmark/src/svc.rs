//! The two service workloads. Untraced they drive an in-process
//! `Server` over loopback TCP with closed-loop clients; traced they
//! replay the same job sequence, with the same concurrency, through
//! the stages a job passes on its way through the server — frame
//! encode, frame decode, runtime submit, reply encode, reply decode —
//! called one by one from this file so each can be timed from outside.

use std::collections::HashMap;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bonsai_amt::SimEngineConfig;
use bonsai_gensort::dist::Distribution;
use bonsai_net::frame::{self, WireError};
use bonsai_net::{Client, Reply, Server, ServerConfig, ServerStats};
use bonsai_records::U32Rec;
use bonsai_runtime::{JobClass, JobResult, PassScheduler, Runtime, RuntimeConfig, SortJob};

use crate::inputs::Pool;
use crate::layers::{self, SimCounts};
use crate::outcome::Outcome;
use crate::stats::{Sample, Sorted};
use crate::trace::{self, Recorder, Span, ROOT};
use crate::{load_width, peak_rss_mb, set_up_repeatedly, Params};

/// One closed-loop caller: its own input pool and how many jobs it
/// keeps in flight.
struct Load {
    pool: Pool,
    window: usize,
}

/// A service workload: the server under test and who calls it, the
/// caller with the smallest jobs first.
struct Plan {
    server: ServerConfig,
    loads: Vec<Load>,
}

/// Arrays per job size, split across the callers that send that size.
const POOL_PER_SIZE: usize = 64;

/// The latency tail reported: a window holds thousands of jobs.
const TAIL: f64 = 99.0;

/// Share of each pool sent, unmeasured, before the window opens: fills
/// the shape cache, programs the reconfiguration planner, and lets
/// every thread of the server run once.
const WARM_UP_DIVISOR: usize = 8;

fn plan(workload: &str, seed: u64) -> Plan {
    let width = load_width();
    let uniform = [Distribution::Uniform];
    let runtime = RuntimeConfig {
        workers: width,
        queue_depth: 64,
        ..RuntimeConfig::default()
    };
    match workload {
        "svc_small" => Plan {
            server: ServerConfig {
                runtime,
                ..ServerConfig::default()
            },
            loads: (0..width)
                .map(|c| Load {
                    pool: Pool::generate(seed, c as u64, POOL_PER_SIZE / width, 2048, &uniform),
                    window: 4,
                })
                .collect(),
        },
        "svc_mixed" => Plan {
            server: ServerConfig {
                runtime: RuntimeConfig {
                    scheduler: PassScheduler::Adaptive,
                    ..runtime
                },
                ..ServerConfig::default()
            },
            loads: vec![
                Load {
                    pool: Pool::generate(seed, 0, POOL_PER_SIZE, 1024, &uniform),
                    window: 4,
                },
                Load {
                    pool: Pool::generate(seed, 1, POOL_PER_SIZE, 65_536, &uniform),
                    window: 2,
                },
            ],
        },
        other => unreachable!("{other} is not a service workload"),
    }
}

/// Job ids are unique per run: caller, phase (warm-up or window) and
/// sequence number.
fn job_id(caller: usize, warm_up: bool, seq: usize) -> u64 {
    (caller as u64) << 40 | u64::from(warm_up) << 39 | seq as u64
}

fn caller_of(job: u64) -> usize {
    (job >> 40) as usize
}

fn is_warm_up(job: u64) -> bool {
    job >> 39 & 1 == 1
}

fn seq_of(job: u64) -> usize {
    (job & ((1 << 39) - 1)) as usize
}

/// Something a closed-loop caller can send jobs into and get replies
/// out of: a loopback connection, or the staged in-process replay.
trait Transport {
    fn send(&mut self, job: u64, data: &[U32Rec]) -> io::Result<()>;
    fn recv(&mut self) -> io::Result<Reply<U32Rec>>;
}

impl Transport for Client<U32Rec> {
    fn send(&mut self, job: u64, data: &[U32Rec]) -> io::Result<()> {
        Client::send(self, job, data)
    }
    fn recv(&mut self) -> io::Result<Reply<U32Rec>> {
        Client::recv(self)
    }
}

/// Which part of a run the callers are in.
#[derive(Clone, Copy)]
enum Phase {
    /// Unmeasured: each caller sends the first
    /// `1 / WARM_UP_DIVISOR` of its pool. Callers warm up one after
    /// another, in plan order (smallest jobs first), never side by
    /// side: under the adaptive scheduler the first job to reach a
    /// worker programs the reconfiguration planner, and every later
    /// keep-or-reprogram decision follows from it, so letting the two
    /// streams race here would let a thread race pick the regime the
    /// whole window runs in.
    WarmUp,
    /// Measured: callers run side by side from `opened` for `length`,
    /// but with `full_cycle` not before each has sent its pool once in
    /// full, and never before one job.
    Window {
        opened: Instant,
        length: Duration,
        full_cycle: bool,
    },
}

/// What one caller saw.
#[derive(Default)]
struct Calls {
    /// One per verified job: send to decoded reply.
    samples: Vec<Sample>,
    counts: Outcome,
}

/// One closed-loop caller: keeps `load.window` jobs in flight, takes
/// the pool's arrays in order, and checks every reply against its
/// oracle — exactly once per job id.
fn drive<T: Transport>(transport: &mut T, caller: usize, load: &Load, phase: Phase) -> Calls {
    let mut calls = Calls::default();
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut sent = 0usize;
    let mut broken = String::new();
    let opened = match phase {
        Phase::WarmUp => Instant::now(),
        Phase::Window { opened, .. } => opened,
    };
    loop {
        let more = match phase {
            Phase::WarmUp => sent < (load.pool.len() / WARM_UP_DIVISOR).max(1),
            Phase::Window {
                length, full_cycle, ..
            } => sent == 0 || (full_cycle && sent < load.pool.len()) || opened.elapsed() < length,
        };
        if more && pending.len() < load.window {
            let index = sent % load.pool.len();
            let job = job_id(caller, matches!(phase, Phase::WarmUp), sent);
            sent += 1;
            calls.counts.attempted += 1;
            pending.insert(job, (index, Instant::now()));
            if let Err(e) = transport.send(job, &load.pool.inputs[index]) {
                broken = format!("send: {e}");
                break;
            }
            continue;
        }
        if pending.is_empty() {
            break;
        }
        let reply = transport.recv();
        let received = Instant::now();
        match reply {
            Ok(Reply::Sorted { job_id, records }) => match pending.remove(&job_id) {
                Some((index, sent_at)) if records == load.pool.oracles[index] => {
                    calls.samples.push(Sample {
                        done_s: received.duration_since(opened).as_secs_f64(),
                        lat_ms: received.duration_since(sent_at).as_secs_f64() * 1e3,
                        records: records.len(),
                    });
                }
                Some(_) => calls
                    .counts
                    .fail(|| format!("job {job_id:#x}: output differs from oracle")),
                None => calls
                    .counts
                    .fail(|| format!("job {job_id:#x}: reply for no job in flight")),
            },
            Ok(Reply::ServerError {
                job_id,
                code,
                message,
            }) => {
                pending.remove(&job_id);
                calls
                    .counts
                    .fail(|| format!("job {job_id:#x}: {code}: {message}"));
            }
            Err(e) => {
                broken = format!("recv: {e}");
                break;
            }
        }
    }
    // Whatever is still in flight after an I/O error never got a reply.
    for job in pending.into_keys() {
        calls
            .counts
            .fail(|| format!("job {job:#x}: no reply ({broken})"));
    }
    calls
}

/// Runs every caller — side by side on a thread each in a window, one
/// after another in warm-up; returns what each saw and the wall time
/// from the first send to the last reply.
fn drive_all<T: Transport + Send>(
    transports: &mut [T],
    loads: &[Load],
    phase: Phase,
) -> (Vec<Calls>, Duration) {
    let start = Instant::now();
    let callers = transports.iter_mut().zip(loads).enumerate();
    let calls = match phase {
        Phase::WarmUp => callers
            .map(|(caller, (transport, load))| drive(transport, caller, load, phase))
            .collect(),
        Phase::Window { .. } => std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .map(|(caller, (transport, load))| {
                    scope.spawn(move || drive(transport, caller, load, phase))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        }),
    };
    (calls, start.elapsed())
}

/// A bound server with connected, warmed-up clients.
struct Loopback {
    plan: Plan,
    server: Server<U32Rec>,
    clients: Vec<Client<U32Rec>>,
    /// Replies verified so far, for the cross-check against the
    /// server's own count at shutdown.
    verified: u64,
}

impl Loopback {
    /// Generates the inputs and oracles, binds, connects, warms up;
    /// this is what `setup_s` times.
    fn set_up(workload: &str, seed: u64, out: &mut Outcome) -> io::Result<Self> {
        let plan = plan(workload, seed);
        let server = Server::<U32Rec>::bind("127.0.0.1:0", plan.server)?;
        let mut clients = plan
            .loads
            .iter()
            .map(|_| Client::connect(server.local_addr()))
            .collect::<io::Result<Vec<_>>>()?;
        let (warm, _) = drive_all(&mut clients, &plan.loads, Phase::WarmUp);
        let mut loopback = Self {
            plan,
            server,
            clients,
            verified: 0,
        };
        loopback.absorb(warm, out);
        Ok(loopback)
    }

    fn set_up_all(workload: &str, seed: u64, out: &mut Outcome) -> io::Result<(Self, f64)> {
        set_up_repeatedly(
            out,
            |out| Self::set_up(workload, seed, out),
            |previous, out| {
                previous.tear_down(out);
            },
        )
    }

    fn absorb(&mut self, calls: Vec<Calls>, out: &mut Outcome) -> Vec<Vec<Sample>> {
        calls
            .into_iter()
            .map(|c| {
                self.verified += c.samples.len() as u64;
                out.absorb(c.counts);
                c.samples
            })
            .collect()
    }

    /// Runs the window; returns per-caller samples and the elapsed
    /// wall time.
    fn window(
        &mut self,
        length: Duration,
        full_cycle: bool,
        out: &mut Outcome,
    ) -> (Vec<Vec<Sample>>, Duration) {
        let phase = Phase::Window {
            opened: Instant::now(),
            length,
            full_cycle,
        };
        let (calls, elapsed) = drive_all(&mut self.clients, &self.plan.loads, phase);
        (self.absorb(calls, out), elapsed)
    }

    /// Closes the connections, stops the server and checks that its
    /// counters agree with what the clients saw.
    fn tear_down(self, out: &mut Outcome) -> (Plan, ServerStats) {
        let callers = self.clients.len() as u64;
        drop(self.clients);
        let stats = self.server.shutdown();
        let expected = ServerStats {
            connections: callers,
            jobs_ok: self.verified,
            jobs_failed: 0,
            jobs_rejected: 0,
            wire_errors: 0,
            ..stats
        };
        if stats != expected {
            out.inconsistent(format!(
                "server counters disagree with the clients' ({callers} connections, {} verified replies): {stats:?}",
                self.verified
            ));
        }
        (self.plan, stats)
    }
}

/// Latencies of every caller's jobs.
fn flat(per_caller: &[Vec<Sample>]) -> Sorted {
    Sorted::new(per_caller.iter().flatten().map(|s| s.lat_ms).collect())
}

/// Latencies of the callers that send the workload's smallest jobs.
fn smallest(plan: &Plan, per_caller: &[Vec<Sample>]) -> Sorted {
    let min = plan.loads.iter().map(|l| l.pool.records()).min();
    Sorted::new(
        plan.loads
            .iter()
            .zip(per_caller)
            .filter(|(load, _)| Some(load.pool.records()) == min)
            .flat_map(|(_, samples)| samples.iter().map(|s| s.lat_ms))
            .collect(),
    )
}

fn publish_server_stats(stats: &ServerStats, out: &mut Outcome) {
    out.set("net.connections", stats.connections as f64);
    out.set("net.wire_errors", stats.wire_errors as f64);
    out.set("net.jobs_rejected", stats.jobs_rejected as f64);
}

/// The untraced run: set-up several times, then one loopback window.
///
/// # Errors
///
/// Bind or connect failed.
pub fn run(workload: &str, params: &Params, out: &mut Outcome) -> io::Result<()> {
    let (mut loopback, setup_s) = Loopback::set_up_all(workload, params.seed, out)?;
    let (per_caller, elapsed) = loopback.window(params.window(), true, out);
    let rss = peak_rss_mb();
    let (plan, stats) = loopback.tear_down(out);

    out.set("setup_s", setup_s);
    let samples: Vec<Sample> = per_caller.iter().flatten().copied().collect();
    let all = out.set_steady(&samples, elapsed.as_secs_f64());
    out.set_tails(&all, &smallest(&plan, &per_caller), TAIL);
    out.set("peak_rss_mb", rss);
    publish_server_stats(&stats, out);
    let lookups = stats.shape_cache_hits + stats.shape_cache_misses;
    if lookups > 0 {
        out.set(
            "runtime.shape_cache_hit_ratio",
            stats.shape_cache_hits as f64 / lookups as f64,
        );
        out.set("runtime.reprograms", stats.reprograms as f64);
    }
    Ok(())
}

/// A job in flight in the staged replay.
struct InFlight {
    begin_ns: u64,
    submit_ns: u64,
    request_bytes: usize,
}

/// What the staged replay measured for one finished job.
struct StagedJob {
    job: u64,
    wait_us: f64,
    service_us: f64,
    wire_bytes: usize,
}

/// The stages of the server's job path, called in process: request
/// encode → request decode → `Runtime::submit_with_reply` → reply
/// encode → reply decode. One per caller thread, sharing the runtime.
struct Staged<'a> {
    runtime: &'a Runtime<U32Rec>,
    engine: SimEngineConfig,
    max_payload: u32,
    results: (
        mpsc::Sender<JobResult<U32Rec>>,
        mpsc::Receiver<JobResult<U32Rec>>,
    ),
    rec: Recorder,
    in_flight: HashMap<u64, InFlight>,
    pending_max: usize,
    jobs: Vec<StagedJob>,
    /// Simulated counts of window jobs of the first pool cycle.
    counts: SimCounts,
    first_cycle: usize,
}

impl<'a> Staged<'a> {
    fn new(
        runtime: &'a Runtime<U32Rec>,
        server: &ServerConfig,
        load: &Load,
        epoch: Instant,
        record: bool,
    ) -> Self {
        Self {
            runtime,
            engine: server.engine,
            max_payload: server.max_payload,
            results: mpsc::channel(),
            rec: Recorder::new(epoch, record),
            in_flight: HashMap::new(),
            pending_max: 0,
            jobs: Vec::new(),
            counts: SimCounts::default(),
            first_cycle: load.pool.len(),
        }
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Transport for Staged<'_> {
    fn send(&mut self, job: u64, data: &[U32Rec]) -> io::Result<()> {
        let begin_ns = self.rec.now();
        let request = self.rec.time("net.frame.encode_request", job, 1, || {
            frame::encode_request(job, data)
        });
        let (header, records) = self
            .rec
            .time("net.frame.decode_request", job, 2, || {
                frame::decode_request::<U32Rec>(&request, self.max_payload)
            })
            .map_err(invalid)?;
        self.pending_max = self.pending_max.max(self.runtime.pending());
        let submit_ns = self.rec.now();
        self.runtime
            .submit_with_reply(
                SortJob::new(header.job_id, self.engine, records),
                self.results.0.clone(),
            )
            .map_err(invalid)?;
        self.in_flight.insert(
            job,
            InFlight {
                begin_ns,
                submit_ns,
                request_bytes: request.len(),
            },
        );
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Reply<U32Rec>> {
        let result = self.results.1.recv().map_err(invalid)?;
        let arrive_ns = self.rec.now();
        let job = result.id;
        let flight = self
            .in_flight
            .remove(&job)
            .ok_or_else(|| invalid(format!("result for job {job:#x} not in flight")))?;
        // The worker's wall time ends when it hands the result over, so
        // the service span is placed at the end of submit→arrival and
        // the queue wait (with the reply hand-off) is what precedes it.
        let service_ns = (result.wall.as_nanos() as u64).min(arrive_ns - flight.submit_ns);
        let service_from = arrive_ns - service_ns;
        self.rec
            .push("runtime.queue_wait", job, 3, flight.submit_ns, service_from);
        self.rec
            .push("runtime.service", job, 4, service_from, arrive_ns);

        let mut reply = Vec::new();
        match &result.result {
            Ok(output) => {
                if !is_warm_up(job) && seq_of(job) < self.first_cycle {
                    let submitted = (self.runtime.config().scheduler != PassScheduler::Adaptive)
                        .then_some(&self.engine);
                    self.counts.add(&output.report, submitted);
                }
                self.rec.time("net.frame.write_response_ok", job, 5, || {
                    frame::write_response_ok(&mut reply, job, &output.sorted)
                })?;
            }
            Err(e) => {
                frame::write_response_err(&mut reply, job, &WireError::JobFailed(e.to_string()))?;
            }
        }
        let decoded = self.rec.time("net.frame.read_response", job, 6, || {
            frame::read_response::<_, U32Rec>(&mut reply.as_slice())
        })?;
        let end_ns = self.rec.now();
        self.rec.push(ROOT, job, 0, flight.begin_ns, end_ns);
        self.jobs.push(StagedJob {
            job,
            wait_us: (service_from - flight.submit_ns) as f64 / 1e3,
            service_us: service_ns as f64 / 1e3,
            wire_bytes: flight.request_bytes + reply.len(),
        });
        Ok(decoded)
    }
}

/// One staged pass over all callers.
struct StagedPass {
    per_caller: Vec<Vec<Sample>>,
    jobs: Vec<StagedJob>,
    spans: Vec<Span>,
    counts: Vec<SimCounts>,
    pending_max: usize,
    first_cycle_jobs: usize,
}

fn staged_pass(
    plan: &Plan,
    runtime: &Runtime<U32Rec>,
    phase: Phase,
    record: bool,
    out: &mut Outcome,
) -> StagedPass {
    let epoch = Instant::now();
    let mut transports: Vec<Staged<'_>> = plan
        .loads
        .iter()
        .map(|load| Staged::new(runtime, &plan.server, load, epoch, record))
        .collect();
    let (calls, _) = drive_all(&mut transports, &plan.loads, phase);
    let mut pass = StagedPass {
        per_caller: Vec::new(),
        jobs: Vec::new(),
        spans: Vec::new(),
        counts: Vec::new(),
        pending_max: 0,
        first_cycle_jobs: plan.loads.iter().map(|l| l.pool.len()).sum(),
    };
    for c in calls {
        out.absorb(c.counts);
        pass.per_caller.push(c.samples);
    }
    for t in transports {
        pass.pending_max = pass.pending_max.max(t.pending_max);
        pass.jobs.extend(t.jobs);
        pass.counts.push(t.counts);
        pass.spans.extend(t.rec.into_spans());
    }
    pass
}

/// The traced run: a short loopback window (for `net.socket_us`), the
/// staged replay with spans on then off, then the single-layer calls.
/// The window is split evenly over the three.
///
/// # Errors
///
/// Bind or connect failed.
pub fn run_traced(workload: &str, params: &Params, out: &mut Outcome) -> io::Result<Vec<Span>> {
    let third = params.window() / 3;

    let (mut loopback, _) = Loopback::set_up_all(workload, params.seed, out)?;
    let (per_caller, _) = loopback.window(third, false, out);
    let loopback_lat = flat(&per_caller);
    out.set_tails(&loopback_lat, &smallest(&loopback.plan, &per_caller), TAIL);
    let (plan, stats) = loopback.tear_down(out);
    publish_server_stats(&stats, out);
    let plan = &plan;

    let runtime = Runtime::<U32Rec>::start(plan.server.runtime);
    staged_pass(plan, &runtime, Phase::WarmUp, false, out);
    let window = |full_cycle| Phase::Window {
        opened: Instant::now(),
        length: third,
        full_cycle,
    };
    let on = staged_pass(plan, &runtime, window(true), true, out);
    let adaptive = runtime.adaptive_stats();
    let off = staged_pass(plan, &runtime, window(false), false, out);

    // Frame codec, per job, from the spans.
    let encode = trace::per_job_us(
        &on.spans,
        &["net.frame.encode_request", "net.frame.write_response_ok"],
    );
    let decode = trace::per_job_us(
        &on.spans,
        &["net.frame.decode_request", "net.frame.read_response"],
    );
    out.set_p50(
        "net.frame.encode_us",
        &Sorted::new(encode.into_values().collect()),
    );
    out.set_p50(
        "net.frame.decode_us",
        &Sorted::new(decode.into_values().collect()),
    );

    // Queue wait and service, per class.
    let class_of = |job: u64| runtime.classify(plan.loads[caller_of(job)].pool.records());
    let by_class = |class: JobClass, pick: fn(&StagedJob) -> f64| {
        Sorted::new(
            on.jobs
                .iter()
                .filter(|j| class_of(j.job) == class)
                .map(pick)
                .collect(),
        )
    };
    let wait_latency = by_class(JobClass::Latency, |j| j.wait_us);
    out.set_p50("runtime.queue_wait_us.latency", &wait_latency);
    out.set("runtime.queue_wait_tail_us.latency", wait_latency.tail().0);
    out.set_p50(
        "runtime.service_us.latency",
        &by_class(JobClass::Latency, |j| j.service_us),
    );
    let wait_throughput = by_class(JobClass::Throughput, |j| j.wait_us);
    if !wait_throughput.is_empty() {
        out.set_p50("runtime.queue_wait_us.throughput", &wait_throughput);
        out.set_p50(
            "runtime.service_us.throughput",
            &by_class(JobClass::Throughput, |j| j.service_us),
        );
    }
    out.set("runtime.pending_max", on.pending_max as f64);

    // Exact counts, over the first pool cycle of every caller.
    let first_cycle_bytes: usize = on
        .jobs
        .iter()
        .filter(|j| seq_of(j.job) < plan.loads[caller_of(j.job)].pool.len())
        .map(|j| j.wire_bytes)
        .sum();
    out.set(
        "net.wire_bytes_per_job",
        first_cycle_bytes as f64 / on.first_cycle_jobs as f64,
    );
    let mut counts = SimCounts::default();
    for c in &on.counts {
        counts.merge(c);
    }
    counts.publish(&plan.server.engine.memory, out);

    // Adaptive layer counters (all zero outside the adaptive scheduler).
    let lookups = adaptive.shape_cache_hits + adaptive.shape_cache_misses;
    if lookups > 0 {
        out.set(
            "runtime.shape_cache_hit_ratio",
            adaptive.shape_cache_hits as f64 / lookups as f64,
        );
    }
    out.set(
        "runtime.shape_cache_evictions",
        adaptive.shape_cache_evictions as f64,
    );
    out.set("runtime.reprograms", adaptive.reprograms as f64);
    out.set("runtime.latency_jobs", adaptive.latency_jobs as f64);
    out.set("runtime.throughput_jobs", adaptive.throughput_jobs as f64);

    // The ledger, and what loopback adds on top of the staged path.
    let ledger = trace::ledger(&on.spans);
    let staged_lat = flat(&on.per_caller);
    let unrecorded_lat = flat(&off.per_caller);
    out.set(
        "net.socket_us",
        (loopback_lat.p50() - staged_lat.p50()) * 1e3,
    );
    out.note(
        "net.socket_us",
        format!(
            "loopback p50 {:.3} ms (n={}) minus staged p50 {:.3} ms (n={})",
            loopback_lat.p50(),
            loopback_lat.len(),
            staged_lat.p50(),
            staged_lat.len()
        ),
    );
    out.set("trace.self_us.net", ledger.self_us("net."));
    out.set(
        "trace.self_us.runtime.queue_wait",
        ledger.self_us("runtime.queue_wait"),
    );
    out.set(
        "trace.self_us.runtime.service",
        ledger.self_us("runtime.service"),
    );
    out.set("trace.ledger_residual_pct", ledger.residual_pct());
    out.set(
        "trace.overhead_pct",
        100.0 * (staged_lat.p50() - unrecorded_lat.p50()) / unrecorded_lat.p50(),
    );
    out.note(
        "trace.overhead_pct",
        format!(
            "median staged job {:.3} ms with spans (n={}), {:.3} ms without (n={})",
            staged_lat.p50(),
            staged_lat.len(),
            unrecorded_lat.p50(),
            unrecorded_lat.len()
        ),
    );
    out.info(ledger.describe().trim_end().to_string());
    if let Some((name, us)) = ledger.largest() {
        out.info(format!(
            "largest self time: {name} ({us:.3} us/job; runtime.service is the worker's \
             JobResult::wall: shape selection + engine, split by the model.* and amt.* lines)"
        ));
    }

    // Single layers, called directly on this workload's sizes.
    let smallest = plan
        .loads
        .iter()
        .min_by_key(|l| l.pool.records())
        .expect("a service workload has callers");
    layers::engine_direct(plan.server.engine, &smallest.pool, out);
    if plan.server.runtime.scheduler == PassScheduler::Adaptive {
        let largest = plan
            .loads
            .iter()
            .map(|l| l.pool.records())
            .max()
            .unwrap_or(0);
        let adaptive = &plan.server.runtime.adaptive;
        layers::model_calls(
            &plan.server.engine.memory,
            adaptive.reprogram_cost_us as f64 * 1e-6,
            smallest.pool.records(),
            largest,
            out,
        );
        layers::cache_calls(plan.server.engine, adaptive.cache_shapes, out);
    }

    Ok(on.spans)
}
