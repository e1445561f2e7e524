//! The threaded sort server: accept loop, per-connection framing, and
//! the streaming bridge into [`bonsai_runtime::Runtime`].
//!
//! One listener thread accepts connections; each connection gets a
//! *reader* thread (frames in, jobs submitted) and a *writer* thread
//! (results out, in completion order). Jobs flow through the runtime's
//! bounded queue, so a flood of clients backs up into blocking
//! [`Runtime::submit_with_reply`] calls instead of unbounded buffering,
//! and each connection additionally caps its own in-flight jobs
//! ([`ServerConfig::max_inflight_per_client`]) so one greedy client
//! cannot monopolize the queue.
//!
//! The connection loop is a function of a read half and a write half
//! that decodes with `frame`'s one request reader. Only its socket set-up
//! knows it serves a `TcpStream`, so tests drive it with scripted streams.
//!
//! Failure isolation is per *frame* and per *job*: a malformed frame is
//! answered with a stable `BON07x` error response (and only the
//! desynchronizing kinds close that one connection); a job that fails —
//! or even panics — server-side comes back as `BON077` on its own
//! connection while every other client keeps sorting. A thread the OS
//! refuses closes only the connection it was for.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_records::wire::WireRecord;
use bonsai_runtime::{AdaptiveStats, JobResult, Runtime, RuntimeConfig, SortJob, SubmitError};

use crate::frame::{self, Incoming, WireError, DEFAULT_MAX_PAYLOAD};

/// How often blocked reads wake up to check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Read polls tolerated mid-frame after shutdown begins before the
/// connection is abandoned (`40 × POLL` = a two-second grace window for
/// a client to finish the frame it started).
const SHUTDOWN_GRACE_POLLS: u32 = 40;

/// Knobs of the sort server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// The batch runtime underneath (workers, queue depth, scheduler).
    pub runtime: RuntimeConfig,
    /// Engine configuration every job is sorted with.
    pub engine: SimEngineConfig,
    /// Per-frame payload cap in bytes; a header declaring more is
    /// refused with `BON073`.
    pub max_payload: u32,
    /// Jobs one connection may have in flight before its reader blocks
    /// (fairness across clients on top of the shared bounded queue).
    pub max_inflight_per_client: usize,
    /// Secret for remote graceful shutdown: a control frame
    /// (`record_width == 0`, `payload_len == 0`) whose job id equals
    /// this token stops the server. `None` disables the remote path;
    /// [`Server::shutdown`] always works locally.
    pub shutdown_token: Option<u64>,
    /// Log every wire error to stderr as a `bonsai-check` diagnostic
    /// (the `bonsai-serve` binary turns this on; tests keep it quiet).
    pub log: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            runtime: RuntimeConfig::default(),
            engine: SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_inflight_per_client: 8,
            shutdown_token: None,
            log: false,
        }
    }
}

/// Counters the server accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Jobs sorted and streamed back (`status 0`).
    pub jobs_ok: u64,
    /// Jobs that ran and failed (`BON077`).
    pub jobs_failed: u64,
    /// Jobs refused because the runtime was closing (`BON076`).
    pub jobs_rejected: u64,
    /// Malformed frames answered with `BON070`–`BON075`.
    pub wire_errors: u64,
    /// Shape lookups the adaptive scheduler served from its
    /// compiled-shape cache (always 0 unless the underlying runtime
    /// runs with `scheduler = adaptive`).
    pub shape_cache_hits: u64,
    /// Adaptive shape lookups that paid the shape's validation.
    pub shape_cache_misses: u64,
    /// Modeled device reprograms taken by the adaptive planner.
    pub reprograms: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    connections: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    wire_errors: AtomicU64,
}

impl StatsInner {
    /// Merges the server's own frame/job counters with the runtime's
    /// adaptive-layer counters into one client-facing snapshot.
    fn snapshot(&self, adaptive: AdaptiveStats) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            jobs_ok: self.jobs_ok.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            shape_cache_hits: adaptive.shape_cache_hits,
            shape_cache_misses: adaptive.shape_cache_misses,
            reprograms: adaptive.reprograms,
        }
    }
}

/// State shared between the accept loop, every connection thread, and
/// the owning [`Server`] handle.
struct Shared<R: WireRecord> {
    runtime: Runtime<R>,
    config: ServerConfig,
    stop: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
    stats: StatsInner,
    /// Where a connection's threads come from: [`named_thread`], or in
    /// tests one that fails as a spawn the OS refuses does.
    thread: fn(&'static str) -> io::Result<thread::Builder>,
}

/// A builder for a thread named `name`.
fn named_thread(name: &'static str) -> io::Result<thread::Builder> {
    Ok(thread::Builder::new().name(name.into()))
}

impl<R: WireRecord> Shared<R> {
    fn new(config: ServerConfig) -> Self {
        Self {
            runtime: Runtime::start(config.runtime),
            config,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            stats: StatsInner::default(),
            thread: named_thread,
        }
    }

    /// Stops intake: connections close at their next frame boundary and
    /// the runtime refuses new jobs, while accepted ones still finish.
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.runtime.close();
    }
}

/// A running sort server; dropping (or [`Server::shutdown`]) stops the
/// accept loop, joins every connection, and drains the runtime.
pub struct Server<R: WireRecord> {
    shared: Arc<Shared<R>>,
    accept: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl<R: WireRecord> core::fmt::Debug for Server<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<R: WireRecord> Server<R> {
    /// Binds the listener, starts the runtime and the accept loop.
    /// Bind to port `0` for an ephemeral port and read it back with
    /// [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config));
        let accept_shared = Arc::clone(&shared);
        let accept = named_thread("bonsai-net-accept")?
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Self {
            shared,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The bound address (useful after binding port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time snapshot of the lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared
            .stats
            .snapshot(self.shared.runtime.adaptive_stats())
    }

    /// Whether shutdown has been initiated (locally or by a
    /// shutdown-token control frame).
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until shutdown is initiated — by [`Server::shutdown`]
    /// from another thread or by a client's shutdown-token frame.
    pub fn wait(&self) {
        while !self.is_stopping() {
            thread::sleep(POLL);
        }
    }

    /// Gracefully stops the server: refuses new jobs, lets in-flight
    /// jobs finish and stream out, joins every thread, and returns the
    /// final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_stop();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for handle in conns {
            let _ = handle.join();
        }
    }
}

impl<R: WireRecord> Drop for Server<R> {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop<R: WireRecord>(listener: &TcpListener, shared: &Arc<Shared<R>>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let spawned = (shared.thread)("bonsai-net-conn")
                    .and_then(|conn| conn.spawn(move || serve_conn(stream, &conn_shared)));
                let handle = match spawned {
                    Ok(handle) => handle,
                    // The socket went with the thread's closure, so the
                    // client sees its connection close; accept goes on.
                    Err(e) => {
                        eprintln!("bonsai-serve: no thread for a connection, closed it: {e}");
                        continue;
                    }
                };
                let mut conns = shared.conns.lock().expect("conns lock");
                // A finished connection's handle has nothing left to
                // join: drop it, so a long-lived server holds one handle
                // per open connection, not per connection ever accepted.
                conns.retain(|conn| !conn.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// A connection's read half as the connection loop sees it: a read
/// that times out (a socket's [`POLL`]) is retried until shutdown
/// begins. From then on an idle connection closes at its next poll, and
/// one mid-frame once more than [`SHUTDOWN_GRACE_POLLS`] polls in a row
/// brought nothing.
struct Polled<'a, S> {
    stream: S,
    stop: &'a AtomicBool,
    /// No byte of the current frame has arrived yet.
    idle: bool,
    /// Timed-out polls since shutdown began or the last byte arrived.
    quiet: u32,
}

impl<S: Read> Read for Polled<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        self.quiet += 1;
                        if self.idle || self.quiet > SHUTDOWN_GRACE_POLLS {
                            return Err(e);
                        }
                    }
                }
                Ok(n) => {
                    self.idle = false;
                    self.quiet = 0;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn reply_err<R: WireRecord>(
    writer: &Mutex<impl Write>,
    shared: &Shared<R>,
    job_id: u64,
    err: &WireError,
) {
    if shared.config.log {
        eprintln!("bonsai-serve: {}", err.diagnostic());
    }
    let counter = match err {
        WireError::Closed => &shared.stats.jobs_rejected,
        WireError::JobFailed(_) => &shared.stats.jobs_failed,
        _ => &shared.stats.wire_errors,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    let mut w = writer.lock().expect("writer lock");
    let _ = frame::write_response_err(&mut *w, job_id, err);
}

/// The per-connection writer: streams each finished job back the
/// moment its [`JobResult`] arrives, in completion order, and gives its
/// in-flight token back.
fn writer_loop<R: WireRecord>(
    results: mpsc::Receiver<JobResult<R>>,
    writer: &Mutex<impl Write>,
    release: &SyncSender<()>,
    shared: &Shared<R>,
) {
    // A dead client must not wedge the drain: after the first write
    // failure the loop keeps consuming results (giving their tokens
    // back so the reader can reach EOF) without writing again.
    let mut sink_alive = true;
    for result in results {
        match result.result {
            Ok(output) => {
                shared.stats.jobs_ok.fetch_add(1, Ordering::Relaxed);
                if sink_alive {
                    let mut w = writer.lock().expect("writer lock");
                    sink_alive =
                        frame::write_response_ok(&mut *w, result.id, &output.sorted).is_ok();
                }
            }
            Err(job_err) => {
                if sink_alive {
                    reply_err(
                        writer,
                        shared,
                        result.id,
                        &WireError::JobFailed(job_err.to_string()),
                    );
                } else {
                    shared.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        release.send(()).expect("the window has room");
    }
}

fn serve_conn<R: WireRecord>(stream: TcpStream, shared: &Shared<R>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    if let Ok(write_half) = stream.try_clone() {
        serve_stream(stream, write_half, shared);
    }
}

/// One connection: reads request frames from `read` and submits their
/// jobs, while a scoped writer thread streams each result to `write`.
/// Returns once the client has gone, the stream can no longer be
/// framed, or shutdown closed it, and every job it submitted has been
/// answered or, the client having vanished, discarded.
fn serve_stream<R: WireRecord>(read: impl Read, write: impl Write + Send, shared: &Shared<R>) {
    let mut reader = Polled {
        stream: read,
        stop: &shared.stop,
        idle: true,
        quiet: 0,
    };
    let writer = Mutex::new(write);
    // The in-flight window: a job takes a token before it is submitted
    // and the writer gives it back once the result is out.
    let window = shared.config.max_inflight_per_client.max(1);
    let (release, take) = mpsc::sync_channel(window);
    for _ in 0..window {
        release.send(()).expect("the window has room");
    }
    let (tx, results) = mpsc::channel::<JobResult<R>>();
    thread::scope(|scope| {
        let (writer, release) = (&writer, &release);
        let spawned = (shared.thread)("bonsai-net-writer").and_then(|thread| {
            thread.spawn_scoped(scope, move || writer_loop(results, writer, release, shared))
        });
        // Without a writer no reply could go out: end the connection
        // before it reads a frame.
        let writer_thread = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                eprintln!("bonsai-serve: no writer thread for a connection, closed it: {e}");
                return;
            }
        };
        loop {
            reader.idle = true;
            // A read error ends the connection: the socket failed, or
            // shutdown outlasted the rules of `Polled`.
            let Ok(incoming) = frame::read_request::<R>(&mut reader, shared.config.max_payload)
            else {
                break;
            };
            match incoming {
                Incoming::Closed => break,
                Incoming::Rejected {
                    job_id,
                    err,
                    framed,
                } => {
                    reply_err(writer, shared, job_id, &err);
                    if !framed {
                        break;
                    }
                }
                // With the right token a control frame requests graceful
                // shutdown; otherwise it is width-rejected.
                Incoming::Control(job_id) if shared.config.shutdown_token == Some(job_id) => {
                    shared.begin_stop();
                    let mut w = writer.lock().expect("writer lock");
                    let _ = frame::write_response_ok::<_, R>(&mut *w, job_id, &[]);
                }
                Incoming::Control(job_id) => {
                    let err = WireError::UnsupportedWidth {
                        found: 0,
                        expected: R::WIDTH_BYTES as u16,
                    };
                    reply_err(writer, shared, job_id, &err);
                }
                Incoming::Request(header, records) => {
                    take.recv().expect("the connection holds a token sender");
                    let job = SortJob::new(header.job_id, shared.config.engine, records);
                    if let Err(SubmitError::Closed(job)) =
                        shared.runtime.submit_with_reply(job, tx.clone())
                    {
                        release.send(()).expect("the window has room");
                        reply_err(writer, shared, job.id, &WireError::Closed);
                    }
                }
            }
        }
        // Hand the reader's sender back; the writer drains every
        // in-flight result (workers hold their own clones) and exits.
        drop(tx);
        let _ = writer_thread.join();
    });
}

#[cfg(test)]
mod tests {
    //! The connection fault matrix: `serve_stream` driven by a scripted
    //! read half and write half, with no socket and no sleep. Every case
    //! checks that each job id its client sends is answered exactly once
    //! (sorted, or a `BON07x`) or, where the client vanished, consumed and
    //! discarded, and the matrix checks after each case that the threads
    //! it started are gone. Then the accept loop, over loopback: it keeps
    //! no handle of a connection that has ended.

    use std::collections::{BTreeMap, VecDeque};
    use std::sync::atomic::AtomicUsize;

    use bonsai_records::{Record, U32Rec};

    use super::*;
    use crate::client::Client;
    use crate::frame::{Reply, RequestHeader, HEADER_BYTES};

    /// Held by each test here that starts `bonsai-` threads: the matrix
    /// counts them, so they must not overlap.
    static BONSAI_THREADS: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        BONSAI_THREADS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One step of a scripted read half; past the last step it reads EOF.
    enum Step<'a> {
        /// Bytes handed out at most `Script::chunk` a read.
        Bytes(Vec<u8>),
        /// A read that times out, as a socket's poll does.
        TimedOut,
        /// Runs when the reader gets there, which then reads on.
        Run(Box<dyn FnOnce() + 'a>),
    }

    struct Script<'a> {
        steps: VecDeque<Step<'a>>,
        chunk: usize,
    }

    fn script(steps: Vec<Step<'_>>, chunk: usize) -> Script<'_> {
        Script {
            steps: steps.into(),
            chunk,
        }
    }

    impl Read for Script<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            loop {
                match self.steps.pop_front() {
                    None => return Ok(0),
                    Some(Step::Bytes(mut bytes)) => {
                        let n = bytes.len().min(buf.len()).min(self.chunk);
                        buf[..n].copy_from_slice(&bytes[..n]);
                        if n < bytes.len() {
                            bytes.drain(..n);
                            self.steps.push_front(Step::Bytes(bytes));
                        }
                        if n > 0 {
                            return Ok(n);
                        }
                    }
                    Some(Step::TimedOut) => return Err(io::ErrorKind::TimedOut.into()),
                    Some(Step::Run(run)) => run(),
                }
            }
        }
    }

    /// A scripted write half: keeps the first `budget` bytes written and
    /// then fails every write with `fault`. With `hold` set, its first
    /// write waits until the test lets it go.
    struct Sink {
        kept: Arc<Mutex<Vec<u8>>>,
        budget: usize,
        fault: io::ErrorKind,
        faults: Arc<AtomicUsize>,
        hold: Option<mpsc::Receiver<()>>,
    }

    impl Sink {
        fn new(budget: usize, fault: io::ErrorKind) -> Self {
            Self {
                kept: Arc::default(),
                budget,
                fault,
                faults: Arc::default(),
                hold: None,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if let Some(hold) = self.hold.take() {
                hold.recv().expect("the test lets the writer go");
            }
            let mut kept = self.kept.lock().expect("sink lock");
            let room = self.budget - kept.len();
            if room == 0 {
                self.faults.fetch_add(1, Ordering::SeqCst);
                return Err(self.fault.into());
            }
            let n = room.min(buf.len());
            kept.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn shared(window: usize) -> Shared<U32Rec> {
        Shared::new(ServerConfig {
            runtime: RuntimeConfig {
                workers: 1,
                queue_depth: 4,
                ..RuntimeConfig::default()
            },
            max_inflight_per_client: window,
            ..ServerConfig::default()
        })
    }

    /// Runs one connection to its end and returns the replies the sink
    /// kept whole (one it cut short never reached the client) and how
    /// many writes it failed.
    fn serve(shared: &Shared<U32Rec>, read: Script<'_>, sink: Sink) -> (Vec<Reply<U32Rec>>, usize) {
        let (kept, faults) = (Arc::clone(&sink.kept), Arc::clone(&sink.faults));
        serve_stream(read, sink, shared);
        let kept = kept.lock().expect("sink lock");
        let mut rest = kept.as_slice();
        let mut replies = Vec::new();
        while let Ok(reply) = frame::read_response(&mut rest) {
            replies.push(reply);
        }
        (replies, faults.load(Ordering::SeqCst))
    }

    /// Job `id`'s four records, a zero among them for some ids.
    fn job(id: u64) -> Vec<U32Rec> {
        (0..4u64)
            .map(|i| U32Rec::new(((id * 7919 + i * 104_729) % 1000) as u32))
            .collect()
    }

    const REPLY_BYTES: usize = HEADER_BYTES + 4 * 4;

    fn request(id: u64) -> Vec<u8> {
        frame::encode_request(id, &job(id))
    }

    fn requests(ids: std::ops::Range<u64>) -> Vec<u8> {
        ids.flat_map(request).collect()
    }

    /// A frame with a well-formed header and `payload_len` zero bytes.
    fn raw(record_width: u16, job_id: u64, payload_len: u32) -> Vec<u8> {
        let header = RequestHeader {
            record_width,
            job_id,
            payload_len,
        };
        let mut bytes = header.encode().to_vec();
        bytes.resize(HEADER_BYTES + payload_len as usize, 0);
        bytes
    }

    /// The replies by job id: `"sorted"` (checked against the engine's
    /// contract, sanitize then sort) or the error code. Panics on an id
    /// answered twice.
    fn answers(case: &str, replies: &[Reply<U32Rec>]) -> BTreeMap<u64, String> {
        let mut by_id = BTreeMap::new();
        for reply in replies {
            let (id, answer) = match reply {
                Reply::Sorted { job_id, records } => {
                    let mut want: Vec<U32Rec> = job(*job_id).iter().map(|r| r.sanitize()).collect();
                    want.sort_unstable();
                    assert_eq!(records, &want, "{case}: job {job_id}");
                    (*job_id, "sorted".to_string())
                }
                Reply::ServerError { job_id, code, .. } => (*job_id, code.clone()),
            };
            assert!(
                by_id.insert(id, answer).is_none(),
                "{case}: job {id} answered twice"
            );
        }
        by_id
    }

    fn want(pairs: &[(u64, &str)]) -> BTreeMap<u64, String> {
        pairs.iter().map(|&(id, a)| (id, a.to_string())).collect()
    }

    fn stats(shared: &Shared<U32Rec>) -> ServerStats {
        shared.stats.snapshot(shared.runtime.adaptive_stats())
    }

    /// EOF at every byte offset of a frame that follows a whole one: at
    /// offset 0 a clean close, elsewhere BON072, with the frame's job id
    /// once its header is whole.
    fn eof_at_every_offset() {
        let cut_frame = request(2);
        for cut in 0..cut_frame.len() {
            let case = format!("EOF after {cut} bytes");
            let shared = shared(2);
            let sent = [request(1), cut_frame[..cut].to_vec()].concat();
            let sink = Sink::new(usize::MAX, io::ErrorKind::Other);
            let (replies, _) = serve(&shared, script(vec![Step::Bytes(sent)], usize::MAX), sink);
            let expected = match cut {
                0 => want(&[(1, "sorted")]),
                _ if cut < HEADER_BYTES => want(&[(0, "BON072"), (1, "sorted")]),
                _ => want(&[(1, "sorted"), (2, "BON072")]),
            };
            assert_eq!(answers(&case, &replies), expected, "{case}");
        }
    }

    /// Every byte its own read, each followed by a timed-out poll, over
    /// good frames and each recoverable malformed kind.
    fn short_reads_between_polls() {
        let shared = shared(2);
        let mut bad_version = raw(4, 11, 8);
        bad_version[4] = 9;
        let frames = [
            request(10),
            bad_version,
            raw(4, 12, 10),
            raw(8, 13, 16),
            raw(0, 14, 0),
            request(15),
        ]
        .concat();
        let steps = frames
            .into_iter()
            .flat_map(|byte| [Step::Bytes(vec![byte]), Step::TimedOut])
            .collect();
        let sink = Sink::new(usize::MAX, io::ErrorKind::Other);
        let (replies, _) = serve(&shared, script(steps, 1), sink);
        let expected = want(&[
            (10, "sorted"),
            (11, "BON071"),
            (12, "BON074"),
            (13, "BON075"),
            (14, "BON075"),
            (15, "sorted"),
        ]);
        assert_eq!(answers("short reads", &replies), expected, "short reads");
    }

    /// The client vanishes after `budget` bytes of replies: the replies
    /// that fit arrive whole, and every other result is still consumed,
    /// so the window keeps turning and the loop ends.
    fn client_vanishes_mid_reply() {
        let ids = 20..25;
        for budget in [
            0,
            1,
            HEADER_BYTES,
            REPLY_BYTES,
            REPLY_BYTES + 7,
            3 * REPLY_BYTES - 1,
        ] {
            let case = format!("client gone after {budget} reply bytes");
            let shared = shared(2);
            let read = script(vec![Step::Bytes(requests(ids.clone()))], usize::MAX);
            let sink = Sink::new(budget, io::ErrorKind::ConnectionReset);
            let (replies, faults) = serve(&shared, read, sink);
            let answered = answers(&case, &replies);
            assert_eq!(answered.len(), budget / REPLY_BYTES, "{case}");
            assert!(answered.keys().all(|id| ids.contains(id)), "{case}");
            assert_eq!(stats(&shared).jobs_ok, 5, "{case}: every result consumed");
            assert_eq!(faults, 1, "{case}: no write after the first failure");
        }
    }

    /// A reader that never drains its socket: the first reply times out
    /// and the rest are consumed without another write.
    fn stalled_reader() {
        let shared = shared(2);
        let read = script(vec![Step::Bytes(requests(30..35))], usize::MAX);
        let (replies, faults) = serve(&shared, read, Sink::new(0, io::ErrorKind::TimedOut));
        assert!(replies.is_empty(), "stalled reader: {replies:?}");
        assert_eq!(
            stats(&shared).jobs_ok,
            5,
            "stalled reader: every result consumed"
        );
        assert_eq!(
            faults, 1,
            "stalled reader: one write timeout, not one per reply"
        );
    }

    /// Shutdown begins mid-frame while both of the connection's window
    /// slots are taken (the writer is held). Accepted jobs still answer;
    /// the frame finished within the grace window gets BON076, one that
    /// outlasts it is dropped unanswered, and the idle connection closes
    /// at its next poll without reading the frame after it.
    fn shutdown_with_a_full_window() {
        for (quiet_polls, last) in [
            (SHUTDOWN_GRACE_POLLS, Some("BON076")),
            (SHUTDOWN_GRACE_POLLS + 1, None),
        ] {
            let case = format!("shutdown, {quiet_polls} quiet polls");
            let shared = shared(2);
            let (let_go, hold) = mpsc::channel();
            let stopping = &shared;
            let frame_42 = request(42);
            let mut steps = vec![
                Step::Bytes([requests(40..42), frame_42[..10].to_vec()].concat()),
                Step::Run(Box::new(move || {
                    stopping.begin_stop();
                    let_go.send(()).expect("the writer waits");
                })),
            ];
            steps.extend((0..quiet_polls).map(|_| Step::TimedOut));
            steps.extend([
                Step::Bytes(frame_42[10..].to_vec()),
                Step::TimedOut,
                Step::Bytes(request(43)),
            ]);
            let sink = Sink {
                hold: Some(hold),
                ..Sink::new(usize::MAX, io::ErrorKind::Other)
            };
            let (replies, _) = serve(&shared, script(steps, usize::MAX), sink);
            let mut expected = want(&[(40, "sorted"), (41, "sorted")]);
            expected.extend(last.map(|code| (42, code.to_string())));
            assert_eq!(answers(&case, &replies), expected, "{case}");
        }
    }

    /// Threads of this process named `bonsai-…`. The matrix runs on one,
    /// and every thread it starts is named so or inherits its name,
    /// while the harness's threads are named after their tests.
    fn bonsai_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .flatten()
                .filter(|task| {
                    std::fs::read_to_string(task.path().join("comm"))
                        .is_ok_and(|name| name.starts_with("bonsai-"))
                })
                .count()
        })
    }

    /// A thread source that fails as a spawn the OS refuses does.
    fn refused(_: &'static str) -> io::Result<thread::Builder> {
        Err(io::Error::new(io::ErrorKind::WouldBlock, "no thread"))
    }

    /// The OS refuses the connection's writer thread: the connection
    /// ends before it reads a frame, so no job runs and none is
    /// answered, and nothing panics.
    fn writer_thread_refused() {
        let mut shared = shared(2);
        shared.thread = refused;
        let read = script(vec![Step::Bytes(requests(50..53))], usize::MAX);
        let (replies, faults) = serve(&shared, read, Sink::new(usize::MAX, io::ErrorKind::Other));
        assert!(replies.is_empty(), "writer refused: {replies:?}");
        assert_eq!(faults, 0, "writer refused: nothing written");
        assert_eq!(stats(&shared).jobs_ok, 0, "writer refused: no job ran");
    }

    #[test]
    fn connection_faults_end_in_exactly_once_or_error() {
        let cases: [(&str, fn()); 6] = [
            ("EOF at every offset", eof_at_every_offset),
            ("short reads between polls", short_reads_between_polls),
            ("client vanishes mid-reply", client_vanishes_mid_reply),
            ("stalled reader", stalled_reader),
            ("shutdown with a full window", shutdown_with_a_full_window),
            ("writer thread refused", writer_thread_refused),
        ];
        // One thread runs the cases in turn, so each count compares
        // like with like.
        let _serial = serial();
        let matrix = thread::Builder::new()
            .name("bonsai-net-faults".into())
            .spawn(move || {
                let baseline = bonsai_threads();
                for (case, run) in cases {
                    run();
                    // A joined thread leaves the task list a moment after
                    // its joiner wakes: give the kernel a few yields.
                    let mut now = bonsai_threads();
                    for _ in 0..1000 {
                        if now == baseline {
                            break;
                        }
                        thread::yield_now();
                        now = bonsai_threads();
                    }
                    assert_eq!(now, baseline, "{case}: a thread outlived it");
                }
            })
            .expect("spawn the matrix thread");
        if let Err(panic) = matrix.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// 32 connections in turn, each sorting one job and closing: the
    /// accept loop drops the handles of those that have ended instead
    /// of holding all 32 until shutdown.
    #[test]
    fn finished_connection_threads_are_reaped() {
        let _serial = serial();
        let server = Server::<U32Rec>::bind(
            "127.0.0.1:0",
            ServerConfig {
                runtime: RuntimeConfig {
                    workers: 1,
                    ..RuntimeConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        for id in 0..32 {
            let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
            let reply = client.sort(id, &job(id)).expect("one reply");
            assert_eq!(answers("reap", &[reply]), want(&[(id, "sorted")]));
        }
        let held = server.shared.conns.lock().expect("conns lock").len();
        assert!(held < 32, "{held} handles kept for 32 closed connections");
        assert_eq!(server.shutdown().connections, 32);
    }

    /// The OS refuses the first connection's thread: that socket closes
    /// at once, and the accept loop goes on to serve the next client.
    #[test]
    fn a_refused_connection_thread_closes_only_its_socket() {
        static REFUSED_ONCE: AtomicBool = AtomicBool::new(false);
        fn refuse_first_connection(name: &'static str) -> io::Result<thread::Builder> {
            if name == "bonsai-net-conn" && !REFUSED_ONCE.swap(true, Ordering::SeqCst) {
                return refused(name);
            }
            named_thread(name)
        }

        let _serial = serial();
        let mut shared = shared(2);
        shared.thread = refuse_first_connection;
        let shared = Arc::new(shared);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("bound address");
        thread::scope(|scope| {
            let accept = scope.spawn(|| accept_loop(&listener, &shared));
            // Raw sockets with a read timeout: a dead accept loop fails
            // the test instead of hanging it.
            let connect = || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                stream
            };
            let closed = connect().read(&mut [0u8; 1]);
            assert!(
                matches!(closed, Ok(0)),
                "a refused connection reads EOF: {closed:?}"
            );
            let mut second = connect();
            second.write_all(&request(7)).expect("send a job");
            let reply = frame::read_response(&mut second).expect("one reply");
            assert_eq!(answers("after a refusal", &[reply]), want(&[(7, "sorted")]));
            drop(second);
            shared.begin_stop();
            accept.join().expect("the accept loop ends at shutdown");
        });
        let conns = std::mem::take(&mut *shared.conns.lock().expect("conns lock"));
        for conn in conns {
            conn.join().expect("a connection thread ends");
        }
        assert_eq!(stats(&shared).connections, 2);
    }
}
