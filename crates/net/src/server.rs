//! The threaded sort server: accept loop, per-connection framing, and
//! the streaming bridge into [`bonsai_runtime::Runtime`].
//!
//! One listener thread accepts connections; each connection gets a
//! *reader* thread (frames in, jobs submitted) and a *writer* thread
//! (results out, in completion order). The listener thread blocks in
//! `accept`, so a client's first frame is read as soon as it connects;
//! shutdown wakes it with one loopback connect to the bound port, which
//! it drops uncounted, as it drops any connection that arrives once
//! shutdown has begun. At most `MAX_CONNECTIONS` connections are served
//! at once: one past that is answered with a `BON076` frame (job id 0)
//! and closed. Jobs flow through the runtime's
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
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
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

/// Connections served at once. Each costs a reader and a writer thread
/// and may hold one decoded frame; one accepted past the cap gets a
/// `BON076` frame and is closed. Twice the 64 clients of CI's loadgen
/// session, so a connection that follows them before their threads have
/// ended is still served.
#[cfg(not(test))]
const MAX_CONNECTIONS: usize = 128;
#[cfg(test)]
const MAX_CONNECTIONS: usize = 8;

/// How long an accept error that is not one connection's own waits
/// before the next `accept` (running out of descriptors, say, which
/// only a closing connection cures).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// How long shutdown's wake connect may take. It can only be slow when
/// the backlog is full, and then the accept loop is about to return a
/// queued client and see the stop anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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
    /// Connections accepted before shutdown began, those turned away at
    /// the connection cap included.
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
    /// Paired with `stopped`: [`Server::wait`] sleeps on it until
    /// `stop` is set.
    stop_lock: Mutex<()>,
    stopped: Condvar,
    /// Where [`Shared::begin_stop`] connects to wake the accept loop
    /// (see [`connectable`]); `None` when nothing accepts.
    wake: Option<SocketAddr>,
    /// Connections being served, the count [`MAX_CONNECTIONS`] caps:
    /// [`admit`] takes a place before it spawns a connection's thread,
    /// and that connection's [`OpenSlot`] gives it back.
    open: AtomicUsize,
    /// The connection threads, held only so shutdown can join them.
    conns: Mutex<Vec<JoinHandle<()>>>,
    stats: StatsInner,
    /// Where a connection's threads come from: [`named_thread`], or in
    /// tests one that fails as a spawn the OS refuses does.
    thread: fn(&'static str) -> io::Result<thread::Builder>,
    /// How the accept loop takes its next connection:
    /// [`TcpListener::accept`], or in tests one that fails first.
    accept: fn(&TcpListener) -> io::Result<(TcpStream, SocketAddr)>,
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
            stop_lock: Mutex::new(()),
            stopped: Condvar::new(),
            wake: None,
            open: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            stats: StatsInner::default(),
            thread: named_thread,
            accept: TcpListener::accept,
        }
    }

    /// Stops intake: connections close at their next frame boundary and
    /// the runtime refuses new jobs, while accepted ones still finish.
    /// The first call wakes [`Server::wait`] and the accept loop; later
    /// ones do nothing.
    fn begin_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.runtime.close();
        // A waiter checks `stop` holding the lock, so once the lock has
        // been taken here it is either past its check or asleep.
        drop(self.stop_lock.lock().expect("stop lock"));
        self.stopped.notify_all();
        if let Some(addr) = self.wake {
            if let Err(e) = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT) {
                eprintln!("bonsai-serve: could not wake the accept loop at {addr}: {e}");
            }
        }
    }
}

/// Where to connect to reach a listener bound at `bound`: the address
/// itself, or the loopback of its family when it is unspecified
/// (`0.0.0.0`, `[::]`), which is not an address one can connect to
/// everywhere.
fn connectable(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
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
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            wake: Some(connectable(local_addr)),
            ..Shared::new(config)
        });
        let accept_shared = Arc::clone(&shared);
        let accept = named_thread("bonsai-net-accept")?
            .spawn(move || accept_loop(listener, &accept_shared))?;
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

    /// Blocks until shutdown is initiated, which while the server is
    /// borrowed only a client's shutdown-token frame can do; returns at
    /// once if it already has been.
    pub fn wait(&self) {
        let mut guard = self.shared.stop_lock.lock().expect("stop lock");
        while !self.is_stopping() {
            guard = self.shared.stopped.wait(guard).expect("stop lock");
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

/// Takes connections until shutdown begins. It owns the listener, so
/// however it ends, by a stop or a panic, the socket closes and a client
/// still in the backlog sees its connection reset rather than wait.
fn accept_loop<R: WireRecord>(listener: TcpListener, shared: &Arc<Shared<R>>) {
    loop {
        let accepted = (shared.accept)(&listener);
        // Once shutdown has begun, whatever `accept` returned (shutdown's
        // own wake connection, or a client too late) is dropped uncounted.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => admit(stream, shared),
            // That one connection failed before it was taken: take the
            // next.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::Interrupted
                ) => {}
            // Out of descriptors or memory, say: the next `accept` may
            // succeed once something is freed, and only a stop ends the
            // loop.
            Err(e) => {
                eprintln!("bonsai-serve: accept failed, retrying: {e}");
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
}

/// One connection's place in [`Shared::open`], given back when this
/// drops: at the end of the connection's thread, in a panic there too,
/// or with the closure of a spawn that was refused.
struct OpenSlot<R: WireRecord>(Arc<Shared<R>>);

impl<R: WireRecord> Drop for OpenSlot<R> {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves an accepted connection on its own thread, or, with
/// [`MAX_CONNECTIONS`] already open, answers it with one `BON076` frame
/// (job id 0) and closes it.
fn admit<R: WireRecord>(mut stream: TcpStream, shared: &Arc<Shared<R>>) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    // Only this thread takes places, so the count cannot rise between
    // the check and the take.
    if shared.open.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
        if shared.config.log {
            eprintln!("bonsai-serve: {MAX_CONNECTIONS} connections open, turned one away (BON076)");
        }
        let _ = frame::write_response_err(&mut stream, 0, &WireError::Closed);
        return;
    }
    shared.open.fetch_add(1, Ordering::SeqCst);
    let slot = OpenSlot(Arc::clone(shared));
    let spawned = (shared.thread)("bonsai-net-conn")
        .and_then(|conn| conn.spawn(move || serve_conn(stream, &slot.0)));
    match spawned {
        Ok(handle) => {
            let mut conns = shared.conns.lock().expect("conns lock");
            // A finished connection's handle has nothing left to join:
            // drop it, so the server holds one handle per open
            // connection, not per connection ever accepted.
            conns.retain(|conn| !conn.is_finished());
            conns.push(handle);
        }
        // The socket and the slot went with the thread's closure, so the
        // client sees its connection close and its place is free again;
        // accept goes on.
        Err(e) => eprintln!("bonsai-serve: no thread for a connection, closed it: {e}"),
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
    //! no handle of a connection that has ended, survives accept errors
    //! and refused threads, closes its listener when it dies, caps the
    //! connections it serves, and every way of stopping the server ends
    //! it promptly.

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

    /// Threads of this process named `bonsai-…`. A thread-counting test
    /// runs its cases on one ([`without_leaked_threads`]), and every
    /// thread a case starts is named so or inherits its name, while the
    /// harness's threads are named after their tests.
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

    /// A case of a thread-counting test: its name and its body.
    type Case = (String, Box<dyn FnOnce() + Send>);

    /// Runs `cases` in turn on one thread named `bonsai-{name}`, so that
    /// each count compares like with like, and checks after each case
    /// that every thread it started is gone.
    fn without_leaked_threads(name: &str, cases: Vec<Case>) {
        let _serial = serial();
        let runner = thread::Builder::new()
            .name(format!("bonsai-{name}"))
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
            .expect("spawn the thread-counting runner");
        if let Err(panic) = runner.join() {
            std::panic::resume_unwind(panic);
        }
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
        let cases = cases
            .into_iter()
            .map(|(case, run)| (case.to_string(), Box::new(run) as Box<dyn FnOnce() + Send>))
            .collect();
        without_leaked_threads("net-faults", cases);
    }

    /// A loopback listener for `shared`'s accept loop, with `shared` set
    /// to wake that loop at shutdown.
    fn listen(shared: &mut Shared<U32Rec>) -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        shared.wake = Some(addr);
        (listener, addr)
    }

    /// Joins the connection threads `shared`'s accept loop started.
    fn join_conns(shared: &Shared<U32Rec>) {
        let conns = std::mem::take(&mut *shared.conns.lock().expect("conns lock"));
        for conn in conns {
            conn.join().expect("a connection thread ends");
        }
    }

    fn small_server() -> Server<U32Rec> {
        Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                runtime: RuntimeConfig {
                    workers: 1,
                    ..RuntimeConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
    }

    /// One round trip of job `id` on `client`.
    #[track_caller]
    fn sorts(client: &mut Client<U32Rec>, id: u64) {
        let reply = client.sort(id, &job(id)).expect("one reply");
        assert_eq!(answers("round trip", &[reply]), want(&[(id, "sorted")]));
    }

    /// How many connections `server` serves, the count its cap reads.
    fn open_conns(server: &Server<U32Rec>) -> usize {
        server.shared.open.load(Ordering::SeqCst)
    }

    /// 32 connections in turn, each sorting one job and closing: the
    /// accept loop drops the handles of those that have ended instead
    /// of holding all 32 until shutdown.
    #[test]
    fn finished_connection_threads_are_reaped() {
        let _serial = serial();
        let server = small_server();
        for id in 0..32 {
            // A connection's thread can outlive its client's close for a
            // moment, and a busy host can stack up enough of them to
            // reach the cap.
            while open_conns(&server) >= MAX_CONNECTIONS {
                thread::yield_now();
            }
            let mut client = Client::<U32Rec>::connect(server.local_addr()).expect("connect");
            sorts(&mut client, id);
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
        let (listener, addr) = listen(&mut shared);
        let shared = Arc::new(shared);
        thread::scope(|scope| {
            let accept = scope.spawn(|| accept_loop(listener, &shared));
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
        join_conns(&shared);
        assert_eq!(stats(&shared).connections, 2);
        assert_eq!(shared.open.load(Ordering::SeqCst), 0, "places held");
    }

    /// A connection's thread panics (its writer's thread source does):
    /// the client reads the socket close, and the place it held under
    /// the cap is free again.
    #[test]
    fn a_panicking_connection_gives_its_place_back() {
        fn panics_for_the_writer(name: &'static str) -> io::Result<thread::Builder> {
            assert_ne!(name, "bonsai-net-writer", "no writer, and no way to go on");
            named_thread(name)
        }

        let _serial = serial();
        let mut shared = shared(2);
        shared.thread = panics_for_the_writer;
        let (listener, addr) = listen(&mut shared);
        let shared = Arc::new(shared);
        thread::scope(|scope| {
            let accept = scope.spawn(|| accept_loop(listener, &shared));
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let closed = stream.read(&mut [0u8; 1]);
            assert!(matches!(closed, Ok(0)), "the socket closes: {closed:?}");
            shared.begin_stop();
            accept.join().expect("the accept loop ends at shutdown");
        });
        let conns = std::mem::take(&mut *shared.conns.lock().expect("conns lock"));
        for conn in conns {
            assert!(conn.join().is_err(), "the connection thread panicked");
        }
        assert_eq!(shared.open.load(Ordering::SeqCst), 0, "places held");
    }

    /// `accept` fails for one connection and then as a process out of
    /// descriptors does: the loop goes on, and the client behind the
    /// failures is served.
    #[test]
    fn accept_errors_never_end_the_loop() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn failing_first(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
            match CALLS.fetch_add(1, Ordering::SeqCst) {
                0 => Err(io::ErrorKind::ConnectionAborted.into()),
                // EMFILE.
                1 => Err(io::Error::from_raw_os_error(24)),
                _ => listener.accept(),
            }
        }

        let _serial = serial();
        let mut shared = shared(2);
        shared.accept = failing_first;
        let (listener, addr) = listen(&mut shared);
        let shared = Arc::new(shared);
        thread::scope(|scope| {
            let accept = scope.spawn(|| accept_loop(listener, &shared));
            let mut client = Client::<U32Rec>::connect(addr).expect("connect");
            sorts(&mut client, 8);
            drop(client);
            shared.begin_stop();
            accept.join().expect("the accept loop ends at shutdown");
        });
        join_conns(&shared);
        assert!(CALLS.load(Ordering::SeqCst) >= 3, "both failures were met");
        assert_eq!(stats(&shared).connections, 1);
    }

    /// The accept thread dies: its thread source panics on the first
    /// connection. The listener dies with it, so a client queued in the
    /// backlog behind that connection gets an error from
    /// [`Client::sort`] instead of waiting for a reply forever.
    #[test]
    fn a_dead_accept_loop_resets_its_backlog() {
        fn panics(name: &'static str) -> io::Result<thread::Builder> {
            panic!("no {name} thread, and no way to go on");
        }

        let _serial = serial();
        let mut shared = shared(2);
        shared.thread = panics;
        let (listener, addr) = listen(&mut shared);
        let shared = Arc::new(shared);
        // Both handshakes complete into the backlog before anything
        // accepts.
        let first = Client::<U32Rec>::connect(addr).expect("connect");
        let mut queued = Client::<U32Rec>::connect(addr).expect("connect");
        let died = thread::scope(|scope| scope.spawn(|| accept_loop(listener, &shared)).join());
        assert!(died.is_err(), "the accept thread panicked");
        // On a thread, so that a hang fails the test instead.
        let (done, sorted) = mpsc::channel();
        let sorting = thread::spawn(move || done.send(queued.sort(9, &job(9))));
        let reply = sorted
            .recv_timeout(Duration::from_secs(10))
            .expect("Client::sort returns");
        assert!(reply.is_err(), "a queued client reads an error: {reply:?}");
        sorting
            .join()
            .expect("the sorting thread ends")
            .expect("the reply was received");
        drop(first);
    }

    /// With [`MAX_CONNECTIONS`] open, the next client reads one `BON076`
    /// frame with job id 0 and then EOF. Once an open connection ends, a
    /// client is served again: the cap counts open connections.
    #[test]
    fn connections_past_the_cap_are_turned_away() {
        let _serial = serial();
        let server = small_server();
        let addr = server.local_addr();
        let mut open: Vec<Client<U32Rec>> = (0..MAX_CONNECTIONS as u64)
            .map(|id| {
                let mut client = Client::connect(addr).expect("connect");
                sorts(&mut client, id);
                client
            })
            .collect();
        // A raw socket with a read timeout: a server that serves it
        // fails the test instead of hanging it.
        let mut turned_away = TcpStream::connect(addr).expect("connect");
        turned_away
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        match frame::read_response::<_, U32Rec>(&mut turned_away) {
            Ok(Reply::ServerError { job_id, code, .. }) => {
                assert_eq!((job_id, code.as_str()), (0, "BON076"));
            }
            other => panic!("expected BON076 past the cap, got {other:?}"),
        }
        let closed = turned_away.read(&mut [0u8; 1]);
        assert!(matches!(closed, Ok(0)), "then EOF: {closed:?}");
        drop(open.pop());
        while open_conns(&server) == MAX_CONNECTIONS {
            thread::yield_now();
        }
        let mut next = Client::<U32Rec>::connect(addr).expect("connect");
        sorts(&mut next, 99);
        drop((open, next));
        // The cap's worth, the one turned away and the next one served.
        assert_eq!(server.shutdown().connections, MAX_CONNECTIONS as u64 + 2);
    }

    /// What a server has seen when it is shut down.
    #[derive(Debug, Clone, Copy)]
    enum Before {
        Nothing,
        /// A client that sorted one job and stays connected.
        AnIdleClient,
        /// A client's shutdown-token frame.
        TheTokenFrame,
    }

    const TOKEN: u64 = 0x570B;

    /// A server bound at `addr` shuts down within two seconds of being
    /// asked, and its counters never see the connection that woke its
    /// accept loop. A token frame also wakes a thread in
    /// [`Server::wait`].
    fn stops_promptly(addr: &str, before: Before) {
        let config = ServerConfig {
            runtime: RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            shutdown_token: Some(TOKEN),
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::<U32Rec>::bind(addr, config).expect("bind"));
        let to = connectable(server.local_addr());
        let (client, connections) = match before {
            Before::Nothing => (None, 0),
            Before::AnIdleClient => {
                let mut client = Client::connect(to).expect("connect");
                sorts(&mut client, 1);
                (Some(client), 1)
            }
            Before::TheTokenFrame => {
                let (woke, woken) = mpsc::channel();
                let waiting = Arc::clone(&server);
                let waiter = thread::spawn(move || {
                    waiting.wait();
                    woke.send(()).expect("the test listens");
                });
                let mut client = Client::connect(to).expect("connect");
                let ack = client.request_shutdown(TOKEN).expect("ack");
                assert!(
                    matches!(&ack, Reply::Sorted { job_id: TOKEN, records } if records.is_empty()),
                    "{addr}: {ack:?}"
                );
                woken
                    .recv_timeout(Duration::from_secs(2))
                    .unwrap_or_else(|_| panic!("{addr}: the token frame did not end wait()"));
                waiter.join().expect("the waiter ends");
                (Some(client), 1)
            }
        };
        let server = Arc::into_inner(server).expect("no other owner is left");
        // On a thread, so that a hang fails the test instead.
        let (done, stopped) = mpsc::channel();
        let stopping = thread::spawn(move || done.send(server.shutdown()));
        let stats = stopped
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{addr}, {before:?}: shutdown took over 2 s"));
        stopping
            .join()
            .expect("shutdown ends")
            .expect("its counters were received");
        assert_eq!(stats.connections, connections, "{addr}, {before:?}");
        drop(client);
    }

    /// Every stop path on every kind of bound address: `Server::shutdown`
    /// on an idle server and on one with an idle client, and a token
    /// frame followed by `shutdown`, on `127.0.0.1`, `0.0.0.0` and `[::]`.
    #[test]
    fn every_stop_path_ends_the_server_promptly() {
        let mut cases: Vec<Case> = Vec::new();
        for addr in ["127.0.0.1:0", "0.0.0.0:0", "[::]:0"] {
            if let Err(e) = TcpListener::bind(addr) {
                eprintln!("skipping {addr}: this host cannot bind it: {e}");
                continue;
            }
            for before in [Before::Nothing, Before::AnIdleClient, Before::TheTokenFrame] {
                cases.push((
                    format!("{addr}, {before:?}"),
                    Box::new(move || stops_promptly(addr, before)),
                ));
            }
        }
        without_leaked_threads("net-stops", cases);
    }
}
