//! The serving loop: `std::net` threads multiplexing one shared engine.
//!
//! Topology (no async runtime — the workspace is offline, so this is
//! plain threads, a mutex-and-condvar queue, and short read timeouts as
//! the polling tick):
//!
//! ```text
//!   accept thread ──► reader thread per connection
//!                         │  parse frames (FrameBuffer)
//!                         │  inline ops: Hello / Ping / Stats /
//!                         │              OpenDocument / Shutdown
//!                         │  engine ops: admission ──► bounded queue
//!                         ▼                               │
//!                    Busy / Error                         ▼
//!                    (same socket)            worker pool (N threads)
//!                                             Session::query_serialized
//!                                             ... masks, stamps, writes
//! ```
//!
//! Responses are written under a per-connection mutex (readers answer
//! control ops, workers answer engine ops, both to the same socket), so a
//! client may pipeline freely; the `request_id` echo tells answers apart.
//!
//! **Backpressure, never buffering:** a request passes its tenant's
//! admission gates and then `try_push`es into the bounded queue. Either
//! refusal is a `Busy` frame with a retry hint on the open connection —
//! the server never queues unboundedly and never disconnects a client
//! for being eager.
//!
//! **Graceful drain:** `Shutdown` (wire, admin-only) or
//! [`ServerHandle::shutdown`] flips the drain flag, closes the queue
//! (which *keeps* its queued items), and wakes the acceptor. New engine
//! ops are refused with `SHUTTING_DOWN`; queued and in-flight requests
//! run to completion and their responses reach the client before sockets
//! close.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smoqe::engine::Session;
use smoqe::{Engine, QueryRequest, WorkBudget};

use crate::admission::{Admission, InflightGuard, TenantQuota, TokenBucket};
use crate::context::RequestContext;
use crate::proto::{
    code, FrameBuffer, Principal, Request, Response, WireAnswer, WireStats, WireTenant,
    WireUpdateReport, DEFAULT_MAX_FRAME_LEN,
};
use crate::queue::{PushError, WorkQueue};
use crate::trace::{Outcome, TraceLog};

/// Everything tunable about a server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing engine ops.
    pub workers: usize,
    /// Bound of the global work queue (the backpressure point).
    pub queue_capacity: usize,
    /// Maximum simultaneously open connections; excess connections get
    /// one `Busy` frame and are closed.
    pub max_connections: usize,
    /// Socket read timeout — doubles as the shutdown-poll tick, so keep
    /// it short.
    pub read_timeout: Duration,
    /// Socket write timeout (a stuck client cannot wedge a worker for
    /// longer than this per frame).
    pub write_timeout: Duration,
    /// Largest accepted frame; larger ones are rejected from the length
    /// prefix alone.
    pub max_frame_len: u32,
    /// Admission quota for group tenants without an override.
    pub default_quota: TenantQuota,
    /// Admission quota for the admin tenant.
    pub admin_quota: TenantQuota,
    /// Named per-tenant quota overrides.
    pub tenant_quotas: HashMap<String, TenantQuota>,
    /// Per-connection rate cap on inline control ops (`Hello`, `Stats`,
    /// `OpenDocument`, `Shutdown`) — these are served on the reader
    /// thread and bypass per-tenant admission, so without this cap one
    /// connection could spin them at unbounded rate against shared
    /// locks. `max_inflight` is ignored (inline ops never occupy a
    /// worker slot). `Ping` stays uncapped: it is the liveness probe and
    /// touches no shared state.
    pub control_quota: TenantQuota,
    /// Token a `Hello` must present to bind as [`Principal::Admin`].
    ///
    /// `None` (the default) falls back to a peer-address check: admin
    /// sessions are accepted only from loopback peers. Set a token to
    /// serve admins across the network.
    pub admin_token: Option<String>,
    /// Per-group authentication tokens. A group with an entry here must
    /// present it at `Hello`; groups without an entry bind freely (they
    /// only ever see their own security view). See "Security over the
    /// wire" in the README for the full trust model.
    pub group_tokens: HashMap<String, String>,
    /// Trace ring capacity (0 disables tracing).
    pub trace_capacity: usize,
    /// Brownout high-watermark: when the work queue holds at least this
    /// many entries, new **non-admin** engine ops are refused with an
    /// `Overloaded` frame (admin work still queues — the operator must be
    /// able to reach an overloaded server). Keeping the watermark below
    /// `queue_capacity` leaves headroom so the hard queue-full `Busy`
    /// path stays rare under sustained overload. `usize::MAX` disables
    /// brownout.
    pub brownout_watermark: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue_capacity: 1024,
            max_connections: 4096,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            default_quota: TenantQuota::default(),
            admin_quota: TenantQuota::unlimited(),
            tenant_quotas: HashMap::new(),
            control_quota: TenantQuota {
                rate_per_sec: 100.0,
                burst: 200,
                max_inflight: usize::MAX,
            },
            admin_token: None,
            group_tokens: HashMap::new(),
            trace_capacity: 4096,
            // Three quarters of the default queue_capacity.
            brownout_watermark: 768,
        }
    }
}

/// One queued engine op: everything a worker needs to execute, answer and
/// account for it. Dropping the job (queue-full push failure) releases
/// the tenant's inflight slot via the guard.
struct Job {
    ctx: RequestContext,
    request: Request,
    session: Arc<Session>,
    out: Arc<ConnWriter>,
    admitted: Instant,
    /// Absolute expiry computed from the request's `deadline_ms` at
    /// admission (`None` = no deadline). Checked twice: by the worker
    /// pulling the job off the queue (shed without executing) and by the
    /// engine's [`WorkBudget`] mid-evaluation.
    deadline: Option<Instant>,
    /// The owning connection's cancel token (set when the connection
    /// dies); threaded into the evaluation budget so queries whose
    /// client is gone stop burning worker time.
    cancel: Arc<AtomicBool>,
    _slot: InflightGuard,
}

impl Job {
    /// Whether this job should be answered without executing: its
    /// deadline passed while it sat in the queue, or its connection died
    /// so nobody can receive the answer.
    fn doomed(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now) || self.cancel.load(Ordering::Relaxed)
    }
}

/// The write half of a connection, shared between its reader thread and
/// any workers answering its queued requests.
///
/// **Slow-reader protection:** every write runs under the socket's write
/// timeout. The first timeout (or any other write error) marks the
/// connection dead and shuts the socket down — a client that stops
/// draining its receive buffer costs at most one write-timeout of one
/// worker's time, instead of wedging a worker per pipelined response.
/// The shutdown also pops the reader thread out of its blocking read, so
/// the connection (and its tenant's admission slots, held by queued
/// jobs) is released promptly.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
    /// Cooperative cancellation token for this connection's in-flight
    /// work. Set when the connection dies — write failure here, reader
    /// exit in `handle_connection` — and observed by evaluation budgets
    /// and the worker shed path.
    cancel: Arc<AtomicBool>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Writes one response frame; on any failure (including a write
    /// timeout against a full send buffer) drops the connection.
    fn write(&self, shared: &Shared, bytes: &[u8]) {
        if self.is_dead() {
            return;
        }
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        if stream.write_all(bytes).is_err() {
            if !self.dead.swap(true, Ordering::AcqRel) {
                shared.slow_client_drops.fetch_add(1, Ordering::Relaxed);
            }
            // A dead connection cancels its queued and running work.
            self.cancel.store(true, Ordering::Release);
            // Unblock the reader; later writes are skipped via the flag.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    admission: Admission,
    queue: WorkQueue<Job>,
    trace: TraceLog,
    draining: AtomicBool,
    connections: AtomicUsize,
    responses_total: AtomicU64,
    queue_full_busy: AtomicU64,
    control_busy: AtomicU64,
    slow_client_drops: AtomicU64,
    shed_total: AtomicU64,
    deadline_total: AtomicU64,
    cancelled_total: AtomicU64,
    overloaded_total: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Starts the drain exactly once: refuse new work, let the queue
    /// empty, poke the acceptor awake so it can exit.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        self.queue.close();
        // The accept loop blocks in accept(); a throwaway local
        // connection is the portable way to deliver the news. When bound
        // to a wildcard address (0.0.0.0 / [::]), connect via loopback —
        // connecting *to* an unspecified address fails on some platforms,
        // which would leave the acceptor blocked.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// Factory for running servers.
pub struct Server;

/// A running server: its address, and the levers to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        Server::start_on(listener, engine, config)
    }

    /// Like [`Server::start`], but serves an already-bound listener —
    /// the recovery path binds early (so clients get a typed
    /// `RECOVERING` answer instead of connection-refused, via
    /// [`RecoveryGate`]) and hands the socket over once the engine is
    /// ready. `config.addr` is ignored.
    pub fn start_on(
        listener: TcpListener,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            admission: Admission::new(
                config.default_quota,
                config.admin_quota,
                config.tenant_quotas.clone(),
            ),
            queue: WorkQueue::new(config.queue_capacity),
            trace: TraceLog::new(config.trace_capacity),
            draining: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            responses_total: AtomicU64::new(0),
            queue_full_busy: AtomicU64::new(0),
            control_busy: AtomicU64::new(0),
            slow_client_drops: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            deadline_total: AtomicU64::new(0),
            cancelled_total: AtomicU64::new(0),
            overloaded_total: AtomicU64::new(0),
            engine,
            config,
            addr,
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("smoqe-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let readers = readers.clone();
            std::thread::Builder::new()
                .name("smoqe-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &readers))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
            readers,
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins a graceful drain (idempotent; also reachable over the wire
    /// via the admin `Shutdown` op).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for drain to complete: acceptor gone, queue empty, workers
    /// and readers exited. Call [`shutdown`](ServerHandle::shutdown)
    /// first (or send the wire op), or this blocks until someone does.
    ///
    /// A durable engine is checkpointed after the last request finishes,
    /// so a graceful drain leaves an empty WAL and the next boot replays
    /// nothing.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().unwrap_or_else(|e| e.into_inner()));
        for r in readers {
            let _ = r.join();
        }
        if let Err(e) = self.shared.engine.checkpoint() {
            eprintln!("smoqe-server: shutdown checkpoint failed: {e}");
        }
    }
}

/// Answers connections with a typed `RECOVERING` error while the engine
/// replays its write-ahead log, so restarting clients see "the server is
/// here, retry shortly" instead of connection-refused.
///
/// Bind the listener first, start the gate on a clone, run
/// [`smoqe::Engine::recover`], then [`finish`](RecoveryGate::finish) the
/// gate and hand the listener to [`Server::start_on`].
pub struct RecoveryGate {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RecoveryGate {
    /// Starts answering `listener`'s connections with `RECOVERING`,
    /// using the default [`ServerConfig`]'s write timeout. When the
    /// server will run with a non-default config, prefer
    /// [`start_with`](RecoveryGate::start_with) so the gate and the
    /// server share one slow-client policy.
    pub fn start(listener: &TcpListener) -> std::io::Result<RecoveryGate> {
        RecoveryGate::start_with(listener, ServerConfig::default().write_timeout)
    }

    /// Starts answering `listener`'s connections with `RECOVERING`,
    /// bounding each answer by `write_timeout` (typically the
    /// [`ServerConfig::write_timeout`] the server will use).
    pub fn start_with(
        listener: &TcpListener,
        write_timeout: Duration,
    ) -> std::io::Result<RecoveryGate> {
        let gate_listener = listener.try_clone()?;
        let addr = gate_listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("smoqe-recovery-gate".to_string())
                .spawn(move || {
                    for stream in gate_listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(mut s) = stream {
                            let frame = Response::Error {
                                code: code::RECOVERING,
                                message: "server is recovering; retry shortly".to_string(),
                            }
                            .encode(0);
                            let _ = s.set_write_timeout(Some(write_timeout));
                            let _ = s.write_all(&frame);
                        }
                    }
                })?
        };
        Ok(RecoveryGate {
            stop,
            addr,
            thread: Some(thread),
        })
    }

    /// Stops the gate; the listener is free for [`Server::start_on`].
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Release);
        // Pop the gate thread out of accept() (same trick as begin_drain).
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.connections.load(Ordering::Acquire) >= shared.config.max_connections {
            // One Busy frame (request id 0 = connection-level), then close.
            let mut s = stream;
            let _ = s.write_all(&Response::Busy { retry_after_ms: 50 }.encode(0));
            continue;
        }
        shared.connections.fetch_add(1, Ordering::AcqRel);
        let shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("smoqe-conn".to_string())
            .spawn(move || {
                handle_connection(&shared, stream);
                shared.connections.fetch_sub(1, Ordering::AcqRel);
            })
            .expect("spawn connection reader");
        let mut guard = readers.lock().unwrap_or_else(|e| e.into_inner());
        // Opportunistically reap finished readers so the vector tracks
        // live connections, not connection history.
        guard.retain(|h| !h.is_finished());
        guard.push(handle);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Pull the next live job, shedding queued entries whose deadline
        // expired (or whose connection died) while they waited — those
        // are answered below without ever executing, so an overloaded
        // queue drains at answer speed, not evaluation speed.
        let (job, shed) = shared.queue.pop_unless(|j: &Job| j.doomed(Instant::now()));
        // `(None, [])` is the closed-and-drained exit signal; `(None,
        // shed)` just means everything popped this round was doomed —
        // answer the sheds and go around again.
        let drained = job.is_none() && shed.is_empty();
        for doomed in shed {
            let response = if doomed.cancel.load(Ordering::Relaxed) {
                Response::cancelled()
            } else {
                Response::deadline_exceeded()
            };
            finish_with(
                shared,
                &doomed.ctx,
                &doomed.out,
                doomed.admitted,
                response,
                Some(Outcome::Shed),
            );
        }
        let Some(job) = job else {
            if drained {
                return;
            }
            continue;
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| execute(&job)));
        let response = match result {
            Ok(response) => response,
            Err(_) => Response::Error {
                code: code::INTERNAL,
                message: "internal error".to_string(),
            },
        };
        finish(shared, &job.ctx, &job.out, job.admitted, response);
    }
}

/// Runs one engine op on the job's session, producing the already-masked
/// wire response.
///
/// Queries run under a [`WorkBudget`] carrying the job's deadline and its
/// connection's cancel token, so the evaluator abandons the scan within
/// one check interval of either firing. Updates deliberately do **not**:
/// an update is queue-shed if its deadline expires before dispatch, but
/// once application starts it runs to completion — interrupting a
/// half-applied update would trade a latency bound for atomicity.
fn execute(job: &Job) -> Response {
    let ctx = &job.ctx;
    let budget = WorkBudget {
        deadline: job.deadline,
        cancel: Some(job.cancel.clone()),
        check_interval: 0,
    };
    match &job.request {
        Request::Query { query, .. } => {
            let request = QueryRequest {
                serialize: true,
                budget: &budget,
                ..QueryRequest::one(query)
            };
            match job.session.run(request) {
                Ok(batch) => Response::AnswerOk(WireAnswer::from_answer(
                    &batch.single(),
                    &ctx.principal,
                    ctx.request_id,
                )),
                Err(e) => Response::engine_error(&e),
            }
        }
        Request::QueryBatch { queries, .. } => {
            let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
            let request = QueryRequest {
                serialize: true,
                budget: &budget,
                ..QueryRequest::batch(&refs)
            };
            match job.session.run(request) {
                Ok(batch) => Response::from_batch(&batch, &ctx.principal, ctx.request_id),
                Err(e) => Response::engine_error(&e),
            }
        }
        Request::Update { statement, .. } => match job.session.update(statement) {
            Ok(report) => {
                Response::UpdateOk(WireUpdateReport::from_report(&report, &ctx.principal))
            }
            Err(e) => Response::engine_error(&e),
        },
        Request::UpdateBatch { statements, .. } => {
            let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
            match job.session.update_batch(&refs) {
                Ok(reports) => Response::UpdateBatchOk(
                    reports
                        .iter()
                        .map(|r| WireUpdateReport::from_report(r, &ctx.principal))
                        .collect(),
                ),
                Err(e) => Response::engine_error(&e),
            }
        }
        // Readers only enqueue the four engine ops above.
        _ => Response::Error {
            code: code::UNSUPPORTED_OP,
            message: "not an engine op".to_string(),
        },
    }
}

/// Classifies a response for the trace ring and the stats counters.
fn classify(response: &Response) -> (Outcome, u16) {
    match response {
        Response::Error {
            code: code::DEADLINE_EXCEEDED,
            ..
        } => (Outcome::Deadline, code::DEADLINE_EXCEEDED),
        Response::Error {
            code: code::CANCELLED,
            ..
        } => (Outcome::Cancelled, code::CANCELLED),
        Response::Error { code, .. } => (Outcome::Error, *code),
        Response::Busy { .. } => (Outcome::Busy, TraceLog::BUSY_CODE),
        Response::Overloaded { .. } => (Outcome::Overloaded, code::OVERLOADED),
        _ => (Outcome::Ok, 0),
    }
}

/// Records the outcome in the trace ring and writes the response frame.
fn finish(
    shared: &Arc<Shared>,
    ctx: &RequestContext,
    out: &Arc<ConnWriter>,
    started: Instant,
    response: Response,
) {
    finish_with(shared, ctx, out, started, response, None);
}

/// [`finish`] with an explicit outcome override — the queue-shed path
/// sends the *same bytes* as a mid-evaluation deadline (the wire must not
/// reveal whether the query ran), but the admin trace ring records `Shed`
/// so the two stay distinguishable to the operator.
fn finish_with(
    shared: &Arc<Shared>,
    ctx: &RequestContext,
    out: &Arc<ConnWriter>,
    started: Instant,
    response: Response,
    outcome_override: Option<Outcome>,
) {
    let (classified, trace_code) = classify(&response);
    let outcome = outcome_override.unwrap_or(classified);
    let counter = match outcome {
        Outcome::Shed => Some(&shared.shed_total),
        Outcome::Deadline => Some(&shared.deadline_total),
        Outcome::Cancelled => Some(&shared.cancelled_total),
        Outcome::Overloaded => Some(&shared.overloaded_total),
        _ => None,
    };
    if let Some(counter) = counter {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared.trace.record(ctx, outcome, trace_code, micros);
    // Refusals that never reached a worker (admission Busy, brownout
    // Overloaded) are counted by their own gauges, not as served
    // responses.
    if !matches!(outcome, Outcome::Busy | Outcome::Overloaded) {
        shared.responses_total.fetch_add(1, Ordering::Relaxed);
    }
    out.write(shared, &response.encode(ctx.request_id));
}

/// Per-connection reader: parses frames, serves control ops inline, and
/// pushes engine ops through admission into the queue.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let out = match stream.try_clone() {
        Ok(s) => Arc::new(ConnWriter::new(s)),
        Err(_) => return,
    };
    // The trust anchor for tokenless admin Hellos: the kernel-reported
    // peer address, not anything the client asserted.
    let peer_loopback = stream
        .peer_addr()
        .map(|a| a.ip().is_loopback())
        .unwrap_or(false);
    let conn = Conn {
        peer_loopback,
        control: TokenBucket::new(&shared.config.control_quota, Instant::now()),
    };

    let mut fb = FrameBuffer::new();
    let mut session: Option<(Arc<Session>, Principal)> = None;
    let mut buf = vec![0u8; 64 * 1024];

    'conn: loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                fb.push(&buf[..n]);
                loop {
                    match fb.next_frame(shared.config.max_frame_len) {
                        Ok(Some(frame)) => {
                            if !handle_frame(shared, &conn, &out, &mut session, frame) {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(fe) => {
                            // The byte stream is unrecoverable (no way to
                            // find the next frame boundary): report and
                            // close. This is the *only* protocol failure
                            // that costs the connection.
                            out.write(
                                shared,
                                &Response::Error {
                                    code: fe.code(),
                                    message: fe.to_string(),
                                }
                                .encode(0),
                            );
                            break 'conn;
                        }
                    }
                }
                if out.is_dead() {
                    break; // slow-reader drop: stop parsing its requests
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick. During a drain the connection closes once its
                // pipelined work has been answered (workers hold their own
                // handle to the socket, so anything still queued writes
                // before the OS tears the pair down — but exiting early
                // would race the last writes; wait for quiet).
                if out.is_dead() || (shared.draining() && shared.queue.is_empty()) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // The connection is gone: cooperatively cancel whatever it still has
    // queued or running. Workers shed the queued jobs (releasing their
    // admission slots) and evaluation budgets stop mid-scan within one
    // check interval.
    out.cancel.store(true, Ordering::Release);
}

/// Per-connection state that outlives individual frames: what the kernel
/// says about the peer, and the inline-op rate cap.
struct Conn {
    /// Whether the peer address is a loopback address (per `peer_addr`).
    peer_loopback: bool,
    /// Rate cap for inline control ops on this connection.
    control: TokenBucket,
}

impl Conn {
    /// Takes one control-op token; on refusal returns the retry-after
    /// hint for the `Busy` response to answer with.
    fn admit_control(&self, shared: &Shared, now: Instant) -> Result<(), u32> {
        self.control.try_take(now).inspect_err(|_| {
            shared.control_busy.fetch_add(1, Ordering::Relaxed);
        })
    }
}

/// Checks a `Hello`'s credentials against the server's configuration.
///
/// Every refusal is the same `UNAUTHORIZED` code and message — whether
/// the token was wrong, missing, or an admin connected from a non-local
/// peer without a configured token, the client learns only that the
/// bind was refused.
fn authenticate(
    config: &ServerConfig,
    conn: &Conn,
    principal: &Principal,
    auth: Option<&str>,
) -> bool {
    match principal {
        Principal::Admin => match &config.admin_token {
            Some(token) => auth == Some(token.as_str()),
            None => conn.peer_loopback,
        },
        Principal::Group(g) => match config.group_tokens.get(g) {
            Some(token) => auth == Some(token.as_str()),
            None => true,
        },
    }
}

/// Serves one frame. Returns `false` when the connection should close.
fn handle_frame(
    shared: &Arc<Shared>,
    conn: &Conn,
    out: &Arc<ConnWriter>,
    session: &mut Option<(Arc<Session>, Principal)>,
    frame: crate::proto::Frame,
) -> bool {
    let started = Instant::now();
    let request = match Request::decode(frame.op, &frame.payload) {
        Ok(r) => r,
        Err(None) => {
            out.write(
                shared,
                &Response::Error {
                    code: code::UNSUPPORTED_OP,
                    message: format!("unsupported op 0x{:02x}", frame.op),
                }
                .encode(frame.request_id),
            );
            return true;
        }
        Err(Some(_)) => {
            // Framing is intact (we found the boundary), so a bad payload
            // costs only this request.
            out.write(
                shared,
                &Response::Error {
                    code: code::MALFORMED_FRAME,
                    message: "malformed frame payload".to_string(),
                }
                .encode(frame.request_id),
            );
            return true;
        }
    };

    // Ops that need no session.
    match &request {
        Request::Ping => {
            out.write(shared, &Response::Pong.encode(frame.request_id));
            return true;
        }
        Request::Hello {
            document,
            principal,
            auth,
        } => {
            let ctx = RequestContext::new(frame.request_id, principal.clone(), &request);
            if let Err(retry_after_ms) = conn.admit_control(shared, started) {
                finish(
                    shared,
                    &ctx,
                    out,
                    started,
                    Response::Busy { retry_after_ms },
                );
                return true;
            }
            // Validate the principal before it can bind a session, be
            // admitted under a tenant key, or appear in stats/traces: a
            // wire Group name that is not a bare policy identifier could
            // otherwise impersonate the reserved "(admin)" tenant row.
            if !principal.is_valid() {
                finish(
                    shared,
                    &ctx,
                    out,
                    started,
                    Response::Error {
                        code: code::BAD_PRINCIPAL,
                        message: "group names must be bare identifiers".to_string(),
                    },
                );
                return true;
            }
            if !authenticate(&shared.config, conn, principal, auth.as_deref()) {
                finish(
                    shared,
                    &ctx,
                    out,
                    started,
                    Response::Error {
                        code: code::UNAUTHORIZED,
                        message: "authentication failed".to_string(),
                    },
                );
                return true;
            }
            let response = match shared.engine.session_on(document, principal.to_user()) {
                Ok(s) => {
                    *session = Some((Arc::new(s), principal.clone()));
                    Response::HelloOk {
                        tenant: ctx.tenant().to_string(),
                    }
                }
                Err(e) => Response::engine_error(&e),
            };
            finish(shared, &ctx, out, started, response);
            return true;
        }
        _ => {}
    }

    let Some((bound_session, principal)) = session.as_ref() else {
        out.write(
            shared,
            &Response::Error {
                code: code::HELLO_REQUIRED,
                message: "hello required before this op".to_string(),
            }
            .encode(frame.request_id),
        );
        return true;
    };
    let ctx = RequestContext::new(frame.request_id, principal.clone(), &request);

    // Inline control ops bypass per-tenant admission (they never occupy
    // a worker), so they share the per-connection rate cap instead — a
    // tight Stats/Hello loop gets Busy backpressure like everything
    // else.
    if matches!(
        request,
        Request::Stats { .. } | Request::Shutdown | Request::OpenDocument { .. }
    ) {
        if let Err(retry_after_ms) = conn.admit_control(shared, started) {
            finish(
                shared,
                &ctx,
                out,
                started,
                Response::Busy { retry_after_ms },
            );
            return true;
        }
    }

    match request {
        // Control ops served inline on the reader thread.
        Request::Stats { include_trace } => {
            let response =
                Response::StatsOk(Box::new(build_stats(shared, principal, include_trace)));
            finish(shared, &ctx, out, started, response);
            true
        }
        Request::Shutdown => {
            if !principal.is_admin() {
                finish(
                    shared,
                    &ctx,
                    out,
                    started,
                    Response::Error {
                        code: code::UNAUTHORIZED,
                        message: "shutdown is admin-only".to_string(),
                    },
                );
                return true;
            }
            shared.begin_drain();
            finish(shared, &ctx, out, started, Response::ShutdownOk);
            true
        }
        Request::OpenDocument {
            name,
            dtd,
            xml,
            policies,
        } => {
            let response = if principal.is_admin() {
                match open_document(shared, &name, dtd.as_deref(), xml.as_deref(), &policies) {
                    Ok(()) => Response::OpenOk,
                    Err(e) => Response::engine_error(&e),
                }
            } else {
                Response::Error {
                    code: code::UNAUTHORIZED,
                    message: "open-document is admin-only".to_string(),
                }
            };
            finish(shared, &ctx, out, started, response);
            true
        }

        // Engine ops: admission, then the bounded queue.
        Request::Query { .. }
        | Request::QueryBatch { .. }
        | Request::Update { .. }
        | Request::UpdateBatch { .. } => {
            if shared.draining() {
                finish(
                    shared,
                    &ctx,
                    out,
                    started,
                    Response::Error {
                        code: code::SHUTTING_DOWN,
                        message: "server is draining".to_string(),
                    },
                );
                return true;
            }
            // Brownout: past the queue high-watermark the server stops
            // accepting non-admin engine work *before* admission, so a
            // deep backlog self-limits instead of stacking deadline-shed
            // work behind live work. Admins pass — the operator must be
            // able to inspect and drain an overloaded server.
            if !principal.is_admin() && shared.queue.len() >= shared.config.brownout_watermark {
                finish(
                    shared,
                    &ctx,
                    out,
                    started,
                    Response::Overloaded { retry_after_ms: 25 },
                );
                return true;
            }
            let slot = match shared.admission.admit(ctx.tenant(), started) {
                Ok(slot) => slot,
                Err(refused) => {
                    finish(
                        shared,
                        &ctx,
                        out,
                        started,
                        Response::Busy {
                            retry_after_ms: refused.retry_after_ms,
                        },
                    );
                    return true;
                }
            };
            // `deadline_ms` is relative to receipt; 0 means none.
            let deadline_ms = request.deadline_ms();
            let deadline =
                (deadline_ms > 0).then(|| started + Duration::from_millis(u64::from(deadline_ms)));
            let job = Job {
                ctx: ctx.clone(),
                request,
                session: bound_session.clone(),
                out: out.clone(),
                admitted: started,
                deadline,
                cancel: out.cancel.clone(),
                _slot: slot,
            };
            match shared.queue.try_push(job) {
                Ok(()) => true,
                Err(PushError::Full) => {
                    shared.queue_full_busy.fetch_add(1, Ordering::Relaxed);
                    finish(
                        shared,
                        &ctx,
                        out,
                        started,
                        Response::Busy { retry_after_ms: 10 },
                    );
                    true
                }
                Err(PushError::Closed) => {
                    finish(
                        shared,
                        &ctx,
                        out,
                        started,
                        Response::Error {
                            code: code::SHUTTING_DOWN,
                            message: "server is draining".to_string(),
                        },
                    );
                    true
                }
            }
        }
        // Handled above.
        Request::Hello { .. } | Request::Ping => true,
    }
}

fn open_document(
    shared: &Arc<Shared>,
    name: &str,
    dtd: Option<&str>,
    xml: Option<&str>,
    policies: &[(String, String)],
) -> Result<(), smoqe::EngineError> {
    let handle = shared.engine.try_open_document(name)?;
    if let Some(dtd) = dtd {
        handle.load_dtd(dtd)?;
    }
    if let Some(xml) = xml {
        handle.load_document(xml)?;
    }
    for (group, policy) in policies {
        handle.register_policy(group, policy)?;
    }
    Ok(())
}

/// Assembles the `Stats` response for `principal`.
///
/// Group principals see global gauges (queue depth, connection count —
/// load they need for backoff decisions) but only their **own** tenant
/// row, and never the trace ring: other tenants' names, ops and rates
/// are not theirs to read.
fn build_stats(shared: &Arc<Shared>, principal: &Principal, include_trace: bool) -> WireStats {
    let mut s = WireStats::default();
    s.set_cache(&shared.engine.cache_metrics());
    s.connections = shared.connections.load(Ordering::Acquire) as u64;
    s.queue_depth = shared.queue.len() as u64;
    s.queue_capacity = shared.queue.capacity() as u64;
    s.requests_total = shared.responses_total.load(Ordering::Relaxed);
    s.busy_total = shared.admission.busy_total()
        + shared.queue_full_busy.load(Ordering::Relaxed)
        + shared.control_busy.load(Ordering::Relaxed);
    s.epoch = shared.engine.recovery_epoch();
    s.slow_client_drops = shared.slow_client_drops.load(Ordering::Relaxed);
    s.shed_total = shared.shed_total.load(Ordering::Relaxed);
    s.deadline_total = shared.deadline_total.load(Ordering::Relaxed);
    s.cancelled_total = shared.cancelled_total.load(Ordering::Relaxed);
    s.overloaded_total = shared.overloaded_total.load(Ordering::Relaxed);
    s.inflight = shared.admission.inflight_total() as u64;

    let own = match principal {
        Principal::Admin => None,
        Principal::Group(g) => Some(g.as_str()),
    };
    let busy = shared.admission.busy_counts();
    for (tenant, m) in shared.engine.tenant_metrics() {
        if own.is_some_and(|g| g != tenant) {
            continue;
        }
        s.tenants.push(WireTenant {
            busy_rejections: busy.get(&tenant).copied().unwrap_or(0),
            tenant,
            queries: m.queries,
            batches: m.batches,
            updates: m.updates,
            update_denials: m.update_denials,
            errors: m.errors,
            answers: m.answers,
            nodes_visited: m.nodes_visited,
        });
    }

    if include_trace && principal.is_admin() {
        let (trace, dropped) = shared.trace.dump();
        s.trace = trace;
        s.trace_dropped = dropped;
    }
    s
}
