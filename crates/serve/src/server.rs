//! The multi-session server: admission control, per-connection session
//! loops, per-tenant quotas, idle eviction and graceful shutdown.
//!
//! # Architecture
//!
//! [`Server::start`] binds a listener and spawns one *acceptor* thread;
//! each accepted connection gets a handler thread of its own (the
//! engine's evaluation paths are synchronous and CPU-bound, so a thread
//! per connection is the honest model — there is nothing to multiplex).
//! Admission control happens **before** `accept`: when
//! [`ServeConfig::max_connections`] handlers are live the acceptor stops
//! accepting, excess connections queue in the listener backlog, and
//! clients feel latency instead of connection resets — backpressure, not
//! drops.
//!
//! The first bytes of a connection are sniffed: the binary protocol's
//! magic routes to the framed session loop, anything else to the
//! minimal HTTP responder ([`crate::http`], serving `/metrics`,
//! `/healthz` and `POST /query`).
//!
//! A binary session starts with a `Hello` handshake naming the tenant,
//! then holds a [`SnapshotSession`] over the backend's snapshot provider
//! — with its epoch-keyed query cache and plan cache — for the
//! connection's lifetime, so repeated queries from one client hit warm
//! caches exactly as they would embedded. Reads poll with a short
//! timeout: a silent connection costs one wakeup per tick, an idle one past
//! [`ServeConfig::idle_timeout`] is evicted, and a half-sent frame
//! (slow-loris) is held in the frame buffer until the same idle clock
//! evicts it.
//!
//! Writes go through the backend's single writer. On the shared and
//! durable backends that is one [`SharedDatabase`] — the durable one
//! differs only in the journal hooked onto its writer — and every write
//! runs apply → check → append → publish: the batch extends the writer's
//! closure in place, a checked batch is refused if it introduces
//! integrity violations, the journal appends the batch's operations once
//! (one fsync at most), and one generation is published. A refused batch
//! or a failed append rolls the writer back, so nothing is served or
//! journaled. There is one copy of the world and one metrics registry.
//!
//! Shutdown ([`Server::shutdown`]) flips one flag: the acceptor exits,
//! each handler finishes the request in flight, answers `Bye` and
//! returns, and once every thread is joined the backend is checkpointed
//! (journal-backed backends encode the writer database, under the writer
//! lock, into a fresh snapshot and rotate their WAL).

use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use loosedb_browse::{SessionError, SnapshotSession, Snapshots};
use loosedb_engine::{
    DurableDatabase, DurableError, ShardedDatabase, SharedDatabase, TransactionError,
};
use loosedb_obs::Metrics;
use loosedb_query::EvalError;
use loosedb_store::io::StorageIo;
use loosedb_store::{EntityValue, Fact};
use parking_lot::Mutex;

use crate::http;
use crate::protocol::{
    decode_header, ErrorCode, Header, ProtocolError, Request, Response, HEADER_LEN, MAGIC,
};
use crate::quota::{TenantQuota, TokenBucket};

/// How often a blocked read wakes up to check the idle clock and the
/// stop flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Handler threads allowed at once; further connections wait in the
    /// listener backlog.
    pub max_connections: usize,
    /// A session silent this long is evicted.
    pub idle_timeout: Duration,
    /// Quota for tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides, keyed by the `Hello` tenant name.
    pub tenants: HashMap<String, TenantQuota>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            default_quota: TenantQuota::default(),
            tenants: HashMap::new(),
        }
    }
}

/// The database a server fronts.
pub enum Backend {
    /// An in-process shared database (no durability).
    Shared(Arc<SharedDatabase>),
    /// A journaled database: one [`SharedDatabase`] whose single writer
    /// appends every write to the journal before publishing it. Sessions
    /// read its generations like any shared backend's.
    Durable {
        /// The database every session reads from and every write goes
        /// through; its journal is a hook on its writer.
        serving: Arc<SharedDatabase>,
    },
    /// A hash-partitioned database; sessions run scatter-gather reads.
    Sharded(Arc<ShardedDatabase>),
}

/// A write refusal, mapped onto the wire error codes.
struct WriteErr {
    code: ErrorCode,
    message: String,
}

impl WriteErr {
    fn internal(e: impl std::fmt::Display) -> Self {
        WriteErr { code: ErrorCode::Internal, message: e.to_string() }
    }
}

impl From<DurableError> for WriteErr {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Transaction(e @ TransactionError::Integrity(_)) => {
                WriteErr { code: ErrorCode::Integrity, message: e.to_string() }
            }
            other => WriteErr::internal(other),
        }
    }
}

impl Backend {
    /// Fronts an already-shared database.
    pub fn shared(db: Arc<SharedDatabase>) -> Self {
        Backend::Shared(db)
    }

    /// Fronts a sharded database.
    pub fn sharded(db: Arc<ShardedDatabase>) -> Self {
        Backend::Sharded(db)
    }

    /// Fronts a journaled database. The recovered database and its
    /// journal move into one [`SharedDatabase`] as they are — no copy of
    /// the world is made — and the journal becomes a hook on its writer.
    pub fn durable(
        journal: DurableDatabase<Box<dyn StorageIo>>,
    ) -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        let (db, journal) = journal.into_parts();
        Ok(Backend::Durable { serving: Arc::new(SharedDatabase::journaled(db, journal)?) })
    }

    /// The metrics registry observations land in.
    pub fn metrics(&self) -> &Arc<Metrics> {
        match self {
            Backend::Shared(db) | Backend::Durable { serving: db } => db.metrics(),
            Backend::Sharded(db) => db.metrics(),
        }
    }

    /// The current epoch (summed across shards for a sharded backend, so
    /// it is monotone under every backend).
    pub fn epoch(&self) -> u64 {
        match self {
            Backend::Shared(db) | Backend::Durable { serving: db } => db.epoch(),
            Backend::Sharded(db) => db.epochs().iter().sum(),
        }
    }

    /// Applies a batch of facts as writes. `checked` refuses the batch if
    /// it introduces integrity violations. On a shared or durable backend
    /// the batch is one write — one generation, one journal append — and
    /// a refused batch leaves nothing behind. Returns `(epoch after,
    /// facts newly applied)`.
    fn publish(
        &self,
        checked: bool,
        facts: &[(String, String, String)],
    ) -> Result<(u64, u64), WriteErr> {
        let applied = match self {
            Backend::Shared(db) | Backend::Durable { serving: db } => db.commit(checked, |d| {
                // `add_incremental` keeps the closure warm, so the publish
                // stays O(delta): a plain `add` would leave the closure
                // stale and the write would recompute the world.
                let before = d.base_len();
                for (s, r, t) in facts {
                    d.add_incremental(value(s), value(r), value(t))?;
                }
                Ok((d.base_len() - before) as u64)
            })?,
            Backend::Sharded(db) => {
                let mut n = 0;
                for (s, r, t) in facts {
                    if checked {
                        db.try_insert(value(s), value(r), value(t)).map_err(|e| WriteErr {
                            code: ErrorCode::Integrity,
                            message: e.to_string(),
                        })?;
                    } else {
                        db.insert(value(s), value(r), value(t)).map_err(WriteErr::internal)?;
                    }
                    n += 1;
                }
                n
            }
        };
        Ok((self.epoch(), applied))
    }

    /// Retracts one base fact by display names. A name no entity carries
    /// means the fact cannot exist: `applied` is 0, not an error.
    fn retract(&self, s: &str, r: &str, t: &str) -> Result<(u64, u64), WriteErr> {
        let (s, r, t) = (value(s), value(r), value(t));
        let removed = match self {
            Backend::Shared(db) | Backend::Durable { serving: db } => {
                db.commit(false, |d| match (d.lookup(&s), d.lookup(&r), d.lookup(&t)) {
                    (Some(s), Some(r), Some(t)) => Ok(d.remove_incremental(&Fact::new(s, r, t))?),
                    _ => Ok(false),
                })?
            }
            Backend::Sharded(db) => {
                let snapshot = db.snapshot();
                match (snapshot.lookup(&s), snapshot.lookup(&r), snapshot.lookup(&t)) {
                    (Some(s), Some(r), Some(t)) => {
                        db.remove(&Fact::new(s, r, t)).map_err(WriteErr::internal)?
                    }
                    _ => false,
                }
            }
        };
        Ok((self.epoch(), u64::from(removed)))
    }

    /// Flushes and snapshots whatever the backend journals (no-op for a
    /// purely in-memory backend).
    fn checkpoint(&self) -> Result<(), WriteErr> {
        match self {
            Backend::Shared(db) | Backend::Durable { serving: db } => {
                db.checkpoint().map(drop).map_err(WriteErr::internal)
            }
            Backend::Sharded(db) => db.checkpoint().map(drop).map_err(WriteErr::internal),
        }
    }
}

/// Parses a display name into an [`EntityValue`]: integers and floats
/// stay numeric, everything else is a symbol (the REPL's convention).
pub(crate) fn value(text: &str) -> EntityValue {
    if let Ok(i) = text.parse::<i64>() {
        i.into()
    } else if let Ok(f) = text.parse::<f64>() {
        EntityValue::float(f)
    } else {
        EntityValue::symbol(text)
    }
}

/// Shared server state: everything the acceptor, the handlers and the
/// shutdown path need to agree on.
pub(crate) struct Inner {
    pub(crate) backend: Backend,
    pub(crate) config: ServeConfig,
    stop: AtomicBool,
    /// Live handler count, gating admission (std mutex: the vendored
    /// `parking_lot` carries no condvar).
    active: StdMutex<usize>,
    admitted: Condvar,
    next_session: AtomicU64,
    /// Live session count (the `serve.sessions` gauge mirrors it; the
    /// gauge alone has no atomic increment).
    sessions: AtomicU64,
    /// One token bucket per tenant, created on first handshake.
    buckets: Mutex<HashMap<String, Arc<TokenBucket>>>,
}

impl Inner {
    pub(crate) fn metrics(&self) -> &Arc<Metrics> {
        self.backend.metrics()
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.config.tenants.get(tenant).copied().unwrap_or(self.config.default_quota)
    }

    fn session_started(&self) {
        let now = self.sessions.fetch_add(1, Ordering::AcqRel) + 1;
        self.metrics().serve_sessions.set(now);
    }

    fn session_ended(&self) {
        let before = self.sessions.fetch_sub(1, Ordering::AcqRel);
        self.metrics().serve_sessions.set(before.saturating_sub(1));
    }

    pub(crate) fn bucket_for(&self, tenant: &str) -> Arc<TokenBucket> {
        let mut buckets = self.buckets.lock();
        match buckets.get(tenant) {
            Some(b) => Arc::clone(b),
            None => {
                let bucket = Arc::new(TokenBucket::new(&self.quota_for(tenant)));
                buckets.insert(tenant.to_string(), Arc::clone(&bucket));
                bucket
            }
        }
    }
}

/// A running server. Dropping it shuts it down gracefully.
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the acceptor and returns immediately.
    pub fn start(backend: Backend, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            backend,
            config,
            stop: AtomicBool::new(false),
            active: StdMutex::new(0),
            admitted: Condvar::new(),
            next_session: AtomicU64::new(1),
            sessions: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("loosedb-serve-accept".into())
                .spawn(move || accept_loop(listener, inner, handlers))?
        };
        Ok(Server { inner, local_addr, acceptor: Some(acceptor), handlers })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The metrics registry the server reports into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.inner.metrics()
    }

    /// Handler threads currently live.
    pub fn active_connections(&self) -> usize {
        *self.inner.active.lock().unwrap()
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish, join all threads, checkpoint the backend. Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.admitted.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handlers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handlers.lock());
        for h in handlers {
            let _ = h.join();
        }
        if self.inner.backend.checkpoint().is_ok() {
            self.inner.metrics().serve_shutdowns.inc();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<Inner>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if inner.stopping() {
            return;
        }
        // Admission gate: block (briefly, re-checking stop) until a
        // handler slot frees up. Connections beyond the gate queue in
        // the kernel's listen backlog — clients wait, nothing is
        // dropped.
        {
            let mut active = inner.active.lock().unwrap();
            while *active >= inner.config.max_connections && !inner.stopping() {
                active = inner.admitted.wait_timeout(active, POLL_TICK).unwrap().0;
            }
            if inner.stopping() {
                return;
            }
            *active += 1;
            inner.metrics().serve_connections.set(*active as u64);
        }
        let stream = loop {
            if inner.stopping() {
                release_slot(&inner);
                return;
            }
            match listener.accept() {
                Ok((stream, _peer)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        inner.metrics().serve_accepted.inc();
        let handler = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new().name("loosedb-serve-conn".into()).spawn(move || {
                handle_connection(&inner, stream);
                release_slot(&inner);
            })
        };
        match handler {
            Ok(h) => {
                let mut handlers = handlers.lock();
                // Reap finished handles so a long-lived server with many
                // short connections doesn't accumulate them.
                if handlers.len() >= 256 {
                    handlers.retain(|h| !h.is_finished());
                }
                handlers.push(h);
            }
            Err(_) => release_slot(&inner),
        }
    }
}

fn release_slot(inner: &Inner) {
    let mut active = inner.active.lock().unwrap();
    *active = active.saturating_sub(1);
    inner.metrics().serve_connections.set(*active as u64);
    inner.admitted.notify_one();
}

/// Sniffs the first two bytes and routes the connection: the binary
/// magic to the framed session loop, everything else to HTTP.
fn handle_connection(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let deadline = Instant::now() + inner.config.idle_timeout;
    let mut first = [0u8; 2];
    loop {
        if inner.stopping() || Instant::now() > deadline {
            return;
        }
        match stream.peek(&mut first) {
            Ok(n) if n >= 2 => break,
            Ok(0) => return, // closed before a single byte
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
    let binary = u16::from_le_bytes(first) == MAGIC;
    // The one place the backend picks the snapshot provider this
    // connection's sessions read from.
    match &inner.backend {
        Backend::Shared(db) | Backend::Durable { serving: db } => {
            serve_connection(inner, stream, db, binary)
        }
        Backend::Sharded(db) => serve_connection(inner, stream, db, binary),
    }
}

fn serve_connection<P: Snapshots>(inner: &Inner, stream: TcpStream, db: &Arc<P>, binary: bool) {
    if binary {
        binary_session(inner, stream, db);
    } else {
        http::handle(inner, stream, db);
    }
}

/// A session over `db` under a tenant's row budget: the same browse-layer
/// object an embedded caller would hold, so per-session answer and plan
/// caches behave identically served and embedded.
pub(crate) fn open_session<P: Snapshots>(db: &Arc<P>, max_rows: usize) -> SnapshotSession<P> {
    let mut session = SnapshotSession::new(Arc::clone(db));
    session.probe_opts.eval.max_rows = max_rows;
    session
}

/// Incrementally reassembles frames from a polled socket, keeping
/// partial frames buffered across read timeouts (a slow-loris client
/// neither breaks framing nor ties up anything but its own buffer).
struct FrameReader {
    buf: Vec<u8>,
}

enum ReadEvent {
    /// A complete frame: opcode and payload.
    Frame(u8, Vec<u8>),
    /// Nothing new this tick.
    Idle,
    /// Peer closed; `torn` if it hung up mid-frame.
    Closed { torn: bool },
    /// The byte stream is not a valid frame; the connection is beyond
    /// recovery (framing is lost) and must close.
    Malformed(ProtocolError),
}

impl FrameReader {
    fn new() -> Self {
        FrameReader { buf: Vec::new() }
    }

    fn header(&self) -> Option<Result<Header, ProtocolError>> {
        if self.buf.len() < HEADER_LEN {
            return None;
        }
        Some(decode_header(self.buf[..HEADER_LEN].try_into().expect("header")))
    }

    fn take_frame(&mut self) -> Option<ReadEvent> {
        let header = match self.header()? {
            Ok(h) => h,
            Err(e) => return Some(ReadEvent::Malformed(e)),
        };
        let total = HEADER_LEN + header.len as usize;
        if self.buf.len() < total {
            return None;
        }
        let payload = self.buf[HEADER_LEN..total].to_vec();
        self.buf.drain(..total);
        Some(ReadEvent::Frame(header.opcode, payload))
    }

    fn poll(&mut self, stream: &mut TcpStream, metrics: &Metrics) -> ReadEvent {
        if let Some(event) = self.take_frame() {
            return event;
        }
        let mut tmp = [0u8; 8192];
        match stream.read(&mut tmp) {
            Ok(0) => ReadEvent::Closed { torn: !self.buf.is_empty() },
            Ok(n) => {
                metrics.serve_bytes_in.add(n as u64);
                self.buf.extend_from_slice(&tmp[..n]);
                self.take_frame().unwrap_or(ReadEvent::Idle)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                ReadEvent::Idle
            }
            Err(_) => ReadEvent::Closed { torn: true },
        }
    }
}

fn send(stream: &mut TcpStream, metrics: &Metrics, response: &Response) -> bool {
    let frame = response.encode();
    metrics.serve_bytes_out.add(frame.len() as u64);
    crate::protocol::write_frame(stream, &frame).is_ok()
}

/// The framed session loop: handshake, then one request at a time until
/// `Bye`, disconnect, idle eviction or shutdown.
fn binary_session<P: Snapshots>(inner: &Inner, mut stream: TcpStream, db: &Arc<P>) {
    let metrics = Arc::clone(inner.metrics());
    let mut reader = FrameReader::new();
    let mut last_activity = Instant::now();

    // Handshake: the first frame must be Hello.
    let tenant = loop {
        if inner.stopping() {
            let _ = send(
                &mut stream,
                &metrics,
                &Response::Fail {
                    code: ErrorCode::ShuttingDown,
                    message: "server is shutting down".into(),
                },
            );
            return;
        }
        if last_activity.elapsed() > inner.config.idle_timeout {
            metrics.serve_idle_evictions.inc();
            return;
        }
        match reader.poll(&mut stream, &metrics) {
            ReadEvent::Idle => continue,
            ReadEvent::Closed { torn } => {
                if torn {
                    metrics.serve_protocol_errors.inc();
                }
                return;
            }
            ReadEvent::Malformed(e) => {
                metrics.serve_protocol_errors.inc();
                let _ = send(
                    &mut stream,
                    &metrics,
                    &Response::Fail { code: ErrorCode::Malformed, message: e.to_string() },
                );
                return;
            }
            ReadEvent::Frame(opcode, payload) => match Request::decode(opcode, &payload) {
                Ok(Request::Hello { tenant }) => break tenant,
                Ok(_) => {
                    metrics.serve_protocol_errors.inc();
                    let _ = send(
                        &mut stream,
                        &metrics,
                        &Response::Fail {
                            code: ErrorCode::HandshakeRequired,
                            message: "first frame must be Hello".into(),
                        },
                    );
                    return;
                }
                Err(_) => {
                    metrics.serve_protocol_errors.inc();
                    return;
                }
            },
        }
    };

    let quota = inner.quota_for(&tenant);
    let bucket = inner.bucket_for(&tenant);
    let session_id = inner.next_session.fetch_add(1, Ordering::Relaxed);
    let mut session = open_session(db, quota.max_rows);
    inner.session_started();
    if !send(
        &mut stream,
        &metrics,
        &Response::Welcome { session: session_id, epoch: inner.backend.epoch() },
    ) {
        inner.session_ended();
        return;
    }
    last_activity = Instant::now();

    loop {
        if last_activity.elapsed() > inner.config.idle_timeout {
            metrics.serve_idle_evictions.inc();
            break;
        }
        let event = reader.poll(&mut stream, &metrics);
        match event {
            ReadEvent::Idle => {
                // Drain-then-leave on shutdown: any fully buffered frame
                // was already returned by poll; an idle tick under the
                // stop flag means nothing is in flight.
                if inner.stopping() {
                    let _ = send(&mut stream, &metrics, &Response::Bye);
                    break;
                }
            }
            ReadEvent::Closed { torn } => {
                if torn {
                    metrics.serve_protocol_errors.inc();
                }
                break;
            }
            ReadEvent::Malformed(e) => {
                metrics.serve_protocol_errors.inc();
                // Framing is lost: report why, then close — the stream
                // cannot be resynchronized.
                let _ = send(
                    &mut stream,
                    &metrics,
                    &Response::Fail { code: ErrorCode::Malformed, message: e.to_string() },
                );
                break;
            }
            ReadEvent::Frame(opcode, payload) => {
                last_activity = Instant::now();
                let request = match Request::decode(opcode, &payload) {
                    Ok(r) => r,
                    Err(_) => {
                        metrics.serve_protocol_errors.inc();
                        break;
                    }
                };
                if matches!(request, Request::Bye) {
                    let _ = send(&mut stream, &metrics, &Response::Bye);
                    break;
                }
                // Rate quota: park until the tenant's bucket refills
                // (backpressure — the connection stalls, nothing drops).
                let waited = bucket.acquire();
                if !waited.is_zero() {
                    metrics.serve_throttled.inc();
                    metrics.serve_throttle_ns.record_duration(waited);
                }
                let started = Instant::now();
                let response = dispatch(inner, &mut session, &request, &metrics);
                metrics.serve_requests.inc();
                metrics.serve_request_ns.record_duration(started.elapsed());
                if !send(&mut stream, &metrics, &response) {
                    break;
                }
            }
        }
    }
    inner.session_ended();
}

fn session_fail(metrics: &Metrics, e: &SessionError) -> Response {
    let (code, message) = match e {
        SessionError::Parse(p) => (ErrorCode::Parse, p.to_string()),
        SessionError::UnknownEntity(name) => {
            (ErrorCode::UnknownEntity, format!("unknown entity {name:?}"))
        }
        SessionError::Eval(EvalError::ResultTooLarge { limit, produced }) => {
            metrics.serve_rows_rejected.inc();
            (
                ErrorCode::TooManyRows,
                format!("answer exceeded the tenant budget of {limit} rows ({produced} produced)"),
            )
        }
        other => (ErrorCode::Internal, other.to_string()),
    };
    Response::Fail { code, message }
}

pub(crate) fn dispatch<P: Snapshots>(
    inner: &Inner,
    session: &mut SnapshotSession<P>,
    request: &Request,
    metrics: &Metrics,
) -> Response {
    match request {
        Request::Hello { .. } => Response::Fail {
            code: ErrorCode::Malformed,
            message: "session already established".into(),
        },
        Request::Bye => Response::Bye, // handled by the caller; kept total
        // Rows carry the epoch the answer was evaluated at, not whatever
        // was published while it was being rendered.
        Request::Query { text } => match session.query(text) {
            Ok(answer) => Response::Rows {
                epoch: session.last_epoch(),
                names: answer.names.clone(),
                rows: session.render_answer(&answer),
            },
            Err(e) => session_fail(metrics, &e),
        },
        Request::Navigate { s, r, t } => match session.navigate_parts(s, r, t) {
            Ok(table) => Response::Text { text: table.to_string() },
            Err(e) => session_fail(metrics, &e),
        },
        Request::Probe { text } => match session.probe(text) {
            Ok(report) => Response::Text { text: session.render_probe(&report) },
            Err(e) => session_fail(metrics, &e),
        },
        Request::Publish { checked, facts } => {
            if inner.stopping() {
                return Response::Fail {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining; writes are refused".into(),
                };
            }
            match inner.backend.publish(*checked, facts) {
                Ok((epoch, applied)) => Response::Done { epoch, applied },
                Err(e) => Response::Fail { code: e.code, message: e.message },
            }
        }
        Request::Retract { s, r, t } => {
            if inner.stopping() {
                return Response::Fail {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining; writes are refused".into(),
                };
            }
            match inner.backend.retract(s, r, t) {
                Ok((epoch, applied)) => Response::Done { epoch, applied },
                Err(e) => Response::Fail { code: e.code, message: e.message },
            }
        }
        Request::Metrics => {
            Response::Metrics { text: loosedb_obs::prometheus_text(metrics.registry()) }
        }
    }
}
