//! The compression service: a bounded acceptor → worker architecture
//! over `std::net` + scoped threads.
//!
//! ```text
//!            accept()            bounded queue             workers
//!  clients ───────────▶ acceptor ─────────────▶ [conn conn] ─▶ thread 0 (engine) ─┐
//!                        │  full? reject with Busy           ─▶ thread 1 (engine) ─┤ lanes
//!                        ▼                                      …                  │
//!                     metrics                   idle helper engines [eng eng …] ◀──┘
//! ```
//!
//! Each worker is a scoped thread owning a long-lived
//! [`PipelineEngine`], so every request a worker serves reuses the same
//! scratch arenas (the engine contract, extended from
//! chunks-within-one-call to requests-within-one-process). A worker
//! runs with nested parallel primitives forced serial; a compress or a
//! strict decompress instead fans its chunks out over **lanes**: the
//! worker's own engine plus whatever idle helper engines it can take,
//! without waiting, from one server-wide stack of
//! `cuszp_parallel::num_workers() − 1`, each on a scoped thread of its
//! own, and gives them back when the request is done. A lone request
//! gets every core. Each request takes whatever helpers are idle when
//! it starts, so a server with every worker busy keeps up to
//! `workers + num_workers() − 1` lanes running on `num_workers()`
//! cores; with 2 or 4 clients contending on 2 cores that served
//! 0.88–0.98× the throughput of one engine per request (EXPERIMENTS,
//! "Served compress under contention"). Engines and threads stay
//! bounded by `workers + num_workers() − 1`, and since every chunk runs
//! under [`cuszp_parallel::with_serial_inner`] no archive byte depends
//! on how many lanes a request got.
//!
//! Backpressure is explicit — when the connection queue is full the
//! acceptor answers a typed `Busy` error frame instead of queueing
//! unboundedly — and a malformed frame is answered with a typed error
//! and at worst a closed connection, never a dead process. Shutdown is
//! cooperative: the `shutdown` op (or [`ServerHandle::shutdown`]) flips
//! a flag and wakes the acceptor out of its blocking `accept()` with a
//! loopback connection to itself; the acceptor stops accepting, and
//! workers drain queued + in-flight connections until a drain deadline.

use crate::cache::{ArchiveKey, SlabCache};
use crate::metrics::ServiceMetrics;
use crate::ring::Ring;
use crate::store::{ShardBackend, StoreBackendConfig, StoreOpError};
use crate::wire::{
    parse_header, read_frame, wordsum64, write_frame, ClusterIdentity, CompressRequest,
    DecompressMode, DecompressRequest, DecompressResponse, ErrorCode, ErrorResponse,
    GetRangeRequest, GetShardRequest, GetShardResponse, Header, Op, PutShardRequest, RemoteInfo,
    ShardListResponse, WireError, FLAG_ERROR, FLAG_RESPONSE, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD,
    PUT_FLAG_REPAIR,
};
use cuszp_core::{
    chunk_count, scalars_from_le, scalars_to_le, stored_chunks, stored_dtype, ChunkIndex,
    ChunkSource, ChunkedArchive, Compressor, Config, CuszpError, Decode, Dims, Dtype, Element,
    LosslessStage, PipelineEngine, Predictor, RangeSpec, ReconstructEngine, RecoveredField,
    ScanReport,
};
use cuszp_parallel::{num_workers, with_serial_inner, WorkerPool, DEFAULT_CHUNK_ELEMS};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked workers re-check the shutdown flag. Also the
/// idle-poll granularity on open connections.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Self-connects tried before shutdown gives up waking the acceptor.
const WAKE_ATTEMPTS: usize = 3;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each owns one [`PipelineEngine`]).
    pub workers: usize,
    /// Connections allowed to wait in the queue; beyond this the
    /// acceptor answers `Busy`.
    pub queue_capacity: usize,
    /// A connection is closed after this long without a complete frame.
    pub read_timeout: Duration,
    /// Per-response write timeout.
    pub write_timeout: Duration,
    /// After shutdown begins, connected clients get this long to finish.
    pub drain_deadline: Duration,
    /// Frame payload cap for this server (≤ [`MAX_FRAME_PAYLOAD`]).
    pub max_frame_payload: usize,
    /// Byte budget for the hot-slab range cache; 0 disables caching.
    pub cache_bytes: usize,
    /// Backoff hint carried by `Busy` rejections (`retry_after_ms`).
    pub busy_retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 16,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_frame_payload: MAX_FRAME_PAYLOAD,
            cache_bytes: 64 << 20,
            busy_retry_after: Duration::from_millis(100),
        }
    }
}

/// Cluster membership for one node: its identity and the ring it
/// routes by. [`ServerConfig`] stays `Copy`-tunable; this rides
/// alongside it through [`Server::bind_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's id. Must name a member of `ring`.
    pub node_id: u64,
    /// The topology this node serves and routes by.
    pub ring: Ring,
    /// Shard persistence: in-memory, or the durable log-structured
    /// store rooted at a data directory.
    pub backend: StoreBackendConfig,
}

/// Per-node cluster state: identity, topology, and the shard store.
#[derive(Debug)]
struct ClusterCtx {
    node_id: u64,
    ring: Ring,
    store: Mutex<Box<dyn ShardBackend>>,
}

/// State shared by the acceptor, the workers, and external handles.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    metrics: ServiceMetrics,
    shutdown: AtomicBool,
    /// Where a connection reaches this server's own listener: the
    /// acceptor blocks in `accept()`, and shutdown wakes it by connecting.
    wake_addr: SocketAddr,
    /// Set when shutdown begins: the instant the drain window closes.
    drain_until: Mutex<Option<Instant>>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Signalled when a worker takes a connection off a full queue.
    slot_cv: Condvar,
    /// Hot-slab cache for `get_range`. Locked only for lookup/insert;
    /// chunk decoding always happens outside the critical section.
    cache: Mutex<SlabCache>,
    /// `Some` when serving as a cluster node: shard ops route here.
    cluster: Option<ClusterCtx>,
    /// Idle helper engines a request may add to its own as lanes.
    helpers: Mutex<Vec<PipelineEngine>>,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and opens the drain window. Returns true
    /// for the call that began the shutdown: the acceptor is still
    /// parked in `accept()`, and that caller follows with
    /// [`Shared::wake_acceptor`].
    fn begin_shutdown(&self) -> bool {
        let mut until = self.drain_until.lock().expect("drain lock poisoned");
        let first = until.is_none();
        if first {
            *until = Some(Instant::now() + self.config.drain_deadline);
        }
        drop(until);
        // SeqCst (load side too): the acceptor learns of shutdown through
        // the wake-up socket and must then observe the flag.
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        first
    }

    /// Hands the acceptor, parked in `accept()`, one connection so it
    /// returns and sees the shutdown flag. `serve()` returning depends on
    /// this connect (or any later client's) reaching the listener, so it
    /// is retried, and a failure is reported rather than swallowed. (A
    /// full backlog also refuses the connect, but then `accept()` is not
    /// parked.)
    fn wake_acceptor(&self) {
        for attempt in 1..=WAKE_ATTEMPTS {
            match TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)) {
                Ok(_) => return,
                Err(e) if attempt == WAKE_ATTEMPTS => eprintln!(
                    "cuszp-server: could not wake the acceptor at {} ({e}); \
                     shutdown completes on the next incoming connection",
                    self.wake_addr
                ),
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
    }

    /// Runs `f` on the lanes of a request of `jobs` chunks: the
    /// worker's own `engine` first, then up to `jobs − 1` idle helper
    /// engines taken without waiting, all given back afterwards.
    fn with_lanes<R>(
        &self,
        engine: &mut PipelineEngine,
        jobs: usize,
        f: impl FnOnce(&mut [PipelineEngine]) -> R,
    ) -> R {
        let mut lanes = vec![std::mem::take(engine)];
        if jobs > 1 {
            let mut idle = self.helpers.lock().expect("helper lock poisoned");
            let keep = idle.len().saturating_sub(jobs - 1);
            lanes.extend(idle.drain(keep..));
        }
        let out = f(&mut lanes);
        let mut lanes = lanes.into_iter();
        *engine = lanes.next().expect("the worker's own lane");
        self.helpers
            .lock()
            .expect("helper lock poisoned")
            .extend(lanes);
        out
    }

    fn drain_expired(&self) -> bool {
        self.drain_until
            .lock()
            .expect("drain lock poisoned")
            .is_some_and(|t| Instant::now() >= t)
    }

    /// The backoff hint to carry on shed requests. While draining, the
    /// hint is the remaining drain window (after which a restarted
    /// server could bind again); otherwise the configured busy backoff.
    fn retry_after_hint(&self) -> Duration {
        let drain_remaining = self
            .drain_until
            .lock()
            .expect("drain lock poisoned")
            .map(|t| t.saturating_duration_since(Instant::now()));
        match drain_remaining {
            Some(rem) => rem.max(self.config.busy_retry_after),
            None => self.config.busy_retry_after,
        }
    }
}

/// A cloneable control handle: shut the server down or sample its
/// metrics from outside the serve loop (e.g. a signal handler shim or a
/// test harness).
#[derive(Debug, Clone)]
pub struct ServerHandle(Arc<Shared>);

impl ServerHandle {
    /// Begins graceful shutdown: stop accepting, drain, return.
    pub fn shutdown(&self) {
        if self.0.begin_shutdown() {
            self.0.wake_acceptor();
        }
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.0.is_shutting_down()
    }

    /// Samples the live metrics.
    pub fn stats(&self) -> crate::metrics::StatsSnapshot {
        self.0.metrics.snapshot()
    }

    /// Stored shard slots on this node (0 when not clustered).
    pub fn shard_count(&self) -> usize {
        self.0
            .cluster
            .as_ref()
            .map(|c| c.store.lock().expect("store lock poisoned").len())
            .unwrap_or(0)
    }

    /// Wipes the node's shard store — the test hook for simulating a
    /// node that lost its disk and must be healed by scrub. (The
    /// durable backend deletes its segment files too.)
    pub fn clear_shards(&self) {
        if let Some(c) = &self.0.cluster {
            let _ = c.store.lock().expect("store lock poisoned").clear();
        }
    }

    /// The shard backend kind (`"memory"` / `"durable"`); `None` when
    /// not clustered.
    pub fn store_kind(&self) -> Option<&'static str> {
        self.0
            .cluster
            .as_ref()
            .map(|c| c.store.lock().expect("store lock poisoned").kind())
    }

    /// The durable backend's boot-recovery summary (`None` for the
    /// memory backend or when not clustered).
    pub fn store_recovery_summary(&self) -> Option<String> {
        self.0.cluster.as_ref().and_then(|c| {
            c.store
                .lock()
                .expect("store lock poisoned")
                .recovery_summary()
        })
    }
}

/// The compression service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the service (use port 0 for an ephemeral port; read it
    /// back with [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_cluster(addr, config, None)
    }

    /// Binds the service as a cluster node: shard ops (`put`, `get`,
    /// `list_shards`) and the `ring` op are served, `health` carries
    /// the node id + ring epoch, and requests routed under a stale
    /// epoch or to a non-owner are answered `Redirect`/`NotMine`.
    pub fn bind_cluster(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        cluster: Option<ClusterConfig>,
    ) -> std::io::Result<Server> {
        let mut cluster_ctx = None;
        if let Some(c) = cluster {
            if c.ring.node(c.node_id).is_none() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("node id {} is not a member of the ring", c.node_id),
                ));
            }
            // Opening the durable backend replays its segments here, so
            // a node that binds has already re-verified every shard it
            // will serve (the boot scan is `list_shards`-equivalent).
            let store = c
                .backend
                .open()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            cluster_ctx = Some(ClusterCtx {
                node_id: c.node_id,
                ring: c.ring,
                store: Mutex::new(store),
            });
        }
        let listener = TcpListener::bind(addr)?;
        // A wildcard bind is reached through loopback of the same family.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let config = ServerConfig {
            workers: config.workers.max(1),
            max_frame_payload: config.max_frame_payload.min(MAX_FRAME_PAYLOAD),
            ..config
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                metrics: ServiceMetrics::new(),
                shutdown: AtomicBool::new(false),
                wake_addr,
                drain_until: Mutex::new(None),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                slot_cv: Condvar::new(),
                cache: Mutex::new(SlabCache::new(config.cache_bytes)),
                cluster: cluster_ctx,
                helpers: Mutex::new((1..num_workers()).map(|_| PipelineEngine::new()).collect()),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(self.shared.clone())
    }

    /// Runs the service until graceful shutdown completes. The acceptor
    /// and the request workers are scoped threads; each worker owns one
    /// reusable [`PipelineEngine`] and runs its requests with nested
    /// parallelism forced serial, except where they fan out on lanes.
    pub fn serve(self) -> std::io::Result<()> {
        let shared = &self.shared;
        let listener = &self.listener;
        std::thread::scope(|s| {
            let acceptor = s.spawn(move || accept_loop(listener, shared));
            for _ in 0..shared.config.workers {
                s.spawn(move || {
                    with_serial_inner(|| worker_loop(shared, &mut PipelineEngine::new()))
                });
            }
            acceptor.join().expect("acceptor panicked")
        });
        Ok(())
    }
}

/// How long a full queue may keep the acceptor waiting for a slot
/// before the new connection is rejected.
const ADMIT_GRACE: Duration = Duration::from_millis(10);

/// The most one rejected connection may hold the acceptor, from
/// `accept()` to close: slot wait, header wait, `Busy` frame and reading
/// off the rest of its request all share this one deadline.
const REJECT_BUDGET: Duration = Duration::from_millis(50);

/// Accepts connections until shutdown, enqueueing each for a worker —
/// or rejecting with a typed `Busy` frame when the queue is at
/// capacity (the explicit-backpressure contract). Blocks in `accept()`,
/// so a new connection is queued the moment the kernel hands it over;
/// [`Shared::wake_acceptor`] connects to the listener to end the wait.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.is_shutting_down() {
            // Whatever `accept()` returned — the wake-up connection or
            // a client that raced it — is dropped unserved. Wake any
            // workers parked on an empty queue.
            shared.queue_cv.notify_all();
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.incr();
                let accepted_at = Instant::now();
                // A full queue gets a moment to free a slot before the
                // connection is turned away: a worker that has just
                // finished pops the queue within microseconds, and its
                // successor must not be shed for arriving first.
                let (mut queue, _) = shared
                    .slot_cv
                    .wait_timeout_while(
                        shared.queue.lock().expect("queue lock poisoned"),
                        ADMIT_GRACE,
                        |q| q.len() >= shared.config.queue_capacity,
                    )
                    .expect("queue lock poisoned");
                if queue.len() >= shared.config.queue_capacity {
                    drop(queue);
                    shared.metrics.rejected_busy.incr();
                    reject_busy(stream, shared, accepted_at + REJECT_BUDGET);
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.queue_cv.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Out of descriptors and the like: back off, don't spin.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Best-effort peek at the first frame header of a rejected connection
/// so the `Busy` answer can echo the request's id and op. Returns the
/// header when a structurally valid one was readable before `deadline`;
/// pipelining clients then correlate the rejection with the request
/// that caused it.
fn peek_rejected_header(stream: &TcpStream, deadline: Instant) -> Option<Header> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Peek (never consume): the client's frame stays intact on the
    // socket, and a header that doesn't fully arrive before the deadline
    // just means we answer with id 0 as before.
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.peek(&mut header) {
            Ok(got) if got >= FRAME_HEADER_BYTES => break,
            Ok(got) if got > 0 => std::thread::sleep(Duration::from_millis(2)),
            _ => return None,
        }
    }
    parse_header(&header).ok()
}

/// Answers one `Busy` error frame and drops the connection, all before
/// `deadline`. When the client's first frame header is already
/// readable, its request id and op are echoed so pipelining clients can
/// correlate the rejection; id 0 only when nothing parsed.
fn reject_busy(mut stream: TcpStream, shared: &Shared, deadline: Instant) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let header = peek_rejected_header(&stream, deadline);
    let (op, req_id) = header.map_or((Op::Ping as u8, 0), |h| (h.op, h.req_id));
    let busy = ErrorResponse::new(
        ErrorCode::Busy,
        format!(
            "request queue full ({} waiting); retry later",
            shared.config.queue_capacity
        ),
    )
    .with_retry_after(shared.retry_after_hint());
    let _ = write_frame(
        &mut stream,
        op,
        FLAG_RESPONSE | FLAG_ERROR,
        req_id,
        &busy.encode(),
    );
    // Closing with request bytes still unread resets the connection,
    // which fails a client mid-write and can discard the `Busy` frame
    // before it is read. Read off exactly the frame the header declared:
    // a client that then keeps its socket open costs nothing more.
    let mut unread = header.map_or(0, |h| FRAME_HEADER_BYTES + h.len + 8);
    let mut sink = [0u8; 16 << 10];
    while unread > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        let want = unread.min(sink.len());
        match stream.read(&mut sink[..want]) {
            Ok(n) if n > 0 => unread -= n,
            _ => return,
        }
    }
}

/// One worker: pull connections off the queue and serve each until the
/// client closes (or timeouts/drain end it). Exits when shutdown has
/// begun and the queue is drained — or immediately once the drain
/// deadline passes.
fn worker_loop(shared: &Shared, engine: &mut PipelineEngine) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(c) = queue.pop_front() {
                    shared.slot_cv.notify_one();
                    break Some(c);
                }
                if shared.is_shutting_down() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, POLL_INTERVAL)
                    .expect("queue lock poisoned");
                queue = guard;
            }
        };
        match conn {
            Some(stream) => serve_connection(stream, shared, engine),
            None => return,
        }
        if shared.drain_expired() {
            return;
        }
    }
}

/// Serves every frame on one connection. A malformed frame gets a typed
/// error response and closes the connection; request-level failures get
/// typed error responses and the connection keeps serving.
fn serve_connection(mut stream: TcpStream, shared: &Shared, engine: &mut PipelineEngine) {
    let _active = shared.metrics.connection_guard();
    let _ = stream.set_nodelay(true);
    if stream
        .set_write_timeout(Some(shared.config.write_timeout))
        .is_err()
    {
        return;
    }
    let mut last_frame = Instant::now();
    loop {
        if shared.drain_expired() {
            return;
        }
        // Idle-poll via peek so the frame reader never consumes partial
        // headers on a timeout: wait for the first byte of a frame under
        // a short poll, then grant the full read timeout to the frame.
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_frame.elapsed() >= shared.config.read_timeout {
                    return; // idle connection
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if stream
            .set_read_timeout(Some(shared.config.read_timeout))
            .is_err()
        {
            return;
        }
        match read_frame(&mut stream, shared.config.max_frame_payload) {
            Ok(frame) => {
                last_frame = Instant::now();
                if !handle_frame(&mut stream, &frame, shared, engine) {
                    return;
                }
            }
            Err(WireError::Closed) => return,
            Err(WireError::Io(_)) => return, // timeout mid-frame or hard I/O error
            Err(wire_err) => {
                // Structurally bad frame: answer with a typed error,
                // then close — the stream cannot be resynchronized.
                shared.metrics.malformed_frames.incr();
                let code = match wire_err {
                    WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                    WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::MalformedFrame,
                };
                let resp = ErrorResponse::new(code, wire_err.to_string());
                let _ = write_frame(
                    &mut stream,
                    Op::Ping as u8,
                    FLAG_RESPONSE | FLAG_ERROR,
                    0,
                    &resp.encode(),
                );
                return;
            }
        }
    }
}

/// Dispatches one well-framed request; returns false when the
/// connection should close. Every outcome is a response frame carrying
/// the request's id.
fn handle_frame(
    stream: &mut TcpStream,
    frame: &crate::wire::Frame,
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> bool {
    let Some(op) = Op::from_u8(frame.op) else {
        shared.metrics.malformed_frames.incr();
        let resp = ErrorResponse::new(
            ErrorCode::UnknownOp,
            format!("op tag {} names no operation", frame.op),
        );
        return write_frame(
            stream,
            frame.op,
            FLAG_RESPONSE | FLAG_ERROR,
            frame.req_id,
            &resp.encode(),
        )
        .is_ok();
    };
    let t0 = Instant::now();
    let result = if frame.is_response() {
        Err(ErrorResponse::new(
            ErrorCode::BadRequest,
            "a server does not accept response frames",
        ))
    } else if shared.is_shutting_down() && sheds_while_draining(op) {
        // Graceful load shedding: a draining server refuses new work
        // with a typed, retryable answer instead of doing half a job
        // against the drain deadline. Probes (ping/health/stats) and
        // repeated shutdowns still get real answers.
        shared.metrics.rejected_unavailable.incr();
        Err(
            ErrorResponse::new(ErrorCode::Unavailable, "server is draining for shutdown")
                .with_retry_after(shared.retry_after_hint()),
        )
    } else {
        handle_op(op, &frame.payload, shared, engine)
    };
    let (payload, flags, errored) = match result {
        Ok(p) => (p, FLAG_RESPONSE, false),
        Err(e) => (e.encode(), FLAG_RESPONSE | FLAG_ERROR, true),
    };
    shared.metrics.record_request(
        op,
        frame.payload.len(),
        payload.len(),
        t0.elapsed(),
        errored,
    );
    // Flip the flag before the ack goes out: once the client sees the
    // response, the server is observably draining.
    let wake = op == Op::Shutdown && !errored && shared.begin_shutdown();
    let written = write_frame(stream, frame.op, flags, frame.req_id, &payload).is_ok();
    if wake {
        // After the ack, so a slow self-connect never delays it.
        shared.wake_acceptor();
    }
    written
}

/// True for ops a draining server sheds with `Unavailable`: the heavy
/// pipeline work it can no longer promise to finish. Probes, shutdown
/// itself, and the `ring` topology op keep answering so clients can
/// watch the drain and re-route around the departing node.
fn sheds_while_draining(op: Op) -> bool {
    !matches!(
        op,
        Op::Ping | Op::Health | Op::Stats | Op::Shutdown | Op::Ring
    )
}

/// Maps a pipeline error to a typed response: request-shaped faults are
/// the client's (`BadRequest`), archive/pipeline faults are `Pipeline`.
fn pipeline_error(e: CuszpError) -> ErrorResponse {
    let code = match e {
        CuszpError::DimsMismatch { .. }
        | CuszpError::NonFiniteInput
        | CuszpError::InvalidErrorBound(_)
        | CuszpError::QuantizerRange { .. }
        | CuszpError::InvalidParityConfig(_)
        | CuszpError::DtypeMismatch { .. }
        | CuszpError::InvalidRange { .. } => ErrorCode::BadRequest,
        _ => ErrorCode::Pipeline,
    };
    ErrorResponse::new(code, e.to_string())
}

fn wire_error(e: WireError) -> ErrorResponse {
    ErrorResponse::new(ErrorCode::BadRequest, e.to_string())
}

/// Executes one op. All fallible work funnels into typed
/// [`ErrorResponse`]s; nothing here may panic on untrusted input.
fn handle_op(
    op: Op,
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    match op {
        Op::Ping => Ok(Vec::new()),
        Op::Shutdown => Ok(Vec::new()),
        Op::Stats => Ok(shared.metrics.snapshot().encode()),
        Op::Health => {
            // Answered straight from shared state — never touches the
            // engine, so it stays cheap under full load.
            let queue_depth = shared.queue.lock().expect("queue lock poisoned").len();
            Ok(crate::wire::HealthResponse {
                queue_depth: queue_depth.min(u32::MAX as usize) as u32,
                queue_capacity: shared.config.queue_capacity.min(u32::MAX as usize) as u32,
                draining: shared.is_shutting_down(),
                active_connections: shared.metrics.active_connections().min(u32::MAX as u64) as u32,
                workers: shared.config.workers.min(u32::MAX as usize) as u32,
                retry_after_ms: shared.retry_after_hint().as_millis().min(u32::MAX as u128) as u32,
                cluster: shared.cluster.as_ref().map(|c| ClusterIdentity {
                    node_id: c.node_id,
                    ring_epoch: c.ring.epoch,
                }),
            }
            .encode())
        }
        Op::Compress => handle_compress(payload, shared, engine),
        Op::Decompress => handle_decompress(payload, shared, engine),
        Op::Scan => Ok(cuszp_core::scan(payload)
            .map_err(pipeline_error)?
            .to_bytes()),
        Op::Info => handle_info(payload),
        Op::GetRange => handle_get_range(payload, shared, engine),
        Op::Ring => Ok(cluster_ctx(shared)?.ring.encode()),
        Op::Put => handle_put_shard(payload, shared),
        Op::Get => handle_get_shard(payload, shared),
        Op::ListShards => handle_list_shards(shared),
    }
}

/// The cluster context, or a typed refusal on a non-cluster server.
fn cluster_ctx(shared: &Shared) -> Result<&ClusterCtx, ErrorResponse> {
    shared.cluster.as_ref().ok_or_else(|| {
        ErrorResponse::new(
            ErrorCode::BadRequest,
            "this server is not a cluster node (no ring configured)",
        )
    })
}

/// Routing gate shared by shard puts and gets: the request must carry
/// the node's ring epoch and target a stripe slot this node owns.
/// Stale epochs answer `Redirect`, wrong owners `NotMine` — both carry
/// the authoritative owner + epoch so one client hop fixes the route.
fn check_shard_route(
    cluster: &ClusterCtx,
    shared: &Shared,
    key: &str,
    shard_idx: u16,
    req_epoch: u64,
) -> Result<(), ErrorResponse> {
    let ring = &cluster.ring;
    let owner = ring.shard_owner(key, shard_idx).ok_or_else(|| {
        ErrorResponse::new(
            ErrorCode::BadRequest,
            format!(
                "shard index {shard_idx} out of range for a {}+{} stripe",
                ring.data_shards, ring.parity_shards
            ),
        )
    })?;
    if req_epoch != ring.epoch {
        shared.metrics.redirects.incr();
        return Err(ErrorResponse::new(
            ErrorCode::Redirect,
            format!(
                "request routed under epoch {req_epoch}, ring is at {}",
                ring.epoch
            ),
        )
        .with_redirect(ring.epoch, owner.id, owner.addr.clone()));
    }
    if owner.id != cluster.node_id {
        shared.metrics.redirects.incr();
        return Err(ErrorResponse::new(
            ErrorCode::NotMine,
            format!(
                "shard {shard_idx} of '{key}' belongs to node {}, this is node {}",
                owner.id, cluster.node_id
            ),
        )
        .with_redirect(ring.epoch, owner.id, owner.addr.clone()));
    }
    Ok(())
}

fn handle_put_shard(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, ErrorResponse> {
    let cluster = cluster_ctx(shared)?;
    let req = PutShardRequest::decode(payload).map_err(wire_error)?;
    check_shard_route(cluster, shared, &req.key, req.shard_idx, req.ring_epoch)?;
    cluster
        .store
        .lock()
        .expect("store lock poisoned")
        .put(
            &req.key,
            req.shard_idx,
            req.shard,
            req.total_len,
            req.archive_sum,
            req.flags,
        )
        .map_err(|e| ErrorResponse::new(ErrorCode::Pipeline, e.to_string()))?;
    if req.flags & PUT_FLAG_REPAIR != 0 {
        shared.metrics.scrub_repairs.incr();
    }
    Ok(Vec::new())
}

fn handle_get_shard(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, ErrorResponse> {
    let cluster = cluster_ctx(shared)?;
    let req = GetShardRequest::decode(payload).map_err(wire_error)?;
    check_shard_route(cluster, shared, &req.key, req.shard_idx, req.ring_epoch)?;
    // The store lock covers the read only: the reply is encoded after
    // it is released, so other shard ops on this node need not wait.
    // The store checks the whole record, then hands out only the
    // window's bytes.
    let stored =
        cluster
            .store
            .lock()
            .expect("store lock poisoned")
            .get(&req.key, req.shard_idx, req.window);
    let shard = stored
        .map_err(|e| {
            let code = match e {
                StoreOpError::WindowPastEnd { .. } => ErrorCode::BadRequest,
                _ => ErrorCode::Pipeline,
            };
            ErrorResponse::new(
                code,
                format!("shard {} of '{}': {e}", req.shard_idx, req.key),
            )
        })?
        .ok_or_else(|| {
            ErrorResponse::new(
                ErrorCode::NotFound,
                format!(
                    "shard {} of '{}' is not stored here",
                    req.shard_idx, req.key
                ),
            )
        })?;
    Ok(GetShardResponse {
        total_len: shard.total_len,
        archive_sum: shard.archive_sum,
        archive_sum_kind: shard.archive_sum_kind,
        shard: shard.bytes,
    }
    .encode())
}

fn handle_list_shards(shared: &Shared) -> Result<Vec<u8>, ErrorResponse> {
    let cluster = cluster_ctx(shared)?;
    let (records, dropped) = cluster
        .store
        .lock()
        .expect("store lock poisoned")
        .verify_and_list()
        .map_err(|e| ErrorResponse::new(ErrorCode::Pipeline, e.to_string()))?;
    if dropped > 0 {
        shared.metrics.corrupt_shards_dropped.add(dropped);
    }
    Ok(ShardListResponse { records }.encode())
}

/// The response payload for a decoded field of either precision.
fn field_response<T: Element>(dims: Dims, report: Option<ScanReport>, data: &[T]) -> Vec<u8> {
    DecompressResponse {
        dtype: T::DTYPE,
        dims,
        report,
        data: scalars_to_le(data),
    }
    .encode()
}

/// The response payload for a resilient decode: the field plus its
/// per-chunk recovery report.
fn recovered_response<T: Element>(rf: RecoveredField<T>) -> Vec<u8> {
    let dims = rf.dims;
    let (data, report) = rf.into_report();
    field_response(dims, Some(report), &data)
}

/// Decodes the request's raw field as `T` and compresses it on `lanes`.
fn compress_field<T: Element>(
    compressor: &Compressor,
    req: &CompressRequest<'_>,
    target: usize,
    lanes: &mut [PipelineEngine],
) -> Result<ChunkedArchive, ErrorResponse> {
    // The length comes from a peer: a refused allocation is a typed error.
    let data = scalars_from_le::<T>(req.data)
        .map_err(|_| ErrorResponse::new(ErrorCode::Pipeline, "field allocation refused"))?;
    compressor
        .compress_chunked_on_lanes(&data, req.dims, target, lanes)
        .map(|(arc, _)| arc)
        .map_err(pipeline_error)
}

fn handle_compress(
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    let req = CompressRequest::decode(payload).map_err(wire_error)?;
    if let Some(p) = req.parity {
        p.validate().map_err(pipeline_error)?;
    }
    let config = Config {
        error_bound: req.error_bound,
        workflow: req.workflow,
        predictor: req.predictor,
        lossless: req.lossless,
        ..Config::default()
    };
    let compressor = Compressor::new(config);
    let target = if req.chunk_target == 0 {
        DEFAULT_CHUNK_ELEMS
    } else {
        usize::try_from(req.chunk_target)
            .map_err(|_| ErrorResponse::new(ErrorCode::BadRequest, "chunk target too large"))?
    };
    let jobs = chunk_count(req.dims, target);
    let mut arc = shared.with_lanes(engine, jobs, |lanes| match req.dtype {
        Dtype::F32 => compress_field::<f32>(&compressor, &req, target, lanes),
        Dtype::F64 => compress_field::<f64>(&compressor, &req, target, lanes),
    })?;
    for chunk in &arc.chunks {
        let plan = chunk.plan();
        match plan.predictor {
            Predictor::Lorenzo => shared.metrics.plans_lorenzo.incr(),
            Predictor::Interpolation => shared.metrics.plans_interpolation.incr(),
        }
        if plan.lossless == LosslessStage::BitshuffleLz77 {
            shared.metrics.plans_lossless.incr();
        }
    }
    if let Some(parity) = req.parity {
        // A worker runs with nested parallelism forced serial, so the
        // default pool is one worker here; parity bytes are
        // width-independent either way.
        arc.add_parity(parity, &WorkerPool::with_default_workers());
    }
    Ok(arc.to_bytes())
}

/// Decodes `archive` (or its `range`) in the archive's own element type
/// — read from the fixed header, so the archive itself is parsed and
/// checksummed once — and encodes the response. A strict decode runs on
/// `lanes`.
fn decode_response(
    archive: &[u8],
    range: Option<&RangeSpec>,
    mode: DecompressMode,
    lanes: &mut [PipelineEngine],
) -> Result<Vec<u8>, ErrorResponse> {
    fn run<T: Element>(
        decode: Decode<'_>,
        mode: DecompressMode,
        lanes: &mut [PipelineEngine],
    ) -> Result<Vec<u8>, CuszpError> {
        match mode {
            DecompressMode::Strict => decode
                .strict_on::<T>(lanes)
                .map(|(data, dims)| field_response(dims, None, &data)),
            DecompressMode::Recover(fill) => decode.resilient::<T>(fill).map(recovered_response),
        }
    }
    let decode = Decode::new(archive);
    let decode = range.map_or(decode, |spec| decode.range(spec));
    match stored_dtype(archive).map_err(pipeline_error)? {
        Dtype::F32 => run::<f32>(decode, mode, lanes),
        Dtype::F64 => run::<f64>(decode, mode, lanes),
    }
    .map_err(pipeline_error)
}

/// A strict decompress fans its chunks out on lanes; a resilient one
/// runs on this worker alone.
fn handle_decompress(
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    let req = DecompressRequest::decode(payload).map_err(wire_error)?;
    let jobs = match req.mode {
        // A header that does not parse fails the decode itself.
        DecompressMode::Strict => stored_chunks(req.archive).unwrap_or(1),
        DecompressMode::Recover(_) => 1,
    };
    shared.with_lanes(engine, jobs, |lanes| {
        decode_response(req.archive, None, req.mode, lanes)
    })
}

/// Serves a chunked-archive range read through the hot-slab cache: the
/// strict range read ([`ChunkSource::decompress_range`]) with the
/// worker's engine as its only lane, so the read stays serial on this
/// worker.
///
/// The fetch/store hooks lock the cache only for the lookup/insert
/// itself — a miss parses and decodes the chunk *outside* the lock, so
/// a slow decode never blocks other workers' hits. Slabs are stored as
/// little-endian scalar bytes (the wire encoding), and a hit gathers
/// only the requested elements out of them.
fn serve_cached_range<T: Element>(
    source: ChunkSource<'_>,
    spec: &RangeSpec,
    key: ArchiveKey,
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, CuszpError> {
    let caching = shared.config.cache_bytes > 0;
    let fetch = |i: usize| -> Option<Arc<Vec<u8>>> {
        if !caching {
            return None;
        }
        let hit = shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .slab(key, i as u32);
        match hit {
            Some(_) => shared.metrics.cache_hits.incr(),
            None => shared.metrics.cache_misses.incr(),
        }
        hit
    };
    let store = |i: usize, slab: &[T]| {
        if !caching {
            return;
        }
        let evicted = shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .insert_slab(key, i as u32, Arc::new(scalars_to_le(slab)));
        shared.metrics.cache_evictions.add(evicted);
    };
    let (data, dims) = source.decompress_range(
        ReconstructEngine::FinePartialSum,
        spec,
        std::slice::from_mut(engine),
        fetch,
        store,
    )?;
    Ok(field_response(dims, None, &data))
}

fn handle_get_range(
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    let req = GetRangeRequest::decode(payload).map_err(wire_error)?;
    match req.mode {
        DecompressMode::Strict => {
            // Never stored, only compared within this process: the fast
            // checksum, not the persisted-format FNV-1a.
            let key = (wordsum64(req.archive), req.archive.len() as u64);
            let caching = shared.config.cache_bytes > 0;
            let cached = caching
                .then(|| shared.cache.lock().expect("cache lock poisoned").index(key))
                .flatten();
            // Bytes this server verified before are found by their
            // identity, and the read parses only the chunks it decodes
            // out of them. Any other bytes — accidental damage to a
            // verified archive gives it another identity (see `cache`) —
            // get the whole-container strict parse, outside the cache
            // lock; once it passes, their index is cached and the read
            // decodes from the chunks that parse built, as an uncached
            // read always did.
            let parsed;
            let (source, dtype) = match &cached {
                Some(index) => (ChunkSource::Verified(index, req.archive, 0), index.dtype()),
                None => {
                    shared.metrics.containers_verified.incr();
                    let (index, arc) = ChunkIndex::verify(req.archive).map_err(pipeline_error)?;
                    if caching {
                        let evicted = shared
                            .cache
                            .lock()
                            .expect("cache lock poisoned")
                            .insert_index(key, Arc::new(index));
                        shared.metrics.cache_evictions.add(evicted);
                    }
                    parsed = arc;
                    (ChunkSource::Parsed(&parsed), parsed.dtype)
                }
            };
            let spec = &req.spec;
            match dtype {
                Dtype::F32 => serve_cached_range::<f32>(source, spec, key, shared, engine),
                Dtype::F64 => serve_cached_range::<f64>(source, spec, key, shared, engine),
            }
            .map_err(pipeline_error)
        }
        // Damaged archives must never seed the cache: the resilient path
        // decodes uncached and reports per-chunk outcomes.
        mode => decode_response(
            req.archive,
            Some(&req.spec),
            mode,
            std::slice::from_mut(engine),
        ),
    }
}

fn handle_info(payload: &[u8]) -> Result<Vec<u8>, ErrorResponse> {
    let arc = ChunkedArchive::from_bytes(payload).map_err(pipeline_error)?;
    let info = RemoteInfo {
        format: arc.format().to_string(),
        dtype: arc.dtype,
        dims: arc.dims,
        eb: arc.eb,
        n_chunks: arc.n_chunks() as u64,
        parity: arc
            .parity
            .as_ref()
            .map(|p| (p.data_shards, p.parity_shards)),
        stored_bytes: payload.len() as u64,
    };
    Ok(info.encode())
}
