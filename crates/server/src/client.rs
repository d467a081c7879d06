//! Typed client for the compression service.
//!
//! [`Client`] wraps one TCP connection and speaks CSRP: each typed call
//! stamps a fresh request id, writes one frame, and matches the
//! response by that id. Error responses come back as
//! [`ClientError::Server`] with the server's typed
//! [`ErrorResponse`] — including `Busy` rejections, which the
//! acceptor sends with request id 0 because no request frame was ever
//! read.
//!
//! For pipelined use (several requests in flight on one connection),
//! the split [`Client::send`] / [`Client::recv`] pair exposes the raw
//! id matching.

use crate::metrics::StatsSnapshot;
use crate::wire::{
    read_frame, write_frame, CompressRequest, DecompressMode, DecompressRequest,
    DecompressResponse, ErrorResponse, Frame, GetRangeRequest, HealthResponse, Op, RemoteInfo,
    WireError, MAX_FRAME_PAYLOAD,
};
use cuszp_core::ScanReport;
use cuszp_metrics::Counter;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The response frame or payload failed to decode.
    Wire(WireError),
    /// The server answered with a typed error.
    Server(ErrorResponse),
    /// The server violated the protocol (wrong id, wrong frame kind).
    Protocol(&'static str),
    /// A retrying call ran out of its overall deadline before any
    /// attempt succeeded.
    DeadlineExceeded {
        /// Attempts made before the deadline closed.
        attempts: u32,
        /// Time spent on the call.
        elapsed: Duration,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::DeadlineExceeded { attempts, elapsed } => write!(
                f,
                "deadline exceeded after {attempts} attempt(s) in {:.1} ms",
                elapsed.as_secs_f64() * 1e3
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// The server's typed error code, when this is a server error.
    pub fn server_code(&self) -> Option<crate::wire::ErrorCode> {
        match self {
            ClientError::Server(e) => Some(e.code),
            _ => None,
        }
    }

    /// The server's backoff hint, when this error carries one
    /// (load-shedding rejections: `Busy`, `Unavailable`).
    pub fn retry_after_ms(&self) -> Option<u32> {
        match self {
            ClientError::Server(e) => e.retry_after_ms,
            _ => None,
        }
    }

    /// True when the same request may succeed if re-issued: transport
    /// failures (the connection's state is unknown, so the retry
    /// reconnects) and transient server rejections. The op must *also*
    /// be idempotent ([`Op::is_idempotent`]) for a retry loop to act on
    /// this.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Wire(_) | ClientError::Protocol(_) => true,
            ClientError::Server(e) => e.code.is_transient(),
            ClientError::DeadlineExceeded { .. } => false,
        }
    }
}

/// Connection knobs for [`Client::connect_with`]. The plain
/// [`Client::connect`] has no connect timeout and no socket timeouts —
/// a dead server hangs it forever — so anything talking over a real
/// network should use these instead.
#[derive(Debug, Clone, Copy)]
pub struct ConnectOptions {
    /// TCP connect timeout, applied per resolved address.
    pub connect_timeout: Duration,
    /// Default read timeout on the connected socket.
    pub read_timeout: Option<Duration>,
    /// Default write timeout on the connected socket.
    pub write_timeout: Option<Duration>,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// One connection to a compression service.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    max_frame_payload: usize,
}

impl Client {
    /// Connects to a server with no timeouts (backward-compatible
    /// behavior: a dead server blocks indefinitely). Prefer
    /// [`Client::connect_with`] over real networks.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 1,
            max_frame_payload: MAX_FRAME_PAYLOAD,
        })
    }

    /// Connects with a connect timeout and default socket timeouts.
    /// `opts.connect_timeout` is the *total* budget: each resolved
    /// address gets at most the time remaining, so a name resolving to
    /// several dead addresses cannot multiply the wait — the invariant
    /// [`RetryingClient`] relies on when it clamps the budget to a
    /// call's remaining deadline.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: &ConnectOptions,
    ) -> std::io::Result<Client> {
        let deadline = Instant::now() + opts.connect_timeout;
        let mut last_err = None;
        for sock_addr in addr.to_socket_addrs()? {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match TcpStream::connect_timeout(&sock_addr, remaining) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(opts.read_timeout)?;
                    stream.set_write_timeout(opts.write_timeout)?;
                    return Ok(Client {
                        stream,
                        next_id: 1,
                        max_frame_payload: MAX_FRAME_PAYLOAD,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "connect budget exhausted before any address answered",
            )
        }))
    }

    /// Sets read/write timeouts on the underlying socket.
    pub fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }

    /// Sends one request frame, returning its request id. Pair with
    /// [`Client::recv`] for pipelined use.
    pub fn send(&mut self, op: Op, payload: &[u8]) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, op as u8, 0, id, payload)?;
        Ok(id)
    }

    /// Reads one response frame (any request id).
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        let frame = read_frame(&mut self.stream, self.max_frame_payload)?;
        if !frame.is_response() {
            return Err(ClientError::Protocol("expected a response frame"));
        }
        Ok(frame)
    }

    /// One full round trip: send, then match the response by id.
    pub fn call(&mut self, op: Op, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        let id = self.send(op, payload)?;
        let frame = self.recv()?;
        if frame.is_error() {
            let err = ErrorResponse::decode(&frame.payload)?;
            // Busy (and malformed-frame) rejections carry id 0: the
            // server never read a request to echo an id from.
            if frame.req_id == id || frame.req_id == 0 {
                return Err(ClientError::Server(err));
            }
            return Err(ClientError::Protocol("error response for another request"));
        }
        if frame.req_id != id {
            return Err(ClientError::Protocol("response id mismatch"));
        }
        Ok(frame.payload)
    }
}

/// The typed ops, written once for both clients: each builds its
/// request, makes one round trip through `$call` ([`Client::call`], or
/// [`RetryingClient::call_with_retry`] under its policy) and decodes the
/// reply. `$stats` names the metrics op: `stats` on a [`Client`], and
/// `server_stats` on a [`RetryingClient`], whose `stats` are its own
/// counters.
macro_rules! typed_ops {
    ($call:ident, $stats:ident) => {
        /// Liveness probe.
        pub fn ping(&mut self) -> Result<(), ClientError> {
            self.$call(Op::Ping, &[]).map(|_| ())
        }

        /// Compresses a raw field server-side; returns the archive bytes.
        pub fn compress(&mut self, req: &CompressRequest<'_>) -> Result<Vec<u8>, ClientError> {
            self.$call(Op::Compress, &req.encode())
        }

        /// Decompresses an archive server-side. In
        /// [`DecompressMode::Recover`] the response carries a per-chunk
        /// recovery report.
        pub fn decompress(
            &mut self,
            archive: &[u8],
            mode: DecompressMode,
        ) -> Result<DecompressResponse, ClientError> {
            let req = DecompressRequest { mode, archive };
            let payload = self.$call(Op::Decompress, &req.encode())?;
            Ok(DecompressResponse::decode(&payload)?)
        }

        /// Decompresses only the requested sub-volume of an archive
        /// server-side. The response's `dims` describe the sub-volume.
        /// Hot chunks are served from the server's slab cache; in
        /// [`DecompressMode::Recover`] the read bypasses the cache and
        /// the response carries per-chunk reports for the intersecting
        /// chunks.
        pub fn get_range(
            &mut self,
            archive: &[u8],
            spec: &cuszp_core::RangeSpec,
            mode: DecompressMode,
        ) -> Result<DecompressResponse, ClientError> {
            let req = GetRangeRequest {
                mode,
                spec: spec.clone(),
                archive,
            };
            let payload = self.$call(Op::GetRange, &req.encode())?;
            Ok(DecompressResponse::decode(&payload)?)
        }

        /// Validates an archive chunk-by-chunk (fsck over the wire).
        pub fn scan(&mut self, archive: &[u8]) -> Result<ScanReport, ClientError> {
            let payload = self.$call(Op::Scan, archive)?;
            ScanReport::from_bytes(&payload)
                .map_err(|_| ClientError::Protocol("malformed scan report"))
        }

        /// Describes an archive without decoding it.
        pub fn info(&mut self, archive: &[u8]) -> Result<RemoteInfo, ClientError> {
            let payload = self.$call(Op::Info, archive)?;
            Ok(RemoteInfo::decode(&payload)?)
        }

        /// Samples the server's live metrics.
        pub fn $stats(&mut self) -> Result<StatsSnapshot, ClientError> {
            let payload = self.$call(Op::Stats, &[])?;
            Ok(StatsSnapshot::decode(&payload)?)
        }

        /// Cheap load/liveness probe: queue depth and drain state,
        /// answered without touching a pipeline engine.
        pub fn health(&mut self) -> Result<HealthResponse, ClientError> {
            let payload = self.$call(Op::Health, &[])?;
            Ok(HealthResponse::decode(&payload)?)
        }

        /// Asks the server to shut down gracefully. The server acks
        /// before it begins draining. Never retried: `shutdown` is the
        /// one non-idempotent op ([`Op::is_idempotent`]), and re-issuing
        /// it after an ambiguous failure could hit a *different*
        /// (restarted) server.
        pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
            self.$call(Op::Shutdown, &[]).map(|_| ())
        }
    };
}

impl Client {
    typed_ops!(call, stats);
}

// ---------------------------------------------------------------------
// Retrying client.
// ---------------------------------------------------------------------

/// Retry knobs for [`RetryingClient`].
///
/// Backoff follows the decorrelated-jitter scheme: each delay is drawn
/// uniformly from `[base_backoff, prev * 3]`, capped at `max_backoff`,
/// from a seeded xorshift generator — so a retry storm from many
/// clients decorrelates, and any single client's schedule replays from
/// its seed. A server-sent `retry_after_ms` hint raises (never lowers)
/// the next delay.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per call, including the first (min 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff draw.
    pub base_backoff: Duration,
    /// Upper cap on any backoff draw.
    pub max_backoff: Duration,
    /// Overall wall-clock budget per call, covering every attempt,
    /// reconnect, and backoff sleep.
    pub deadline: Duration,
    /// TCP connect timeout per (re)connect.
    pub connect_timeout: Duration,
    /// Per-attempt socket read timeout (clamped to the remaining
    /// deadline).
    pub read_timeout: Duration,
    /// Per-attempt socket write timeout (clamped to the remaining
    /// deadline).
    pub write_timeout: Duration,
    /// Seed for the jitter generator (0 is remapped internally).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff) but still
    /// applies connect/read/write timeouts and the overall deadline —
    /// the safe default for CLI use without `--retries`.
    pub fn no_retry() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// Client-side resilience counters ([`cuszp_metrics::Counter`]), kept
/// so chaos tests and the CLI can account for every attempt:
/// `attempts == calls + retries` always holds, and every failed call
/// lands in exactly one of `exhausted`, `deadline_exceeded`, or
/// `failed_terminal`.
#[derive(Debug, Default)]
pub struct RetryStats {
    /// `call_with_retry` invocations.
    pub calls: Counter,
    /// Request attempts (first tries + retries).
    pub attempts: Counter,
    /// Attempts beyond the first within a call.
    pub retries: Counter,
    /// Successful TCP connects after the first (i.e. replacement
    /// connections after a drop).
    pub reconnects: Counter,
    /// Calls that failed because the overall deadline closed.
    pub deadline_exceeded: Counter,
    /// Calls that failed retryably on every allowed attempt.
    pub exhausted: Counter,
    /// Calls that failed with a non-retryable error.
    pub failed_terminal: Counter,
    /// Backoff sleeps whose delay was raised by a server
    /// `retry_after_ms` hint.
    pub hints_honored: Counter,
}

/// A [`Client`] wrapper that reconnects on transport errors and retries
/// idempotent ops under a [`RetryPolicy`]. `shutdown` is never retried
/// ([`Op::is_idempotent`]); every other op is a pure function of its
/// payload, so re-issuing it after an ambiguous failure is safe.
#[derive(Debug)]
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    stats: RetryStats,
    conn: Option<Client>,
    ever_connected: bool,
    rng: u64,
}

impl RetryingClient {
    /// Builds a retrying client for `addr`. No connection is made until
    /// the first call.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let mut seed = policy.seed;
        if seed == 0 {
            seed = 0x9E37_79B9_7F4A_7C15;
        }
        Self {
            addr: addr.into(),
            policy,
            stats: RetryStats::default(),
            conn: None,
            ever_connected: false,
            rng: seed,
        }
    }

    /// The resilience counters accumulated so far.
    pub fn stats(&self) -> &RetryStats {
        &self.stats
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// xorshift64* — the same generator family as the fault-injection
    /// campaigns, inlined so the client crate stays dependency-free.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Decorrelated jitter: uniform in `[base, prev * 3]`, capped.
    fn next_backoff(&mut self, prev: Duration) -> Duration {
        let base = self.policy.base_backoff.max(Duration::from_millis(1));
        let hi = prev
            .saturating_mul(3)
            .min(self.policy.max_backoff)
            .max(base);
        let span_ns = hi.saturating_sub(base).as_nanos().max(1) as u64;
        base + Duration::from_nanos(self.next_u64() % span_ns)
    }

    /// One full round trip with reconnect-and-retry. Counters account
    /// for every attempt; the overall deadline bounds the whole call.
    pub fn call_with_retry(&mut self, op: Op, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.stats.calls.incr();
        let started = Instant::now();
        let deadline_at = started + self.policy.deadline;
        let max_attempts = self.policy.max_attempts.max(1);
        let mut backoff = self.policy.base_backoff;
        let mut attempts = 0u32;
        loop {
            if Instant::now() >= deadline_at {
                self.stats.deadline_exceeded.incr();
                return Err(ClientError::DeadlineExceeded {
                    attempts,
                    elapsed: started.elapsed(),
                });
            }
            attempts += 1;
            self.stats.attempts.incr();
            if attempts > 1 {
                self.stats.retries.incr();
            }
            let err = match self.attempt(op, payload, deadline_at) {
                Ok(bytes) => return Ok(bytes),
                Err(e) => e,
            };
            let hint = err.retry_after_ms();
            if connection_is_suspect(&err) {
                self.conn = None;
            }
            if !(op.is_idempotent() && err.is_retryable()) {
                self.stats.failed_terminal.incr();
                return Err(err);
            }
            if attempts >= max_attempts {
                self.stats.exhausted.incr();
                return Err(err);
            }
            backoff = self.next_backoff(backoff);
            let mut delay = backoff;
            if let Some(ms) = hint {
                let hinted = Duration::from_millis(ms as u64);
                if hinted > delay {
                    delay = hinted;
                    self.stats.hints_honored.incr();
                }
            }
            let remaining = deadline_at.saturating_duration_since(Instant::now());
            if delay >= remaining {
                // Sleeping past the deadline cannot help; fail typed
                // and on time instead.
                self.stats.deadline_exceeded.incr();
                return Err(ClientError::DeadlineExceeded {
                    attempts,
                    elapsed: started.elapsed(),
                });
            }
            std::thread::sleep(delay);
        }
    }

    /// One attempt: ensure a connection, clamp socket timeouts to the
    /// remaining deadline, round-trip.
    fn attempt(
        &mut self,
        op: Op,
        payload: &[u8],
        deadline_at: Instant,
    ) -> Result<Vec<u8>, ClientError> {
        let remaining = deadline_at.saturating_duration_since(Instant::now());
        let floor = Duration::from_millis(1);
        if self.conn.is_none() {
            let opts = ConnectOptions {
                connect_timeout: self.policy.connect_timeout.min(remaining).max(floor),
                read_timeout: None,
                write_timeout: None,
            };
            let client = Client::connect_with(&self.addr, &opts)?;
            if self.ever_connected {
                self.stats.reconnects.incr();
            }
            self.ever_connected = true;
            self.conn = Some(client);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        conn.set_timeouts(
            Some(self.policy.read_timeout.min(remaining).max(floor)),
            Some(self.policy.write_timeout.min(remaining).max(floor)),
        )?;
        conn.call(op, payload)
    }
}

impl RetryingClient {
    typed_ops!(call_with_retry, server_stats);
}

/// True when the connection's stream state is unknown or known-dead
/// after this error, so the next attempt must reconnect. Clean typed
/// server errors leave the connection serving — except `Busy` and
/// `MalformedFrame`, after which the server hangs up.
fn connection_is_suspect(e: &ClientError) -> bool {
    use crate::wire::ErrorCode;
    match e {
        ClientError::Io(_) | ClientError::Wire(_) | ClientError::Protocol(_) => true,
        ClientError::Server(r) => matches!(r.code, ErrorCode::Busy | ErrorCode::MalformedFrame),
        ClientError::DeadlineExceeded { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;

    #[test]
    fn backoff_stays_in_the_decorrelated_window() {
        let mut c = RetryingClient::new("127.0.0.1:1", RetryPolicy::default());
        let base = c.policy.base_backoff;
        let cap = c.policy.max_backoff;
        let mut prev = base;
        for _ in 0..1000 {
            let next = c.next_backoff(prev);
            assert!(next >= base, "below base: {next:?}");
            assert!(next <= cap.max(prev * 3), "above window: {next:?}");
            assert!(next <= cap + base, "above cap: {next:?}");
            prev = next;
        }
    }

    #[test]
    fn backoff_replays_from_the_seed() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let mut a = RetryingClient::new("127.0.0.1:1", policy);
        let mut b = RetryingClient::new("127.0.0.1:1", policy);
        let mut prev = policy.base_backoff;
        for _ in 0..100 {
            let x = a.next_backoff(prev);
            assert_eq!(x, b.next_backoff(prev));
            prev = x;
        }
    }

    #[test]
    fn retryability_classification() {
        let io = ClientError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, "t"));
        assert!(io.is_retryable());
        assert!(ClientError::Wire(WireError::Truncated).is_retryable());
        assert!(ClientError::Server(ErrorResponse::new(ErrorCode::Busy, "q")).is_retryable());
        assert!(
            ClientError::Server(ErrorResponse::new(ErrorCode::Unavailable, "d")).is_retryable()
        );
        assert!(
            !ClientError::Server(ErrorResponse::new(ErrorCode::BadRequest, "b")).is_retryable()
        );
        assert!(!ClientError::Server(ErrorResponse::new(ErrorCode::Pipeline, "p")).is_retryable());
        assert!(!ClientError::DeadlineExceeded {
            attempts: 3,
            elapsed: Duration::from_secs(1)
        }
        .is_retryable());
    }

    #[test]
    fn refused_connection_fails_typed_within_deadline_and_counts() {
        // Nothing listens on this port (reserved, never assigned).
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let mut c = RetryingClient::new("127.0.0.1:1", policy);
        let t0 = Instant::now();
        let err = c.ping().unwrap_err();
        assert!(t0.elapsed() < policy.deadline);
        assert!(
            matches!(
                err,
                ClientError::Io(_) | ClientError::DeadlineExceeded { .. }
            ),
            "unexpected error: {err}"
        );
        let s = c.stats();
        assert_eq!(s.calls.get(), 1);
        assert_eq!(s.attempts.get(), s.calls.get() + s.retries.get());
        assert_eq!(
            s.exhausted.get() + s.deadline_exceeded.get() + s.failed_terminal.get(),
            1
        );
        // No connect ever succeeded, so no reconnects either.
        assert_eq!(s.reconnects.get(), 0);
    }
}
