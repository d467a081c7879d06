//! cuszp-server — a concurrent compression service over a framed wire
//! protocol, with a typed client library and live service metrics.
//!
//! The crate has three layers:
//!
//! - [`wire`]: the CSRP framing and payload codecs. Versioned,
//!   length-prefixed, checksummed frames with a hard payload cap and
//!   `try_reserve`-guarded reads, so untrusted peers can neither
//!   allocation-bomb nor desynchronize a process.
//! - [`Server`]: a `std::net` TCP service. A nonblocking acceptor feeds
//!   a bounded connection queue (overflow answered with a typed `Busy`
//!   frame); workers run as [`cuszp_parallel::WorkerPool`] jobs, each
//!   owning a long-lived reusable [`cuszp_core::PipelineEngine`].
//!   Shutdown is cooperative: the `shutdown` op or a [`ServerHandle`]
//!   flips a flag and workers drain until a deadline.
//! - [`Client`]: typed calls (`compress`, `decompress`, `get_range`,
//!   `scan`, `info`, `stats`, `health`, `ping`, `shutdown_server`) with
//!   request-id matching, plus a split [`Client::send`]/[`Client::recv`]
//!   pair for pipelining. [`RetryingClient`] wraps it with reconnects,
//!   seeded decorrelated-jitter backoff, per-call deadlines, and
//!   idempotence-aware retries under a [`RetryPolicy`].
//!
//! Range reads (`get_range`) are backed by a hot-slab cache
//! ([`SlabCache`]): each archive's verified chunk index and its decoded
//! chunk slabs are kept under one LRU byte budget keyed by the archive's
//! `wordsum64` and length, so repeated reads of a popular archive skip
//! both the whole-container parse and the decoder.
//!
//! Served compression runs through the same chunked planner and
//! forced-serial inner primitives as the local drivers, so the archive
//! bytes a server returns are bit-identical to a local
//! `compress_chunked` at any worker count.
//!
//! Everything is std-only — no external runtime or protocol deps.

pub mod cache;
pub mod client;
pub mod cluster;
pub mod metrics;
pub mod ring;
pub mod server;
pub mod store;
pub mod wire;

pub use cache::{SlabCache, SlabKey};
pub use client::{Client, ClientError, ConnectOptions, RetryPolicy, RetryStats, RetryingClient};
pub use cluster::{ClusterClient, ClusterError, ClusterStats, GetOutcome, PutReport, ScrubReport};
pub use metrics::{OpStats, ServiceMetrics, StatsSnapshot};
pub use ring::{NodeInfo, Ring, RingError};
pub use server::{ClusterConfig, Server, ServerConfig, ServerHandle};
pub use store::{
    DurableShardStore, ShardBackend, ShardStore, StoreBackendConfig, StoreOpError, StoredShard,
};
pub use wire::{
    fnv1a, CompressRequest, DecompressMode, DecompressRequest, DecompressResponse, ErrorCode,
    ErrorResponse, Frame, GetRangeRequest, HealthResponse, Op, RemoteInfo, WireError, FLAG_ERROR,
    FLAG_RESPONSE, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD, WIRE_MAGIC, WIRE_VERSION,
    WIRE_VERSION_MIN,
};
