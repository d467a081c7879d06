//! Live service metrics: per-op counters and latency histograms,
//! sampled into a serializable [`StatsSnapshot`] by the `stats` op.
//!
//! Everything records lock-free through `&self`
//! ([`cuszp_metrics::Counter`] / [`cuszp_metrics::LatencyHistogram`]),
//! so workers instrument requests without contending, and a `stats`
//! request served on one worker reads a consistent-enough point-in-time
//! view of all of them.

use crate::wire::{Op, WireError};
use cuszp_core::ByteCursor;
use cuszp_metrics::{Counter, LatencyHistogram, LatencySummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-op instrumentation.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests dispatched (including ones that later errored).
    pub requests: Counter,
    /// Requests answered with a typed error.
    pub errors: Counter,
    /// Request payload bytes received.
    pub bytes_in: Counter,
    /// Response payload bytes sent.
    pub bytes_out: Counter,
    /// Request service latency.
    pub latency: LatencyHistogram,
}

/// The server's live metrics registry.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    ops: [OpMetrics; Op::ALL.len()],
    /// Connections rejected with `Busy` because the queue was full.
    pub rejected_busy: Counter,
    /// Requests shed with `Unavailable` because the server was draining.
    pub rejected_unavailable: Counter,
    /// Frames that failed structural validation.
    pub malformed_frames: Counter,
    /// Connections accepted over the server's lifetime.
    pub connections_total: Counter,
    /// Hot-slab cache: range-read chunks served without re-decoding.
    pub cache_hits: Counter,
    /// Hot-slab cache: range-read chunks that had to be decoded.
    pub cache_misses: Counter,
    /// Hot-slab cache: entries evicted to fit the byte budget.
    pub cache_evictions: Counter,
    /// Whole-container strict parses a range read ran: one per archive
    /// whose verified index was not in the cache.
    pub containers_verified: Counter,
    /// Compressed chunks whose codec plan used the Lorenzo predictor.
    pub plans_lorenzo: Counter,
    /// Compressed chunks whose codec plan used interpolation.
    pub plans_interpolation: Counter,
    /// Compressed chunks whose codes section took the lossless wrap.
    pub plans_lossless: Counter,
    /// Cluster: shard requests answered with `Redirect`/`NotMine`
    /// because the caller routed with a stale ring or to a non-owner.
    pub redirects: Counter,
    /// Cluster: repair-flagged shard puts accepted (anti-entropy
    /// re-replication landing on this node).
    pub scrub_repairs: Counter,
    /// Cluster: stored shards dropped because their checksum no longer
    /// matched at verify time.
    pub corrupt_shards_dropped: Counter,
    /// Connections currently being served (gauge).
    active_connections: AtomicU64,
}

impl ServiceMetrics {
    /// Fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instrumentation for one op.
    pub fn op(&self, op: Op) -> &OpMetrics {
        &self.ops[op as u8 as usize]
    }

    /// Records one served request (success or error) in one call.
    pub fn record_request(
        &self,
        op: Op,
        bytes_in: usize,
        bytes_out: usize,
        latency: Duration,
        errored: bool,
    ) {
        let m = self.op(op);
        m.requests.incr();
        m.bytes_in.add(bytes_in as u64);
        m.bytes_out.add(bytes_out as u64);
        m.latency.record(latency);
        if errored {
            m.errors.incr();
        }
    }

    /// Marks a connection entering service. Returns a guard that
    /// decrements the gauge when dropped, so early returns and panics
    /// cannot leak an "active" connection.
    pub fn connection_guard(&self) -> ActiveConnectionGuard<'_> {
        self.active_connections.fetch_add(1, Ordering::Relaxed);
        ActiveConnectionGuard(self)
    }

    /// Connections currently in service.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::Relaxed)
    }

    /// Samples everything into a serializable snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            ops: Op::ALL
                .into_iter()
                .map(|op| {
                    let m = self.op(op);
                    OpStats {
                        op,
                        requests: m.requests.get(),
                        errors: m.errors.get(),
                        bytes_in: m.bytes_in.get(),
                        bytes_out: m.bytes_out.get(),
                        latency: m.latency.summary(),
                    }
                })
                .collect(),
            rejected_busy: self.rejected_busy.get(),
            malformed_frames: self.malformed_frames.get(),
            connections_total: self.connections_total.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_evictions: self.cache_evictions.get(),
            active_connections: self.active_connections(),
            rejected_unavailable: self.rejected_unavailable.get(),
            plans_lorenzo: self.plans_lorenzo.get(),
            plans_interpolation: self.plans_interpolation.get(),
            plans_lossless: self.plans_lossless.get(),
            redirects: self.redirects.get(),
            scrub_repairs: self.scrub_repairs.get(),
            corrupt_shards_dropped: self.corrupt_shards_dropped.get(),
            containers_verified: self.containers_verified.get(),
        }
    }
}

/// RAII decrement for the active-connection gauge.
#[derive(Debug)]
pub struct ActiveConnectionGuard<'a>(&'a ServiceMetrics);

impl Drop for ActiveConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Point-in-time stats for one op.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// The operation.
    pub op: Op,
    /// Requests dispatched.
    pub requests: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Request payload bytes received.
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
    /// Latency summary (count, mean, p50/p90/p99, max).
    pub latency: LatencySummary,
}

/// The `stats` op's response: the whole registry, sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Per-op stats, in wire-tag order.
    pub ops: Vec<OpStats>,
    /// Connections rejected with `Busy`.
    pub rejected_busy: u64,
    /// Structurally invalid frames received.
    pub malformed_frames: u64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Hot-slab cache hits (range-read chunks served without decoding).
    pub cache_hits: u64,
    /// Hot-slab cache misses (range-read chunks decoded fresh).
    pub cache_misses: u64,
    /// Hot-slab cache evictions under the byte budget.
    pub cache_evictions: u64,
    /// Connections in service at sampling time.
    pub active_connections: u64,
    /// Requests shed with `Unavailable` while draining (additive wire
    /// field: decodes as 0 from version-1 snapshots).
    pub rejected_unavailable: u64,
    /// Chunks compressed with the Lorenzo predictor (additive field).
    pub plans_lorenzo: u64,
    /// Chunks compressed with the interpolation predictor (additive
    /// field).
    pub plans_interpolation: u64,
    /// Chunks whose codes section took the lossless wrap (additive
    /// field).
    pub plans_lossless: u64,
    /// Cluster: stale-ring/wrong-owner shard requests answered with
    /// `Redirect`/`NotMine` (additive field).
    pub redirects: u64,
    /// Cluster: repair-flagged shard puts accepted (additive field).
    pub scrub_repairs: u64,
    /// Cluster: shards dropped on checksum verify (additive field).
    pub corrupt_shards_dropped: u64,
    /// Whole-container strict parses range reads ran (additive field).
    pub containers_verified: u64,
}

impl StatsSnapshot {
    /// Total requests across all ops.
    pub fn total_requests(&self) -> u64 {
        self.ops.iter().map(|o| o.requests).sum()
    }

    /// Stats for one op, if present in the snapshot.
    pub fn op(&self, op: Op) -> Option<&OpStats> {
        self.ops.iter().find(|o| o.op == op)
    }

    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 84);
        out.push(self.ops.len().min(u8::MAX as usize) as u8);
        for o in &self.ops {
            out.push(o.op as u8);
            for v in [o.requests, o.errors, o.bytes_in, o.bytes_out] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&o.latency.count.to_le_bytes());
            for v in [
                o.latency.mean_us,
                o.latency.p50_us,
                o.latency.p90_us,
                o.latency.p99_us,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&o.latency.max_us.to_le_bytes());
        }
        for v in [
            self.rejected_busy,
            self.malformed_frames,
            self.connections_total,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.active_connections,
            // New trailing fields ride last so version-1 decoders (which
            // stop reading after the fields they know) stay compatible.
            self.rejected_unavailable,
            self.plans_lorenzo,
            self.plans_interpolation,
            self.plans_lossless,
            self.redirects,
            self.scrub_repairs,
            self.corrupt_shards_dropped,
            self.containers_verified,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parses a stats response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = ByteCursor::new(payload);
        let n = c.u8()? as usize;
        let mut ops = Vec::with_capacity(n.min(Op::ALL.len()));
        for _ in 0..n {
            let op = Op::from_u8(c.u8()?).ok_or(WireError::BadPayload("unknown op in stats"))?;
            let requests = c.u64()?;
            let errors = c.u64()?;
            let bytes_in = c.u64()?;
            let bytes_out = c.u64()?;
            let latency = LatencySummary {
                count: c.u64()?,
                mean_us: c.f64()?,
                p50_us: c.f64()?,
                p90_us: c.f64()?,
                p99_us: c.f64()?,
                max_us: c.u64()?,
            };
            ops.push(OpStats {
                op,
                requests,
                errors,
                bytes_in,
                bytes_out,
                latency,
            });
        }
        Ok(Self {
            ops,
            rejected_busy: c.u64()?,
            malformed_frames: c.u64()?,
            connections_total: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            cache_evictions: c.u64()?,
            active_connections: c.u64()?,
            // Additive fields: absent in older snapshots, read as 0.
            rejected_unavailable: if c.remaining() >= 8 { c.u64()? } else { 0 },
            plans_lorenzo: if c.remaining() >= 8 { c.u64()? } else { 0 },
            plans_interpolation: if c.remaining() >= 8 { c.u64()? } else { 0 },
            plans_lossless: if c.remaining() >= 8 { c.u64()? } else { 0 },
            redirects: if c.remaining() >= 8 { c.u64()? } else { 0 },
            scrub_repairs: if c.remaining() >= 8 { c.u64()? } else { 0 },
            corrupt_shards_dropped: if c.remaining() >= 8 { c.u64()? } else { 0 },
            containers_verified: if c.remaining() >= 8 { c.u64()? } else { 0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrips_through_the_wire_form() {
        let m = ServiceMetrics::new();
        m.record_request(Op::Compress, 4096, 512, Duration::from_micros(850), false);
        m.record_request(Op::Compress, 4096, 0, Duration::from_micros(120), true);
        m.record_request(Op::Ping, 0, 0, Duration::from_micros(3), false);
        m.rejected_busy.incr();
        m.rejected_unavailable.add(3);
        m.connections_total.add(2);
        m.cache_hits.add(5);
        m.cache_misses.add(2);
        m.cache_evictions.incr();
        m.plans_lorenzo.add(7);
        m.plans_interpolation.add(4);
        m.plans_lossless.add(2);
        m.redirects.add(6);
        m.scrub_repairs.add(3);
        m.corrupt_shards_dropped.incr();
        m.containers_verified.add(4);
        let snap = m.snapshot();
        let back = StatsSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
        let c = back.op(Op::Compress).unwrap();
        assert_eq!((c.requests, c.errors), (2, 1));
        assert_eq!(c.bytes_in, 8192);
        assert_eq!(c.latency.count, 2);
        assert!(c.latency.p99_us > 0.0);
        assert_eq!(back.total_requests(), 3);
        assert_eq!(back.rejected_busy, 1);
        assert_eq!(back.rejected_unavailable, 3);
        assert_eq!(
            (back.cache_hits, back.cache_misses, back.cache_evictions),
            (5, 2, 1)
        );
        assert_eq!(
            (
                back.plans_lorenzo,
                back.plans_interpolation,
                back.plans_lossless
            ),
            (7, 4, 2)
        );
        assert_eq!(
            (
                back.redirects,
                back.scrub_repairs,
                back.corrupt_shards_dropped
            ),
            (6, 3, 1)
        );
        assert_eq!(back.containers_verified, 4);
    }

    #[test]
    fn version1_snapshots_without_the_trailing_field_still_decode() {
        let m = ServiceMetrics::new();
        m.rejected_unavailable.add(9);
        let mut bytes = m.snapshot().encode();
        // Strip the eight additive trailing fields, as a version-1 peer
        // would have encoded them.
        bytes.truncate(bytes.len() - 64);
        let back = StatsSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.rejected_unavailable, 0);
        assert_eq!(back.plans_lorenzo, 0);
        assert_eq!(back.plans_lossless, 0);
        assert_eq!(back.redirects, 0);
        assert_eq!(back.scrub_repairs, 0);
        assert_eq!(back.corrupt_shards_dropped, 0);
        assert_eq!(back.containers_verified, 0);
    }

    #[test]
    fn connection_gauge_balances_through_guards() {
        let m = ServiceMetrics::new();
        {
            let _a = m.connection_guard();
            let _b = m.connection_guard();
            assert_eq!(m.active_connections(), 2);
        }
        assert_eq!(m.active_connections(), 0);
    }

    #[test]
    fn truncated_stats_payloads_are_typed_errors() {
        let m = ServiceMetrics::new();
        m.record_request(Op::Scan, 10, 10, Duration::from_micros(5), false);
        let bytes = m.snapshot().encode();
        // The final 64 bytes are the additive optional fields — cuts
        // inside them decode as absence, so only cuts before them must
        // fail.
        for cut in 0..bytes.len() - 64 {
            assert!(StatsSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
