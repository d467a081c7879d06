//! The cluster-aware client: erasure-coded archive placement over
//! multiple `cuszp-server` nodes, with failover, degraded reads, and
//! anti-entropy scrub.
//!
//! An archive put under a key is split into `k` data shards of
//! `ceil(len / k)` bytes (zero-padded; `total_len` recovers the tail)
//! plus `m` Reed–Solomon parity shards, and each stripe slot is stored
//! on the node the [`Ring`] places it on. Every shard names its stripe:
//! `(total_len, archive_sum, kind)`. A put records `wordsum64`; a stripe
//! put before CSRP v5 keeps its FNV-1a sum, named by
//! [`crate::wire::SHARD_FLAG_FNV_SUM`] on every shard, and is verified
//! (and re-put by scrub) under that function.
//!
//! One gather reads every stripe — whole shards for `get` and scrub,
//! column windows for a range read — from the `k` data slots, fanned out
//! over pipelined send/recv. A data slot that does not answer is rebuilt
//! from the same columns of `k` others via [`cuszp_ecc::ReedSolomon`],
//! bytewise over GF(256), and the read is degraded. When data slots name
//! different stripes, the parity slots vote too: the stripe `k` slots
//! name is read, and a slot naming another is rebuilt like a missing
//! one. With `m < k` at most one stripe reaches `k`, and it is the newest
//! acknowledged put, so an owner that was down while its key was put
//! again is outvoted. No single stripe at `k` although `k` slots answered
//! is a typed [`ClusterError::Conflict`]. `get` then checks the archive
//! checksum: its bytes are bit-identical to what was put, or it fails
//! typed. Scrub lists every node's shards, reads each key whose owners
//! do not all hold one stripe, and re-puts each slot not holding the
//! stripe read.
//!
//! The first [`ClusterClient::get_range`] of a key's bytes is a `get`
//! plus the strict whole-container verify ([`ChunkIndex::verify`]), whose
//! chunk index the client keeps beside the stripe's identity. A later
//! read asks each data slot for only its share of the box's chunk bytes
//! (a windowed `get_shard`; the node still verifies the whole record),
//! goes on while the slots elect the indexed stripe, and decodes each
//! chunk with its own checksum and plan check. The saving needs repeated
//! reads of a key with no put of it in between: a put through this
//! client drops the index, and another client's put names another
//! identity. The identity is not a cryptographic key: a writer who forges
//! a stripe with another archive's `(total_len, archive_sum)` skips the
//! whole-container verify of its bytes here (each decoded chunk's own
//! checks still run), as DESIGN §12 says for the server's cache.
//!
//! Routing errors are first-class: a node answering `Redirect` (stale
//! ring epoch) or `NotMine` (wrong owner) triggers one topology refresh
//! (the `ring` op against any reachable node) and a single re-route,
//! counted in [`ClusterStats`].

use crate::client::{Client, ClientError, ConnectOptions};
use crate::ring::Ring;
use crate::wire::{
    wordsum64, ErrorCode, ErrorResponse, GetShardRequest, GetShardResponse, Op, PutShardRequest,
    ShardListResponse, SumKind, WireError, PUT_FLAG_REPAIR,
};
use cuszp_core::{
    ChunkIndex, ChunkSource, CuszpError, Dims, Element, PipelineEngine, RangeSpec,
    ReconstructEngine,
};
use cuszp_ecc::{EccError, ReedSolomon};
use cuszp_metrics::Counter;
use cuszp_parallel::num_workers;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Keys whose verified chunk index a [`ClusterClient`] keeps for
/// [`ClusterClient::get_range`]; past this many keys an arbitrary entry
/// is evicted. The bound only caps the client's memory: an entry is the
/// key plus about 100 bytes and 16 per chunk, so 256 entries of an
/// 8-chunk archive take about 60 KB. A client that range-reads more keys
/// than this between repeats verifies some of them again.
const KEY_INDEXES: usize = 256;

/// What names the bytes stored under a key: `(total_len, archive_sum,
/// kind)`, the same on every shard of one stripe.
type StripeId = (u64, u64, SumKind);

/// True for a `Redirect`/`NotMine` answer: the route is stale.
fn is_stale(r: &Result<Vec<u8>, ClientError>) -> bool {
    matches!(
        r.as_ref().err().and_then(ClientError::server_code),
        Some(ErrorCode::Redirect | ErrorCode::NotMine)
    )
}

/// True when `e` says the connection itself is gone: the peer closed
/// or reset it (a restarted node), or it was dropped earlier in this
/// fan-out. A timeout is not: the node may be hung, and a fresh
/// connection would only wait out a second timeout.
fn connection_lost(e: &ClientError) -> bool {
    use std::io::ErrorKind::{
        BrokenPipe, ConnectionAborted, ConnectionReset, NotConnected, UnexpectedEof,
    };
    let lost = |kind| {
        matches!(
            kind,
            BrokenPipe | ConnectionAborted | ConnectionReset | NotConnected | UnexpectedEof
        )
    };
    match e {
        ClientError::Io(e) => lost(e.kind()),
        ClientError::Wire(WireError::Closed | WireError::Truncated) => true,
        ClientError::Wire(WireError::Io(kind)) => lost(*kind),
        ClientError::Protocol(what) => *what == LOST_MID_FAN_OUT,
        _ => false,
    }
}

/// Why a slot failed whose connection an earlier slot's failure dropped.
const LOST_MID_FAN_OUT: &str = "connection lost mid-fan-out";

/// One slot's answer to a shard read: the stripe it names and the
/// columns it holds (`None`: its whole shard).
#[derive(Clone)]
struct Held {
    id: StripeId,
    cols: Option<Range<u64>>,
    bytes: Vec<u8>,
}

impl Held {
    /// Its bytes at columns `cols` (`None`: the whole shard), when it
    /// holds them.
    fn cut(&self, cols: &Option<Range<u64>>) -> Option<&[u8]> {
        let Some(c) = cols else {
            return self.cols.is_none().then_some(&self.bytes[..]);
        };
        let lo = c
            .start
            .checked_sub(self.cols.as_ref().map_or(0, |h| h.start))? as usize;
        self.bytes.get(lo..lo + (c.end - c.start) as usize)
    }
}

/// The one column range covering every non-empty window (`Some(None)`:
/// whole shards); `None` when every window is empty.
fn span<'a>(windows: impl Iterator<Item = &'a Option<Range<u64>>>) -> Option<Option<Range<u64>>> {
    windows
        .filter(|w| w.as_ref().is_none_or(|w| !w.is_empty()))
        .cloned()
        .reduce(|a, b| {
            a.zip(b)
                .map(|(a, b)| a.start.min(b.start)..a.end.max(b.end))
        })
}

/// The stripe the slots' votes elect: the only one named, else the one
/// at least `k` slots name. `None` when no single stripe is.
fn elect(votes: &[Option<StripeId>], k: usize) -> Option<StripeId> {
    let named: Vec<StripeId> = votes.iter().flatten().copied().collect();
    let count = |id: &StripeId| named.iter().filter(|v| *v == id).count();
    let mut won = named
        .iter()
        .filter(|id| count(id) == named.len() || count(id) >= k);
    let first = *won.next()?;
    won.all(|id| *id == first).then_some(first)
}

/// Why a read of `key` holds `have < k` usable slots: a `Conflict` when
/// `k` or more answered naming different stripes, too few otherwise.
fn shortfall(key: &str, votes: &[Option<StripeId>], have: usize, k: usize) -> ClusterError {
    let named: Vec<&StripeId> = votes.iter().flatten().collect();
    let key = key.to_string();
    match named.len() >= k && named.iter().any(|id| *id != named[0]) {
        true => ClusterError::Conflict { key },
        false => ClusterError::NotEnoughShards { key, have, need: k },
    }
}

/// What [`ClusterClient::gather`] read.
#[derive(Debug)]
struct Gathered {
    /// The data slots' windows end to end.
    bytes: Vec<u8>,
    /// The stripe the replies elect.
    id: StripeId,
    /// True when a data slot did not answer or named another stripe,
    /// and was rebuilt where its window was wanted.
    degraded: bool,
    /// Shard bytes received.
    received: u64,
}

/// A key whose container this client verified whole: the stripe it was
/// read from and the chunk layout the verify returned.
#[derive(Debug)]
struct KeyIndex {
    id: StripeId,
    index: ChunkIndex,
}

/// Everything a cluster call can fail with.
#[derive(Debug)]
pub enum ClusterError {
    /// Too few shards survived to reassemble or repair the stripe.
    NotEnoughShards {
        /// The archive key.
        key: String,
        /// Shards available.
        have: usize,
        /// Shards required (`k`).
        need: usize,
    },
    /// The reassembled bytes failed the whole-archive checksum.
    Corrupt {
        /// The archive key.
        key: String,
    },
    /// At least `k` slots answered, but they name different stripes and
    /// not exactly one of them is named by `k`: which put is newest is
    /// not known.
    Conflict {
        /// The archive key.
        key: String,
    },
    /// Erasure-coding failure (shape mismatch in stored shards).
    Ecc(EccError),
    /// Local pipeline failure decoding the reassembled archive.
    Pipeline(cuszp_core::CuszpError),
    /// A transport/protocol failure not recovered by failover (for
    /// example: no node in the ring was reachable).
    Client(ClientError),
    /// Empty archives are not stored (a stripe needs at least one byte).
    EmptyArchive,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NotEnoughShards { key, have, need } => {
                write!(
                    f,
                    "'{key}': only {have} of the {need} required shards survive"
                )
            }
            ClusterError::Corrupt { key } => {
                write!(f, "'{key}': reassembled bytes fail the archive checksum")
            }
            ClusterError::Conflict { key } => write!(f, "'{key}': slots disagree, no put holds k"),
            ClusterError::Ecc(e) => write!(f, "erasure coding error: {e}"),
            ClusterError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ClusterError::Client(e) => write!(f, "cluster transport error: {e}"),
            ClusterError::EmptyArchive => write!(f, "empty archives cannot be stored"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<EccError> for ClusterError {
    fn from(e: EccError) -> Self {
        ClusterError::Ecc(e)
    }
}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> Self {
        ClusterError::Client(e)
    }
}

impl From<cuszp_core::CuszpError> for ClusterError {
    fn from(e: cuszp_core::CuszpError) -> Self {
        ClusterError::Pipeline(e)
    }
}

/// Client-side cluster counters ([`cuszp_metrics::Counter`]), the
/// cluster analogue of [`crate::client::RetryStats`]. Scrub's reads
/// count in neither `gets` nor `degraded_reads`.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// `put` calls.
    pub puts: Counter,
    /// `get` calls (including the get of a `get_range` that verifies
    /// its key's container).
    pub gets: Counter,
    /// Reads that ran without at least one data shard: gets that rebuilt
    /// it, and range reads whose data slot did not answer or was
    /// outvoted.
    pub degraded_reads: Counter,
    /// `Redirect`/`NotMine` answers that triggered a re-route.
    pub redirects_followed: Counter,
    /// Topology refreshes via the `ring` op.
    pub ring_refreshes: Counter,
    /// Per-shard sub-requests that failed and were survived (the
    /// stripe still assembled without them).
    pub shard_failures: Counter,
    /// Shards re-replicated by `scrub`.
    pub scrub_repairs: Counter,
    /// Shard bytes `get_range` received: the whole stripe when it
    /// verified the key's container, only the box's windows otherwise.
    pub range_bytes_fetched: Counter,
    /// Whole-container verifies `get_range` ran: one per key whose
    /// current bytes this client had not verified yet.
    pub containers_verified: Counter,
}

/// Outcome of a cluster put.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReport {
    /// Stripe slots stored successfully.
    pub shards_stored: usize,
    /// Stripe width (`k + m`).
    pub total_shards: usize,
    /// Slots that failed, with the failure rendered.
    pub failed: Vec<(u16, String)>,
}

impl PutReport {
    /// True when every stripe slot stored (full redundancy).
    pub fn fully_replicated(&self) -> bool {
        self.shards_stored == self.total_shards
    }
}

/// Outcome of a cluster get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetOutcome {
    /// The archive bytes — bit-identical to what was put.
    pub bytes: Vec<u8>,
    /// True when any shard was rebuilt from parity.
    pub degraded: bool,
}

/// Outcome of an anti-entropy scrub pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Distinct keys seen across all inventories.
    pub keys: usize,
    /// Shards re-replicated onto their owners.
    pub repaired: u64,
    /// Slots left unrepaired: a re-put that failed, and every reachable
    /// slot of a key whose read failed.
    pub unrepairable: u64,
    /// Ring members whose inventory could not be read.
    pub unreachable_nodes: u64,
}

/// Splits archive bytes into `k` zero-padded data shards plus `m`
/// parity shards of `shard_size = ceil(len / k)` bytes each.
fn split_stripe(bytes: &[u8], k: usize, m: usize) -> Result<(Vec<Vec<u8>>, usize), ClusterError> {
    if bytes.is_empty() {
        return Err(ClusterError::EmptyArchive);
    }
    let shard_size = bytes.len().div_ceil(k);
    let mut shards: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let lo = (i * shard_size).min(bytes.len());
            let hi = ((i + 1) * shard_size).min(bytes.len());
            let mut s = bytes[lo..hi].to_vec();
            s.resize(shard_size, 0);
            s
        })
        .collect();
    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
    let parity = ReedSolomon::new(k, m)?.encode(&refs, shard_size)?;
    shards.extend(parity);
    Ok((shards, shard_size))
}

/// A cluster-aware client: routes shard ops by the ring, fans them out
/// over per-node connections with pipelined send/recv, fails over to
/// surviving placements, and repairs under-replication on demand.
#[derive(Debug)]
pub struct ClusterClient {
    ring: Ring,
    opts: ConnectOptions,
    conns: HashMap<u64, Client>,
    stats: ClusterStats,
    /// Verified chunk indexes by key, at most [`KEY_INDEXES`].
    indexes: HashMap<String, KeyIndex>,
    /// The lanes range reads decode on, [`num_workers`] of them, kept
    /// across reads for their scratch arenas.
    lanes: Vec<PipelineEngine>,
}

impl ClusterClient {
    /// Builds a client over a known topology. Connections are opened
    /// lazily per node.
    pub fn with_ring(ring: Ring, opts: ConnectOptions) -> ClusterClient {
        ClusterClient {
            ring,
            opts,
            conns: HashMap::new(),
            stats: ClusterStats::default(),
            indexes: HashMap::new(),
            lanes: (0..num_workers()).map(|_| PipelineEngine::new()).collect(),
        }
    }

    /// Bootstraps by asking any reachable seed address for the ring.
    pub fn connect_any(
        seeds: &[String],
        opts: ConnectOptions,
    ) -> Result<ClusterClient, ClusterError> {
        let mut last: Option<ClientError> = None;
        for seed in seeds {
            match Client::connect_with(seed, &opts) {
                Ok(mut c) => match c.call(Op::Ring, &[]) {
                    Ok(payload) => {
                        let ring = Ring::decode(&payload).map_err(ClientError::Wire)?;
                        return Ok(ClusterClient::with_ring(ring, opts));
                    }
                    Err(e) => last = Some(e),
                },
                Err(e) => last = Some(e.into()),
            }
        }
        Err(ClusterError::Client(last.unwrap_or(ClientError::Protocol(
            "no seed addresses given",
        ))))
    }

    /// The topology currently routed by.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The cluster counters accumulated so far.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The cached (or freshly opened) connection to a node.
    fn conn(&mut self, node_id: u64) -> Result<&mut Client, ClientError> {
        if !self.conns.contains_key(&node_id) {
            let addr = self
                .ring
                .node(node_id)
                .ok_or(ClientError::Protocol("node id left the ring"))?
                .addr
                .clone();
            let client = Client::connect_with(addr.as_str(), &self.opts)?;
            self.conns.insert(node_id, client);
        }
        Ok(self.conns.get_mut(&node_id).expect("just inserted"))
    }

    /// Reads the response matching `id` from a node's connection.
    fn recv_match(conn: &mut Client, id: u64) -> Result<Vec<u8>, ClientError> {
        let frame = conn.recv()?;
        if frame.is_error() {
            let err = ErrorResponse::decode(&frame.payload)?;
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

    /// Fans one request per stripe slot out over the slots' owners:
    /// send everything first, then collect every response, so the
    /// nodes work concurrently. A slot whose connection, pooled before
    /// this fan-out, turns out closed or reset (its node may have
    /// restarted since) is sent once more on a fresh connection; one
    /// that timed out is not. When an
    /// answer says the route is stale, refreshes the ring and fans out
    /// once more. Returns one outcome per requested slot.
    fn fan_out(
        &mut self,
        key: &str,
        slots: &[u16],
        mut payload_for: impl FnMut(u16, u64) -> Vec<u8>,
        op: Op,
    ) -> Result<Vec<Result<Vec<u8>, ClientError>>, ClusterError> {
        // Nodes whose connection this fan-out opened: only one pooled
        // before it can be stale.
        let mut opened: Vec<u64> = Vec::new();
        let mut rerouted = false;
        loop {
            let epoch = self.ring.epoch;
            let owners: Vec<Option<u64>> = slots
                .iter()
                .map(|&s| self.ring.shard_owner(key, s).map(|n| n.id))
                .collect();
            let mut out: Vec<Result<Vec<u8>, ClientError>> = Vec::with_capacity(slots.len());
            out.resize_with(slots.len(), || {
                Err(ClientError::Protocol("shard request not sent"))
            });
            let mut todo: Vec<usize> = (0..slots.len()).collect();
            while !todo.is_empty() {
                // (slot index, owner, request id, sent on a pooled connection)
                let mut pending = Vec::with_capacity(todo.len());
                let mut retry = Vec::new();
                for &i in &todo {
                    let Some(owner) = owners[i] else {
                        out[i] = Err(ClientError::Protocol("stripe slot has no owner"));
                        continue;
                    };
                    let held = self.conns.contains_key(&owner);
                    if !held {
                        opened.push(owner);
                    }
                    let was_pooled = held && !opened.contains(&owner);
                    let payload = payload_for(slots[i], epoch);
                    match self.conn(owner).and_then(|c| c.send(op, &payload)) {
                        Ok(id) => pending.push((i, owner, id, was_pooled)),
                        Err(e) => {
                            self.conns.remove(&owner);
                            if was_pooled && connection_lost(&e) {
                                retry.push(i);
                            }
                            out[i] = Err(e);
                        }
                    }
                }
                for (i, owner, id, was_pooled) in pending {
                    let result = match self.conns.get_mut(&owner) {
                        Some(conn) => Self::recv_match(conn, id),
                        None => Err(ClientError::Protocol(LOST_MID_FAN_OUT)),
                    };
                    // A typed server answer leaves the connection usable;
                    // anything else poisons the in-flight stream state.
                    if result
                        .as_ref()
                        .is_err_and(|e| !matches!(e, ClientError::Server(_)))
                    {
                        self.conns.remove(&owner);
                        if was_pooled && result.as_ref().is_err_and(connection_lost) {
                            retry.push(i);
                        }
                    }
                    out[i] = result;
                }
                todo = retry;
            }
            if rerouted || !out.iter().any(is_stale) {
                return Ok(out);
            }
            rerouted = true;
            self.stats.redirects_followed.incr();
            self.refresh_ring()?;
        }
    }

    /// Refreshes the topology from any reachable ring member. Adopts
    /// the answer with the highest epoch seen.
    pub fn refresh_ring(&mut self) -> Result<(), ClusterError> {
        let ids: Vec<u64> = self.ring.nodes().iter().map(|n| n.id).collect();
        let mut best: Option<Ring> = None;
        let mut last: Option<ClientError> = None;
        for id in ids {
            let answer = self.conn(id).and_then(|c| c.call(Op::Ring, &[]));
            match answer {
                Ok(payload) => match Ring::decode(&payload) {
                    Ok(ring) => {
                        if best.as_ref().is_none_or(|b| ring.epoch > b.epoch) {
                            best = Some(ring);
                        }
                    }
                    Err(e) => last = Some(ClientError::Wire(e)),
                },
                Err(e) => {
                    self.conns.remove(&id);
                    last = Some(e);
                }
            }
        }
        match best {
            Some(ring) => {
                if ring != self.ring {
                    // Stale per-node connections die with the old view.
                    self.conns.clear();
                }
                self.ring = ring;
                self.stats.ring_refreshes.incr();
                Ok(())
            }
            None => Err(ClusterError::Client(
                last.unwrap_or(ClientError::Protocol("ring has no members")),
            )),
        }
    }

    /// Stores an archive under `key`: splits it into `k` data + `m`
    /// parity shards and fans them out to their owners. Succeeds when
    /// at least `k` shards stored (the stripe is readable); the report
    /// lists any slots that failed (under-replicated until scrubbed).
    pub fn put(&mut self, key: &str, bytes: &[u8]) -> Result<PutReport, ClusterError> {
        self.stats.puts.incr();
        self.indexes.remove(key);
        let k = self.ring.data_shards as usize;
        let m = self.ring.parity_shards as usize;
        let (shards, _) = split_stripe(bytes, k, m)?;
        let id = (bytes.len() as u64, wordsum64(bytes), SumKind::Wordsum64);
        let slots: Vec<u16> = (0..(k + m) as u16).collect();
        let failed = self.put_slots(key, &slots, &shards, id, 0)?;
        let stored = slots.len() - failed.len();
        if stored < k {
            return Err(ClusterError::NotEnoughShards {
                key: key.to_string(),
                have: stored,
                need: k,
            });
        }
        Ok(PutReport {
            shards_stored: stored,
            total_shards: k + m,
            failed,
        })
    }

    /// Stores `shards[s]` of the stripe `id` on the owner of each slot
    /// `s` in `slots`, fanned out, with the put flags `flags`. Returns
    /// the slots that failed, with the failure rendered.
    fn put_slots(
        &mut self,
        key: &str,
        slots: &[u16],
        shards: &[Vec<u8>],
        (total_len, archive_sum, _): StripeId,
        flags: u8,
    ) -> Result<Vec<(u16, String)>, ClusterError> {
        let results = self.fan_out(
            key,
            slots,
            |slot, epoch| {
                PutShardRequest {
                    key: key.to_string(),
                    shard_idx: slot,
                    ring_epoch: epoch,
                    total_len,
                    archive_sum,
                    flags,
                    shard: &shards[slot as usize],
                }
                .encode()
            },
            Op::Put,
        )?;
        let mut failed = Vec::new();
        for (&slot, r) in slots.iter().zip(results) {
            if let Err(e) = r {
                self.stats.shard_failures.incr();
                failed.push((slot, e.to_string()));
            }
        }
        Ok(failed)
    }

    /// Asks each slot in `slots` for its columns `cols(slot)` (the whole
    /// shard where `None`) and files each answer under its slot in
    /// `into`; a slot that fails is counted and left as it was. Returns
    /// the shard bytes received.
    fn fetch_slots(
        &mut self,
        key: &str,
        slots: &[u16],
        cols: impl Fn(u16) -> Option<Range<u64>>,
        into: &mut [Option<Held>],
    ) -> Result<u64, ClusterError> {
        let replies = self.fan_out(
            key,
            slots,
            |slot, epoch| {
                GetShardRequest {
                    key: key.to_string(),
                    shard_idx: slot,
                    ring_epoch: epoch,
                    window: cols(slot).map(|c| (c.start, c.end - c.start)),
                }
                .encode()
            },
            Op::Get,
        )?;
        let mut received = 0;
        for (&slot, reply) in slots.iter().zip(replies) {
            let cols = cols(slot);
            match reply.and_then(|r| GetShardResponse::decode(&r).map_err(ClientError::Wire)) {
                // A window of the wrong length is a failed read.
                Ok(resp)
                    if cols
                        .as_ref()
                        .is_none_or(|c| c.end - c.start == resp.shard.len() as u64) =>
                {
                    received += resp.shard.len() as u64;
                    let id = (resp.total_len, resp.archive_sum, resp.archive_sum_kind);
                    into[slot as usize] = Some(Held {
                        id,
                        cols,
                        bytes: resp.shard,
                    });
                }
                _ => self.stats.shard_failures.incr(),
            }
        }
        Ok(received)
    }

    /// The one stripe read behind [`ClusterClient::get`],
    /// [`ClusterClient::get_range`] and [`ClusterClient::scrub`]: column
    /// window `windows[s]` of every data slot `s` (its whole shard where
    /// that is `None`). When the data slots name different stripes, every
    /// slot is asked for the columns of all the windows and votes; see
    /// the module doc. A data slot that did not answer or is outvoted is
    /// missing, and its window is rebuilt from the same columns of `k`
    /// slots naming the elected stripe — Reed–Solomon here is bytewise
    /// over GF(256) — asking only slots whose bytes do not hold those
    /// columns yet. When `expect` is given and the elected stripe is
    /// another, the gather stops there, with that stripe in
    /// [`Gathered::id`] and no bytes.
    fn gather(
        &mut self,
        key: &str,
        windows: &[Option<Range<u64>>],
        expect: Option<StripeId>,
    ) -> Result<Gathered, ClusterError> {
        let k = self.ring.data_shards as usize;
        let m = self.ring.parity_shards as usize;
        let data: Vec<u16> = (0..k as u16).collect();
        let mut held: Vec<Option<Held>> = vec![None; k + m];
        let mut received =
            self.fetch_slots(key, &data, |s| windows[s as usize].clone(), &mut held)?;
        // More columns: those of every data window when data slots
        // disagree, else those of the windows that did not answer.
        let first = held.iter().flatten().next().map(|h| h.id);
        let cols = match held.iter().flatten().any(|h| Some(h.id) != first) {
            true => span(windows.iter()),
            false => span((0..k).filter(|&s| held[s].is_none()).map(|s| &windows[s])),
        };
        let mut more: Vec<Option<Held>> = vec![None; k + m];
        if let Some(cols) = &cols {
            // A data slot that did not answer is not asked again.
            let ask: Vec<u16> = (0..(k + m) as u16)
                .filter(|&s| match &held[s as usize] {
                    Some(h) => h.cut(cols).is_none(),
                    None => s as usize >= k,
                })
                .collect();
            received += self.fetch_slots(key, &ask, |_| cols.clone(), &mut more)?;
        }
        // Each slot votes for the stripe it named last.
        let votes: Vec<Option<StripeId>> = (more.iter().zip(&held))
            .map(|(a, b)| a.as_ref().or(b.as_ref()).map(|h| h.id))
            .collect();
        let Some(id) = elect(&votes, k) else {
            return Err(shortfall(key, &votes, votes.iter().flatten().count(), k));
        };
        if expect.is_some_and(|e| e != id) {
            let bytes = Vec::new();
            return Ok(Gathered {
                bytes,
                id,
                degraded: false,
                received,
            });
        }
        let missing: Vec<usize> = (0..k).filter(|&s| votes[s] != Some(id)).collect();
        if let Some(need) = span(missing.iter().map(|&s| &windows[s])) {
            let mut columns: Vec<Option<Vec<u8>>> = (0..k + m)
                .map(|s| {
                    let mut agree = [&more[s], &held[s]]
                        .into_iter()
                        .flatten()
                        .filter(|h| h.id == id);
                    agree.find_map(|h| h.cut(&need)).map(<[u8]>::to_vec)
                })
                .collect();
            let have = columns.iter().flatten().count();
            if have < k {
                return Err(shortfall(key, &votes, have, k));
            }
            let width = columns.iter().flatten().map(Vec::len).max().unwrap_or(0);
            ReedSolomon::new(k, m)?.reconstruct(&mut columns, width)?;
            for &s in &missing {
                held[s] = columns[s].take().map(|bytes| Held {
                    id,
                    cols: need.clone(),
                    bytes,
                });
            }
        }
        // Data slot windows are consecutive container bytes, in slot
        // order; a rebuilt slot holds the span of every missing window.
        let mut bytes = Vec::new();
        for (w, held) in windows.iter().zip(&held) {
            if w.as_ref().is_none_or(|w| !w.is_empty()) {
                let cut = held.as_ref().and_then(|h| h.cut(w));
                bytes.extend_from_slice(cut.expect("a wanted window is fetched or rebuilt above"));
            }
        }
        let degraded = !missing.is_empty();
        Ok(Gathered {
            bytes,
            id,
            degraded,
            received,
        })
    }

    /// Reads the archive stored under `key`. The healthy path fetches
    /// the `k` data shards; a miss or an outvoted slot degrades to
    /// parity reconstruction from `k` slots of the elected stripe. Both
    /// paths verify the archive checksum, so the returned bytes are
    /// bit-identical to what was put or the call fails typed.
    pub fn get(&mut self, key: &str) -> Result<GetOutcome, ClusterError> {
        let got = self.get_stripe(key)?;
        Ok(GetOutcome {
            bytes: got.bytes,
            degraded: got.degraded,
        })
    }

    /// [`ClusterClient::get`] as a [`Gathered`], counted.
    fn get_stripe(&mut self, key: &str) -> Result<Gathered, ClusterError> {
        self.stats.gets.incr();
        let got = self.read_stripe(key)?;
        self.stats.degraded_reads.add(got.degraded as u64);
        Ok(got)
    }

    /// The read of `get` and scrub: whole data shards, truncated to the
    /// archive and checked against its sum.
    fn read_stripe(&mut self, key: &str) -> Result<Gathered, ClusterError> {
        let k = self.ring.data_shards as usize;
        let mut got = self.gather(key, &vec![None; k], None)?;
        let (total_len, archive_sum, kind) = got.id;
        got.bytes.truncate(total_len as usize);
        if kind.sum(&got.bytes) != archive_sum {
            return Err(ClusterError::Corrupt {
                key: key.to_string(),
            });
        }
        Ok(got)
    }

    /// Range-reads the archive stored under `key` in its own element
    /// type `T` (`f32` or `f64`; any other is a typed
    /// [`CuszpError::DtypeMismatch`]) and decodes only the chunks the
    /// box touches, locally. The `bool` is true when a data shard did not
    /// answer or was outvoted, and the read ran on the others.
    ///
    /// The first read of a key's bytes is a [`ClusterClient::get`]
    /// (archive checksum included) plus the strict whole-container
    /// verify, whose chunk index the client keeps. A later read fetches
    /// only the box's chunk bytes, one window per data slot, and goes on
    /// while the replies elect the stripe the index was verified from;
    /// when they elect another (the key was put again) it drops the
    /// index, and the read starts over as a first read. A stale slot
    /// that is outvoted keeps the index. So the saving needs repeated
    /// reads of a key with no [`ClusterClient::put`] of it on this client
    /// in between: that put drops the index too. See the module doc.
    pub fn get_range<T: Element>(
        &mut self,
        key: &str,
        spec: &RangeSpec,
    ) -> Result<(Vec<T>, Dims, bool), ClusterError> {
        // A wrong element type or box fails before any fetch, and keeps
        // the index.
        let bytes = match self.indexes.get(key) {
            None => return self.read_verifying(key, spec),
            Some(entry) if entry.index.dtype() != T::DTYPE => {
                return Err(CuszpError::DtypeMismatch {
                    stored: entry.index.dtype().name(),
                    requested: T::DTYPE.name(),
                }
                .into())
            }
            Some(entry) => entry.index.span_bytes(spec)?,
        };
        let entry = self.indexes.remove(key).expect("looked up above");
        match self.read_windows(key, &entry, bytes, spec)? {
            Some(read) => {
                self.remember(key, entry);
                Ok(read)
            }
            None => self.read_verifying(key, spec),
        }
    }

    /// The first read of a key's bytes: the whole stripe, its archive
    /// checksum, the strict whole-container verify; the index is kept
    /// and the box decoded from the chunks the verify parsed.
    fn read_verifying<T: Element>(
        &mut self,
        key: &str,
        spec: &RangeSpec,
    ) -> Result<(Vec<T>, Dims, bool), ClusterError> {
        let got = self.get_stripe(key)?;
        self.stats.range_bytes_fetched.add(got.received);
        self.stats.containers_verified.incr();
        let (index, parsed) = ChunkIndex::verify(&got.bytes)?;
        self.remember(key, KeyIndex { id: got.id, index });
        let (samples, dims) = self.decode(ChunkSource::Parsed(&parsed), spec)?;
        Ok((samples, dims, got.degraded))
    }

    /// A read of a key whose container this client verified: gathers
    /// the container bytes `bytes` as one column window per data slot,
    /// and decodes the box out of them. `Ok(None)` when the replies elect a
    /// stripe other than `entry`'s.
    fn read_windows<T: Element>(
        &mut self,
        key: &str,
        entry: &KeyIndex,
        bytes: Range<usize>,
        spec: &RangeSpec,
    ) -> Result<Option<(Vec<T>, Dims, bool)>, ClusterError> {
        let k = self.ring.data_shards as u64;
        let shard_size = entry.id.0.div_ceil(k);
        // Data slot `s` holds container bytes from `s * shard_size` on;
        // its window is its share of `bytes`, slot-relative, and empty
        // (0..0) when the box's chunks lie elsewhere. Every data slot is
        // asked, as `get` asks them, so a dead one still shows.
        let windows: Vec<Option<Range<u64>>> = (0..k)
            .map(|s| {
                let slot = s * shard_size..(s + 1) * shard_size;
                let lo = (bytes.start as u64).clamp(slot.start, slot.end);
                let hi = (bytes.end as u64).clamp(slot.start, slot.end);
                Some(match lo < hi {
                    true => lo - slot.start..hi - slot.start,
                    false => 0..0,
                })
            })
            .collect();
        let got = self.gather(key, &windows, Some(entry.id))?;
        self.stats.range_bytes_fetched.add(got.received);
        if got.id != entry.id {
            return Ok(None);
        }
        self.stats.degraded_reads.add(got.degraded as u64);
        let source = ChunkSource::Verified(&entry.index, &got.bytes, bytes.start);
        let (samples, dims) = self.decode(source, spec)?;
        Ok(Some((samples, dims, got.degraded)))
    }

    /// Decodes `spec` out of `source` on the client's lanes: a box of
    /// several chunks fans them out over all of them, a one-chunk box
    /// runs on the first.
    fn decode<T: Element>(
        &mut self,
        source: ChunkSource<'_>,
        spec: &RangeSpec,
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        source.decompress_range(
            ReconstructEngine::FinePartialSum,
            spec,
            &mut self.lanes,
            |_| None,
            |_, _| {},
        )
    }

    /// Keeps `entry` as `key`'s index, evicting another key's past
    /// [`KEY_INDEXES`]: that key's next read verifies again.
    fn remember(&mut self, key: &str, entry: KeyIndex) {
        if self.indexes.len() >= KEY_INDEXES && !self.indexes.contains_key(key) {
            let victim = self.indexes.keys().next().cloned();
            if let Some(victim) = victim {
                self.indexes.remove(&victim);
            }
        }
        self.indexes.insert(key.to_string(), entry);
    }

    /// Anti-entropy pass: reads every reachable node's verified shard
    /// inventory, and for each key whose owner-placed slots are not all
    /// present naming one stripe (a node that came back empty or stale,
    /// a corrupt shard dropped by the verify) reads the stripe as `get`
    /// does and re-puts, with the repair flag, every reachable slot not
    /// holding the stripe the read elected. Safe to run any time;
    /// idempotent when healthy.
    pub fn scrub(&mut self) -> Result<ScrubReport, ClusterError> {
        let ids: Vec<u64> = self.ring.nodes().iter().map(|n| n.id).collect();
        let k = self.ring.data_shards as usize;
        let m = self.ring.parity_shards as usize;
        let mut report = ScrubReport::default();
        // Each key's slots: the stripe its owner lists, if it does.
        let mut keys: BTreeMap<String, Vec<Option<StripeId>>> = BTreeMap::new();
        let mut reachable: Vec<u64> = Vec::new();
        for id in ids {
            // A pooled connection severed since its last use fails
            // exactly like a dead node for one call; reconnect once to
            // disambiguate before declaring the node unreachable.
            let mut answer = self.conn(id).and_then(|c| c.call(Op::ListShards, &[]));
            if matches!(answer, Err(ref e) if !matches!(e, ClientError::Server(_))) {
                self.conns.remove(&id);
                answer = self.conn(id).and_then(|c| c.call(Op::ListShards, &[]));
            }
            let Ok(payload) = answer else {
                self.conns.remove(&id);
                report.unreachable_nodes += 1;
                continue;
            };
            let list = ShardListResponse::decode(&payload).map_err(ClientError::Wire)?;
            reachable.push(id);
            for r in list.records {
                let listed = keys.entry(r.key.clone()).or_insert(vec![None; k + m]);
                // Only a shard on its *current* owner counts as placed;
                // strays are invisible to gets anyway.
                if self.ring.shard_owner(&r.key, r.shard_idx).map(|n| n.id) == Some(id) {
                    listed[r.shard_idx as usize] =
                        Some((r.total_len, r.archive_sum, r.archive_sum_kind));
                }
            }
        }
        report.keys = keys.len();
        for (key, listed) in keys {
            // A slot on an unreachable node cannot be checked or
            // repaired this pass.
            let owned: Vec<u16> = (0..(k + m) as u16)
                .filter(|&s| {
                    (self.ring.shard_owner(&key, s)).is_some_and(|n| reachable.contains(&n.id))
                })
                .collect();
            let first = owned.first().and_then(|&s| listed[s as usize]);
            if owned
                .iter()
                .all(|&s| first.is_some() && listed[s as usize] == first)
            {
                continue;
            }
            let read = (self.read_stripe(&key))
                .and_then(|got| Ok((split_stripe(&got.bytes, k, m)?.0, got.id)));
            let Ok((shards, id)) = read else {
                report.unrepairable += owned.len() as u64;
                continue;
            };
            let stale: Vec<u16> = owned
                .into_iter()
                .filter(|&s| listed[s as usize] != Some(id))
                .collect();
            // The re-put keeps the function the stripe was put with.
            let flags = PUT_FLAG_REPAIR | id.2.stripe_flags();
            let failed = self.put_slots(&key, &stale, &shards, id, flags)?.len() as u64;
            report.repaired += stale.len() as u64 - failed;
            report.unrepairable += failed;
            self.stats.scrub_repairs.add(stale.len() as u64 - failed);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concatenates the `k` data slots and truncates to the archive length.
    fn assemble(data_slots: &[Vec<u8>], total_len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(total_len as usize);
        for s in data_slots {
            out.extend_from_slice(s);
        }
        out.truncate(total_len as usize);
        out
    }

    #[test]
    fn stripe_split_and_assemble_roundtrip() {
        for len in [1usize, 2, 3, 7, 64, 65, 1000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let (shards, shard_size) = split_stripe(&bytes, 3, 2).unwrap();
            assert_eq!(shards.len(), 5);
            assert!(shards.iter().all(|s| s.len() == shard_size));
            let back = assemble(&shards[..3], len as u64);
            assert_eq!(back, bytes, "len {len}");
        }
        assert!(matches!(
            split_stripe(&[], 3, 2),
            Err(ClusterError::EmptyArchive)
        ));
    }

    #[test]
    fn stripe_survives_m_erasures() {
        let bytes: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let (shards, shard_size) = split_stripe(&bytes, 3, 2).unwrap();
        // Kill any two slots; reconstruction must restore the data.
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut stripe: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                stripe[a] = None;
                stripe[b] = None;
                ReedSolomon::new(3, 2)
                    .unwrap()
                    .reconstruct(&mut stripe, shard_size)
                    .unwrap();
                let data: Vec<Vec<u8>> = stripe.into_iter().take(3).map(|s| s.unwrap()).collect();
                assert_eq!(assemble(&data, bytes.len() as u64), bytes, "kill {a},{b}");
            }
        }
    }

    /// What a fake node does with a connection's second frame.
    #[derive(Clone, Copy)]
    enum Second {
        /// Close the connection, as a restarted node's old socket does.
        Close,
        /// Never answer, as a hung node does.
        Hang,
    }

    /// A node that answers each connection's first frame with a typed
    /// `NotFound` (the connection stays pooled), then does `second`.
    /// Returns its address and a count of the connections it accepted.
    fn fake_node(second: Second) -> (String, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        use crate::wire::{read_frame, write_frame, FLAG_ERROR, FLAG_RESPONSE};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = std::sync::Arc::new(AtomicUsize::new(0));
        let counted = accepts.clone();
        std::thread::spawn(move || {
            for mut stream in listener.incoming().map_while(Result::ok) {
                counted.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let Ok(frame) = read_frame(&mut stream, 1 << 20) else {
                        return;
                    };
                    let err = ErrorResponse::new(ErrorCode::NotFound, "no such shard").encode();
                    let flags = FLAG_RESPONSE | FLAG_ERROR;
                    if write_frame(&mut stream, frame.op, flags, frame.req_id, &err).is_err() {
                        return;
                    }
                    if let Second::Hang = second {
                        // Read on until the client hangs up; answer nothing.
                        let _ = std::io::copy(&mut stream, &mut std::io::sink());
                    }
                });
            }
        });
        (addr, accepts)
    }

    /// Two fan-outs of one slot to a fake node: the first pools its
    /// connection, the second meets the node's `second` behaviour.
    /// Returns the second outcome and the connections accepted.
    fn second_fan_out(second: Second) -> (Result<Vec<u8>, ClientError>, usize) {
        let (addr, accepts) = fake_node(second);
        let nodes = (1..=2)
            .map(|id| crate::ring::NodeInfo {
                id,
                addr: addr.clone(),
            })
            .collect();
        let opts = ConnectOptions {
            read_timeout: Some(std::time::Duration::from_millis(200)),
            ..ConnectOptions::default()
        };
        let mut client = ClusterClient::with_ring(Ring::new(1, 1, 1, nodes).unwrap(), opts);
        let fan_out = |c: &mut ClusterClient| {
            c.fan_out("k", &[0], |_, _| Vec::new(), Op::Get)
                .unwrap()
                .remove(0)
        };
        let first = fan_out(&mut client);
        assert!(matches!(first, Err(ClientError::Server(_))), "{first:?}");
        let second = fan_out(&mut client);
        (second, accepts.load(std::sync::atomic::Ordering::SeqCst))
    }

    #[test]
    fn a_closed_pooled_connection_is_sent_again_once() {
        let (second, accepts) = second_fan_out(Second::Close);
        assert!(matches!(second, Err(ClientError::Server(_))), "{second:?}");
        assert_eq!(accepts, 2, "the slot is re-sent on one fresh connection");
    }

    #[test]
    fn a_timed_out_pooled_slot_is_not_sent_again() {
        let (second, accepts) = second_fan_out(Second::Hang);
        assert!(
            second.as_ref().is_err_and(|e| !connection_lost(e)),
            "{second:?}"
        );
        assert_eq!(accepts, 1, "a hung node's slot is not re-sent");
    }
}
