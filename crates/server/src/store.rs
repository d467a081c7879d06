//! Per-node shard storage for the cluster tier.
//!
//! Each node stores the stripe slots the ring assigns it behind the
//! [`ShardBackend`] trait, with two interchangeable implementations:
//!
//! - [`ShardStore`] — the in-memory map (fast, empty after restart;
//!   a restarted node is healed by `cluster-scrub`);
//! - [`DurableShardStore`] — the log-structured [`cuszp_store::LogStore`]
//!   (segments on disk, crash recovery at boot, compaction), so a
//!   restarted node serves its shards bit-identically with zero scrub
//!   repairs.
//!
//! Both backends checksum every shard with `wordsum64`, verify it on
//! the scrub path and cache the verification per slot, invalidated on
//! write — repeated inventories of an unchanged node are O(index), not
//! O(total bytes). A shard whose bytes rotted is dropped (and counted)
//! so anti-entropy sees it as *missing* and re-replicates it, rather
//! than serving corrupt bytes to a degraded read. Both keep each
//! stripe's `archive_sum` with the function that computed it
//! ([`SumKind`]): `wordsum64`, or FNV-1a for a stripe put before the
//! v2 record format.

use std::collections::HashMap;
use std::ops::Range;

use crate::wire::{wordsum64, ShardRecord, SumKind};

/// One stored stripe slot: the durable store's own type, shared by both
/// backends.
pub use cuszp_store::StoredShard;

/// Typed backend failure. Damage inside stored data is *not* an error
/// (it degrades to a dropped slot); this is for environmental failures
/// the backend cannot absorb.
#[derive(Debug)]
pub enum StoreOpError {
    /// An allocation was refused (oversized put or read buffer).
    Alloc,
    /// The durable backend hit an I/O or validation failure.
    Backend(String),
    /// A read window `offset..end` reaches past the stored shard's
    /// `len` bytes.
    WindowPastEnd { offset: u64, end: u64, len: u64 },
}

impl std::fmt::Display for StoreOpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreOpError::Alloc => write!(f, "shard allocation refused"),
            StoreOpError::Backend(msg) => write!(f, "shard store: {msg}"),
            StoreOpError::WindowPastEnd { offset, end, len } => {
                write!(f, "window {offset}..{end} lies past the end ({len} bytes)")
            }
        }
    }
}

impl std::error::Error for StoreOpError {}

/// The storage contract a cluster node programs against. In-memory and
/// durable stores are interchangeable behind this trait; the server
/// holds one as `Mutex<Box<dyn ShardBackend>>`.
pub trait ShardBackend: Send + std::fmt::Debug {
    /// Inserts (or replaces) a stripe slot. `flags` are the put's
    /// shard flags: [`crate::wire::PUT_FLAG_REPAIR`] marks a scrub
    /// re-replication (recorded by the durable backend's log), and
    /// [`crate::wire::SHARD_FLAG_FNV_SUM`] says `archive_sum` is FNV-1a.
    fn put(
        &mut self,
        key: &str,
        shard_idx: u16,
        bytes: &[u8],
        total_len: u64,
        archive_sum: u64,
        flags: u8,
    ) -> Result<(), StoreOpError>;

    /// Fetches a stripe slot, or only the `(offset, len)` window of its
    /// bytes (`checksum` stays the whole shard's). `Ok(None)` means not
    /// stored (or dropped as corrupt by a checksum-gated read); a window
    /// past the end is [`StoreOpError::WindowPastEnd`].
    fn get(
        &mut self,
        key: &str,
        shard_idx: u16,
        window: Option<(u64, u64)>,
    ) -> Result<Option<StoredShard>, StoreOpError>;

    /// Number of live slots.
    fn len(&self) -> usize;

    /// Whether the store holds no slots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every slot (test hook for simulating a wiped node; the
    /// durable backend also deletes its segment files).
    fn clear(&mut self) -> Result<(), StoreOpError>;

    /// Verifies every not-yet-verified shard checksum, drops rot
    /// (counted), and lists survivors sorted by `(key, shard_idx)`.
    fn verify_and_list(&mut self) -> Result<(Vec<ShardRecord>, u64), StoreOpError>;

    /// `"memory"` or `"durable"` — surfaced in logs and health output.
    fn kind(&self) -> &'static str;

    /// The durable backend's boot-recovery summary; `None` for memory.
    fn recovery_summary(&self) -> Option<String> {
        None
    }
}

/// The bytes the `(offset, len)` window names in a shard of `len`
/// bytes: all of them when there is no window.
fn window_range(window: Option<(u64, u64)>, len: usize) -> Result<Range<usize>, StoreOpError> {
    let Some((offset, n)) = window else {
        return Ok(0..len);
    };
    let end = offset.saturating_add(n);
    if end > len as u64 {
        return Err(StoreOpError::WindowPastEnd {
            offset,
            end,
            len: len as u64,
        });
    }
    Ok(offset as usize..end as usize)
}

#[derive(Debug)]
struct MemoryEntry {
    shard: StoredShard,
    /// Whether `shard.checksum` has been re-verified against the bytes
    /// since the last write. Cleared on put, set by `verify_and_list` —
    /// the cache that keeps repeated scrubs O(index).
    verified: bool,
}

/// In-memory shard map. Callers serialize access (the server wraps it
/// in a mutex inside the shared state).
#[derive(Debug, Default)]
pub struct ShardStore {
    shards: HashMap<(String, u16), MemoryEntry>,
}

impl ShardStore {
    /// An empty store.
    pub fn new() -> ShardStore {
        ShardStore::default()
    }

    /// Inserts (or replaces) a stripe slot whose `archive_sum` is a
    /// `wordsum64`. Allocation is reserved fallibly so an oversized put
    /// degrades to an error, not an abort.
    pub fn put(
        &mut self,
        key: &str,
        shard_idx: u16,
        bytes: &[u8],
        total_len: u64,
        archive_sum: u64,
    ) -> Result<(), std::collections::TryReserveError> {
        self.insert(
            key,
            shard_idx,
            bytes,
            total_len,
            archive_sum,
            SumKind::Wordsum64,
        )
    }

    fn insert(
        &mut self,
        key: &str,
        shard_idx: u16,
        bytes: &[u8],
        total_len: u64,
        archive_sum: u64,
        archive_sum_kind: SumKind,
    ) -> Result<(), std::collections::TryReserveError> {
        let mut owned = Vec::new();
        owned.try_reserve_exact(bytes.len())?;
        owned.extend_from_slice(bytes);
        let checksum = wordsum64(&owned);
        self.shards.insert(
            (key.to_string(), shard_idx),
            MemoryEntry {
                shard: StoredShard {
                    bytes: owned,
                    checksum,
                    total_len,
                    archive_sum,
                    archive_sum_kind,
                },
                verified: false,
            },
        );
        Ok(())
    }

    /// Fetches a stripe slot.
    pub fn get(&self, key: &str, shard_idx: u16) -> Option<&StoredShard> {
        self.shards
            .get(&(key.to_string(), shard_idx))
            .map(|e| &e.shard)
    }
}

impl ShardBackend for ShardStore {
    fn put(
        &mut self,
        key: &str,
        shard_idx: u16,
        bytes: &[u8],
        total_len: u64,
        archive_sum: u64,
        flags: u8,
    ) -> Result<(), StoreOpError> {
        let kind = SumKind::of_stripe_flags(flags);
        self.insert(key, shard_idx, bytes, total_len, archive_sum, kind)
            .map_err(|_| StoreOpError::Alloc)
    }

    /// Copies only the window's bytes.
    fn get(
        &mut self,
        key: &str,
        shard_idx: u16,
        window: Option<(u64, u64)>,
    ) -> Result<Option<StoredShard>, StoreOpError> {
        let Some(shard) = ShardStore::get(self, key, shard_idx) else {
            return Ok(None);
        };
        let cut = window_range(window, shard.bytes.len())?;
        let mut bytes = Vec::new();
        bytes
            .try_reserve_exact(cut.len())
            .map_err(|_| StoreOpError::Alloc)?;
        bytes.extend_from_slice(&shard.bytes[cut]);
        Ok(Some(StoredShard { bytes, ..*shard }))
    }

    fn len(&self) -> usize {
        self.shards.len()
    }

    fn clear(&mut self) -> Result<(), StoreOpError> {
        self.shards.clear();
        Ok(())
    }

    /// Verification results are cached per slot, so an unchanged node's
    /// repeat inventory hashes nothing.
    fn verify_and_list(&mut self) -> Result<(Vec<ShardRecord>, u64), StoreOpError> {
        let mut dropped = 0u64;
        self.shards.retain(|_, e| {
            if e.verified {
                return true;
            }
            let ok = wordsum64(&e.shard.bytes) == e.shard.checksum;
            if ok {
                e.verified = true;
            } else {
                dropped += 1;
            }
            ok
        });
        let mut records: Vec<ShardRecord> = self
            .shards
            .iter()
            .map(|((key, idx), e)| ShardRecord {
                key: key.clone(),
                shard_idx: *idx,
                len: e.shard.bytes.len() as u64,
                checksum: e.shard.checksum,
                total_len: e.shard.total_len,
                archive_sum: e.shard.archive_sum,
                archive_sum_kind: e.shard.archive_sum_kind,
            })
            .collect();
        records.sort_by(|a, b| a.key.cmp(&b.key).then(a.shard_idx.cmp(&b.shard_idx)));
        Ok((records, dropped))
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

fn map_store_err(err: cuszp_store::StoreError) -> StoreOpError {
    match err {
        cuszp_store::StoreError::Alloc { .. } => StoreOpError::Alloc,
        other => StoreOpError::Backend(other.to_string()),
    }
}

/// The durable backend: [`cuszp_store::LogStore`] adapted to the
/// [`ShardBackend`] contract. Reads are checksum-gated by the log
/// store itself; the verified-checksum cache lives in its index.
#[derive(Debug)]
pub struct DurableShardStore {
    inner: cuszp_store::LogStore,
}

impl DurableShardStore {
    /// Opens (or creates) the store, replaying its segments — the boot
    /// scan re-verifies every record checksum exactly like
    /// `list_shards`. Recovery damage is *not* an error; read it from
    /// [`ShardBackend::recovery_summary`].
    pub fn open(config: cuszp_store::StoreConfig) -> Result<DurableShardStore, StoreOpError> {
        Ok(DurableShardStore {
            inner: cuszp_store::LogStore::open(config).map_err(map_store_err)?,
        })
    }
}

impl ShardBackend for DurableShardStore {
    fn put(
        &mut self,
        key: &str,
        shard_idx: u16,
        bytes: &[u8],
        total_len: u64,
        archive_sum: u64,
        flags: u8,
    ) -> Result<(), StoreOpError> {
        self.inner
            .put_with_flags(key, shard_idx, bytes, total_len, archive_sum, flags)
            .map_err(map_store_err)
    }

    /// Reads and verifies the whole record, then cuts the window.
    fn get(
        &mut self,
        key: &str,
        shard_idx: u16,
        window: Option<(u64, u64)>,
    ) -> Result<Option<StoredShard>, StoreOpError> {
        let mut shard = self.inner.get(key, shard_idx).map_err(map_store_err)?;
        if let Some(shard) = &mut shard {
            let cut = window_range(window, shard.bytes.len())?;
            shard.bytes.truncate(cut.end);
            shard.bytes.drain(..cut.start);
        }
        Ok(shard)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn clear(&mut self) -> Result<(), StoreOpError> {
        self.inner.clear().map_err(map_store_err)
    }

    fn verify_and_list(&mut self) -> Result<(Vec<ShardRecord>, u64), StoreOpError> {
        self.inner.verify_and_list().map_err(map_store_err)
    }

    fn kind(&self) -> &'static str {
        "durable"
    }

    fn recovery_summary(&self) -> Option<String> {
        let report = self.inner.recovery_report();
        let mut s = report.to_string();
        for fault in &report.faults {
            s.push_str("\n  ");
            s.push_str(&fault.to_string());
        }
        Some(s)
    }
}

/// Which backend a cluster node persists shards with — carried by
/// [`crate::ClusterConfig`] into `Server::bind_cluster`.
#[derive(Debug, Clone)]
pub enum StoreBackendConfig {
    /// The in-memory map: empty after restart, healed by scrub.
    Memory,
    /// The log-structured durable store rooted at a data directory.
    Durable(cuszp_store::StoreConfig),
}

impl StoreBackendConfig {
    /// Opens the configured backend.
    pub fn open(&self) -> Result<Box<dyn ShardBackend>, StoreOpError> {
        match self {
            StoreBackendConfig::Memory => Ok(Box::new(ShardStore::new())),
            StoreBackendConfig::Durable(config) => {
                Ok(Box::new(DurableShardStore::open(config.clone())?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{PUT_FLAG_REPAIR, SHARD_FLAG_FNV_SUM};

    #[test]
    fn put_get_roundtrip() {
        let mut s = ShardStore::new();
        s.put("a", 0, b"hello", 5, 42).unwrap();
        s.put("a", 1, b"world", 5, 42).unwrap();
        let got = s.get("a", 1).unwrap();
        assert_eq!(got.bytes, b"world");
        assert_eq!(got.total_len, 5);
        assert_eq!(got.archive_sum, 42);
        assert_eq!(got.archive_sum_kind, SumKind::Wordsum64);
        assert!(s.get("a", 2).is_none());
        assert!(s.get("b", 0).is_none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn replacement_overwrites() {
        let mut s = ShardStore::new();
        s.put("k", 0, b"old", 3, 1).unwrap();
        s.put("k", 0, b"newer", 5, 2).unwrap();
        assert_eq!(s.get("k", 0).unwrap().bytes, b"newer");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn verify_drops_rotted_shards() {
        let mut s = ShardStore::new();
        s.put("good", 0, b"fine", 4, 7).unwrap();
        s.put("bad", 0, b"rots", 4, 7).unwrap();
        // Flip a byte behind the checksum's back.
        s.shards
            .get_mut(&("bad".to_string(), 0))
            .unwrap()
            .shard
            .bytes[0] ^= 0xFF;
        let (records, dropped) = s.verify_and_list().unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, "good");
        assert!(s.get("bad", 0).is_none(), "corrupt shard must be gone");
        // A second pass is clean.
        let (records, dropped) = s.verify_and_list().unwrap();
        assert_eq!((records.len(), dropped), (1, 0));
    }

    #[test]
    fn verification_is_cached_until_the_next_write() {
        let mut s = ShardStore::new();
        s.put("k", 0, b"bytes", 5, 1).unwrap();
        let (_, dropped) = s.verify_and_list().unwrap();
        assert_eq!(dropped, 0);
        // Rot introduced *after* a verify pass is masked by the cache —
        // the documented trade-off for O(index) repeat scrubs…
        s.shards.get_mut(&("k".to_string(), 0)).unwrap().shard.bytes[0] ^= 0xFF;
        let (records, dropped) = s.verify_and_list().unwrap();
        assert_eq!((records.len() as u64, dropped), (1, 0));
        // …and a write invalidates the cache, so the next pass catches
        // fresh rot again.
        s.put("k", 0, b"clean", 5, 2).unwrap();
        s.shards.get_mut(&("k".to_string(), 0)).unwrap().shard.bytes[0] ^= 0xFF;
        let (records, dropped) = s.verify_and_list().unwrap();
        assert_eq!((records.len() as u64, dropped), (0, 1));
    }

    #[test]
    fn listing_is_sorted() {
        let mut s = ShardStore::new();
        s.put("b", 1, b"x", 1, 0).unwrap();
        s.put("a", 2, b"x", 1, 0).unwrap();
        s.put("a", 0, b"x", 1, 0).unwrap();
        let (records, _) = s.verify_and_list().unwrap();
        let order: Vec<(String, u16)> = records
            .iter()
            .map(|r| (r.key.clone(), r.shard_idx))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a".to_string(), 0),
                ("a".to_string(), 2),
                ("b".to_string(), 1)
            ]
        );
    }

    #[test]
    fn memory_and_durable_agree_behind_the_trait() {
        let dir = std::env::temp_dir().join(format!("cuszp-backend-parity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut backends: Vec<Box<dyn ShardBackend>> = vec![
            Box::new(ShardStore::new()),
            Box::new(
                DurableShardStore::open(cuszp_store::StoreConfig::new(&dir))
                    .expect("open durable store"),
            ),
        ];
        for b in &mut backends {
            b.put("k", 0, b"abc", 3, 11, 0).unwrap();
            b.put("k", 1, b"defg", 4, 11, PUT_FLAG_REPAIR).unwrap();
            b.put("k", 0, b"over", 4, 12, 0).unwrap();
            b.put("old", 0, b"fnv", 3, 13, SHARD_FLAG_FNV_SUM).unwrap();
        }
        let lists: Vec<Vec<ShardRecord>> = backends
            .iter_mut()
            .map(|b| b.verify_and_list().unwrap().0)
            .collect();
        assert_eq!(
            lists[0], lists[1],
            "backends must produce the same inventory"
        );
        for b in &mut backends {
            let got = b.get("k", 0, None).unwrap().unwrap();
            assert_eq!(got.bytes, b"over");
            assert_eq!(got.archive_sum, 12);
            let old = b.get("old", 0, None).unwrap().unwrap();
            assert_eq!(old.archive_sum_kind, SumKind::Fnv1a);
            assert!(b.get("nope", 0, None).unwrap().is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
