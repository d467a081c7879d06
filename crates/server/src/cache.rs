//! The hot-slab cache: what range reads of an archive have already
//! paid for — its verified chunk index and its decoded chunk slabs —
//! kept least-recently-used under one configurable byte budget.
//!
//! Entries are keyed by the archive's identity, `(wordsum64(bytes),
//! bytes.len())`, plus the part of it they hold: [`Part::Index`] or
//! [`Part::Slab`] of one chunk. Keying by *content* makes invalidation
//! automatic: a different (or modified) archive lands in a different key
//! space, so neither a stale slab nor another archive's index can be
//! served — they simply age out.
//!
//! The index entry ([`cuszp_core::ChunkIndex`]: the container header
//! plus each chunk's byte range) is inserted only after the whole
//! container passed the strict parse, so holding it means "bytes of this
//! identity were verified". Accidental damage always gets another
//! identity: `wordsum64` is seeded with the length, two equal-length
//! inputs that differ in one aligned word never collide, and wider
//! damage collides with 2^-64 odds. It is not a cryptographic hash: a
//! sender can build a same-length copy of a warmed archive with its
//! identity, and a strict read of that copy then skips the check of the
//! sender's own bytes outside the range it asked for — the chunks it
//! decodes are still parsed and checksummed. The index is charged its
//! real size, about 100 bytes plus 16 per chunk, against the same
//! budget as the slabs.
//!
//! Entries hold `Arc`s, so a hit hands back a shared handle without
//! copying, and a concurrent eviction cannot tear a read that already
//! holds the handle.
//!
//! The cache itself is a plain sequential structure; the server wraps it
//! in a `Mutex` and keeps the critical sections to lookup/insert only
//! (never decoding or verifying under the lock).

use cuszp_core::ChunkIndex;
use std::collections::HashMap;
use std::sync::Arc;

/// An archive's identity: its `wordsum64` and its length.
pub type ArchiveKey = (u64, u64);

/// Which part of an archive a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    /// The verified chunk index.
    Index,
    /// One chunk's decoded slab (raw little-endian scalar bytes).
    Slab(u32),
}

/// Cache key: an archive and the part of it an entry holds.
pub type SlabKey = (ArchiveKey, Part);

#[derive(Debug)]
enum Value {
    Index(Arc<ChunkIndex>),
    Slab(Arc<Vec<u8>>),
}

impl Value {
    /// Bytes the entry is charged against the budget.
    fn weight(&self) -> usize {
        match self {
            Value::Index(index) => index.footprint(),
            Value::Slab(slab) => slab.len(),
        }
    }
}

#[derive(Debug)]
struct Entry {
    value: Value,
    last_used: u64,
}

/// LRU map of verified chunk indexes and decoded chunk slabs.
#[derive(Debug)]
pub struct SlabCache {
    budget: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<SlabKey, Entry>,
}

impl SlabCache {
    /// An empty cache with the given byte budget. A zero budget disables
    /// caching (every insert is a no-op).
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the verified index of `archive`, marking it
    /// most-recently-used on hit.
    pub fn index(&mut self, archive: ArchiveKey) -> Option<Arc<ChunkIndex>> {
        match self.get((archive, Part::Index))? {
            Value::Index(index) => Some(Arc::clone(index)),
            Value::Slab(_) => None,
        }
    }

    /// Looks up chunk `chunk`'s slab of `archive`, marking it
    /// most-recently-used on hit.
    pub fn slab(&mut self, archive: ArchiveKey, chunk: u32) -> Option<Arc<Vec<u8>>> {
        match self.get((archive, Part::Slab(chunk)))? {
            Value::Slab(slab) => Some(Arc::clone(slab)),
            Value::Index(_) => None,
        }
    }

    /// Inserts the index of an archive whose bytes passed the strict
    /// parse. Returns how many entries were evicted to fit it.
    pub fn insert_index(&mut self, archive: ArchiveKey, index: Arc<ChunkIndex>) -> u64 {
        self.insert((archive, Part::Index), Value::Index(index))
    }

    /// Inserts a decoded slab. Returns how many entries were evicted to
    /// fit it.
    pub fn insert_slab(&mut self, archive: ArchiveKey, chunk: u32, slab: Arc<Vec<u8>>) -> u64 {
        self.insert((archive, Part::Slab(chunk)), Value::Slab(slab))
    }

    fn get(&mut self, key: SlabKey) -> Option<&Value> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Inserts an entry, evicting least-recently-used entries until the
    /// budget holds. An entry larger than the whole budget is not cached
    /// at all.
    fn insert(&mut self, key: SlabKey, value: Value) -> u64 {
        let weight = value.weight();
        if weight > self.budget {
            return 0;
        }
        self.tick += 1;
        let entry = Entry {
            value,
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= old.value.weight();
        }
        self.bytes += weight;
        let mut evicted = 0;
        while self.bytes > self.budget {
            // Budget ≥ the new entry, so the loop always terminates with
            // at least the fresh entry retained.
            let coldest = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(k) = coldest else { break };
            if let Some(e) = self.map.remove(&k) {
                self.bytes -= e.value.weight();
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(n: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn hits_return_the_stored_bytes() {
        let mut c = SlabCache::new(1024);
        assert!(c.slab((1, 100), 0).is_none());
        c.insert_slab((1, 100), 0, slab(100, 0xAB));
        let got = c.slab((1, 100), 0).unwrap();
        assert_eq!(&got[..], &vec![0xAB; 100][..]);
        assert_eq!(c.bytes(), 100);
        // A different archive hash is a different key space.
        assert!(c.slab((2, 100), 0).is_none());
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = SlabCache::new(250);
        c.insert_slab((1, 100), 0, slab(100, 1));
        c.insert_slab((1, 100), 1, slab(100, 2));
        // Touch chunk 0 so chunk 1 is the LRU victim.
        assert!(c.slab((1, 100), 0).is_some());
        let evicted = c.insert_slab((1, 100), 2, slab(100, 3));
        assert_eq!(evicted, 1);
        assert!(c.slab((1, 100), 1).is_none(), "LRU entry must be gone");
        assert!(c.slab((1, 100), 0).is_some());
        assert!(c.slab((1, 100), 2).is_some());
        assert!(c.bytes() <= 250);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut c = SlabCache::new(0);
        assert_eq!(c.insert_slab((1, 100), 0, slab(10, 0)), 0);
        assert!(c.is_empty());
        assert!(c.slab((1, 100), 0).is_none());
    }

    #[test]
    fn oversized_slabs_are_not_cached() {
        let mut c = SlabCache::new(50);
        c.insert_slab((1, 100), 0, slab(40, 1));
        assert_eq!(c.insert_slab((1, 100), 1, slab(51, 2)), 0);
        assert!(c.slab((1, 100), 1).is_none());
        assert!(c.slab((1, 100), 0).is_some(), "resident entry untouched");
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_counting() {
        let mut c = SlabCache::new(1000);
        c.insert_slab((1, 100), 0, slab(100, 1));
        c.insert_slab((1, 100), 0, slab(200, 2));
        assert_eq!(c.bytes(), 200);
        assert_eq!(c.len(), 1);
        assert_eq!(c.slab((1, 100), 0).unwrap().len(), 200);
    }

    #[test]
    fn held_handles_survive_eviction() {
        let mut c = SlabCache::new(100);
        c.insert_slab((1, 100), 0, slab(100, 7));
        let handle = c.slab((1, 100), 0).unwrap();
        c.insert_slab((1, 100), 1, slab(100, 8)); // evicts (1, 0)
        assert!(c.slab((1, 100), 0).is_none());
        assert_eq!(&handle[..], &vec![7u8; 100][..]);
    }

    #[test]
    fn an_index_is_one_more_entry_under_the_same_budget() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let dims = cuszp_core::Dims::D2 { ny: 64, nx: 64 };
        let bytes = cuszp_core::Compressor::default()
            .compress_chunked_with(&data, dims, 1024, &cuszp_parallel::WorkerPool::new(1))
            .unwrap()
            .to_bytes();
        let index = Arc::new(ChunkIndex::verify(&bytes).unwrap().0);
        let weight = index.footprint();
        assert!(
            weight >= 4 * 16,
            "4 chunks of 16 bytes each, plus the header"
        );

        let mut c = SlabCache::new(weight + 100);
        assert_eq!(c.insert_index((1, 100), Arc::clone(&index)), 0);
        assert_eq!(c.bytes(), weight);
        assert!(Arc::ptr_eq(&c.index((1, 100)).unwrap(), &index));
        // The index and chunk 0's slab of one archive are two keys, and
        // another archive of the same hash but another length is a third.
        assert!(c.slab((1, 100), 0).is_none());
        assert!(c.index((1, 101)).is_none());
        // Both kinds share one LRU: the untouched slab goes first.
        c.insert_slab((1, 100), 0, slab(60, 1));
        assert!(c.index((1, 100)).is_some());
        assert_eq!(c.insert_slab((1, 100), 1, slab(60, 2)), 1);
        assert!(c.slab((1, 100), 0).is_none());
        assert!(c.index((1, 100)).is_some());
        // And an index is evicted like a slab once it is the coldest.
        c.slab((1, 100), 1);
        assert_eq!(c.insert_slab((2, 100), 0, slab(100, 3)), 1);
        assert!(c.index((1, 100)).is_none());
        assert!(c.bytes() <= weight + 100);
    }
}
