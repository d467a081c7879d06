//! Property tests for the durable shard store: record codec round-trip,
//! tombstone/overwrite semantics against a reference model, and
//! compaction equivalence (the live key→value map is invariant under
//! compaction and reopen).

use std::collections::HashMap;
use std::path::PathBuf;

use cuszp_store::record::{parse_record, Parsed, Record, RecordKind};
use cuszp_store::{fnv1a, wordsum64, FsyncPolicy, LogStore, StoreConfig};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("cuszp-store-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> LogStore {
    LogStore::open(StoreConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        compact_at: 1 << 30,
    })
    .expect("open store")
}

/// One modelled operation: `kind` 0/1 = put, 2 = delete (puts weighted
/// so the store usually has content).
type Op = (u8, u8, u16, Vec<u8>);

fn key_name(id: u8) -> String {
    format!("key-{}", id % 6)
}

/// Applies an op stream to the store and to a plain-map model.
fn apply_ops(store: &mut LogStore, model: &mut HashMap<(String, u16), Vec<u8>>, ops: &[Op]) {
    for (kind, key_id, idx, payload) in ops {
        let key = key_name(*key_id);
        let idx = idx % 4;
        if *kind < 2 {
            let total_len = payload.len() as u64;
            let archive_fnv = fnv1a(payload);
            store
                .put(&key, idx, payload, total_len, archive_fnv, false)
                .expect("put");
            model.insert((key, idx), payload.clone());
        } else {
            store.delete(&key, idx).expect("delete");
            model.remove(&(key, idx));
        }
    }
}

/// The full agreement check: every modelled slot reads back bit-exact,
/// absent slots are absent, and the verified inventory matches the
/// model's sorted view.
fn assert_matches_model(store: &mut LogStore, model: &HashMap<(String, u16), Vec<u8>>) {
    for ((key, idx), expect) in model {
        let got = store
            .get(key, *idx)
            .expect("get io")
            .unwrap_or_else(|| panic!("slot ('{key}', {idx}) missing"));
        assert_eq!(&got.bytes, expect, "slot ('{key}', {idx}) bytes differ");
        assert_eq!(got.checksum, wordsum64(expect));
    }
    for key_id in 0..6u8 {
        for idx in 0..4u16 {
            let key = key_name(key_id);
            if !model.contains_key(&(key.clone(), idx)) {
                assert!(
                    store.get(&key, idx).expect("get io").is_none(),
                    "slot ('{key}', {idx}) should be absent"
                );
            }
        }
    }
    let (entries, dropped) = store.verify_and_list().expect("list");
    assert_eq!(dropped, 0, "a clean store must drop nothing");
    assert_eq!(entries.len(), model.len());
    let mut expect_keys: Vec<(String, u16)> = model.keys().cloned().collect();
    expect_keys.sort();
    let got_keys: Vec<(String, u16)> = entries
        .iter()
        .map(|e| (e.key.clone(), e.shard_idx))
        .collect();
    assert_eq!(got_keys, expect_keys, "inventory must be the sorted model");
    for e in &entries {
        let expect = &model[&(e.key.clone(), e.shard_idx)];
        assert_eq!(e.len, expect.len() as u64);
        assert_eq!(e.checksum, wordsum64(expect));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn record_round_trip(
        key_bytes in prop::collection::vec(97u8..123, 1..24),
        shard_idx in any::<u16>(),
        total_len in any::<u64>(),
        archive_fnv in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..600),
        repair in any::<bool>(),
    ) {
        let key = String::from_utf8(key_bytes).unwrap();
        let record = Record::put(&key, shard_idx, &payload, total_len, archive_fnv, repair);
        let encoded = record.encode();
        prop_assert_eq!(encoded.len(), record.disk_len());
        match parse_record(&encoded) {
            Parsed::Ok { record: back, disk_len } => {
                prop_assert_eq!(disk_len, encoded.len());
                prop_assert_eq!(back.kind, RecordKind::Put);
                prop_assert_eq!(back.key, key);
                prop_assert_eq!(back.shard_idx, shard_idx);
                prop_assert_eq!(back.total_len, total_len);
                prop_assert_eq!(back.archive_sum, archive_fnv);
                prop_assert_eq!(back.payload, payload);
            }
            Parsed::Fault { fault, .. } => prop_assert!(false, "round-trip faulted: {}", fault),
        }
    }

    #[test]
    fn tombstone_round_trip(
        key_bytes in prop::collection::vec(97u8..123, 1..24),
        shard_idx in any::<u16>(),
    ) {
        let key = String::from_utf8(key_bytes).unwrap();
        let encoded = Record::tombstone(&key, shard_idx).encode();
        match parse_record(&encoded) {
            Parsed::Ok { record: back, .. } => {
                prop_assert_eq!(back.kind, RecordKind::Tombstone);
                prop_assert_eq!(back.key, key);
                prop_assert_eq!(back.shard_idx, shard_idx);
                prop_assert!(back.payload.is_empty());
            }
            Parsed::Fault { fault, .. } => prop_assert!(false, "tombstone faulted: {}", fault),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_overrun(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        match parse_record(&bytes) {
            Parsed::Ok { disk_len, .. } => prop_assert!(disk_len <= bytes.len()),
            Parsed::Fault { skip, .. } => prop_assert!(skip <= bytes.len()),
        }
    }

    #[test]
    fn store_matches_model_through_reopen(
        ops in prop::collection::vec(
            (0u8..3, any::<u8>(), any::<u16>(), prop::collection::vec(any::<u8>(), 0..300)),
            1..60,
        ),
    ) {
        let dir = temp_dir("model");
        let mut model = HashMap::new();
        {
            let mut store = open(&dir);
            apply_ops(&mut store, &mut model, &ops);
            assert_matches_model(&mut store, &model);
        }
        // Tombstone/overwrite semantics must survive a clean reopen:
        // later records win, tombstoned slots stay dead.
        let mut store = open(&dir);
        prop_assert!(
            store.recovery_report().is_clean(),
            "clean log must recover clean: {}",
            store.recovery_report()
        );
        assert_matches_model(&mut store, &model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_the_live_map(
        ops in prop::collection::vec(
            (0u8..3, any::<u8>(), any::<u16>(), prop::collection::vec(any::<u8>(), 0..300)),
            1..60,
        ),
    ) {
        let dir = temp_dir("compact");
        let mut model = HashMap::new();
        let mut store = open(&dir);
        apply_ops(&mut store, &mut model, &ops);
        let (before, _) = store.verify_and_list().expect("list before");
        store.compact_now().expect("compact");
        prop_assert_eq!(store.dead_bytes(), 0);
        prop_assert_eq!(store.segment_count(), 1);
        let (after, dropped) = store.verify_and_list().expect("list after");
        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(&before, &after, "compaction changed the live map");
        assert_matches_model(&mut store, &model);
        // And the compacted store reopens to the same map.
        drop(store);
        let mut store = open(&dir);
        prop_assert!(store.recovery_report().is_clean());
        let (reopened, _) = store.verify_and_list().expect("list reopened");
        prop_assert_eq!(&before, &reopened, "reopen after compaction changed the map");
        assert_matches_model(&mut store, &model);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
