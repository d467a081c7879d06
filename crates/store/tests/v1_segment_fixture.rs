//! A v1 store segment, as a build before the v2 record format wrote it,
//! read by this one: the store-side reader-compat fixture.
//!
//! `SEGMENT_HEX` is the whole `seg-00000001.czl` (558 bytes) a v1
//! `LogStore` left after these calls, with `payload(key, idx, len)` as
//! defined below and every `archive_sum` an FNV-1a, as the cluster then
//! computed it:
//!
//! ```text
//! put("nyx/t0", 0, payload(0, 0, 48), 90, STRIPE_SUM, repair = false)
//! put("nyx/t0", 1, payload(0, 1, 48), 90, STRIPE_SUM, false)
//! put("nyx/t0", 2, slot 0 xor slot 1, 90, STRIPE_SUM, true)
//! put("old",    0, payload(1, 0, 24), 24, fnv1a(that payload), false)
//! put("old",    0, payload(1, 0, 32), 32, OLD_SUM, false)         supersedes
//! put("gone",   0, payload(2, 0, 16), 16, fnv1a(that payload), false)
//! delete("gone", 0)
//! ```
//!
//! Every record is "CZLR" with an FNV-1a trailer, under a version 1
//! segment header. The bytes never change: whatever this build writes,
//! it must keep reading them to the values pinned here.

use std::fs;
use std::path::{Path, PathBuf};

use cuszp_store::{
    fnv1a, scan_dir, wordsum64, FsyncPolicy, LogStore, RecordStatus, ShardRecord, StoreConfig,
    SumKind,
};

const SEGMENT_HEX: &str = concat!(
    "435a4c53010000000100000000000000435a4c52580000000100060000005a00",
    "00000000000000c993898f071afd300000006e79782f7430001f3e5d7c9bbad9",
    "f81736557493b2d1f00f2e4d6c8baac9e80726456483a2c1e0ff1e3d5c7b9ab9",
    "d8f71635547392b13cb64169c85c9ec8435a4c52580000000100060001005a00",
    "00000000000000c993898f071afd300000006e79782f7430102f4e6d8cabcae9",
    "0827466584a3c2e1001f3e5d7c9bbad9f81736557493b2d1f00f2e4d6c8baac9",
    "e80726456483a2c1159994fdba190bfe435a4c52580000000101060002005a00",
    "00000000000000c993898f071afd300000006e79782f743010307030f0307030",
    "f0307030f0307030f010101010101010101010101010101010f0307030f03070",
    "30f0307030f030709d5d57bed7536cbf435a4c523d0000000100030000001800",
    "000000000000b525dd1ad52e49e1180000006f6c64405f7e9dbcdbfa19385776",
    "95b4d3f211304f6e8daccbea0924f8102657259bbd435a4c5245000000010003",
    "0000002000000000000000a5f0c57df5e4d433200000006f6c64405f7e9dbcdb",
    "fa1938577695b4d3f211304f6e8daccbea0928476685a4c3e201219ee43e28fe",
    "f493435a4c5236000000010004000000100000000000000085580fc5e3c653ff",
    "10000000676f6e65809fbeddfc1b3a597897b6d5f41332516daf57bb053e0471",
    "435a4c5226000000020004000000000000000000000000000000000000000000",
    "0000676f6e65c853aa62644e9233",
);

/// The manifest the same build left beside it.
const MANIFEST: &str = "czl-manifest 1\nsegments 1\nnext 2\n";

/// FNV-1a of the 90-byte archive the `nyx/t0` stripe encodes.
const STRIPE_SUM: u64 = 0xfd1a_078f_8993_c900;
/// FNV-1a of the live `old` payload.
const OLD_SUM: u64 = 0x33d4_e4f5_7dc5_f0a5;

fn payload(key: u8, idx: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(key * 64 + idx * 16))
        .collect()
}

/// The live slots after replay: key, slot, bytes, archive length and sum.
fn live() -> Vec<(&'static str, u16, Vec<u8>, u64, u64)> {
    let d0 = payload(0, 0, 48);
    let d1 = payload(0, 1, 48);
    let parity: Vec<u8> = d0.iter().zip(&d1).map(|(a, b)| a ^ b).collect();
    vec![
        ("nyx/t0", 0, d0, 90, STRIPE_SUM),
        ("nyx/t0", 1, d1, 90, STRIPE_SUM),
        ("nyx/t0", 2, parity, 90, STRIPE_SUM),
        ("old", 0, payload(1, 0, 32), 32, OLD_SUM),
    ]
}

fn segment_bytes() -> Vec<u8> {
    (0..SEGMENT_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&SEGMENT_HEX[i..i + 2], 16).unwrap())
        .collect()
}

/// A fresh data dir holding the fixture.
fn fixture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cuszp-v1-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("seg-00000001.czl"), segment_bytes()).unwrap();
    fs::write(dir.join("MANIFEST"), MANIFEST).unwrap();
    dir
}

fn open(dir: &Path) -> LogStore {
    LogStore::open(StoreConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        compact_at: 1 << 30,
    })
    .unwrap()
}

/// Every live slot reads back bit-identical, with its stripe metadata
/// and its FNV-1a stripe sum named as such.
fn assert_reads_back(store: &mut LogStore) {
    for (key, idx, bytes, total_len, sum) in live() {
        let got = store
            .get(key, idx)
            .unwrap()
            .unwrap_or_else(|| panic!("('{key}', {idx}) missing"));
        assert_eq!(got.bytes, bytes, "('{key}', {idx})");
        assert_eq!(got.checksum, wordsum64(&bytes));
        assert_eq!(got.total_len, total_len);
        assert_eq!(got.archive_sum, sum);
        assert_eq!(got.archive_sum_kind, SumKind::Fnv1a);
    }
    assert!(store.get("gone", 0).unwrap().is_none());
}

fn expected_inventory() -> Vec<ShardRecord> {
    live()
        .into_iter()
        .map(
            |(key, shard_idx, bytes, total_len, archive_sum)| ShardRecord {
                key: key.to_string(),
                shard_idx,
                len: bytes.len() as u64,
                checksum: wordsum64(&bytes),
                total_len,
                archive_sum,
                archive_sum_kind: SumKind::Fnv1a,
            },
        )
        .collect()
}

#[test]
fn the_fixture_is_what_its_doc_says() {
    let bytes = segment_bytes();
    assert_eq!(bytes.len(), 558);
    assert_eq!(bytes[0..8], *b"CZLS\x01\x00\x00\x00");
    let mut archive = payload(0, 0, 48);
    archive.extend_from_slice(&payload(0, 1, 48));
    archive.truncate(90);
    assert_eq!(fnv1a(&archive), STRIPE_SUM);
    assert_eq!(fnv1a(&payload(1, 0, 32)), OLD_SUM);
}

#[test]
fn a_v1_segment_reopens_reads_lists_and_fscks_clean() {
    let dir = fixture_dir("read");
    let report = scan_dir(&dir).unwrap();
    assert_eq!(report.exit_code(), 0);
    assert_eq!(
        (
            report.live_shards,
            report.superseded,
            report.tombstones,
            report.damaged
        ),
        (4, 2, 1, 0)
    );
    let seg = &report.segments[0];
    assert_eq!((seg.seq, seg.bytes), (1, 558));
    let rows: Vec<(u64, String)> = seg
        .records
        .iter()
        .map(|r| (r.offset, r.status.to_string()))
        .collect();
    let want = [
        (16, "live"),
        (112, "live"),
        (208, "live"),
        (304, "superseded"),
        (373, "live"),
        (450, "superseded"),
        (512, "tombstone"),
    ];
    assert_eq!(
        rows,
        want.map(|(o, s)| (o, s.to_string())).to_vec(),
        "per-record report"
    );

    let mut store = open(&dir);
    let recovery = store.recovery_report().clone();
    assert!(recovery.is_clean(), "{recovery}");
    assert_eq!(
        (recovery.records_replayed, recovery.live_shards),
        (7, 4),
        "{recovery}"
    );
    assert_reads_back(&mut store);
    let (inventory, dropped) = store.verify_and_list().unwrap();
    assert_eq!(dropped, 0);
    assert_eq!(inventory, expected_inventory());
    drop(store);
    // The v1 segment is read, never appended to: its bytes are intact
    // and the directory still fscks clean.
    assert_eq!(
        fs::read(dir.join("seg-00000001.czl")).unwrap(),
        segment_bytes()
    );
    assert_eq!(scan_dir(&dir).unwrap().exit_code(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_leaves_only_v2_segments_that_read_the_same() {
    let dir = fixture_dir("compact");
    let mut store = open(&dir);
    store.compact_now().unwrap();
    assert_eq!(store.segment_count(), 1);
    assert_reads_back(&mut store);
    assert_eq!(store.verify_and_list().unwrap(), (expected_inventory(), 0));
    drop(store);

    let report = scan_dir(&dir).unwrap();
    assert_eq!(report.exit_code(), 0);
    assert_eq!(report.live_shards, 4);
    assert_eq!((report.superseded, report.tombstones), (0, 0));
    for seg in &report.segments {
        let bytes = fs::read(&seg.path).unwrap();
        assert_eq!(
            bytes[0..8],
            *b"CZLS\x02\x00\x00\x00",
            "seg-{} is not v2",
            seg.seq
        );
        for r in &seg.records {
            assert_eq!(r.status, RecordStatus::Live);
            let at = r.offset as usize;
            assert_eq!(
                bytes[at..at + 4],
                *b"CZL2",
                "record @{} is not v2",
                r.offset
            );
        }
    }
    let mut store = open(&dir);
    assert!(store.recovery_report().is_clean());
    assert_reads_back(&mut store);
    assert_eq!(store.verify_and_list().unwrap(), (expected_inventory(), 0));
    let _ = fs::remove_dir_all(&dir);
}
