//! Seeded crash-point campaign against the durable store's files.
//!
//! A pristine multi-segment store is built once; every campaign case
//! copies it, applies ONE drawn fault (truncation = torn write, bit
//! flip = storage rot, zeroed span = failed block write) via
//! `cuszp_faultsim::disk`, and reopens. The recovery contract under
//! test, for *any* single fault at *any* drawn offset:
//!
//! 1. reopening never panics and never errors on damage (only typed
//!    fault reports);
//! 2. every shard the store still serves is bit-exact against SOME
//!    acknowledged write of that slot — corrupt bytes are never
//!    returned as valid. (A damaged overwrite or tombstone record is
//!    skipped during replay, so the slot may legitimately roll back to
//!    the previous acknowledged generation — but never to garbage.)
//! 3. every slot not serving its latest state (lost, rolled back, or
//!    resurrected) is accounted for by a typed fault (recovery report,
//!    runtime fault, or a counted drop);
//! 4. the store stays writable: damaged slots can be re-put or
//!    re-deleted (the store half of "healable via cluster-scrub") and
//!    then read back at their latest state.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use cuszp_faultsim::disk::{copy_dir, disk_campaign};
use cuszp_store::{fnv1a, wordsum64, FsyncPolicy, LogStore, StoreConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cuszp-store-crash-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        // Tiny budget: the roll threshold floors at 64 KiB, so ~250 KiB
        // of records spread over several segments. No compaction fires
        // (the pristine log is mostly live).
        compact_at: 1,
    }
}

/// Deterministic payload for a slot — any returned bytes are checkable.
fn payload_for(key_id: u32, idx: u16, generation: u32) -> Vec<u8> {
    let len = 2048 + ((key_id as usize * 37 + idx as usize * 11) % 3000);
    let seed = (key_id as u64) << 32 | (idx as u64) << 16 | generation as u64;
    (0..len)
        .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) >> 3) as u8)
        .collect()
}

/// A slot's acknowledged history: the latest state (`None` =
/// tombstoned) plus every earlier acknowledged generation a damaged
/// later record may legitimately expose again.
struct Slot {
    latest: Option<Vec<u8>>,
    stale: Vec<Vec<u8>>,
}

/// Builds the pristine store: 64 unique slots, a few overwrites and
/// deletes (so tombstones and superseded records are on disk), spread
/// across multiple segments. Returns each slot's acknowledged history.
fn build_pristine(dir: &Path) -> HashMap<(String, u16), Slot> {
    let mut store = LogStore::open(config(dir)).expect("open pristine");
    let mut expect: HashMap<(String, u16), Slot> = HashMap::new();
    for key_id in 0..16u32 {
        for idx in 0..4u16 {
            let key = format!("archive-{key_id}");
            let bytes = payload_for(key_id, idx, 0);
            store
                .put(&key, idx, &bytes, bytes.len() as u64, fnv1a(&bytes), false)
                .expect("pristine put");
            expect.insert(
                (key, idx),
                Slot {
                    latest: Some(bytes),
                    stale: Vec::new(),
                },
            );
        }
    }
    // Overwrites: generation 1 wins; a damaged gen-1 record may roll
    // the slot back to gen 0.
    for key_id in [2u32, 5, 9] {
        let key = format!("archive-{key_id}");
        let bytes = payload_for(key_id, 1, 1);
        store
            .put(&key, 1, &bytes, bytes.len() as u64, fnv1a(&bytes), false)
            .expect("pristine overwrite");
        let slot = expect.get_mut(&(key, 1)).unwrap();
        slot.stale.push(slot.latest.replace(bytes).unwrap());
    }
    // Deletes: tombstones on disk; a damaged tombstone may resurrect
    // the prior put.
    for key_id in [3u32, 7] {
        let key = format!("archive-{key_id}");
        store.delete(&key, 2).expect("pristine delete");
        let slot = expect.get_mut(&(key, 2)).unwrap();
        if let Some(prior) = slot.latest.take() {
            slot.stale.push(prior);
        }
    }
    store.sync().expect("pristine sync");
    assert!(
        store.segment_count() >= 3,
        "campaign needs a multi-segment log, got {}",
        store.segment_count()
    );
    expect
}

/// The per-case contract check. Returns how many slots were degraded
/// (lost, rolled back to a stale generation, or resurrected).
fn check_reopened(dir: &Path, expect: &HashMap<(String, u16), Slot>, context: &str) -> usize {
    // (1) Reopen must succeed — damage is reports, not errors/panics.
    let mut store = LogStore::open(config(dir))
        .unwrap_or_else(|e| panic!("{context}: reopen errored on damage: {e}"));
    let boot_faults = store.recovery_report().faults.len();
    let mut degraded = 0usize;
    for ((key, idx), slot) in expect {
        let got = store.get(key, *idx).expect("get io");
        match (&slot.latest, got) {
            (Some(want), Some(got)) if &got.bytes == want => {
                assert_eq!(got.checksum, wordsum64(want), "{context}: checksum drifted");
            }
            (None, None) => {}
            // (2) Anything else the store serves must still be a
            // bit-exact acknowledged generation — never garbage.
            (_, Some(got)) => {
                assert!(
                    slot.stale.iter().any(|s| s == &got.bytes),
                    "{context}: slot ('{key}', {idx}) served corrupt bytes as valid"
                );
                assert_eq!(
                    got.checksum,
                    wordsum64(&got.bytes),
                    "{context}: checksum drifted"
                );
                degraded += 1;
            }
            (Some(_), None) => degraded += 1,
        }
    }
    // (3) Degradation is always accounted for by a typed report.
    if degraded > 0 {
        let accounted =
            boot_faults > 0 || !store.runtime_faults().is_empty() || store.corrupt_dropped() > 0;
        assert!(
            accounted,
            "{context}: {degraded} slot(s) degraded with no typed fault reported"
        );
    }
    // (4) The store stays writable after damage: heal every degraded
    // slot back to its latest state (re-put or re-delete), then read
    // the whole map back at the latest generation.
    for ((key, idx), slot) in expect {
        let current = store.get(key, *idx).expect("get io");
        match &slot.latest {
            Some(want) => {
                if current.as_ref().map(|g| &g.bytes) != Some(want) {
                    store
                        .put(key, *idx, want, want.len() as u64, fnv1a(want), true)
                        .unwrap_or_else(|e| panic!("{context}: heal put failed: {e}"));
                }
            }
            None => {
                if current.is_some() {
                    store
                        .delete(key, *idx)
                        .unwrap_or_else(|e| panic!("{context}: heal delete failed: {e}"));
                }
            }
        }
    }
    for ((key, idx), slot) in expect {
        let got = store.get(key, *idx).expect("get io");
        match &slot.latest {
            Some(want) => {
                let got = got.unwrap_or_else(|| {
                    panic!("{context}: healed slot ('{key}', {idx}) unreadable")
                });
                assert_eq!(&got.bytes, want, "{context}: healed slot differs");
            }
            None => assert!(
                got.is_none(),
                "{context}: tombstoned slot ('{key}', {idx}) alive after heal"
            ),
        }
    }
    degraded
}

#[test]
fn single_fault_campaign_never_panics_and_never_serves_rot() {
    let pristine = temp_dir("pristine");
    let expect = build_pristine(&pristine);

    let mut total_lost = 0usize;
    let mut damaged_cases = 0usize;
    for seed in [0xC0FFEE, 0x5EED] {
        let cases = disk_campaign(&pristine, seed, 36).expect("draw campaign");
        assert_eq!(cases.len(), 36);
        for case in cases {
            let victim = temp_dir("victim");
            copy_dir(&pristine, &victim).expect("copy victim");
            case.apply(&victim).expect("apply fault");
            let context = format!("seed {seed:#x} case {} ({})", case.id, case.description);
            let lost = check_reopened(&victim, &expect, &context);
            total_lost += lost;
            if lost > 0 {
                damaged_cases += 1;
            }
            let _ = fs::remove_dir_all(&victim);
        }
    }
    // Sanity on the campaign itself: the faults must actually bite
    // sometimes, or the contract was never exercised.
    assert!(
        damaged_cases > 10,
        "campaign drew faults that almost never damaged records ({damaged_cases} damaging cases, {total_lost} slots lost)"
    );
    let _ = fs::remove_dir_all(&pristine);
}

/// A kill -9 mid-append is a *suffix* loss on the active segment. Walk
/// every truncation point across the last record's bytes and require:
/// clean recovery, all earlier slots intact, and a typed torn-tail
/// report whenever the cut is mid-record.
#[test]
fn every_truncation_of_the_final_record_recovers() {
    let pristine = temp_dir("tail-pristine");
    {
        let mut store = LogStore::open(config(&pristine)).expect("open");
        for idx in 0..3u16 {
            let bytes = payload_for(90, idx, 0);
            store
                .put(
                    "tail",
                    idx,
                    &bytes,
                    bytes.len() as u64,
                    fnv1a(&bytes),
                    false,
                )
                .expect("put");
        }
        store.sync().expect("sync");
    }
    // Locate the final record precisely with the offline scanner — the
    // same scan boot recovery runs, so the offsets cannot drift.
    let report = cuszp_store::scan_dir(&pristine).expect("scan pristine");
    let active_report = report
        .segments
        .iter()
        .max_by_key(|s| s.seq)
        .expect("active segment");
    let active_name = format!("seg-{:08}.czl", active_report.seq);
    let full = active_report.bytes;
    let start = active_report.records.last().expect("final record").offset;

    // Cutting exactly at the final record's start removes it cleanly:
    // to recovery that write simply never happened — no fault, the two
    // earlier slots intact.
    {
        let victim = temp_dir("tail-clean");
        copy_dir(&pristine, &victim).expect("copy");
        let f = fs::OpenOptions::new()
            .write(true)
            .open(victim.join(&active_name))
            .unwrap();
        f.set_len(start).unwrap();
        drop(f);
        let mut store = LogStore::open(config(&victim)).expect("reopen at boundary");
        assert!(store.recovery_report().is_clean());
        assert!(store.get("tail", 2).expect("get io").is_none());
        assert_eq!(
            store.get("tail", 0).expect("get io").unwrap().bytes,
            payload_for(90, 0, 0)
        );
        let _ = fs::remove_dir_all(&victim);
    }

    // Sample cut points strictly inside the final record (every 97
    // bytes keeps the test fast while hitting prefix/magic/body/trailer
    // regions).
    let mut cut = start + 1;
    while cut < full {
        let victim = temp_dir("tail-victim");
        copy_dir(&pristine, &victim).expect("copy");
        let f = fs::OpenOptions::new()
            .write(true)
            .open(victim.join(&active_name))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let mut store = LogStore::open(config(&victim))
            .unwrap_or_else(|e| panic!("cut at {cut}: reopen errored: {e}"));
        for idx in 0..2u16 {
            let got = store
                .get("tail", idx)
                .expect("get io")
                .unwrap_or_else(|| panic!("cut at {cut}: earlier slot {idx} lost"));
            assert_eq!(got.bytes, payload_for(90, idx, 0), "cut at {cut}");
        }
        match store.get("tail", 2).expect("get io") {
            Some(got) => assert_eq!(got.bytes, payload_for(90, 2, 0), "cut at {cut}"),
            None => assert!(
                !store.recovery_report().is_clean(),
                "cut at {cut}: record lost without a typed report"
            ),
        }
        let _ = fs::remove_dir_all(&victim);
        cut += 97;
    }
    let _ = fs::remove_dir_all(&pristine);
}
