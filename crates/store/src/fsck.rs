//! Offline store inspection: the scanner behind `cuszp store-fsck`.
//!
//! Runs the *same* segment scan as boot recovery ([`scan_segment`]) but
//! read-only — nothing is truncated, deleted, or rewritten — and
//! reports every record individually: live, superseded, tombstone, or
//! damaged. The exit taxonomy mirrors archive `fsck` (PR 4):
//!
//! - `0` — every segment scanned clean, every record verified;
//! - `1` — damage found, but of the kind the cluster heals
//!   (`cluster-scrub` re-replicates dropped shards; a torn tail is
//!   truncated at the next boot);
//! - `2` — the directory itself is unreadable (I/O / allocation
//!   failure), nothing can be said about the data.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::log::{scan_segment, SegmentFault};
use crate::record::{parse_segment_header, RecordKind};
use crate::StoreError;

/// What one record (or one damaged region) amounts to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordStatus {
    /// The newest put for its `(key, shard_idx)` slot: served on read.
    Live,
    /// A valid put shadowed by a later put or tombstone.
    Superseded,
    /// A delete marker.
    Tombstone,
    /// Bytes that failed validation; the typed fault says how.
    Damaged(SegmentFault),
}

impl std::fmt::Display for RecordStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordStatus::Live => write!(f, "live"),
            RecordStatus::Superseded => write!(f, "superseded"),
            RecordStatus::Tombstone => write!(f, "tombstone"),
            RecordStatus::Damaged(fault) => write!(f, "DAMAGED: {fault}"),
        }
    }
}

/// One row of the per-record report.
#[derive(Debug, Clone)]
pub struct RecordReport {
    /// Byte offset of the record (or damaged region) in its segment.
    pub offset: u64,
    /// The slot, when the record parsed well enough to have one.
    pub key: Option<(String, u16)>,
    /// Payload bytes (0 for tombstones and damage).
    pub payload_len: u64,
    pub status: RecordStatus,
}

/// Everything found in one segment file.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    pub seq: u64,
    pub path: PathBuf,
    pub bytes: u64,
    /// Records and damaged regions, in file order.
    pub records: Vec<RecordReport>,
}

/// The whole-directory report.
#[derive(Debug, Clone, Default)]
pub struct DirReport {
    pub segments: Vec<SegmentReport>,
    /// Directory-level faults (manifest fallback, missing segments).
    pub dir_faults: Vec<SegmentFault>,
    pub live_shards: u64,
    pub superseded: u64,
    pub tombstones: u64,
    pub damaged: u64,
}

impl DirReport {
    /// True when no fault of any kind was found.
    pub fn is_clean(&self) -> bool {
        self.damaged == 0 && self.dir_faults.is_empty()
    }

    /// The PR 4 exit taxonomy: `0` clean, `1` repairable-via-scrub.
    /// (`2` unreadable is the `Err` arm of [`scan_dir`] — if the report
    /// exists at all, the directory was readable.)
    pub fn exit_code(&self) -> i32 {
        if self.is_clean() {
            0
        } else {
            1
        }
    }
}

/// Scans a store directory read-only and reports per-record status.
/// `Err` means the directory itself could not be read (exit 2 in the
/// CLI taxonomy); damage *inside* readable segments is never an error.
pub fn scan_dir(dir: &Path) -> Result<DirReport, StoreError> {
    let io = |e: std::io::Error| StoreError::Io {
        path: dir.display().to_string(),
        err: e,
    };
    let mut report = DirReport::default();

    // Segment set: manifest when valid, directory listing otherwise —
    // the same precedence as boot, minus any mutation (tmp files and
    // orphan segments are reported, not deleted).
    let mut on_disk = Vec::new();
    for entry in fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = super::log::parse_segment_name(name) {
            on_disk.push(seq);
        }
    }
    on_disk.sort_unstable();
    let manifest = fs::read_to_string(dir.join("MANIFEST"))
        .ok()
        .and_then(|t| super::log::parse_manifest(&t));
    let sequence: Vec<u64> = match &manifest {
        Some((listed, _)) => {
            for &seq in listed {
                if !on_disk.contains(&seq) {
                    report.dir_faults.push(SegmentFault::MissingSegment { seq });
                }
            }
            listed
                .iter()
                .copied()
                .filter(|s| on_disk.contains(s))
                .collect()
        }
        None => {
            if !on_disk.is_empty() {
                report.dir_faults.push(SegmentFault::ManifestFallback);
            }
            on_disk.clone()
        }
    };

    // Pass 1: scan every segment, remembering each valid record.
    struct Scanned {
        seq: u64,
        path: PathBuf,
        bytes: u64,
        records: Vec<(u64, RecordKind, String, u16, u64)>, // offset, kind, key, idx, payload_len
        faults: Vec<(u64, SegmentFault)>,                  // offset, fault
    }
    let mut scans = Vec::new();
    // Final owner of each slot across the whole log (replay order).
    let mut winner: HashMap<(String, u16), (u64, u64, RecordKind)> = HashMap::new();
    for &seq in &sequence {
        let path = dir.join(format!("seg-{seq:08}.czl"));
        let bytes = super::log::read_file(&path)?;
        let header_ok = parse_segment_header(&bytes).is_some_and(|(s, _)| s == seq);
        let scan = scan_segment(seq, &bytes, header_ok);
        let mut records = Vec::new();
        for sr in &scan.records {
            let slot = (sr.record.key.clone(), sr.record.shard_idx);
            winner.insert(slot, (seq, sr.offset, sr.record.kind));
            records.push((
                sr.offset,
                sr.record.kind,
                sr.record.key.clone(),
                sr.record.shard_idx,
                sr.record.payload.len() as u64,
            ));
        }
        let faults = scan
            .faults
            .iter()
            .map(|f| {
                let offset = match f {
                    SegmentFault::TornTail { offset, .. }
                    | SegmentFault::CorruptRecord { offset, .. }
                    | SegmentFault::ResyncSkip { offset, .. } => *offset,
                    _ => 0,
                };
                (offset, f.clone())
            })
            .collect();
        scans.push(Scanned {
            seq,
            path,
            bytes: bytes.len() as u64,
            records,
            faults,
        });
    }

    // Pass 2: classify each record against the final slot owners.
    for scan in scans {
        let mut rows = Vec::new();
        for (offset, kind, key, idx, payload_len) in scan.records {
            let status = match kind {
                RecordKind::Tombstone => {
                    report.tombstones += 1;
                    RecordStatus::Tombstone
                }
                RecordKind::Put => {
                    let slot = (key.clone(), idx);
                    if winner.get(&slot) == Some(&(scan.seq, offset, RecordKind::Put)) {
                        report.live_shards += 1;
                        RecordStatus::Live
                    } else {
                        report.superseded += 1;
                        RecordStatus::Superseded
                    }
                }
            };
            rows.push(RecordReport {
                offset,
                key: Some((key, idx)),
                payload_len,
                status,
            });
        }
        for (offset, fault) in scan.faults {
            report.damaged += 1;
            rows.push(RecordReport {
                offset,
                key: None,
                payload_len: 0,
                status: RecordStatus::Damaged(fault),
            });
        }
        rows.sort_by_key(|r| r.offset);
        report.segments.push(SegmentReport {
            seq: scan.seq,
            path: scan.path,
            bytes: scan.bytes,
            records: rows,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsyncPolicy, LogStore, StoreConfig};
    use std::fs::OpenOptions;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("cuszp-fsck-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn populated(dir: &Path) {
        let mut s = LogStore::open(StoreConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            compact_at: 1 << 30,
        })
        .unwrap();
        s.put("a", 0, &[1u8; 128], 128, 1, false).unwrap();
        s.put("a", 0, &[2u8; 128], 128, 2, false).unwrap(); // supersedes
        s.put("b", 1, &[3u8; 64], 64, 3, false).unwrap();
        s.put("c", 0, &[4u8; 64], 64, 4, false).unwrap();
        s.delete("c", 0).unwrap();
    }

    #[test]
    fn clean_store_scans_clean_with_correct_classes() {
        let dir = temp_dir("clean");
        populated(&dir);
        let report = scan_dir(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.live_shards, 2);
        assert_eq!(report.superseded, 2); // old "a" + tombstoned "c"
        assert_eq!(report.tombstones, 1);
        assert_eq!(report.damaged, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_reported_without_mutating_the_file() {
        let dir = temp_dir("damaged");
        populated(&dir);
        let seg = dir.join("seg-00000001.czl");
        let before = fs::read(&seg).unwrap();
        // Flip a bit in the middle of the log.
        let mut bytes = before.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let report = scan_dir(&dir).unwrap();
        assert_eq!(report.exit_code(), 1);
        assert!(report.damaged > 0);
        assert!(report.segments[0]
            .records
            .iter()
            .any(|r| matches!(r.status, RecordStatus::Damaged(_))));
        // fsck is read-only: the damaged file is byte-identical after.
        assert_eq!(fs::read(&seg).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_reports_repairable_and_leaves_file_alone() {
        let dir = temp_dir("torn");
        populated(&dir);
        let seg = dir.join("seg-00000001.czl");
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let report = scan_dir(&dir).unwrap();
        assert_eq!(report.exit_code(), 1);
        assert_eq!(fs::metadata(&seg).unwrap().len(), len - 10, "read-only");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_dir_is_an_error() {
        let dir = temp_dir("absent"); // never created
        assert!(scan_dir(&dir).is_err());
    }
}
