//! The report blob and its JSON rendering, pinned as bytes.
//!
//! Every fixture below was generated at the commit *before* the
//! in-process report hierarchy became the wire form (PR 24), through the
//! owned mirror of `ScanReport` that commit still converted into before
//! writing (this file passed there with `to_bytes`, `to_json_fields` and
//! `from_bytes` called on that mirror). The writer, the parser and the
//! JSON renderer must keep producing exactly these bytes: the blob rides
//! in CSRP `scan` / `decompress --recover` answers and the JSON is what
//! `cuszp fsck --json` prints.

use cuszp_core::{scan, Compressor, Config, Dims, ErrorBound, ParityConfig, ScanReport};
use cuszp_parallel::WorkerPool;

fn parse(bytes: &[u8]) -> ScanReport {
    ScanReport::from_bytes(bytes).expect("fixture blob parses")
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex length");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden suite's mixed-character field (waves, hash ripple, flat
/// stretches, sparse spikes).
fn field(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if i % 11 < 3 {
                1.75
            } else {
                let s = (i as f32 * 0.0019).sin() * 8.0 + (i as f32 * 0.00037).cos();
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 44;
                let spike = if i % 1013 == 0 { 300.0 } else { 0.0 };
                s + (h & 0x3FF) as f32 * 0.002 + spike
            }
        })
        .collect()
}

fn compressor() -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        ..Config::default()
    })
}

/// Asserts the three pinned facts of one scanned archive: the parser and
/// writer round-trip the fixture, a fresh scan serializes to it, and the
/// JSON fields are the pinned string.
fn check(name: &str, report: &ScanReport, want_blob: &str, want_json: &str) {
    let got = report.to_bytes();
    let fixture = unhex(want_blob);
    assert_eq!(
        hex(&parse(&fixture).to_bytes()),
        hex(&fixture),
        "{name}: parse + write"
    );
    assert_eq!(hex(&got), hex(&fixture), "{name}: scan + write");
    assert_eq!(report.to_json_fields(), want_json, "{name}: scan + JSON");
    assert_eq!(
        parse(&fixture).to_json_fields(),
        want_json,
        "{name}: parse + JSON"
    );
}

#[test]
fn clean_v1_scan_is_pinned() {
    let bytes = compressor()
        .compress(&field(5_000), Dims::D1(5_000))
        .unwrap()
        .to_bytes();
    let report = scan(&bytes).unwrap();
    assert_eq!(report.n_damaged(), 0);
    check("clean v1", &report, CLEAN_V1_BLOB, CLEAN_V1_JSON);
}

/// A six-chunk CSZ2 container under 1/2 parity (two data shards and one
/// parity shard per stripe).
fn parity_archive() -> Vec<u8> {
    compressor()
        .compress_chunked_with_parity(
            &field(12_000),
            Dims::D1(12_000),
            2_000,
            &WorkerPool::new(2),
            ParityConfig {
                data_shards: 2,
                parity_shards: 1,
            },
        )
        .unwrap()
        .to_bytes()
}

#[test]
fn damaged_parity_scan_is_pinned() {
    let bytes = parity_archive();
    let clean = scan(&bytes).unwrap();
    assert_eq!(clean.n_damaged(), 0);
    let ranges: Vec<_> = clean
        .reports
        .iter()
        .map(|r| r.byte_range.clone().unwrap())
        .collect();
    let region = ranges[0].start;
    let stripe = 2 * clean.parity.as_ref().unwrap().shard_size as usize;
    let stripe_of = |byte: usize| (byte - region) / stripe;

    // One stripe loses both data shards — beyond its one parity shard —
    // around a chunk boundary: the chunk before it takes a payload flip
    // (checksum mismatch), the chunk after it a flipped magic
    // (malformed).
    let (j, s) = (2..ranges.len())
        .map(|j| (j, stripe_of(ranges[j].start)))
        .find(|&(j, s)| stripe_of(ranges[j].start - 50) == s)
        .expect("a chunk boundary inside a stripe");
    let mut bad = bytes.clone();
    bad[ranges[j].start - 50] ^= 0x20;
    bad[ranges[j].start] ^= 0xFF;
    let window = region + s * stripe;
    bad[window + 1] ^= 0x01;
    bad[window + stripe - 1] ^= 0x01;
    // Another stripe loses one data shard: healed, its chunk `Repaired`.
    assert!(stripe_of(ranges[0].start + 100) != s);
    bad[ranges[0].start + 100] ^= 0x04;

    let report = scan(&bad).unwrap();
    let labels: Vec<&str> = report.reports.iter().map(|r| r.status.label()).collect();
    for want in ["ok", "repaired", "checksum", "malformed"] {
        assert!(labels.contains(&want), "no {want} chunk in {labels:?}");
    }
    assert_eq!(report.parity.as_ref().unwrap().n_unrepairable(), 1);
    check(
        "damaged parity",
        &report,
        DAMAGED_PARITY_BLOB,
        DAMAGED_PARITY_JSON,
    );
}

#[test]
fn truncated_tail_scan_is_pinned() {
    // Cut inside the length table (it starts at byte 52): two chunks
    // still have a table entry, the other four collapse into one
    // trailing `Truncated` report.
    let bytes = parity_archive();
    let report = scan(&bytes[..52 + 20]).unwrap();
    assert_eq!(report.reports.len(), 3);
    assert_eq!(report.reports[2].elem_range, 4_000..12_000);
    check(
        "truncated tail",
        &report,
        TRUNCATED_TAIL_BLOB,
        TRUNCATED_TAIL_JSON,
    );
}

#[test]
fn version1_blob_is_pinned() {
    // The hand-built version-1 blob of `report.rs`'s unit test: one Ok
    // chunk and no plan field. It parses, and is written back as
    // version 2 (a `plan` tag of 0 after the element range).
    let r = parse(&unhex(VERSION1_BLOB));
    assert_eq!(r.to_bytes(), unhex(VERSION1_REWRITTEN_BLOB));
    assert_eq!(r.to_json_fields(), VERSION1_JSON);
    assert_eq!(parse(&unhex(VERSION1_REWRITTEN_BLOB)), r);
}

const CLEAN_V1_BLOB: &str =
    "0200020076310188130000000000000101000000000000000100000000000000000000000100000000000000 \
     00005a00000000000000000000000000008813000000000000010000000000";
const CLEAN_V1_JSON: &str = r#""format":"v1","dims":[5000],"dtype":"f32","declared_chunks":1,"chunks":[{"index":0,"status":"ok","byte_start":0,"byte_end":23040,"elem_start":0,"elem_end":5000,"plan":"lorenzo+huffman","repaired_shards":[]}],"parity":null"#;
const DAMAGED_PARITY_BLOB: &str =
    "0200040063737a3201e02e000000000000010600000000000000060000000000000000000000016400000000 \
     00000082240000000000000000000000000000d0070000000000000100000001010000000000000000000000 \
     01000000000000000182240000000000000149000000000000d007000000000000a00f0000000000000002c4 \
     56fe422d09f1e47d2c871f99118108ca240000000000000200000000000000010149000000000000936d0000 \
     00000000a00f000000000000701700000000000000040900626164206d616769630600686561646572014900 \
     0000000000030000000000000001936d00000000000053920000000000007017000000000000401f00000000 \
     000001000000000400000000000000015392000000000000c5b6000000000000401f00000000000010270000 \
     000000000100000000050000000000000001c5b6000000000000abda0000000000001027000000000000e02e \
     0000000000000100000000010200010000100000070000000000000007000000010100000000000000000000 \
     000000000000020200000004000000000000000500000000000000010000000000000000000000";
const DAMAGED_PARITY_JSON: &str = r#""format":"csz2","dims":[12000],"dtype":"f32","declared_chunks":6,"chunks":[{"index":0,"status":"repaired","byte_start":100,"byte_end":9346,"elem_start":0,"elem_end":2000,"plan":"lorenzo+huffman","repaired_shards":[0]},{"index":1,"status":"checksum","byte_start":9346,"byte_end":18689,"elem_start":2000,"elem_end":4000,"plan":null,"repaired_shards":[]},{"index":2,"status":"malformed","byte_start":18689,"byte_end":28051,"elem_start":4000,"elem_end":6000,"plan":null,"repaired_shards":[]},{"index":3,"status":"ok","byte_start":28051,"byte_end":37459,"elem_start":6000,"elem_end":8000,"plan":"lorenzo+huffman","repaired_shards":[]},{"index":4,"status":"ok","byte_start":37459,"byte_end":46789,"elem_start":8000,"elem_end":10000,"plan":"lorenzo+huffman","repaired_shards":[]},{"index":5,"status":"ok","byte_start":46789,"byte_end":55979,"elem_start":10000,"elem_end":12000,"plan":"lorenzo+huffman","repaired_shards":[]}],"parity":{"data_shards":2,"parity_shards":1,"shard_size":4096,"n_stripes":7,"stripes":[{"index":0,"status":"repaired","data":[0],"parity":[]},{"index":1,"status":"intact"},{"index":2,"status":"unrepairable","damaged_data":[4,5],"intact_parity":1},{"index":3,"status":"intact"},{"index":4,"status":"intact"},{"index":5,"status":"intact"},{"index":6,"status":"intact"}]}"#;
const TRUNCATED_TAIL_BLOB: &str =
    "0200040063737a3201e02e000000000000010600000000000000030000000000000000000000016400000000 \
     00000082240000000000000000000000000000d0070000000000000003010000000000000001822400000000 \
     00000149000000000000d007000000000000a00f0000000000000003020000000000000000a00f0000000000 \
     00e02e000000000000000300";
const TRUNCATED_TAIL_JSON: &str = r#""format":"csz2","dims":[12000],"dtype":"f32","declared_chunks":6,"chunks":[{"index":0,"status":"truncated","byte_start":100,"byte_end":9346,"elem_start":0,"elem_end":2000,"plan":null,"repaired_shards":[]},{"index":1,"status":"truncated","byte_start":9346,"byte_end":18689,"elem_start":2000,"elem_end":4000,"plan":null,"repaired_shards":[]},{"index":2,"status":"truncated","byte_start":null,"byte_end":null,"elem_start":4000,"elem_end":12000,"plan":null,"repaired_shards":[]}],"parity":null"#;
const VERSION1_BLOB: &str = "0100 0200 7631 01 0002000000000000 01 0100000000000000 01000000 \
     0000000000000000 00 0000000000000000 0002000000000000 00 00";
const VERSION1_REWRITTEN_BLOB: &str =
    "0200020076310100020000000000000101000000000000000100000000000000000000000000000000000000 \
     000002000000000000000000";
const VERSION1_JSON: &str = r#""format":"v1","dims":[512],"dtype":"f32","declared_chunks":1,"chunks":[{"index":0,"status":"ok","byte_start":null,"byte_end":null,"elem_start":0,"elem_end":512,"plan":null,"repaired_shards":[]}],"parity":null"#;
