//! The container's `eb` is the authority for its chunks' (ROADMAP 1a,
//! decode half), and an exhaustive single-bit sweep over the CSZ2 bytes
//! that rule and the chunk checksums protect: each chunk's embedded
//! `eb`, every chunk payload, and the length table.
//!
//! Not covered, because no format-preserving check owns them (ROADMAP
//! 1b closes these with the header-covering checksum): the rest of a
//! chunk's header — a flip of `cap` (chunk byte 40, `^= 0x02`: radius
//! 512 → 513) still decodes under a clean `scan`, every value of that
//! chunk off by one quantum — and the container's `chunk_target`.

use cuszp_core::{
    scan, ChunkIndex, ChunkReport, ChunkSource, ChunkStatus, ChunkedArchive, Compressor, Config,
    CuszpError, Decode, Dims, ErrorBound, FillPolicy, ParityConfig, PipelineEngine, Predictor,
    PredictorMode, RangeSpec, ReconstructEngine, WorkflowChoice, WorkflowMode,
};
use cuszp_parallel::WorkerPool;
use std::ops::Range;

const CONTAINER_HEADER: usize = 52;
/// Offset of `eb` in a v1 chunk header and in the CSZ2 container header.
const EB: Range<usize> = 32..40;
const CHUNK_HEADER: usize = 72;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(byte range in the container, element range in the field)` of every
/// chunk of a pristine container.
fn chunk_ranges(bytes: &[u8]) -> Vec<(Range<usize>, Range<usize>)> {
    let report = scan(bytes).unwrap();
    assert!(report.is_clean());
    report
        .reports
        .iter()
        .map(|r| (r.byte_range.clone().unwrap(), r.elem_range.clone()))
        .collect()
}

fn is_eb_fault(e: &CuszpError, chunk: usize, offset: usize) -> bool {
    matches!(e, CuszpError::MalformedArchive(f)
        if f.what == "chunk eb mismatches container"
            && f.section == cuszp_core::ArchiveSection::ChunkBody
            && f.chunk == Some(chunk)
            && f.offset == offset)
}

/// One flipped exponent bit of a chunk's `eb` used to halve every value
/// of that chunk under a clean `fsck` and exit 0.
#[test]
#[allow(clippy::single_range_in_vec_init)]
fn a_chunk_eb_that_differs_from_the_containers_is_caught_by_every_finisher() {
    let n = 8_000;
    let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.004).sin() * 6.0).collect();
    let pool = WorkerPool::new(2);
    let arc = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    })
    .compress_chunked_with(&data, Dims::D1(n), 2_000, &pool)
    .unwrap();
    let n_chunks = arc.n_chunks();
    assert_eq!(n_chunks, 4);
    let bytes = arc.to_bytes();
    let pristine = Decode::new(&bytes).strict::<f32>().unwrap().0;
    let ranges = chunk_ranges(&bytes);
    let body = CONTAINER_HEADER + 8 * n_chunks;
    assert_eq!(ranges[0].0.start, body);

    // The reproduced hole: chunk 0's `eb`, exponent bit.
    let mut bad = bytes.clone();
    bad[body + 38] ^= 0x10;
    let in_chunk_0 = RangeSpec::new(vec![100..300]);
    let past_chunk_0 = RangeSpec::new(vec![ranges[1].1.start..n]);
    let decode = Decode::new(&bad);

    // Strict: typed, names the chunk — for the whole field and for any
    // range, because the strict parse is up front.
    for e in [
        decode.strict::<f32>().unwrap_err(),
        decode.range(&in_chunk_0).strict::<f32>().unwrap_err(),
        decode.range(&past_chunk_0).strict::<f32>().unwrap_err(),
    ] {
        assert!(is_eb_fault(&e, 0, body), "{e}");
    }

    // Resilient: that chunk is Malformed and filled, the rest bit-exact.
    let is_eb_status = |r: &ChunkReport| {
        r.index == 0
            && matches!(&r.status, ChunkStatus::Malformed { what, offset, .. }
                if what == "chunk eb mismatches container" && *offset == body)
    };
    let rf = decode.resilient::<f32>(FillPolicy::Nan).unwrap();
    assert_eq!(rf.n_damaged(), 1);
    assert!(is_eb_status(&rf.reports[0]), "{}", rf.reports[0].status);
    let lost = ranges[0].1.clone();
    assert!(rf.data[lost.clone()].iter().all(|v| v.is_nan()));
    assert_eq!(bits(&rf.data[lost.end..]), bits(&pristine[lost.end..]));
    let rr = decode
        .range(&in_chunk_0)
        .resilient::<f32>(FillPolicy::Zero)
        .unwrap();
    assert!(is_eb_status(&rr.reports[0]));
    assert!(rr.data.iter().all(|&v| v == 0.0));
    let rr = decode
        .range(&past_chunk_0)
        .resilient::<f32>(FillPolicy::Nan)
        .unwrap();
    assert!(rr.is_clean());
    assert_eq!(bits(&rr.data), bits(&pristine[lost.end..]));

    // scan (and so fsck) never says clean.
    let report = scan(&bad).unwrap();
    assert!(!report.is_clean());
    assert!(is_eb_status(&report.reports[0]));
    assert!(report.reports[1..].iter().all(|r| r.status.is_ok()));

    // The walk checks what it decodes: a parsed archive whose chunk was
    // altered in memory fails the same way on all three strict bodies.
    let mut tampered = ChunkedArchive::from_bytes(&bytes).unwrap();
    tampered.chunks[1].eb *= 0.5;
    let at = ranges[1].0.start;
    let fine = ReconstructEngine::FinePartialSum;
    let spec = RangeSpec::new(vec![ranges[1].1.start + 5..ranges[1].1.start + 50]);
    let e = tampered.decompress::<f32>(fine, &pool).unwrap_err();
    assert!(is_eb_fault(&e, 1, at), "{e}");
    let e = tampered
        .decompress_range::<f32>(fine, &spec, &pool)
        .unwrap_err();
    assert!(is_eb_fault(&e, 1, at), "{e}");
    let fetch_range = |source: ChunkSource| {
        source
            .decompress_range::<f32>(
                fine,
                &spec,
                &mut [PipelineEngine::new()],
                |_| None,
                |_, _| {},
            )
            .unwrap_err()
    };
    let e = fetch_range(ChunkSource::Parsed(&tampered));
    assert!(is_eb_fault(&e, 1, at), "{e}");
    // Serialized, the tampered chunk carries a valid checksum: the
    // verifying parse refuses the container, and the range hook — handed
    // those bytes under the pristine bytes' index — checks the chunk it
    // parses.
    let tampered = tampered.to_bytes();
    let e = ChunkIndex::verify(&tampered).unwrap_err();
    assert!(is_eb_fault(&e, 1, at), "{e}");
    let (index, _) = ChunkIndex::verify(&bytes).unwrap();
    let e = fetch_range(ChunkSource::Verified(&index, &tampered, 0));
    assert!(is_eb_fault(&e, 1, at), "{e}");

    // The container's own `eb` flipped: every chunk mismatches, which is
    // a hard error, the same as a flipped extent.
    let mut bad = bytes.clone();
    bad[38] ^= 0x10;
    let decode = Decode::new(&bad);
    assert!(is_eb_fault(&decode.strict::<f32>().unwrap_err(), 0, body));
    assert!(matches!(
        decode.resilient::<f32>(FillPolicy::Nan),
        Err(CuszpError::MalformedArchive(f)) if f.what == "no recoverable chunks in container"
    ));
    let report = scan(&bad).unwrap();
    assert_eq!(report.n_damaged(), n_chunks);
    let rr = decode
        .range(&in_chunk_0)
        .resilient::<f32>(FillPolicy::Nan)
        .unwrap();
    assert_eq!(rr.n_damaged(), 1);
    assert!(rr.data.iter().all(|v| v.is_nan()));
}

/// A two-chunk CSZ2 archive of at most 2 KB and its CSZ2+parity twin.
fn tiny_archives(workflow: WorkflowChoice, predictor: Predictor) -> [Vec<u8>; 2] {
    let n = 64;
    let data: Vec<f32> = (0..n).map(|i| ((i / 5) as f32 * 0.7).sin() * 3.0).collect();
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(0.05),
        cap: 32,
        workflow: WorkflowMode::Force(workflow),
        predictor: PredictorMode::Force(predictor),
        ..Config::default()
    });
    let pool = WorkerPool::new(1);
    let mut arc = c
        .compress_chunked_with(&data, Dims::D1(n), 32, &pool)
        .unwrap();
    assert_eq!(arc.n_chunks(), 2);
    let plain = arc.to_bytes();
    arc.add_parity(
        ParityConfig {
            data_shards: 2,
            parity_shards: 1,
        },
        &pool,
    );
    let twin = arc.to_bytes();
    assert!(
        twin.len() <= 2048,
        "{workflow:?}/{predictor:?}: {} B",
        twin.len()
    );
    [plain, twin]
}

/// Every bit of every chunk's `eb`, of every chunk payload and of the
/// length table: a flip is a typed error (strict), a damaged or
/// `Repaired` report (resilient, scan), or decodes bit-identical to the
/// pristine archive — and whenever `scan` says clean, the resilient
/// decode *is* the pristine one.
#[test]
fn every_bit_of_chunk_eb_payload_and_length_table_is_protected() {
    // Two tiny chunks per decode: worker threads would cost more than
    // they save, ~10^5 times over.
    cuszp_parallel::set_workers(1);
    let mut flips = 0usize;
    let mut healed = 0usize;
    for workflow in [
        WorkflowChoice::Huffman,
        WorkflowChoice::Rle,
        WorkflowChoice::RleVle,
    ] {
        for predictor in [Predictor::Lorenzo, Predictor::Interpolation] {
            for bytes in tiny_archives(workflow, predictor) {
                let pristine = bits(&Decode::new(&bytes).strict::<f32>().unwrap().0);
                let ranges = chunk_ranges(&bytes);
                let mut swept: Vec<usize> = (CONTAINER_HEADER..ranges[0].0.start).collect();
                for (chunk, _) in &ranges {
                    swept.extend(chunk.start + EB.start..chunk.start + EB.end);
                    swept.extend(chunk.start + CHUNK_HEADER..chunk.end);
                }
                for &at in &swept {
                    for bit in 0..8 {
                        let mut bad = bytes.clone();
                        bad[at] ^= 1 << bit;
                        let ctx = format!("{workflow:?}/{predictor:?} byte {at} bit {bit}");
                        flips += 1;

                        match Decode::new(&bad).strict::<f32>() {
                            Err(
                                CuszpError::MalformedArchive(_)
                                | CuszpError::ChecksumMismatch { .. },
                            ) => {}
                            Err(e) => panic!("{ctx}: strict failed untyped: {e}"),
                            Ok((data, _)) => assert_eq!(bits(&data), pristine, "{ctx}: strict"),
                        }

                        let report = scan(&bad).unwrap();
                        match Decode::new(&bad).resilient::<f32>(FillPolicy::Nan) {
                            Err(e) => {
                                assert!(e.fault().is_some(), "{ctx}: resilient untyped: {e}");
                                assert!(!report.is_clean(), "{ctx}: clean scan, failed decode");
                            }
                            Ok(rf) => {
                                assert_eq!(rf.is_clean(), report.is_clean(), "{ctx}");
                                assert_eq!(rf.n_repaired(), report.n_repaired(), "{ctx}");
                                healed += usize::from(rf.n_repaired() > 0);
                                for r in &rf.reports {
                                    let got = &rf.data[r.elem_range.clone()];
                                    if r.status.is_recovered() {
                                        let want = &pristine[r.elem_range.clone()];
                                        assert_eq!(bits(got), want, "{ctx}: chunk {}", r.index);
                                    } else {
                                        assert!(got.iter().all(|v| v.is_nan()), "{ctx}: fill");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(flips > 30_000, "sweep shrank to {flips} flips");
    assert!(healed > 10_000, "parity healed only {healed} flips");
}
