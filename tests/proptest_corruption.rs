//! Property-based corruption tests: arbitrary bytes and mutated valid
//! archives through every untrusted-input entry point. The properties
//! are the recovery contract's hard floor — no input may panic, and
//! memory stays proportional to the input (length fields are
//! bounds-checked against the buffer before any allocation).

use cuszp::{scan, Compressor, Config, Decode, Dims, ErrorBound, FillPolicy};
use proptest::prelude::*;

fn v1_archive() -> Vec<u8> {
    let data: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.01).sin() * 2.0).collect();
    Compressor::default()
        .compress(&data, Dims::D1(3000))
        .unwrap()
        .to_bytes()
}

fn chunked_archive() -> Vec<u8> {
    let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.02).cos()).collect();
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        ..Config::default()
    });
    c.compress_chunked_with(
        &data,
        Dims::D1(5000),
        1500,
        &cuszp::parallel::WorkerPool::with_default_workers(),
    )
    .unwrap()
    .to_bytes()
}

/// Every untrusted-input entry point on one buffer; asserts the shared
/// sanity property on anything that parses.
fn exercise_all_entry_points(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((data, dims)) = cuszp::decompress(bytes) {
        prop_assert_eq!(data.len(), dims.len());
    }
    if let Ok(rf) = Decode::new(bytes).resilient::<f32>(FillPolicy::Nan) {
        prop_assert_eq!(rf.data.len(), rf.dims.len());
        // Report lists are paid for by the input, never by a header claim.
        prop_assert!(rf.reports.len() <= bytes.len() / 8 + 8);
    }
    if let Ok(report) = scan(bytes) {
        prop_assert!(report.reports.len() <= bytes.len() / 8 + 8);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        exercise_all_entry_points(&bytes)?;
    }

    #[test]
    fn arbitrary_bytes_with_v1_magic_never_panic(
        tail in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut bytes = 0x2B5A_5343u32.to_le_bytes().to_vec();
        bytes.extend(tail);
        exercise_all_entry_points(&bytes)?;
    }

    #[test]
    fn arbitrary_bytes_with_chunked_magic_never_panic(
        tail in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut bytes = 0x325A_5343u32.to_le_bytes().to_vec();
        bytes.extend(tail);
        exercise_all_entry_points(&bytes)?;
    }

    #[test]
    fn mutated_v1_archives_never_panic(
        mutations in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8),
        cut in any::<u64>(),
    ) {
        let mut bytes = v1_archive();
        for (pos, val) in &mutations {
            let pos = (*pos % bytes.len() as u64) as usize;
            bytes[pos] = *val;
        }
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        bytes.truncate(cut);
        exercise_all_entry_points(&bytes)?;
    }

    #[test]
    fn mutated_chunked_archives_never_panic(
        mutations in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8),
        cut in any::<u64>(),
    ) {
        let mut bytes = chunked_archive();
        for (pos, val) in &mutations {
            let pos = (*pos % bytes.len() as u64) as usize;
            bytes[pos] = *val;
        }
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        bytes.truncate(cut);
        exercise_all_entry_points(&bytes)?;
    }
}
