//! Range-read battery: `decompress_range` must return exactly the bytes
//! a full decompress would have produced for the same slice — bit-equal,
//! at any worker count, for any in-bounds range over any rank — and must
//! reject bad specs with typed errors instead of panicking.

use cuszp_core::{
    decompress_range, scalars_to_le, slice_field, ChunkIndex, ChunkSource, ChunkStatus, Compressor,
    Config, CuszpError, Decode, Dims, Element, ErrorBound, FillPolicy, PipelineEngine, RangeSpec,
    ReconstructEngine,
};
use cuszp_parallel::WorkerPool;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Small enough that the test shapes split into several chunks.
const CHUNK_TARGET: usize = 1_000;

fn field_f32(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let s = (i as f32 * 0.0031).sin() * 7.0;
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 50;
            s + h as f32 * 0.01
        })
        .collect()
}

fn field_f64(n: usize) -> Vec<f64> {
    field_f32(n).into_iter().map(f64::from).collect()
}

fn compressor() -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    })
}

/// The shapes the property sweeps: every rank, chunk counts > 1.
fn shapes() -> Vec<Dims> {
    vec![
        Dims::D1(6_000),
        Dims::D2 { ny: 60, nx: 100 },
        Dims::D3 {
            nz: 8,
            ny: 25,
            nx: 30,
        },
    ]
}

/// Derives a non-empty in-bounds interval over `extent` from one seed.
fn axis_range(seed: u64, extent: usize) -> std::ops::Range<usize> {
    let start = (seed % extent as u64) as usize;
    let len = 1 + ((seed >> 32) % (extent - start) as u64) as usize;
    start..start + len
}

/// A random in-bounds spec for `dims` (rank order, slowest first).
fn spec_for(dims: Dims, seeds: &[u64]) -> RangeSpec {
    let rank = dims.rank();
    let extents = &dims.extents()[3 - rank..];
    RangeSpec::new(
        extents
            .iter()
            .zip(seeds)
            .map(|(&e, &s)| axis_range(s, e))
            .collect(),
    )
}

fn bits_f32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits_f64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The acceptance criterion: arbitrary in-bounds ranges bit-equal the
    // same slice of a full decompress, at 1/2/8 workers, for f32.
    #[test]
    fn range_bit_equals_full_slice_f32(
        shape_idx in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 3),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let dims = shapes()[shape_idx];
        let spec = spec_for(dims, &seeds);
        let pool = WorkerPool::new(workers);
        let arc = compressor()
            .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
            .unwrap();
        let (full, _) = arc
            .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
        let (got, got_dims) = arc
            .decompress_range::<f32>(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        prop_assert_eq!(got_dims, want_dims);
        prop_assert_eq!(
            bits_f32(&got), bits_f32(&want),
            "range {} over {:?} at {} workers diverged", spec, dims, workers
        );
    }

    // Same property for f64 archives.
    #[test]
    fn range_bit_equals_full_slice_f64(
        shape_idx in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 3),
        workers in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let dims = shapes()[shape_idx];
        let spec = spec_for(dims, &seeds);
        let pool = WorkerPool::new(workers);
        let arc = compressor()
            .compress_chunked_with(&field_f64(dims.len()), dims, CHUNK_TARGET, &pool)
            .unwrap();
        let (full, _) = arc
            .decompress::<f64>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
        let (got, got_dims) = arc
            .decompress_range::<f64>(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        prop_assert_eq!(got_dims, want_dims);
        prop_assert_eq!(
            bits_f64(&got), bits_f64(&want),
            "range {} over {:?} at {} workers diverged", spec, dims, workers
        );
    }

    // The serialized-bytes entry point (what the CLI and server use)
    // agrees with the in-memory method, and the resilient variant over a
    // clean archive returns the same bytes with all-Ok reports confined
    // to the intersecting chunks.
    #[test]
    fn byte_level_and_resilient_paths_agree(
        shape_idx in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 3),
    ) {
        let dims = shapes()[shape_idx];
        let spec = spec_for(dims, &seeds);
        let pool = WorkerPool::new(2);
        let arc = compressor()
            .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
            .unwrap();
        let bytes = arc.to_bytes();
        let (want, want_dims) = arc
            .decompress_range::<f32>(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        let (got, got_dims) = decompress_range(&bytes, &spec).unwrap();
        prop_assert_eq!(got_dims, want_dims);
        prop_assert_eq!(bits_f32(&got), bits_f32(&want));
        let rf = Decode::new(&bytes)
            .range(&spec)
            .resilient::<f32>(FillPolicy::Nan).unwrap();
        prop_assert_eq!(rf.dims, want_dims);
        prop_assert_eq!(bits_f32(&rf.data), bits_f32(&want));
        prop_assert!(!rf.reports.is_empty());
        prop_assert!(rf.reports.iter().all(|r| r.status == ChunkStatus::Ok));
        prop_assert!(rf.reports.len() <= arc.n_chunks());
    }
}

#[test]
fn edge_ranges_single_element_full_field_and_chunk_straddling() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let pool = WorkerPool::new(2);
    let data = field_f32(dims.len());
    let arc = compressor()
        .compress_chunked_with(&data, dims, CHUNK_TARGET, &pool)
        .unwrap();
    assert!(arc.n_chunks() > 2, "fixture must split into several chunks");
    let (full, _) = arc
        .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
        .unwrap();
    // CHUNK_TARGET=1000 over nx=100 gives 10-row slabs: row ranges below
    // straddle the first chunk boundary.
    for spec in [
        RangeSpec::new(vec![17..18, 42..43]),  // single element
        RangeSpec::new(vec![0..60, 0..100]),   // full field
        RangeSpec::new(vec![9..11, 0..100]),   // straddles chunks 0|1
        RangeSpec::new(vec![8..31, 97..100]),  // spans three chunks
        RangeSpec::new(vec![0..1, 0..1]),      // first element
        RangeSpec::new(vec![59..60, 99..100]), // last element
    ] {
        let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
        let (got, got_dims) = arc
            .decompress_range::<f32>(ReconstructEngine::FinePartialSum, &spec, &pool)
            .unwrap();
        assert_eq!(got_dims, want_dims, "{spec}");
        assert_eq!(bits_f32(&got), bits_f32(&want), "{spec}");
    }
}

#[test]
fn bad_specs_are_typed_errors_not_panics() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let pool = WorkerPool::new(1);
    let arc = compressor()
        .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
        .unwrap();
    let bytes = arc.to_bytes();
    let bad = [
        #[allow(clippy::single_range_in_vec_init)]
        RangeSpec::new(vec![0..60]), // wrong rank (too few)
        RangeSpec::new(vec![0..60, 0..100, 0..1]), // wrong rank (too many)
        RangeSpec::new(vec![10..10, 0..100]),      // empty axis
        #[allow(clippy::reversed_empty_ranges)]
        RangeSpec::new(vec![20..10, 0..100]), // inverted axis
        RangeSpec::new(vec![0..61, 0..100]),       // slow end out of bounds
        RangeSpec::new(vec![0..60, 0..101]),       // fast end out of bounds
        RangeSpec::new(vec![0..60, 100..101]),     // start at extent
    ];
    for spec in &bad {
        assert!(
            matches!(
                arc.decompress_range::<f32>(ReconstructEngine::FinePartialSum, spec, &pool),
                Err(CuszpError::InvalidRange { .. })
            ),
            "method path accepted {spec}"
        );
        assert!(
            matches!(
                decompress_range(&bytes, spec),
                Err(CuszpError::InvalidRange { .. })
            ),
            "bytes path accepted {spec}"
        );
        assert!(
            matches!(
                Decode::new(&bytes)
                    .range(spec)
                    .resilient::<f32>(FillPolicy::Nan),
                Err(CuszpError::InvalidRange { .. })
            ),
            "resilient path accepted {spec}"
        );
    }
    // Wrong dtype is the usual typed mismatch, not a range error.
    assert!(matches!(
        arc.decompress_range::<f64>(
            ReconstructEngine::FinePartialSum,
            &RangeSpec::new(vec![0..1, 0..1]),
            &pool
        ),
        Err(CuszpError::DtypeMismatch { .. })
    ));
}

/// Satellite: degenerate chunk-geometry corners through the range path —
/// any dim == 1, single-chunk fields, and fields smaller than one slab.
#[test]
fn degenerate_dims_round_trip_through_the_range_path() {
    let pool = WorkerPool::new(2);
    let cases: Vec<(Dims, usize)> = vec![
        (Dims::D1(1), CHUNK_TARGET),                 // single element field
        (Dims::D1(7), CHUNK_TARGET),                 // smaller than one slab
        (Dims::D2 { ny: 1, nx: 500 }, CHUNK_TARGET), // slow dim == 1
        (Dims::D2 { ny: 500, nx: 1 }, 100),          // fast dim == 1
        (
            Dims::D3 {
                nz: 1,
                ny: 20,
                nx: 30,
            },
            100,
        ), // single slab in 3-D
        (
            Dims::D3 {
                nz: 12,
                ny: 1,
                nx: 40,
            },
            100,
        ), // middle dim == 1
        (
            Dims::D3 {
                nz: 12,
                ny: 40,
                nx: 1,
            },
            100,
        ), // fast dim == 1
        (Dims::D2 { ny: 60, nx: 100 }, usize::MAX),  // single-chunk field
    ];
    for (dims, target) in cases {
        let data = field_f32(dims.len());
        let arc = compressor()
            .compress_chunked_with(&data, dims, target, &pool)
            .unwrap();
        let (full, _) = arc
            .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        let rank = dims.rank();
        let extents = &dims.extents()[3 - rank..];
        // Full-field range plus a mid sub-range on every axis that has
        // room for one.
        let full_spec = RangeSpec::new(extents.iter().map(|&e| 0..e).collect());
        let mid_spec = RangeSpec::new(
            extents
                .iter()
                .map(|&e| if e > 2 { 1..e - 1 } else { 0..e })
                .collect(),
        );
        for spec in [full_spec, mid_spec] {
            let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
            let (got, got_dims) = arc
                .decompress_range::<f32>(ReconstructEngine::FinePartialSum, &spec, &pool)
                .unwrap();
            assert_eq!(got_dims, want_dims, "{dims:?} target {target} {spec}");
            assert_eq!(
                bits_f32(&got),
                bits_f32(&want),
                "{dims:?} target {target} {spec}"
            );
        }
    }
}

#[test]
fn v1_archives_serve_ranges_via_full_decode() {
    let dims = Dims::D3 {
        nz: 6,
        ny: 10,
        nx: 20,
    };
    let data = field_f32(dims.len());
    let archive = compressor().compress(&data, dims).unwrap();
    let bytes = archive.to_bytes();
    let (full, _) = cuszp_core::decompress(&bytes).unwrap();
    let spec = RangeSpec::new(vec![1..5, 2..9, 5..15]);
    let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
    let (got, got_dims) = decompress_range(&bytes, &spec).unwrap();
    assert_eq!(got_dims, want_dims);
    assert_eq!(bits_f32(&got), bits_f32(&want));
    // f64 flavor too.
    let arc64 = compressor().compress(&field_f64(dims.len()), dims).unwrap();
    let bytes64 = arc64.to_bytes();
    let (full64, _) = Decode::new(&bytes64).strict::<f64>().unwrap();
    let (want64, _) = slice_field(&full64, dims, &spec).unwrap();
    let (got64, _) = Decode::new(&bytes64).range(&spec).strict::<f64>().unwrap();
    assert_eq!(bits_f64(&got64), bits_f64(&want64));
}

/// A report's element range is the slice of the *field* its chunk
/// covers, for a range read as for a whole one: a v1 archive's one chunk
/// covers the whole field, not the sub-volume that was asked for.
#[test]
fn a_v1_range_report_covers_the_whole_field() {
    let dims = Dims::D2 { ny: 30, nx: 40 };
    let bytes = compressor()
        .compress(&field_f32(dims.len()), dims)
        .unwrap()
        .to_bytes();
    let spec = RangeSpec::new(vec![3..9, 5..15]);
    let rf = Decode::new(&bytes)
        .range(&spec)
        .resilient::<f32>(FillPolicy::Nan)
        .unwrap();
    assert_eq!(rf.dims, Dims::D2 { ny: 6, nx: 10 });
    assert_eq!(rf.reports.len(), 1);
    assert_eq!(rf.reports[0].elem_range, 0..dims.len());
    assert_eq!(rf.reports[0].byte_range, Some(0..bytes.len()));
}

/// A slab cache behind the range read's hooks, counting every fetch
/// and every store.
#[derive(Default)]
struct Slabs {
    held: Mutex<HashMap<usize, Arc<Vec<u8>>>>,
    fetches: AtomicUsize,
    stores: AtomicUsize,
}

impl Slabs {
    fn read<T: Element>(
        &self,
        source: ChunkSource,
        spec: &RangeSpec,
        lanes: &mut [PipelineEngine],
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        source.decompress_range(
            ReconstructEngine::FinePartialSum,
            spec,
            lanes,
            |i| {
                self.fetches.fetch_add(1, Ordering::Relaxed);
                self.held.lock().unwrap().get(&i).cloned()
            },
            |i, slab: &[T]| {
                self.stores.fetch_add(1, Ordering::Relaxed);
                let slab = Arc::new(scalars_to_le(slab));
                self.held.lock().unwrap().insert(i, slab);
            },
        )
    }

    fn counts(&self) -> (usize, usize) {
        (
            self.fetches.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
        )
    }
}

fn lanes(n: usize) -> Vec<PipelineEngine> {
    (0..n).map(|_| PipelineEngine::new()).collect()
}

/// The serving-tier hook: a fetch/store pair acting as a slab cache must
/// see one store per intersecting chunk on a cold read, zero decodes on
/// a warm read, and identical bytes both times.
#[test]
fn fetch_hook_skips_decoding_on_warm_reads() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let pool = WorkerPool::new(1);
    let arc = compressor()
        .compress_chunked_with(&field_f32(dims.len()), dims, CHUNK_TARGET, &pool)
        .unwrap();
    let bytes = arc.to_bytes();
    let (index, parsed) = ChunkIndex::verify(&bytes).unwrap();
    let spec = RangeSpec::new(vec![5..25, 10..90]);
    let cache = Slabs::default();
    let eng = &mut lanes(1);

    // The first read decodes from the verifying parse's chunks, as a
    // server's first read of an archive does; later ones from the bytes.
    let cold_source = ChunkSource::Parsed(&parsed);
    let warm_source = ChunkSource::Verified(&index, &bytes, 0);

    let (cold, cold_dims) = cache.read::<f32>(cold_source, &spec, eng).unwrap();
    let (_, cold_stores) = cache.counts();
    assert!(cold_stores >= 2, "range must span several chunks");
    let (warm, warm_dims) = cache.read::<f32>(warm_source, &spec, eng).unwrap();
    assert_eq!(
        cache.counts().1,
        cold_stores,
        "warm read must not decode anything"
    );
    assert_eq!(cold_dims, warm_dims);
    assert_eq!(bits_f32(&cold), bits_f32(&warm));
    // And both agree with the uncached path.
    let (want, _) = arc
        .decompress_range::<f32>(ReconstructEngine::FinePartialSum, &spec, &pool)
        .unwrap();
    assert_eq!(bits_f32(&cold), bits_f32(&want));
    // A cached slab of the wrong length is ignored, not trusted.
    {
        let mut held = cache.held.lock().unwrap();
        let poisoned_key = *held.keys().next().unwrap();
        held.insert(poisoned_key, Arc::new(vec![0; 12]));
    }
    let (healed, _) = cache.read::<f32>(warm_source, &spec, eng).unwrap();
    assert_eq!(bits_f32(&healed), bits_f32(&want));
    assert_eq!(
        cache.counts().1,
        cold_stores + 1,
        "bad entry must be re-decoded"
    );
}

fn read_range(source: ChunkSource, spec: &RangeSpec) -> Result<(Vec<f32>, Dims), CuszpError> {
    source.decompress_range(
        ReconstructEngine::FinePartialSum,
        spec,
        &mut lanes(1),
        |_| None,
        |_, _| {},
    )
}

/// The one walk is width-independent: on 1, 2 and 5 lanes (5 is more
/// than the box's chunks), a whole-field strict decode, a strict range
/// read with no-op hooks and one with half its slabs cached read exactly
/// what `slice_field` cuts out of the full decode, and so does the
/// resilient read. Fetch runs once per chunk of the span, store once
/// per slab it did not hold.
#[test]
fn the_one_walk_reads_the_same_bits_on_any_number_of_lanes() {
    lane_sweep(&field_f32(6_000));
    lane_sweep(&field_f64(6_000));
}

fn lane_sweep<T: Element>(data: &[T]) {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let bytes = compressor()
        .compress_chunked_with(data, dims, CHUNK_TARGET, &WorkerPool::new(2))
        .unwrap()
        .to_bytes();
    let (index, parsed) = ChunkIndex::verify(&bytes).unwrap();
    // 10-row slabs of 1 000 elements: rows 5..35 are chunks 0..4.
    assert_eq!(index.n_chunks(), 6);
    let span = 0..4;
    let slab = |full: &[T], i: usize| Arc::new(scalars_to_le(&full[i * 1_000..(i + 1) * 1_000]));
    let (full, _) = Decode::new(&bytes).strict::<T>().unwrap();
    let spec = RangeSpec::new(vec![5..35, 10..90]);
    let (want, want_dims) = slice_field(&full, dims, &spec).unwrap();
    let want = scalars_to_le(&want);
    for n in [1, 2, 5] {
        let lanes = &mut lanes(n);
        let (whole, _) = Decode::new(&bytes).strict_on::<T>(lanes).unwrap();
        assert_eq!(scalars_to_le(&whole), scalars_to_le(&full), "{n} lanes");
        let sources = [
            ChunkSource::Parsed(&parsed),
            ChunkSource::Verified(&index, &bytes, 0),
        ];
        for source in sources {
            let (got, got_dims) = source
                .decompress_range::<T>(
                    ReconstructEngine::FinePartialSum,
                    &spec,
                    lanes,
                    |_| None,
                    |_, _| {},
                )
                .unwrap();
            assert_eq!(got_dims, want_dims);
            assert_eq!(scalars_to_le(&got), want, "{n} lanes, no-op hooks");
            let cache = Slabs::default();
            for i in span.clone().step_by(2) {
                cache.held.lock().unwrap().insert(i, slab(&full, i));
            }
            let (got, _) = cache.read::<T>(source, &spec, lanes).unwrap();
            assert_eq!(scalars_to_le(&got), want, "{n} lanes, half cached");
            assert_eq!(cache.counts(), (span.len(), span.len() / 2), "{n} lanes");
            let held = cache.held.lock().unwrap();
            assert!(span.clone().all(|i| *held[&i] == *slab(&full, i)));
        }
    }
    let rf = Decode::new(&bytes)
        .range(&spec)
        .resilient::<T>(FillPolicy::Nan)
        .unwrap();
    assert_eq!(rf.dims, want_dims);
    assert_eq!(scalars_to_le(&rf.data), want);
}

/// The fetch hook decodes with its inner loops serial from any thread: a
/// caller's own thread reads the same bits as a pool job, and keeps its
/// own setting afterwards.
#[test]
fn fetch_hook_decodes_the_same_bits_inside_and_outside_a_pool_job() {
    let dims = Dims::D2 { ny: 256, nx: 512 };
    let pool = WorkerPool::new(2);
    let arc = compressor()
        .compress_chunked_with(&field_f32(dims.len()), dims, 64 * 512, &pool)
        .unwrap();
    let bytes = arc.to_bytes();
    let (index, parsed) = ChunkIndex::verify(&bytes).unwrap();
    let spec = RangeSpec::new(vec![50..140, 3..500]);
    let sources = [
        ChunkSource::Parsed(&parsed),
        ChunkSource::Verified(&index, &bytes, 0),
    ];
    assert!(!cuszp_parallel::inner_parallelism_disabled());
    let outside: Vec<_> = sources
        .iter()
        .map(|&s| read_range(s, &spec).unwrap())
        .collect();
    assert!(!cuszp_parallel::inner_parallelism_disabled());
    let inside = pool.run_with_state(2, || (), |i, _| read_range(sources[i], &spec).unwrap());
    let (want, want_dims) = arc
        .decompress_range::<f32>(ReconstructEngine::FinePartialSum, &spec, &pool)
        .unwrap();
    for (got, dims) in outside.iter().chain(&inside) {
        assert_eq!(*dims, want_dims);
        assert_eq!(bits_f32(got), bits_f32(&want));
    }
}

/// A `Verified` source may hold only a window of the container at its
/// offset — the chunks a box touches, as `span_bytes` names them. It
/// reads the same bits as the whole container; a chunk the window lacks
/// is a typed "chunk truncated".
#[test]
fn a_verified_window_reads_like_the_whole_container() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let arc = compressor()
        .compress_chunked_with(
            &field_f32(dims.len()),
            dims,
            CHUNK_TARGET,
            &WorkerPool::new(1),
        )
        .unwrap();
    let bytes = arc.to_bytes();
    let (index, _) = ChunkIndex::verify(&bytes).unwrap();
    let n = index.n_chunks();
    assert!(n > 3);
    for i in 1..n {
        assert_eq!(
            index.chunk_range(i - 1).unwrap().end,
            index.chunk_range(i).unwrap().start
        );
    }
    assert_eq!(index.chunk_range(n - 1).unwrap().end, bytes.len());
    assert_eq!(index.chunk_range(n), None);
    for axes in [vec![5..25, 10..90], vec![0..60, 0..100], vec![33..34, 0..1]] {
        let spec = RangeSpec::new(axes);
        let span = index.span_bytes(&spec).unwrap();
        let whole = read_range(ChunkSource::Verified(&index, &bytes, 0), &spec).unwrap();
        let window = ChunkSource::Verified(&index, &bytes[span.clone()], span.start);
        let window = read_range(window, &spec).unwrap();
        assert_eq!(whole.1, window.1);
        assert_eq!(bits_f32(&whole.0), bits_f32(&window.0), "{spec}");
    }
    let spec = RangeSpec::new(vec![5..25, 10..90]);
    let span = index.span_bytes(&spec).unwrap();
    let truncated = |e: CuszpError| matches!(e, CuszpError::MalformedArchive(ref f) if f.what == "chunk truncated");
    let late = ChunkSource::Verified(&index, &bytes[span.start + 1..span.end], span.start + 1);
    assert!(truncated(read_range(late, &spec).unwrap_err()));
    let short = ChunkSource::Verified(&index, &bytes[span.start..span.end - 1], span.start);
    assert!(truncated(read_range(short, &spec).unwrap_err()));
    assert!(matches!(
        index.span_bytes(&RangeSpec::new(vec![0..61, 0..100])),
        Err(CuszpError::InvalidRange { .. })
    ));
}

/// `ChunkSource::decompress_range` fans a box of several chunks out over
/// its lanes, and runs a one-chunk box or a v1 archive on the first:
/// every way reads the bits the one-lane decode reads, from the parsed
/// container or from a window of its bytes.
#[test]
fn a_pooled_source_decode_reads_the_serial_bits() {
    let dims = Dims::D2 { ny: 60, nx: 100 };
    let data = field_f32(dims.len());
    let chunked = compressor()
        .compress_chunked_with(&data, dims, CHUNK_TARGET, &WorkerPool::new(1))
        .unwrap()
        .to_bytes();
    let v1 = compressor().compress(&data, dims).unwrap().to_bytes();
    for bytes in [&chunked, &v1] {
        let (index, parsed) = ChunkIndex::verify(bytes).unwrap();
        for axes in [vec![5..25, 10..90], vec![0..60, 0..100], vec![33..34, 0..1]] {
            let spec = RangeSpec::new(axes);
            let span = index.span_bytes(&spec).unwrap();
            let (want, want_dims) = read_range(ChunkSource::Parsed(&parsed), &spec).unwrap();
            let sources = [
                ChunkSource::Parsed(&parsed),
                ChunkSource::Verified(&index, &bytes[span.clone()], span.start),
            ];
            for (source, n) in sources.into_iter().zip([2, 1]) {
                let (got, got_dims) = source
                    .decompress_range::<f32>(
                        ReconstructEngine::FinePartialSum,
                        &spec,
                        &mut lanes(n),
                        |_| None,
                        |_, _| {},
                    )
                    .unwrap();
                assert_eq!(got_dims, want_dims);
                assert_eq!(bits_f32(&got), bits_f32(&want), "{spec}");
            }
        }
        let wrong = ChunkSource::Parsed(&parsed).decompress_range::<f64>(
            ReconstructEngine::FinePartialSum,
            &RangeSpec::new(vec![0..1, 0..1]),
            &mut lanes(2),
            |_| None,
            |_, _| {},
        );
        assert!(matches!(wrong, Err(CuszpError::DtypeMismatch { .. })));
    }
}
