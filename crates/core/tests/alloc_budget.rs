//! Steady-state allocation budget of the chunk-parallel engine: compress
//! and decompress a 64 MB field chunk by chunk and count every heap
//! allocation, so a scratch-reuse regression fails loudly instead of
//! silently re-inflating the per-chunk memory traffic the engine exists
//! to remove.
//!
//! Every case lives in the one `#[test]` below: test threads in one
//! binary share the global counter, so a second test would count the
//! first one's allocations.

use cuszp_core::{
    scalars_to_le, ChunkSource, ChunkedArchive, Compressor, Config, Dims, ErrorBound,
    PipelineEngine, Predictor, RangeSpec, ReconstructEngine,
};
use cuszp_parallel::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 16 Mi elements of f32 = 64 MB.
const N: usize = 16 * 1024 * 1024;
const CHUNK_TARGET: usize = 2 * 1024 * 1024;

/// Per-chunk steady-state allocation budget. The pre-engine drivers
/// measured 18,710 allocations/chunk on this field; the scratch-reusing
/// `PipelineEngine` brought that to ~1,534. The budget leaves headroom
/// for encoder-internal churn while still failing loudly long before a
/// regression returns to the old per-chunk re-allocation pattern.
const MAX_ALLOCS_PER_CHUNK: u64 = 2_500;

/// Allocations a whole read may make when every slab comes from the
/// cache: the output, the walk's bookkeeping and its second lane's
/// thread, a fixed few (13 on this field's 8 chunks) and none per chunk.
const MAX_ALLOCS_ALL_HITS: u64 = 32;

fn make_field(n: usize) -> Vec<f32> {
    // Smooth waves plus a mild deterministic hash ripple: compressible,
    // but not so flat that every chunk takes the RLE fast path.
    (0..n)
        .map(|i| {
            let s = (i as f32 * 7.3e-4).sin() * 12.0 + (i as f32 * 4.1e-5).cos() * 3.0;
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 52;
            s + (h as f32 / 4096.0 - 0.5) * 0.02
        })
        .collect()
}

/// Runs `f` once to warm every cache and arena, then again under the
/// counter, and asserts the counted run stays within the budget.
fn assert_per_chunk_budget<R>(what: &str, n_chunks: u64, mut f: impl FnMut() -> R) -> R {
    drop(f());
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    let per_chunk = (ALLOCS.load(Ordering::Relaxed) - before) / n_chunks;
    eprintln!("{what}: {per_chunk} allocations/chunk over {n_chunks} chunks");
    assert!(
        per_chunk <= MAX_ALLOCS_PER_CHUNK,
        "{what}: {per_chunk} allocations/chunk exceeds the {MAX_ALLOCS_PER_CHUNK} budget"
    );
    r
}

#[test]
fn chunked_compress_and_decompress_stay_within_the_allocation_budget() {
    let data = make_field(N);
    let dims = Dims::D1(N);
    let pool = WorkerPool::new(1);
    let compressor = |predictor: Predictor| {
        Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            predictor: predictor.into(),
            ..Config::default()
        })
    };
    let lorenzo = compressor(Predictor::Lorenzo);
    // The interpolation stage must route through the same engine arenas
    // as Lorenzo; before the `PredictorStage` refactor it re-allocated
    // its whole working set per chunk.
    let interp = compressor(Predictor::Interpolation);
    let n_chunks = N.div_ceil(CHUNK_TARGET) as u64;

    let compress = |c: &Compressor| {
        let archive = c
            .compress_chunked_with(&data, dims, CHUNK_TARGET, &pool)
            .unwrap();
        assert_eq!(archive.n_chunks() as u64, n_chunks);
        archive
    };
    let decompress = |a: &ChunkedArchive| {
        a.decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap()
    };

    let lorenzo_archive =
        assert_per_chunk_budget("lorenzo compress", n_chunks, || compress(&lorenzo));
    let interp_archive =
        assert_per_chunk_budget("interpolation compress", n_chunks, || compress(&interp));
    assert_per_chunk_budget("interpolation decompress", n_chunks, || {
        decompress(&interp_archive)
    });
    assert_per_chunk_budget("lorenzo decompress", n_chunks, || {
        decompress(&lorenzo_archive)
    });
    // Lanes a caller keeps (a server's engines) are warm from the first
    // call: the second stays within the budget, in the same bytes.
    let mut lanes: Vec<PipelineEngine> = (0..2).map(|_| PipelineEngine::new()).collect();
    assert_per_chunk_budget("lorenzo compress on reused lanes", n_chunks, || {
        let (archive, _) = lorenzo
            .compress_chunked_on_lanes(&data, dims, CHUNK_TARGET, &mut lanes)
            .unwrap();
        assert!(archive == lorenzo_archive);
    });

    // The strict range read walks the same lanes: a whole-span read on
    // the two reused lanes stays within the budget and reads what the
    // decompress reads.
    let fine = ReconstructEngine::FinePartialSum;
    let whole = RangeSpec::parse(&format!("0:{N}")).unwrap();
    let source = ChunkSource::Parsed(&lorenzo_archive);
    let (full, _) = decompress(&lorenzo_archive);
    assert_per_chunk_budget("lorenzo range read on reused lanes", n_chunks, || {
        let (got, _) = source
            .decompress_range::<f32>(fine, &whole, &mut lanes, |_| None, |_, _| {})
            .unwrap();
        assert!(got == full);
    });
    // A read whose every slab hits gathers and never decodes.
    let slabs: Vec<Arc<Vec<u8>>> = full
        .chunks(CHUNK_TARGET)
        .map(|slab| Arc::new(scalars_to_le(slab)))
        .collect();
    assert_eq!(slabs.len() as u64, n_chunks);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (got, _) = source
        .decompress_range::<f32>(
            fine,
            &whole,
            &mut lanes,
            |i| Some(slabs[i].clone()),
            |i, _| panic!("chunk {i} decoded although its slab was cached"),
        )
        .unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!("all-hit range read: {allocs} allocations over {n_chunks} chunks");
    assert!(
        allocs <= MAX_ALLOCS_ALL_HITS,
        "an all-hit read made {allocs} allocations, over {MAX_ALLOCS_ALL_HITS}"
    );
    assert!(got == full);
}
