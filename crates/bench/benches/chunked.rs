//! Criterion benches for the chunk-parallel engine: compress and
//! decompress a ≥64 MB field with 1/2/4/8-worker pools.
//!
//! On multi-core hardware the 4-worker rows should show the chunk-level
//! scaling (the paper's coarse-grained block parallelism); on a
//! single-CPU host all pool widths collapse to the same wall-clock —
//! the bytes, however, stay identical at every width, which
//! `determinism_guard` asserts before timing anything.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cuszp_core::{
    ChunkedArchive, Compressor, Config, ErrorBound, Predictor, PredictorMode, ReconstructEngine,
};
use cuszp_parallel::WorkerPool;
use cuszp_predictor::Dims;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation so scratch-reuse regressions in the
/// pipeline engine fail loudly instead of silently re-inflating the
/// per-chunk memory traffic the engine exists to remove.
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

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// 16 Mi elements of f32 = 64 MB.
const N: usize = 16 * 1024 * 1024;
const CHUNK_TARGET: usize = 2 * 1024 * 1024;

/// Per-chunk steady-state allocation budget. The pre-engine drivers
/// measured 18,710 allocations/chunk on this bench; the scratch-reusing
/// `PipelineEngine` brought that to ~1,534. The budget leaves headroom
/// for encoder-internal churn while still failing loudly long before a
/// regression returns to the old per-chunk re-allocation pattern.
const MAX_ALLOCS_PER_CHUNK: u64 = 2_500;

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

fn compressor() -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        ..Config::default()
    })
}

fn bench_chunked(c: &mut Criterion) {
    let data = make_field(N);
    let dims = Dims::D1(N);
    let comp = compressor();
    let bytes = (N * 4) as u64;

    // Archives must be byte-identical across pool widths before any
    // timing claims mean anything.
    let reference = comp
        .compress_chunked_with(&data, dims, CHUNK_TARGET, &WorkerPool::new(1))
        .unwrap()
        .to_bytes();
    for workers in [2usize, 4, 8] {
        let got = comp
            .compress_chunked_with(&data, dims, CHUNK_TARGET, &WorkerPool::new(workers))
            .unwrap()
            .to_bytes();
        assert_eq!(
            got, reference,
            "archive bytes diverged at {workers} workers"
        );
    }
    let n_chunks = ChunkedArchive::from_bytes(&reference).unwrap().n_chunks() as u64;
    eprintln!(
        "determinism_guard: {n_chunks} chunks, {} archive bytes, identical at 1/2/4/8 workers",
        reference.len()
    );

    // Steady-state allocation guard: one warm compress already ran above,
    // so this measures per-chunk allocation traffic with caches hot.
    let pool = WorkerPool::new(1);
    let (allocs, _) = allocs_during(|| {
        comp.compress_chunked_with(&data, dims, CHUNK_TARGET, &pool)
            .unwrap()
    });
    let per_chunk = allocs / n_chunks;
    eprintln!("alloc_guard: {allocs} allocations for {n_chunks} chunks ({per_chunk}/chunk)");
    assert!(
        per_chunk <= MAX_ALLOCS_PER_CHUNK,
        "scratch-reuse regression: {per_chunk} allocations/chunk exceeds the \
         {MAX_ALLOCS_PER_CHUNK} budget"
    );

    // Forced-interpolation guard: the interpolation stage must route
    // through the same engine arenas as Lorenzo. Before the
    // `PredictorStage` refactor it re-allocated its full working set
    // (codes, deltas, reconstruction buffer) per chunk, which this run
    // would catch as a multiple of the budget.
    let interp = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-3),
        predictor: PredictorMode::Force(Predictor::Interpolation),
        ..Config::default()
    });
    let interp_archive = interp
        .compress_chunked_with(&data, dims, CHUNK_TARGET, &pool)
        .unwrap();
    let (allocs, _) = allocs_during(|| {
        interp
            .compress_chunked_with(&data, dims, CHUNK_TARGET, &pool)
            .unwrap()
    });
    let per_chunk = allocs / n_chunks;
    eprintln!("interp_alloc_guard: {allocs} allocations for {n_chunks} chunks ({per_chunk}/chunk)");
    assert!(
        per_chunk <= MAX_ALLOCS_PER_CHUNK,
        "interpolation arena regression: {per_chunk} allocations/chunk exceeds the \
         {MAX_ALLOCS_PER_CHUNK} budget"
    );
    let _ = interp_archive
        .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
        .unwrap();
    let (allocs, _) = allocs_during(|| {
        interp_archive
            .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap()
    });
    let per_chunk = allocs / n_chunks;
    eprintln!(
        "interp_decode_alloc_guard: {allocs} allocations for {n_chunks} chunks ({per_chunk}/chunk)"
    );
    assert!(
        per_chunk <= MAX_ALLOCS_PER_CHUNK,
        "interpolation decode arena regression: {per_chunk} allocations/chunk exceeds the \
         {MAX_ALLOCS_PER_CHUNK} budget"
    );

    let mut g = c.benchmark_group("chunked");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        g.throughput(Throughput::Bytes(bytes));
        g.bench_with_input(BenchmarkId::new("compress", workers), &pool, |b, pool| {
            b.iter(|| {
                comp.compress_chunked_with(&data, dims, CHUNK_TARGET, pool)
                    .unwrap()
            });
        });
        let archive = ChunkedArchive::from_bytes(&reference).unwrap();
        g.bench_with_input(BenchmarkId::new("decompress", workers), &pool, |b, pool| {
            b.iter(|| {
                archive
                    .decompress::<f32>(ReconstructEngine::FinePartialSum, pool)
                    .unwrap()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_chunked);
criterion_main!(benches);
