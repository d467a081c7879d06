//! Lorenzo reconstruction (decompression side): the three engines compared
//! in the paper.
//!
//! * [`ReconstructEngine::CoarseSerial`] — cuSZ's scheme: tiles are
//!   processed independently, but *inside* a tile each element waits for
//!   its reconstructed neighbors (`d = δ + ℓ(reconstructed)`), a branchy,
//!   data-dependent loop.
//! * [`ReconstructEngine::FinePartialSumNaive`] — cuSZ+'s key identity,
//!   proof-of-concept version: reconstruction = N-dimensional inclusive
//!   partial-sum of `q' = q + outlier − r`, computed as N 1-D scan passes.
//!   The y/z passes walk columns/pencils (strided access), mirroring the
//!   "1 item : 1 thread, shared-memory only" naïve GPU kernel.
//! * [`ReconstructEngine::FinePartialSum`] — the optimized kernel: the
//!   y-pass adds whole rows at a time and the z-pass whole planes at a
//!   time (unit-stride, vectorizable), the CPU analog of the paper's
//!   register/warp-shuffle + sequentiality-8 tuning.
//!
//! All engines run on the fused buffer produced by
//! [`fuse_codes_and_outliers`], so the outlier branch of cuSZ
//! ("hit placeholder → look aside") is gone — exactly the modified
//! quantization scheme of §IV-B.1.

use crate::{dequantize, scatter_outliers, Dims, QuantField, Scalar};

/// Selects which reconstruction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReconstructEngine {
    /// cuSZ-style: parallel over tiles, serial data-dependent loop inside.
    CoarseSerial,
    /// Partial-sum identity, naive column-walking passes.
    FinePartialSumNaive,
    /// Partial-sum identity, row/plane-vectorized passes (cuSZ+).
    FinePartialSum,
}

impl ReconstructEngine {
    /// All engines, for exhaustive testing.
    pub const ALL: [ReconstructEngine; 3] = [
        ReconstructEngine::CoarseSerial,
        ReconstructEngine::FinePartialSumNaive,
        ReconstructEngine::FinePartialSum,
    ];

    /// Short display name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReconstructEngine::CoarseSerial => "coarse(cuSZ)",
            ReconstructEngine::FinePartialSumNaive => "naive",
            ReconstructEngine::FinePartialSum => "optimized(cuSZ+)",
        }
    }
}

/// Builds the fused `q' = code − r (+ outlier)` buffer: the branch-free
/// starting point of cuSZ+ decompression.
pub fn fuse_codes_and_outliers(qf: &QuantField) -> Vec<i64> {
    let mut q = Vec::new();
    fuse_codes_and_outliers_into(&qf.codes, &qf.outliers, qf.radius, &mut q);
    q
}

/// [`fuse_codes_and_outliers`] over bare slices, writing into a
/// caller-owned buffer (resized to the field length): the decode-side
/// scratch hook for the pipeline engine, so per-chunk decompression fuses
/// decoded codes straight from one arena into another without a
/// [`QuantField`] round-trip.
pub fn fuse_codes_and_outliers_into(
    codes: &[u16],
    outliers: &crate::OutlierList,
    radius: u16,
    q: &mut Vec<i64>,
) {
    let r = radius as i64;
    // One pass over the arena, fresh or reused: no zero-fill to overwrite.
    // The pass is bound by the 8 bytes stored per element, not by the
    // subtraction, so it is not split across workers.
    q.clear();
    q.extend(codes.iter().map(|&c| c as i64 - r));
    scatter_outliers(q, outliers);
}

/// Reconstructs the prequantized integer field from a [`QuantField`].
pub fn reconstruct_prequant(qf: &QuantField, engine: ReconstructEngine) -> Vec<i64> {
    let mut q = fuse_codes_and_outliers(qf);
    reconstruct_in_place(&mut q, qf.dims, engine);
    q
}

/// Full decompression: reconstruct integers, then dequantize.
/// Generic over `f32`/`f64` output.
pub fn reconstruct<T: Scalar>(qf: &QuantField, engine: ReconstructEngine) -> Vec<T> {
    let dq = reconstruct_prequant(qf, engine);
    dequantize(&dq, qf.eb)
}

/// Full decompression into a caller-provided buffer — the chunk-aware
/// entry point: `out` is typically a slab of a larger field's buffer, so
/// chunked decompression lands each slab at its offset without a copy.
///
/// Panics if `out.len() != qf.dims.len()`.
pub fn reconstruct_into<T: Scalar>(qf: &QuantField, engine: ReconstructEngine, out: &mut [T]) {
    assert_eq!(
        out.len(),
        qf.dims.len(),
        "output slab length must match dims"
    );
    let dq = reconstruct_prequant(qf, engine);
    crate::dequantize_into(&dq, qf.eb, out);
}

/// Core dispatch: turns a fused `q'` buffer into reconstructed
/// prequantized values, in place.
pub fn reconstruct_in_place(q: &mut [i64], dims: Dims, engine: ReconstructEngine) {
    assert_eq!(q.len(), dims.len(), "buffer length must match dims");
    match (dims, engine) {
        (Dims::D1(_), ReconstructEngine::CoarseSerial) => coarse_1d(q, dims),
        (Dims::D1(_), _) => fine_1d(q, dims),
        (Dims::D2 { .. }, ReconstructEngine::CoarseSerial) => coarse_2d(q, dims),
        (Dims::D2 { .. }, ReconstructEngine::FinePartialSumNaive) => fine_2d(q, dims, false),
        (Dims::D2 { .. }, ReconstructEngine::FinePartialSum) => fine_2d(q, dims, true),
        (Dims::D3 { .. }, ReconstructEngine::CoarseSerial) => coarse_3d(q, dims),
        (Dims::D3 { .. }, ReconstructEngine::FinePartialSumNaive) => fine_3d(q, dims, false),
        (Dims::D3 { .. }, ReconstructEngine::FinePartialSum) => fine_3d(q, dims, true),
    }
}

// ---------------------------------------------------------------- 1-D ----

fn coarse_1d(q: &mut [i64], dims: Dims) {
    let [_, _, tx] = dims.tile();
    cuszp_parallel::par_chunks_mut(q, tx, |_ci, tile| {
        let mut prev = 0i64;
        for x in tile.iter_mut() {
            // d = δ + p, with p = previous reconstructed value.
            *x += prev;
            prev = *x;
        }
    });
}

fn fine_1d(q: &mut [i64], dims: Dims) {
    let [_, _, tx] = dims.tile();
    // An in-tile inclusive scan; identical math to coarse_1d but expressed
    // as the scan primitive (and trivially SIMD-friendly: no branch on the
    // outlier placeholder remains after fusing).
    cuszp_parallel::par_chunks_mut(q, tx, |_ci, tile| {
        cuszp_parallel::scan_inclusive_serial(tile, |a, b| a + b);
    });
}

// ---------------------------------------------------------------- 2-D ----

fn coarse_2d(q: &mut [i64], dims: Dims) {
    let Dims::D2 { nx, .. } = dims else {
        unreachable!()
    };
    let [_, ty, tx] = dims.tile();
    let band = ty * nx;
    cuszp_parallel::par_chunks_mut(q, band, |_bi, rows| {
        let nrows = rows.len() / nx;
        for j in 0..nrows {
            for i in 0..nx {
                let up = j % ty != 0;
                let left = i % tx != 0;
                let idx = j * nx + i;
                let mut p = 0i64;
                if up {
                    p += rows[idx - nx];
                }
                if left {
                    p += rows[idx - 1];
                }
                if up && left {
                    p -= rows[idx - nx - 1];
                }
                rows[idx] += p;
            }
        }
    });
}

fn fine_2d(q: &mut [i64], dims: Dims, optimized: bool) {
    let Dims::D2 { nx, .. } = dims else {
        unreachable!()
    };
    let [_, ty, tx] = dims.tile();
    let band = ty * nx;
    cuszp_parallel::par_chunks_mut(q, band, |_bi, rows| {
        let nrows = rows.len() / nx;
        // Pass 1: inclusive scan along x, restarting at tile boundaries.
        for j in 0..nrows {
            segmented_xscan(&mut rows[j * nx..(j + 1) * nx], tx);
        }
        // Pass 2: inclusive scan along y within the band (bands are tile-
        // aligned, so local row 0 is a tile start).
        if optimized {
            // Row-vectorized: row[j] += row[j−1] elementwise.
            for j in 1..nrows {
                let (prev, cur) = rows.split_at_mut(j * nx);
                let prev = &prev[(j - 1) * nx..];
                for (c, p) in cur[..nx].iter_mut().zip(prev) {
                    *c += *p;
                }
            }
        } else {
            // Column-walking: strided, mirrors the naive GPU kernel.
            for i in 0..nx {
                let mut acc = 0i64;
                for j in 0..nrows {
                    let idx = j * nx + i;
                    acc += rows[idx];
                    rows[idx] = acc;
                }
            }
        }
    });
}

// ---------------------------------------------------------------- 3-D ----

fn coarse_3d(q: &mut [i64], dims: Dims) {
    let Dims::D3 { ny, nx, .. } = dims else {
        unreachable!()
    };
    let [tz, ty, tx] = dims.tile();
    let slab = tz * ny * nx;
    let plane = ny * nx;
    cuszp_parallel::par_chunks_mut(q, slab, |_si, cells| {
        let nplanes = cells.len() / plane;
        for k in 0..nplanes {
            for j in 0..ny {
                for i in 0..nx {
                    let back = k % tz != 0;
                    let up = j % ty != 0;
                    let left = i % tx != 0;
                    let idx = (k * ny + j) * nx + i;
                    let mut p = 0i64;
                    if up {
                        p += cells[idx - nx];
                    }
                    if left {
                        p += cells[idx - 1];
                    }
                    if back {
                        p += cells[idx - plane];
                    }
                    if up && left {
                        p -= cells[idx - nx - 1];
                    }
                    if back && up {
                        p -= cells[idx - plane - nx];
                    }
                    if back && left {
                        p -= cells[idx - plane - 1];
                    }
                    if back && up && left {
                        p += cells[idx - plane - nx - 1];
                    }
                    cells[idx] += p;
                }
            }
        }
    });
}

fn fine_3d(q: &mut [i64], dims: Dims, optimized: bool) {
    let Dims::D3 { ny, nx, .. } = dims else {
        unreachable!()
    };
    let [tz, ty, tx] = dims.tile();
    let slab = tz * ny * nx;
    let plane = ny * nx;
    cuszp_parallel::par_chunks_mut(q, slab, |_si, cells| {
        let nplanes = cells.len() / plane;
        // Pass 1: x-scans per row.
        for row in cells.chunks_mut(nx) {
            segmented_xscan(row, tx);
        }
        // Pass 2: y within each plane, restarting every ty rows.
        for k in 0..nplanes {
            let pl = &mut cells[k * plane..(k + 1) * plane];
            if optimized {
                for j in 1..ny {
                    if j % ty == 0 {
                        continue;
                    }
                    let (prev, cur) = pl.split_at_mut(j * nx);
                    let prev = &prev[(j - 1) * nx..];
                    for (c, p) in cur[..nx].iter_mut().zip(prev) {
                        *c += *p;
                    }
                }
            } else {
                for i in 0..nx {
                    let mut acc = 0i64;
                    for j in 0..ny {
                        if j % ty == 0 {
                            acc = 0;
                        }
                        let idx = j * nx + i;
                        acc += pl[idx];
                        pl[idx] = acc;
                    }
                }
            }
        }
        // Pass 3: z across planes (slabs are tile-aligned, so local plane 0
        // is a tile start).
        if optimized {
            for k in 1..nplanes {
                let (prev, cur) = cells.split_at_mut(k * plane);
                let prev = &prev[(k - 1) * plane..];
                for (c, p) in cur[..plane].iter_mut().zip(prev) {
                    *c += *p;
                }
            }
        } else {
            for j in 0..ny {
                for i in 0..nx {
                    let mut acc = 0i64;
                    for k in 0..nplanes {
                        let idx = (k * ny + j) * nx + i;
                        acc += cells[idx];
                        cells[idx] = acc;
                    }
                }
            }
        }
    });
}

/// Inclusive scan along a row, restarting at every multiple of `tx`.
#[inline]
fn segmented_xscan(row: &mut [i64], tx: usize) {
    for seg in row.chunks_mut(tx) {
        let mut acc = 0i64;
        for x in seg.iter_mut() {
            acc += *x;
            *x = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{construct, prequantize, DEFAULT_CAP};

    fn wavy(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    fn check_round_trip(data: &[f32], dims: Dims, eb: f64) {
        let qf = construct(data, dims, eb, DEFAULT_CAP);
        let expect = prequantize(data, eb);
        for engine in ReconstructEngine::ALL {
            let got = reconstruct_prequant(&qf, engine);
            assert_eq!(got, expect, "engine {} diverged", engine.name());
            let floats: Vec<f32> = reconstruct(&qf, engine);
            for (o, r) in data.iter().zip(&floats) {
                // One f32 ULP of slack at the value's magnitude: dequant
                // must round into the f32 grid (see cuszp-metrics docs).
                let slack = eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
                assert!(
                    ((o - r).abs() as f64) <= slack,
                    "bound violated by {}: {o} vs {r}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn round_trip_1d() {
        let data = wavy(3000, |i| {
            (i as f32 * 0.01).sin() * 5.0 + (i as f32 * 0.003).cos()
        });
        check_round_trip(&data, Dims::D1(3000), 1e-3);
    }

    #[test]
    fn round_trip_1d_ragged_tail() {
        // Length not a multiple of the 256 tile.
        let data = wavy(1000, |i| (i as f32).sqrt());
        check_round_trip(&data, Dims::D1(1000), 1e-2);
    }

    #[test]
    fn round_trip_2d() {
        let (ny, nx) = (48, 80); // both tile-ragged
        let data = wavy(ny * nx, |t| {
            let j = (t / nx) as f32;
            let i = (t % nx) as f32;
            (j * 0.05).sin() * (i * 0.08).cos() * 10.0
        });
        check_round_trip(&data, Dims::D2 { ny, nx }, 1e-3);
    }

    #[test]
    fn round_trip_3d() {
        let (nz, ny, nx) = (12, 20, 28); // all tile-ragged
        let data = wavy(nz * ny * nx, |t| {
            let i = (t % nx) as f32;
            let j = ((t / nx) % ny) as f32;
            let k = (t / nx / ny) as f32;
            (k * 0.2).sin() + (j * 0.1).cos() * (i * 0.15).sin() * 3.0
        });
        check_round_trip(&data, Dims::D3 { nz, ny, nx }, 1e-3);
    }

    #[test]
    fn round_trip_with_outliers() {
        let mut data = wavy(4096, |i| (i as f32 * 0.002).sin());
        // Inject violent spikes (become outliers).
        for k in (0..4096).step_by(97) {
            data[k] += 1.0e5 * if k % 2 == 0 { 1.0 } else { -1.0 };
        }
        check_round_trip(&data, Dims::D1(4096), 1e-4);
        check_round_trip(&data, Dims::D2 { ny: 64, nx: 64 }, 1e-4);
        check_round_trip(
            &data,
            Dims::D3 {
                nz: 16,
                ny: 16,
                nx: 16,
            },
            1e-4,
        );
    }

    #[test]
    fn engines_agree_on_random_codes() {
        // Directly stress the identity: arbitrary fused buffers must give
        // identical results across all engines.
        let dims = Dims::D3 {
            nz: 9,
            ny: 17,
            nx: 33,
        };
        let n = dims.len();
        let q0: Vec<i64> = (0..n)
            .map(|i| ((i as i64).wrapping_mul(2654435761) % 37) - 18)
            .collect();
        let mut ref_out = q0.clone();
        reconstruct_in_place(&mut ref_out, dims, ReconstructEngine::CoarseSerial);
        for engine in [
            ReconstructEngine::FinePartialSumNaive,
            ReconstructEngine::FinePartialSum,
        ] {
            let mut out = q0.clone();
            reconstruct_in_place(&mut out, dims, engine);
            assert_eq!(out, ref_out, "{} diverged from coarse", engine.name());
        }
    }

    #[test]
    fn partial_sum_identity_2d_small() {
        // 2×3 single tile: reconstruction must equal 2-D prefix sums.
        let dims = Dims::D2 { ny: 2, nx: 3 };
        let q = vec![1i64, 2, 3, 4, 5, 6];
        let mut out = q.clone();
        reconstruct_in_place(&mut out, dims, ReconstructEngine::FinePartialSum);
        // prefix sums: row0: 1,3,6 ; row1: 1+4, 3+(4+5), 6+(4+5+6)
        assert_eq!(out, vec![1, 3, 6, 5, 12, 21]);
    }

    #[test]
    fn empty_field() {
        let mut q: Vec<i64> = vec![];
        reconstruct_in_place(&mut q, Dims::D1(0), ReconstructEngine::FinePartialSum);
        assert!(q.is_empty());
    }
}
