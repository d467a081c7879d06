//! Lorenzo construction (compression side): prediction + postquantization.
//!
//! Thanks to dual-quantization the prediction reads *prequantized original*
//! values, never reconstructed ones, so every element's quant-code can be
//! computed independently — the kernel is embarrassingly parallel.
//!
//! Tiling: fields are carved into independent tiles (256 / 16×16 / 8×8×8);
//! a predictor neighbor that falls outside the element's tile is taken as
//! zero. Because tiles are axis-aligned with power-of-two edges, "outside
//! the tile" is simply `coordinate % tile_edge == 0`, so no explicit tile
//! bookkeeping is needed.

use crate::{gather_outliers, prequantize, Dims, QuantField, Scalar};

/// First-order Lorenzo prediction for a 1-D element from its in-tile
/// neighbor (`0` at tile starts).
#[inline(always)]
fn predict_1d(dq: &[i64], i: usize, tx: usize) -> i64 {
    if i.is_multiple_of(tx) {
        0
    } else {
        dq[i - 1]
    }
}

/// First-order Lorenzo prediction for a 2-D element.
///
/// `p = d[j−1,i] + d[j,i−1] − d[j−1,i−1]` with out-of-tile terms zeroed.
#[inline(always)]
fn predict_2d(dq: &[i64], j: usize, i: usize, nx: usize, ty: usize, tx: usize) -> i64 {
    let up = !j.is_multiple_of(ty);
    let left = !i.is_multiple_of(tx);
    let idx = j * nx + i;
    let mut p = 0i64;
    if up {
        p = p.wrapping_add(dq[idx - nx]);
    }
    if left {
        p = p.wrapping_add(dq[idx - 1]);
    }
    if up && left {
        p = p.wrapping_sub(dq[idx - nx - 1]);
    }
    p
}

/// First-order Lorenzo prediction for a 3-D element (7-point stencil with
/// alternating signs), out-of-tile terms zeroed.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn predict_3d(
    dq: &[i64],
    k: usize,
    j: usize,
    i: usize,
    ny: usize,
    nx: usize,
    tz: usize,
    ty: usize,
    tx: usize,
) -> i64 {
    let back = !k.is_multiple_of(tz);
    let up = !j.is_multiple_of(ty);
    let left = !i.is_multiple_of(tx);
    let idx = (k * ny + j) * nx + i;
    let sxy = nx; // stride along y
    let sz = ny * nx; // stride along z
    let mut p = 0i64;
    if up {
        p = p.wrapping_add(dq[idx - sxy]);
    }
    if left {
        p = p.wrapping_add(dq[idx - 1]);
    }
    if back {
        p = p.wrapping_add(dq[idx - sz]);
    }
    if up && left {
        p = p.wrapping_sub(dq[idx - sxy - 1]);
    }
    if back && up {
        p = p.wrapping_sub(dq[idx - sz - sxy]);
    }
    if back && left {
        p = p.wrapping_sub(dq[idx - sz - 1]);
    }
    if back && up && left {
        p = p.wrapping_add(dq[idx - sz - sxy - 1]);
    }
    p
}

/// Computes the prediction `p` for flat index `flat` given dims and tile.
/// Shared by construction and the outlier gather kernel.
pub(crate) fn predict_at(dq: &[i64], dims: Dims, flat: usize) -> i64 {
    let [_, ty, tx] = dims.tile();
    match dims {
        Dims::D1(_) => predict_1d(dq, flat, tx),
        Dims::D2 { nx, .. } => {
            let j = flat / nx;
            let i = flat % nx;
            predict_2d(dq, j, i, nx, ty, tx)
        }
        Dims::D3 { ny, nx, .. } => {
            let [tz, ty, tx] = dims.tile();
            let i = flat % nx;
            let j = (flat / nx) % ny;
            let k = flat / (nx * ny);
            predict_3d(dq, k, j, i, ny, nx, tz, ty, tx)
        }
    }
}

/// Visits every point's Lorenzo residual `dq[flat] − predicted` in index
/// order without mutating anything — the predictor selector's scoring
/// probe, the exact counterpart of
/// [`crate::interpolation::interpolation_residuals`].
pub fn lorenzo_residuals(dq: &[i64], dims: Dims, mut f: impl FnMut(i64)) {
    assert_eq!(dq.len(), dims.len(), "dq length must match dims");
    for flat in 0..dq.len() {
        f(dq[flat] - predict_at(dq, dims, flat));
    }
}

/// Runs the full prediction-quantization stage over a field.
///
/// `eb` is the **absolute** error bound; `cap` the number of quantization
/// bins (`radius = cap/2`, must be even, `4 ≤ cap ≤ 65534`).
///
/// Returns the quant-codes (with `0` marking outliers), the sparse outlier
/// list, and the parameters needed by decompression.
pub fn construct<T: Scalar>(data: &[T], dims: Dims, eb: f64, cap: u16) -> QuantField {
    assert_eq!(data.len(), dims.len(), "data length must match dims");
    assert!(
        cap >= 4 && cap.is_multiple_of(2),
        "cap must be even and ≥ 4"
    );
    let radius = cap / 2;
    let dq = prequantize(data, eb);
    let codes = construct_codes(&dq, dims, radius);
    let outliers = gather_outliers(&dq, &codes, dims, radius);
    QuantField {
        codes,
        outliers,
        radius,
        dims,
        eb,
    }
}

/// Chunk-aware construction: runs [`construct`] on the slab covering
/// `slow_range` slow-axis units of a `dims`-shaped field.
///
/// In C-order the slab is a contiguous subslice of `data`, so no copy is
/// made; the returned [`QuantField`] describes the slab as a standalone
/// field of the same rank (indices and prediction are slab-local).
pub fn construct_slab<T: Scalar>(
    data: &[T],
    dims: Dims,
    slow_range: std::ops::Range<usize>,
    eb: f64,
    cap: u16,
) -> QuantField {
    assert_eq!(data.len(), dims.len(), "data length must match dims");
    assert!(
        slow_range.start <= slow_range.end && slow_range.end <= dims.slow_extent(),
        "slab range out of bounds"
    );
    let eps = dims.elems_per_slow();
    let slab_dims = dims.slab(slow_range.end - slow_range.start);
    construct(
        &data[slow_range.start * eps..slow_range.end * eps],
        slab_dims,
        eb,
        cap,
    )
}

/// The Lorenzo-construction kernel proper: maps prequantized integers to
/// quant-codes. Outlier positions receive the placeholder `0`; their δ is
/// recovered later by [`gather_outliers`].
///
/// Parallelized over contiguous bands aligned with tile boundaries
/// (1-D: 256-element chunks; 2-D: 16-row bands; 3-D: 8-plane slabs).
pub fn construct_codes(dq: &[i64], dims: Dims, radius: u16) -> Vec<u16> {
    let mut codes = Vec::new();
    construct_codes_into(dq, dims, radius, &mut codes);
    codes
}

/// [`construct_codes`] writing into a caller-owned buffer (resized to the
/// field length) so the pipeline engine can reuse one code arena across
/// chunks instead of allocating per chunk.
///
/// The walk is row-wise: a row's y/z tile-edge case is fixed, so it is
/// chosen once per row ([`row_codes`]) and no element computes its own
/// coordinates.
pub fn construct_codes_into(dq: &[i64], dims: Dims, radius: u16, codes: &mut Vec<u16>) {
    let n = dims.len();
    assert_eq!(dq.len(), n, "prequant length must match dims");
    let r = radius as i64;
    // No zero-fill of what is already there: every position is written.
    codes.resize(n, 0);
    let [tz, ty, tx] = dims.tile();

    match dims {
        Dims::D1(_) => {
            cuszp_parallel::par_chunks_mut(codes, tx, |ci, chunk| {
                row_codes(chunk, tx, r, dq, ci * tx, None, None);
            });
        }
        Dims::D2 { nx, .. } => {
            cuszp_parallel::par_chunks_mut(codes, ty * nx, |bi, band| {
                for (dj, row) in band.chunks_mut(nx).enumerate() {
                    let up = (dj != 0).then_some(nx);
                    row_codes(row, tx, r, dq, (bi * ty + dj) * nx, up, None);
                }
            });
        }
        Dims::D3 { ny, nx, .. } => {
            let plane = ny * nx;
            cuszp_parallel::par_chunks_mut(codes, tz * plane, |si, slab| {
                for (dk, codes_plane) in slab.chunks_mut(plane).enumerate() {
                    let back = (dk != 0).then_some(plane);
                    for (j, row) in codes_plane.chunks_mut(nx).enumerate() {
                        let up = (!j.is_multiple_of(ty)).then_some(nx);
                        let at = (si * tz + dk) * plane + j * nx;
                        row_codes(row, tx, r, dq, at, up, back);
                    }
                }
            });
        }
    }
}

/// One contiguous row of quant-codes, for the row of `dq` starting at
/// `at`. `up` and `back` are the distances back to the neighbour rows
/// along y and z, `None` where the row sits on that edge of its tile.
///
/// With `v[i] = c[i] − up[i] − back[i] + back_up[i]` (absent rows
/// dropped), the Lorenzo residual is `δ[i] = v[i] − v[i−1]`, restarting
/// at every `tx`: the x-differences of the 7-point stencil telescope
/// into one subtraction. Integer `+`/`−` are reordered against
/// [`predict_at`], hence wrapping.
#[inline(always)]
fn row_codes(
    out: &mut [u16],
    tx: usize,
    r: i64,
    dq: &[i64],
    at: usize,
    up: Option<usize>,
    back: Option<usize>,
) {
    let n = out.len();
    let row = |start: usize| &dq[start..start + n];
    let c = row(at);
    match (up, back) {
        (None, None) => delta_codes(out, tx, r, |i| c[i]),
        (Some(stride), None) | (None, Some(stride)) => {
            let a = row(at - stride);
            delta_codes(out, tx, r, |i| c[i].wrapping_sub(a[i]))
        }
        (Some(sy), Some(sz)) => {
            let (u, b, bu) = (row(at - sy), row(at - sz), row(at - sz - sy));
            delta_codes(out, tx, r, |i| {
                c[i].wrapping_sub(u[i])
                    .wrapping_sub(b[i])
                    .wrapping_add(bu[i])
            })
        }
    }
}

/// `out[i] = encode_delta(v(i) − v(i−1))` with `v(−1) = 0` at every
/// multiple of `tx`.
#[inline(always)]
fn delta_codes(out: &mut [u16], tx: usize, r: i64, v: impl Fn(usize) -> i64) {
    let mut base = 0usize;
    for seg in out.chunks_mut(tx) {
        let mut prev = 0i64;
        for (i, o) in seg.iter_mut().enumerate() {
            let cur = v(base + i);
            *o = encode_delta(cur.wrapping_sub(prev), r);
            prev = cur;
        }
        base += seg.len();
    }
}

/// Encodes a prediction error as a quant-code: `δ + r` when `|δ| < r`,
/// else the outlier placeholder `0`.
#[inline(always)]
fn encode_delta(delta: i64, r: i64) -> u16 {
    let biased = delta.wrapping_add(r) as u64;
    if biased.wrapping_sub(1) < (2 * r - 1) as u64 {
        biased as u16
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_CAP;

    #[test]
    fn constant_field_codes_are_all_radius_after_first() {
        // A constant field: first element of each tile predicts 0 so its δ
        // is the (possibly large) value; interior elements predict exactly.
        let data = vec![1.0f32; 512];
        let qf = construct(&data, Dims::D1(512), 0.01, DEFAULT_CAP);
        let r = qf.radius;
        for (i, &c) in qf.codes.iter().enumerate() {
            if i % 256 == 0 {
                // δ = 50 (1.0 / 0.02), in range → code = r + 50.
                assert_eq!(c, r + 50, "tile-start code at {i}");
            } else {
                assert_eq!(c, r, "interior code at {i}");
            }
        }
        assert!(qf.outliers.is_empty());
    }

    #[test]
    fn linear_ramp_1d_codes_are_constant_increment() {
        // d = i → prequant with 2eb = 1 gives d° = i, δ = 1 inside tiles.
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let qf = construct(&data, Dims::D1(1000), 0.5, DEFAULT_CAP);
        let r = qf.radius;
        for (i, &c) in qf.codes.iter().enumerate() {
            if i % 256 != 0 {
                assert_eq!(c, r + 1);
            }
        }
    }

    #[test]
    fn spike_becomes_outlier() {
        let mut data = vec![0.0f32; 300];
        data[100] = 1.0e6;
        let qf = construct(&data, Dims::D1(300), 1e-3, DEFAULT_CAP);
        assert_eq!(qf.codes[100], 0, "spike code must be the placeholder");
        // The element after the spike predicts from the spike → also huge δ.
        assert_eq!(qf.codes[101], 0);
        assert!(qf.outliers.indices.contains(&100));
        assert!(qf.outliers.indices.contains(&101));
    }

    #[test]
    fn smooth_2d_field_has_no_outliers_and_small_codes() {
        let (ny, nx) = (64, 64);
        let data: Vec<f32> = (0..ny * nx)
            .map(|t| {
                let j = t / nx;
                let i = t % nx;
                ((j as f32) * 0.01 + (i as f32) * 0.02).sin()
            })
            .collect();
        let qf = construct(&data, Dims::D2 { ny, nx }, 1e-2, DEFAULT_CAP);
        assert!(
            qf.outlier_fraction() < 0.02,
            "smooth field should be captured"
        );
    }

    #[test]
    fn codes_zero_only_at_outliers() {
        let mut data = vec![0.5f32; 4096];
        data[777] = 9.0e8;
        let qf = construct(&data, Dims::D2 { ny: 64, nx: 64 }, 1e-4, DEFAULT_CAP);
        let zero_positions: Vec<u64> = qf
            .codes
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(zero_positions, qf.outliers.indices);
    }

    /// The per-element loop the row-wise walk replaced: each code from
    /// its own [`predict_at`] and the two-compare range test.
    fn reference_codes(dq: &[i64], dims: Dims, radius: u16) -> Vec<u16> {
        let r = radius as i64;
        (0..dq.len())
            .map(|i| {
                let delta = dq[i].wrapping_sub(predict_at(dq, dims, i));
                if delta > -r && delta < r {
                    (delta + r) as u16
                } else {
                    0
                }
            })
            .collect()
    }

    /// Three kinds of prequantized field over one xorshift stream: smooth
    /// (every residual in range), outlier-heavy, and values at the ends
    /// of `i64` (every stencil sum wraps).
    fn fields(n: usize, seed: u64) -> [Vec<i64>; 3] {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut walk = 0i64;
        let smooth = (0..n)
            .map(|_| {
                walk += (next() % 7) as i64 - 3;
                walk
            })
            .collect();
        let spiky = (0..n)
            .map(|_| match next() % 4 {
                0 => (next() % 2_000_001) as i64 - 1_000_000,
                _ => (next() % 5) as i64,
            })
            .collect();
        let extreme = (0..n)
            .map(|_| [i64::MIN, i64::MAX, 0, -1, 1][(next() % 5) as usize])
            .collect();
        [smooth, spiky, extreme]
    }

    fn assert_matches_reference(dims: Dims) {
        let mut codes = vec![7u16; 3]; // stale contents must not leak
        for (kind, dq) in fields(dims.len(), dims.len() as u64 * 0x9E37_79B9)
            .iter()
            .enumerate()
        {
            for radius in [2u16, 512, 32767] {
                construct_codes_into(dq, dims, radius, &mut codes);
                assert_eq!(
                    codes,
                    reference_codes(dq, dims, radius),
                    "{dims:?}, field kind {kind}, radius {radius}"
                );
            }
            // `extreme` would overflow the (non-wrapping) outlier gather,
            // which the core's range guard keeps it from ever seeing.
            if kind < 2 {
                use crate::stage::{LorenzoStage, PredictorStage};
                let mut arena = dq.clone();
                LorenzoStage.construct(&mut arena, dims, 512, &mut codes);
                assert_eq!(&arena, dq, "{dims:?}: construct must leave dq untouched");
            }
        }
    }

    #[test]
    fn row_wise_codes_equal_the_per_element_reference_1d() {
        for n in (1..=17).chain([255, 256, 257, 511, 513, 1000]) {
            assert_matches_reference(Dims::D1(n));
        }
    }

    #[test]
    fn row_wise_codes_equal_the_per_element_reference_2d() {
        for ny in 1..=17 {
            for nx in 1..=17 {
                assert_matches_reference(Dims::D2 { ny, nx });
            }
        }
        for (ny, nx) in [(15, 33), (16, 32), (33, 47), (48, 17), (2, 100), (100, 2)] {
            assert_matches_reference(Dims::D2 { ny, nx });
        }
    }

    #[test]
    fn row_wise_codes_equal_the_per_element_reference_3d() {
        for nz in 1..=17 {
            for ny in 1..=17 {
                for nx in 1..=17 {
                    assert_matches_reference(Dims::D3 { nz, ny, nx });
                }
            }
        }
        for (nz, ny, nx) in [
            (9, 23, 19),
            (8, 16, 24),
            (25, 7, 9),
            (3, 33, 10),
            (19, 9, 31),
        ] {
            assert_matches_reference(Dims::D3 { nz, ny, nx });
        }
    }

    #[test]
    fn predict_3d_corner_uses_no_neighbors() {
        let dq = vec![5i64; 8 * 8 * 8];
        // Element (0,0,0) of a tile predicts 0.
        assert_eq!(predict_3d(&dq, 0, 0, 0, 8, 8, 8, 8, 8), 0);
        // Fully interior element of a constant field predicts the constant:
        // p = 3·5 − 3·5 + 5 = 5.
        assert_eq!(predict_3d(&dq, 1, 1, 1, 8, 8, 8, 8, 8), 5);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn rejects_mismatched_dims() {
        construct(&[0.0; 10], Dims::D1(11), 1e-3, DEFAULT_CAP);
    }
}
