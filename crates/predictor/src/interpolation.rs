//! Multi-level interpolation predictor — the direction the paper's
//! related work points to (Zhao et al., "dynamic spline interpolation",
//! ICDE'21, the paper's reference 19) and the successor the SZ line adopted (SZ3 / cuSZ-i).
//!
//! The field is traversed coarse-to-fine: at each level, grid points at
//! stride `s` are predicted from the already-known points at stride `2s`
//! — cubic 4-point interpolation in the interior, linear at edges — one
//! axis pass at a time (z, then y, then x, as SZ3 orders them). Thanks to dual-quantization the "already-known"
//! values during compression are exactly the prequantized originals —
//! identical to what decompression reconstructs — so both sides run the
//! same dependency pattern and within a level every point is independent
//! (GPU-friendly, like the partial-sum reconstruction).
//!
//! Interpolation typically beats Lorenzo on very smooth fields (it uses
//! longer-range structure) and loses on noisy ones (its stencil spans
//! farther) — the trade `ablation_predictors` quantifies.

use crate::{Dims, OutlierList, QuantField, Scalar};

/// Rounded average of two integers (round half away from zero).
#[inline(always)]
fn lerp2(a: i64, b: i64) -> i64 {
    let s = a + b;
    // Branch-free: +1 then floor for s ≥ 0, plain floor for s < 0.
    (s + 1 + (s >> 63)) >> 1
}

/// 4-point cubic interpolation of the midpoint between `b` and `c`, with
/// outer neighbors `a` and `d` (SZ3's default spline weights):
/// `p = (−a + 9b + 9c − d) / 16`, rounded half away from zero.
#[inline(always)]
fn cubic4(a: i64, b: i64, c: i64, d: i64) -> i64 {
    let num = 9 * (b + c) - a - d;
    // Branch-free: +8 then floor for num ≥ 0, +7 then floor for num < 0.
    (num + 8 + (num >> 63)) >> 4
}

/// How a point is predicted along the axis being refined: cubic when both
/// outer neighbors exist on the coarser grid, linear at interior edges,
/// copy at the boundary. It depends only on the point's position `m` on
/// that axis, the stride and the extent — never on the other two axes.
#[derive(Clone, Copy)]
enum Stencil {
    Copy,
    Linear,
    Cubic,
}

fn stencil_at(m: usize, s: usize, extent: usize) -> Stencil {
    if m + s >= extent {
        Stencil::Copy
    } else if m >= 3 * s && m + 3 * s < extent {
        Stencil::Cubic
    } else {
        Stencil::Linear
    }
}

/// Refines the row `known[at..at + nx]` along an outer axis: every
/// `step`-th point is predicted from the same column of the rows `d` and
/// `3d` elements before and after it (which of them is `stencil`'s call,
/// made once per row). The row is borrowed apart from its neighbors, so
/// the inner loops run over equal-length slices with no index arithmetic.
#[inline(always)]
fn refine_row_across<F>(
    known: &mut [i64],
    at: usize,
    nx: usize,
    d: usize,
    step: usize,
    stencil: Stencil,
    visit: &mut F,
) where
    F: FnMut(usize, i64, i64) -> i64,
{
    let (before, rest) = known.split_at_mut(at);
    let (row, after) = rest.split_at_mut(nx);
    let prev = &before[at - d..][..nx];
    let mut i = 0;
    match stencil {
        Stencil::Copy => {
            while i < nx {
                row[i] = visit(at + i, prev[i], row[i]);
                i += step;
            }
        }
        Stencil::Linear => {
            let next = &after[d - nx..][..nx];
            while i < nx {
                row[i] = visit(at + i, lerp2(prev[i], next[i]), row[i]);
                i += step;
            }
        }
        Stencil::Cubic => {
            let first = &before[at - 3 * d..][..nx];
            let next = &after[d - nx..][..nx];
            let last = &after[3 * d - nx..][..nx];
            while i < nx {
                let p = cubic4(first[i], prev[i], next[i], last[i]);
                row[i] = visit(at + i, p, row[i]);
                i += step;
            }
        }
    }
}

/// Refines one row along x at stride `s`: the left edge point, the cubic
/// interior with no boundary test, then the right edge. The interior
/// carries its three inner neighbors from point to point (they sit on
/// x ≡ 0 mod 2s, which this pass never writes), so each point costs one
/// new neighbor load, bounded by the loop condition itself. `base` is the
/// row's flat offset.
#[inline(always)]
fn refine_row_along<F>(row: &mut [i64], s: usize, base: usize, visit: &mut F)
where
    F: FnMut(usize, i64, i64) -> i64,
{
    let nx = row.len();
    let edge = |row: &mut [i64], i: usize, visit: &mut F| {
        let p = if i + s < nx {
            lerp2(row[i - s], row[i + s])
        } else {
            row[i - s]
        };
        row[i] = visit(base + i, p, row[i]);
    };
    if s < nx {
        edge(row, s, visit);
    }
    let mut i = 3 * s;
    if i + 3 * s < nx {
        let (mut a, mut b, mut c) = (row[0], row[2 * s], row[4 * s]);
        while i + 3 * s < nx {
            let d = row[i + 3 * s];
            row[i] = visit(base + i, cubic4(a, b, c, d), row[i]);
            (a, b, c) = (b, c, d);
            i += 2 * s;
        }
    }
    while i < nx {
        edge(row, i, visit);
        i += 2 * s;
    }
}

/// The interpolation traversal: visits every grid point exactly once in
/// coarse-to-fine order and hands `(flat_index, predicted_value,
/// current_value)` to the callback, which must return the *final* integer
/// value at that point (the same value both compressor and decompressor
/// settle on). The returned value is written back into `known`.
///
/// `known` is the working array. Predictions only ever read
/// already-visited (coarser-grid) entries, so the same buffer can serve
/// as both input and output: construction runs directly over the
/// prequantized field (the visit returns `current` unchanged), and
/// reconstruction runs over the fused-delta buffer (the visit returns
/// `predicted + current`, overwriting each delta with its final value
/// exactly when it is visited).
///
/// Within a level the axes go z, then y, then x (as SZ3 orders them), a
/// row of `nx` contiguous elements at a time (the sweep cuSZ-i
/// restructures the traversal into): along z and y a row is computed from
/// the rows `s` and `3s` away on that axis, along x it is refined in
/// place. A row takes its refinements back to back, while it is in cache,
/// instead of in three sweeps over the field: an outer-axis refinement
/// reads and writes only columns x ≡ 0 mod 2s, which no x-refinement of
/// this level writes, so rows need not wait for each other's x-pass.
fn traverse<F>(known: &mut [i64], dims: Dims, mut visit: F)
where
    F: FnMut(usize, i64, i64) -> i64,
{
    let [nz, ny, nx] = dims.extents();
    let max_extent = nx.max(ny).max(nz);
    if max_extent == 0 {
        return;
    }
    // Top stride: smallest power of two ≥ max extent.
    let mut top = 1usize;
    while top < max_extent {
        top <<= 1;
    }
    // The root point (0,0,0) is predicted as 0.
    known[0] = visit(0, 0, known[0]);

    let mut s2 = top; // parent stride
    while s2 >= 2 {
        let s = s2 / 2;
        let (dz, dy) = (s * ny * nx, s * nx);
        for k in (0..nz).step_by(s) {
            // Along z: a plane at z ≡ s mod 2s, its rows at y ≡ 0 mod 2s.
            if k % s2 == s {
                let stencil = stencil_at(k, s, nz);
                for j in (0..ny).step_by(s2) {
                    refine_row_across(known, (k * ny + j) * nx, nx, dz, s2, stencil, &mut visit);
                }
            }
            for j in (0..ny).step_by(s) {
                let base = (k * ny + j) * nx;
                // Along y: a row at y ≡ s mod 2s.
                if j % s2 == s {
                    let stencil = stencil_at(j, s, ny);
                    refine_row_across(known, base, nx, dy, s2, stencil, &mut visit);
                }
                // Along x: every row of the level, x ≡ s mod 2s.
                refine_row_along(&mut known[base..base + nx], s, base, &mut visit);
            }
        }
        s2 = s;
    }
}

/// Interpolation postquantization over an already-prequantized field,
/// writing quant-codes into a caller-owned arena. `dq` doubles as the
/// traversal's known array — every visit returns the prequantized value
/// unchanged (dual-quant), so the field is preserved — and `codes` is
/// cleared and zero-filled first so outlier positions keep the
/// placeholder `0`. Returns the out-of-range residuals, index-sorted.
pub fn construct_interpolation_codes(
    dq: &mut [i64],
    dims: Dims,
    radius: u16,
    codes: &mut Vec<u16>,
) -> OutlierList {
    assert_eq!(dq.len(), dims.len(), "dq length must match dims");
    let r = radius as i64;
    codes.clear();
    codes.resize(dq.len(), 0);
    let mut outliers = OutlierList::default();
    if dq.is_empty() {
        return outliers;
    }
    traverse(dq, dims, |flat, p, cur| {
        let delta = cur - p;
        if delta > -r && delta < r {
            codes[flat] = (delta + r) as u16;
        } else {
            outliers.indices.push(flat as u64);
            outliers.values.push(delta + r);
        }
        // Dual-quant: the known value is the exact prequantized original.
        cur
    });

    // Traversal order is coarse-to-fine, not index order; restore the
    // sorted-index invariant of the outlier list.
    let mut zipped: Vec<(u64, i64)> = outliers
        .indices
        .iter()
        .copied()
        .zip(outliers.values.iter().copied())
        .collect();
    zipped.sort_unstable_by_key(|&(i, _)| i);
    outliers.indices = zipped.iter().map(|&(i, _)| i).collect();
    outliers.values = zipped.iter().map(|&(_, v)| v).collect();
    outliers
}

/// Interpolation-predicted construction.
pub fn construct_interpolation<T: Scalar>(data: &[T], dims: Dims, eb: f64, cap: u16) -> QuantField {
    assert_eq!(data.len(), dims.len(), "data length must match dims");
    assert!(
        cap >= 4 && cap.is_multiple_of(2),
        "cap must be even and ≥ 4"
    );
    let radius = cap / 2;
    let mut dq = crate::prequantize(data, eb);
    let mut codes = Vec::new();
    let outliers = construct_interpolation_codes(&mut dq, dims, radius, &mut codes);
    QuantField {
        codes,
        outliers,
        radius,
        dims,
        eb,
    }
}

/// Interpolation reconstruction to prequantized integers, writing into a
/// caller-owned arena. `out` is first filled with the fused deltas and
/// then refined in place: the traversal overwrites each delta with its
/// final value exactly when it is visited, and predictions only read
/// already-visited entries, so one buffer serves as both.
pub fn reconstruct_interpolation_prequant_into(
    codes: &[u16],
    outliers: &OutlierList,
    radius: u16,
    dims: Dims,
    out: &mut Vec<i64>,
) {
    crate::fuse_codes_and_outliers_into(codes, outliers, radius, out);
    if out.is_empty() {
        return;
    }
    traverse(out, dims, |_flat, p, cur| p + cur);
}

/// Interpolation reconstruction to prequantized integers.
pub fn reconstruct_interpolation_prequant(qf: &QuantField) -> Vec<i64> {
    let mut out = Vec::new();
    reconstruct_interpolation_prequant_into(&qf.codes, &qf.outliers, qf.radius, qf.dims, &mut out);
    out
}

/// Full interpolation decompression.
pub fn reconstruct_interpolation<T: Scalar>(qf: &QuantField) -> Vec<T> {
    let dq = reconstruct_interpolation_prequant(qf);
    crate::dequantize(&dq, qf.eb)
}

/// Visits every point's interpolation residual `value − predicted` in
/// traversal order without mutating anything — the selector's scoring
/// probe. Copies `dq` into a scratch known-array internally, so callers
/// should hand in a bounded sample, not the whole field.
pub fn interpolation_residuals(dq: &[i64], dims: Dims, mut f: impl FnMut(i64)) {
    assert_eq!(dq.len(), dims.len(), "dq length must match dims");
    if dq.is_empty() {
        return;
    }
    let mut known = dq.to_vec();
    traverse(&mut known, dims, |_flat, p, cur| {
        f(cur - p);
        cur
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prequantize, DEFAULT_CAP};

    /// Round half away from zero, spelled out.
    fn lerp2_reference(a: i64, b: i64) -> i64 {
        let s = a + b;
        if s >= 0 {
            (s + 1) / 2
        } else {
            -((-s + 1) / 2)
        }
    }

    /// Round half away from zero, spelled out.
    fn cubic4_reference(a: i64, b: i64, c: i64, d: i64) -> i64 {
        let num = -a + 9 * (b + c) - d;
        if num >= 0 {
            (num + 8) / 16
        } else {
            -((-num + 8) / 16)
        }
    }

    /// The traversal as it was first written — one point at a time, flat
    /// index and boundary tests recomputed per point, three sweeps per
    /// level. Obviously correct and slow: the oracle [`traverse`] is held
    /// to.
    fn traverse_reference<F>(known: &mut [i64], dims: Dims, mut visit: F)
    where
        F: FnMut(usize, i64, i64) -> i64,
    {
        let [nz, ny, nx] = dims.extents();
        let max_extent = nx.max(ny).max(nz);
        if max_extent == 0 {
            return;
        }
        // Top stride: smallest power of two ≥ max extent.
        let mut top = 1usize;
        while top < max_extent {
            top <<= 1;
        }
        // The root point (0,0,0) is predicted as 0.
        let root = visit(0, 0, known[0]);
        known[0] = root;

        let idx = |k: usize, j: usize, i: usize| (k * ny + j) * nx + i;
        let mut s2 = top; // parent stride
        while s2 >= 2 {
            let s = s2 / 2;
            // Per-axis predictor: cubic when both outer neighbors exist on the
            // coarser grid, linear at interior edges, copy at the boundary.
            macro_rules! axis_predict {
                ($pos:expr, $extent:expr, $at:expr) => {{
                    let m = $pos;
                    let prev = $at(m - s);
                    if m + s < $extent {
                        if m >= 3 * s && m + 3 * s < $extent {
                            cubic4_reference($at(m - 3 * s), prev, $at(m + s), $at(m + 3 * s))
                        } else {
                            lerp2_reference(prev, $at(m + s))
                        }
                    } else {
                        prev
                    }
                }};
            }
            // Pass 1: refine along z at (z ≡ s mod 2s, y ≡ 0 mod 2s, x ≡ 0 mod 2s).
            if nz > 1 {
                for k in (s..nz).step_by(s2) {
                    for j in (0..ny).step_by(s2) {
                        for i in (0..nx).step_by(s2) {
                            let p = axis_predict!(k, nz, |z| known[idx(z, j, i)]);
                            let v = visit(idx(k, j, i), p, known[idx(k, j, i)]);
                            known[idx(k, j, i)] = v;
                        }
                    }
                }
            }
            // Pass 2: refine along y at (z ≡ 0 mod s, y ≡ s mod 2s, x ≡ 0 mod 2s).
            if ny > 1 {
                for k in (0..nz).step_by(s) {
                    for j in (s..ny).step_by(s2) {
                        for i in (0..nx).step_by(s2) {
                            let p = axis_predict!(j, ny, |y| known[idx(k, y, i)]);
                            let v = visit(idx(k, j, i), p, known[idx(k, j, i)]);
                            known[idx(k, j, i)] = v;
                        }
                    }
                }
            }
            // Pass 3: refine along x at (z, y ≡ 0 mod s, x ≡ s mod 2s).
            for k in (0..nz).step_by(s) {
                for j in (0..ny).step_by(s) {
                    for i in (s..nx).step_by(s2) {
                        let p = axis_predict!(i, nx, |x| known[idx(k, j, x)]);
                        let v = visit(idx(k, j, i), p, known[idx(k, j, i)]);
                        known[idx(k, j, i)] = v;
                    }
                }
            }
            s2 = s;
        }
    }

    /// Small extents exhaustively, plus ragged large shapes, in each rank.
    fn sweep_dims() -> Vec<Dims> {
        let mut all = Vec::new();
        for nx in 1..=9 {
            all.push(Dims::D1(nx));
            for ny in 1..=9 {
                all.push(Dims::D2 { ny, nx });
                for nz in 1..=9 {
                    all.push(Dims::D3 { nz, ny, nx });
                }
            }
        }
        all.extend([
            Dims::D1(1000),
            Dims::D1(1025),
            Dims::D2 { ny: 33, nx: 47 },
            Dims::D2 { ny: 1, nx: 61 },
            Dims::D2 { ny: 61, nx: 1 },
            Dims::D3 {
                nz: 12,
                ny: 20,
                nx: 28,
            },
            Dims::D3 {
                nz: 1,
                ny: 1,
                nx: 77,
            },
            Dims::D3 {
                nz: 77,
                ny: 1,
                nx: 1,
            },
            Dims::D3 {
                nz: 5,
                ny: 37,
                nx: 3,
            },
        ]);
        all
    }

    /// Rough integers (both signs, odd sums) so that rounding direction,
    /// the cubic/linear/copy choice and the outlier range all matter.
    fn rough_field(n: usize, seed: u64) -> Vec<i64> {
        (0..n as u64)
            .map(|i| {
                let h = (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                (h % 1501) as i64 - 750 + (i as i64 % 7) * 31
            })
            .collect()
    }

    #[test]
    fn rowwise_traversal_visits_what_the_reference_visits() {
        for dims in sweep_dims() {
            let field = rough_field(dims.len(), 3);
            // Construction mode (values stay) and reconstruction mode
            // (each visit overwrites what later predictions read).
            for settle in [|_p: i64, cur: i64| cur, |p: i64, cur: i64| p + cur] {
                let mut want = Vec::with_capacity(dims.len());
                let mut known_ref = field.clone();
                traverse_reference(&mut known_ref, dims, |flat, p, cur| {
                    want.push((flat, p, cur));
                    settle(p, cur)
                });
                let mut got = Vec::with_capacity(dims.len());
                let mut known = field.clone();
                traverse(&mut known, dims, |flat, p, cur| {
                    got.push((flat, p, cur));
                    settle(p, cur)
                });
                // Within a level the order is free (points are independent).
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "visits diverged on {dims:?}");
                assert_eq!(known, known_ref, "known array diverged on {dims:?}");
            }
        }
    }

    #[test]
    fn construct_and_reconstruct_are_bit_identical_to_the_reference() {
        // A radius small enough that the rough field produces outliers.
        let radius = 256u16;
        let r = radius as i64;
        for dims in sweep_dims() {
            let field = rough_field(dims.len(), 11);

            let mut want_codes = vec![0u16; dims.len()];
            let mut want_outliers = Vec::new();
            traverse_reference(&mut field.clone(), dims, |flat, p, cur| {
                let delta = cur - p;
                if delta > -r && delta < r {
                    want_codes[flat] = (delta + r) as u16;
                } else {
                    want_outliers.push((flat as u64, delta + r));
                }
                cur
            });
            want_outliers.sort_unstable();

            let mut dq = field.clone();
            let mut codes = Vec::new();
            let outliers = construct_interpolation_codes(&mut dq, dims, radius, &mut codes);
            assert_eq!(dq, field, "construction must leave the field as it was");
            assert_eq!(codes, want_codes, "codes diverged on {dims:?}");
            let got_outliers: Vec<(u64, i64)> = outliers
                .indices
                .iter()
                .copied()
                .zip(outliers.values.iter().copied())
                .collect();
            assert_eq!(got_outliers, want_outliers, "outliers diverged on {dims:?}");

            let mut want_prequant = crate::fuse_codes_and_outliers(&QuantField {
                codes: codes.clone(),
                outliers: outliers.clone(),
                radius,
                dims,
                eb: 1.0,
            });
            traverse_reference(&mut want_prequant, dims, |_flat, p, cur| p + cur);
            // A dirty, over-long arena: the fuse must not rely on what the
            // buffer held or how long it was.
            let mut prequant = vec![i64::MIN; dims.len() + 5];
            reconstruct_interpolation_prequant_into(&codes, &outliers, radius, dims, &mut prequant);
            assert_eq!(prequant, want_prequant, "prequant diverged on {dims:?}");
            assert_eq!(prequant, field, "round trip must be lossless on {dims:?}");
        }
    }

    #[test]
    fn rounding_is_half_away_from_zero() {
        assert_eq!(lerp2(1, 2), 2);
        assert_eq!(lerp2(-1, -2), -2);
        assert_eq!(lerp2(3, -3), 0);
        // num = 9·(b + c) − a − d over 16; ±8 is the half-way case.
        assert_eq!(cubic4(1, 1, 0, 0), 1);
        assert_eq!(cubic4(-1, -1, 0, 0), -1);
        assert_eq!(cubic4(2, 1, 0, 0), 0);
        assert_eq!(cubic4(-2, -1, 0, 0), 0);
        // Every residue of the sum mod 2 and of the numerator mod 16, both
        // signs, against the spelled-out rule.
        for a in -40..=40 {
            for b in [-1_000_003, -17, -1, 0, 1, 16, 999_983] {
                assert_eq!(lerp2(a, b), lerp2_reference(a, b), "lerp2({a}, {b})");
                for (c, d) in [(0, 0), (5, -3), (-7, 2)] {
                    let (got, want) = (cubic4(a, b, c, d), cubic4_reference(a, b, c, d));
                    assert_eq!(got, want, "cubic4({a}, {b}, {c}, {d})");
                }
            }
        }
    }

    fn check_round_trip(data: &[f32], dims: Dims, eb: f64) {
        let qf = construct_interpolation(data, dims, eb, DEFAULT_CAP);
        let got = reconstruct_interpolation_prequant(&qf);
        let expect = prequantize(data, eb);
        assert_eq!(got, expect, "integer path must be lossless");
        let floats: Vec<f32> = reconstruct_interpolation(&qf);
        for (o, r) in data.iter().zip(&floats) {
            let slack = eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
            assert!(((o - r).abs() as f64) <= slack, "{o} vs {r}");
        }
    }

    #[test]
    fn round_trip_all_ranks_and_ragged_sizes() {
        let f = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| (i as f32 * 0.004).sin() * 8.0 + (i as f32 * 0.0009).cos())
                .collect()
        };
        check_round_trip(&f(1), Dims::D1(1), 1e-3);
        check_round_trip(&f(1000), Dims::D1(1000), 1e-3);
        check_round_trip(&f(1024), Dims::D1(1024), 1e-3);
        check_round_trip(&f(48 * 80), Dims::D2 { ny: 48, nx: 80 }, 1e-3);
        check_round_trip(&f(33 * 47), Dims::D2 { ny: 33, nx: 47 }, 1e-2);
        check_round_trip(
            &f(12 * 20 * 28),
            Dims::D3 {
                nz: 12,
                ny: 20,
                nx: 28,
            },
            1e-3,
        );
        check_round_trip(
            &f(16 * 16 * 16),
            Dims::D3 {
                nz: 16,
                ny: 16,
                nx: 16,
            },
            1e-4,
        );
    }

    #[test]
    fn every_point_visited_exactly_once() {
        let dims = Dims::D3 {
            nz: 9,
            ny: 13,
            nx: 17,
        };
        let mut seen = vec![0u32; dims.len()];
        let mut known = vec![0i64; dims.len()];
        traverse(&mut known, dims, |flat, _p, _cur| {
            seen[flat] += 1;
            0
        });
        assert!(seen.iter().all(|&c| c == 1), "coverage: {seen:?}");
    }

    #[test]
    fn linear_data_is_interpolated_exactly() {
        // On a linear ramp every midpoint interpolation is exact, so all
        // codes are the zero-error symbol except the sparse boundary/root
        // extrapolations.
        let n = 1024;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let qf = construct_interpolation(&data, Dims::D1(n), 0.5, 4096);
        let r = 2048u16;
        let nonzero = qf.codes.iter().filter(|&&c| c != r && c != 0).count() + qf.outliers.len();
        // Root + the right-edge extrapolation chain: O(log n) points.
        assert!(nonzero <= 16, "only boundary points may miss: {nonzero}");
    }

    #[test]
    fn interpolation_beats_lorenzo_on_very_smooth_3d_data() {
        // The SZ3 story: long-range smooth structure favors interpolation.
        let (nz, ny, nx) = (32usize, 32usize, 32usize);
        let data: Vec<f32> = (0..nz * ny * nx)
            .map(|t| {
                let i = (t % nx) as f32 / nx as f32;
                let j = ((t / nx) % ny) as f32 / ny as f32;
                let k = (t / nx / ny) as f32 / nz as f32;
                ((i * 2.1).sin() + (j * 1.7).cos() + (k * 1.3).sin()) * 100.0
            })
            .collect();
        let dims = Dims::D3 { nz, ny, nx };
        let eb = 1e-4 * 400.0; // tight relative bound
        let lorenzo = crate::construct(&data, dims, eb, DEFAULT_CAP);
        let interp = construct_interpolation(&data, dims, eb, DEFAULT_CAP);
        let entropy = |qf: &QuantField| {
            let mut hist = std::collections::HashMap::new();
            for &c in &qf.codes {
                *hist.entry(c).or_insert(0u32) += 1;
            }
            let n = qf.codes.len() as f64;
            -hist
                .values()
                .map(|&c| {
                    let p = c as f64 / n;
                    p * p.log2()
                })
                .sum::<f64>()
        };
        let (hl, hi) = (entropy(&lorenzo), entropy(&interp));
        assert!(
            hi < hl,
            "interpolation codes should carry less entropy: {hi:.3} vs {hl:.3} bits"
        );
    }
}
