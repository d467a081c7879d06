//! Prequantization and dequantization (the two float↔integer crossings).
//!
//! `prequant`: `d° = round(d / (2·eb))` — after this single rounding the
//! whole pipeline is exact integer arithmetic, which is what licenses the
//! reordering of additions in the partial-sum reconstruction (integer `+`
//! is associative and commutative; float `+` is not).
//!
//! `dequant`: `d = d° · (2·eb)` — reintroduces at most `eb` of error.

use crate::Scalar;

/// Prequantizes a field: `out[i] = round(data[i] / (2·eb))` as `i64`.
///
/// Panics if `eb <= 0` or not finite. Generic over `f32`/`f64`.
pub fn prequantize<T: Scalar>(data: &[T], eb: f64) -> Vec<i64> {
    let mut out = vec![0i64; data.len()];
    prequantize_into(data, eb, &mut out);
    out
}

/// Prequantizes into a caller-provided buffer (hot-loop variant).
///
/// Panics if `eb <= 0`, `eb` is not finite, or lengths differ.
pub fn prequantize_into<T: Scalar>(data: &[T], eb: f64, out: &mut [i64]) {
    assert!(
        eb.is_finite() && eb > 0.0,
        "error bound must be positive and finite"
    );
    assert_eq!(data.len(), out.len(), "buffer length mismatch");
    let inv = 1.0 / (2.0 * eb);
    cuszp_parallel::par_zip_mut(out, data, |o, &d| {
        *o = round_half_away(d.to_f64() * inv);
    });
}

/// The largest `f64` below one half.
const BELOW_HALF: f64 = 0.499_999_999_999_999_94;

/// `y.round() as i64` — nearest integer, ties away from zero, saturating,
/// NaN to 0 — without the libm call `f64::round` is on a baseline x86-64
/// target: add the predecessor of ½ toward `y`'s sign, then truncate.
/// (Adding ½ itself would carry `0.5 − ulp` up to 1.) Below 2⁵² the sum's
/// own rounding reaches the next integer only from an exact tie; from 2⁵²
/// on `y` is an integer and the addend is under half its spacing. The
/// test `rounding_equals_f64_round` checks the agreement rather than
/// trusting this argument.
#[inline(always)]
fn round_half_away(y: f64) -> i64 {
    (y + BELOW_HALF.copysign(y)) as i64
}

/// Dequantizes prequantized integers back to floats: `d = d° · 2·eb`.
pub fn dequantize<T: Scalar>(prequant: &[i64], eb: f64) -> Vec<T> {
    let mut out = vec![T::from_f64(0.0); prequant.len()];
    dequantize_into(prequant, eb, &mut out);
    out
}

/// Dequantizes into a caller-provided buffer — typically one slab of a
/// larger field's output, so chunked decompression writes in place.
///
/// Panics if `eb <= 0`, `eb` is not finite, or lengths differ.
pub fn dequantize_into<T: Scalar>(prequant: &[i64], eb: f64, out: &mut [T]) {
    assert!(
        eb.is_finite() && eb > 0.0,
        "error bound must be positive and finite"
    );
    assert_eq!(prequant.len(), out.len(), "buffer length mismatch");
    let scale = 2.0 * eb;
    cuszp_parallel::par_zip_mut(out, prequant, |o, &q| *o = T::from_f64(q as f64 * scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prequant_dequant_respects_bound() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.137).sin() * 40.0).collect();
        for eb in [1e-1, 1e-2, 1e-3] {
            let q = prequantize(&data, eb);
            let d: Vec<f32> = dequantize(&q, eb);
            for (o, r) in data.iter().zip(&d) {
                assert!(
                    (o - r).abs() as f64 <= eb * (1.0 + 1e-6),
                    "bound {eb} violated: {o} vs {r}"
                );
            }
        }
    }

    #[test]
    fn prequant_rounds_to_nearest() {
        // 2eb = 1.0 — prequant is plain rounding.
        let q = prequantize(&[0.49, 0.51, -0.49, -0.51, 1.5], 0.5);
        assert_eq!(q, vec![0, 1, 0, -1, 2]);
    }

    /// `round_half_away` against `f64::round` on every class of input
    /// where adding-then-truncating could plausibly differ from it.
    #[test]
    fn rounding_equals_f64_round() {
        fn check(y: f64) {
            assert_eq!(
                round_half_away(y),
                y.round() as i64,
                "y = {y:e} ({:#018x})",
                y.to_bits()
            );
        }
        // Both signs of `y` and of its two neighbours.
        fn around(y: f64) {
            for v in [y.next_down(), y, y.next_up()] {
                check(v);
                check(-v);
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        const TWO52: u64 = 1 << 52;

        around(0.0);
        around(0.5);
        around(BELOW_HALF);
        around(f64::MIN_POSITIVE);
        around(f64::from_bits(1)); // smallest subnormal
        around(f64::from_bits((1 << 52) - 1)); // largest subnormal
        around(1e300);
        around(f64::MAX);
        around(i64::MAX as f64);
        around(i64::MIN as f64);
        for y in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check(y);
        }
        // Ties k + ½ and their neighbours: every small k, every power of
        // two and its neighbours up to 2⁵², and random k below 2⁵² (at
        // 2⁵¹ and above `k + 0.5` has no neighbour short of an integer).
        for k in 0..4096u64 {
            around(k as f64 + 0.5);
        }
        for e in 0..=52 {
            for k in [(1u64 << e) - 1, 1 << e, (1 << e) + 1] {
                around(k as f64);
                around(k as f64 + 0.5);
            }
        }
        for _ in 0..200_000 {
            let k = next() % TWO52;
            around(k as f64 + 0.5);
            around(k as f64);
        }
        // [2⁵², 2⁵³]: spacing 1, so odd integers are where an addend of
        // (almost) ½ sits exactly between two representable sums.
        for j in 0..4096u64 {
            around((TWO52 + 2 * j + 1) as f64);
            around((2 * TWO52 - 2 * j - 1) as f64);
        }
        for _ in 0..200_000 {
            around((TWO52 + ((next() % TWO52) | 1)) as f64);
        }
        around((2 * TWO52) as f64);
        for _ in 0..2_000_000 {
            check(f64::from_bits(next()));
        }
    }

    #[test]
    fn zero_field_is_all_zero() {
        let q = prequantize(&[0.0; 64], 1e-3);
        assert!(q.iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_eb() {
        prequantize(&[1.0], 0.0);
    }

    #[test]
    fn large_magnitudes_survive() {
        // Values far from zero with a small bound — exercises the i64 range.
        let data = vec![3.0e7f32, -3.0e7];
        let q = prequantize(&data, 1e-3);
        let d: Vec<f32> = dequantize(&q, 1e-3);
        for (o, r) in data.iter().zip(&d) {
            // f32 has ~7 significant digits at 3e7, so the quantizer cannot
            // do better than the representation; allow 4 ulps of 3e7.
            assert!((o - r).abs() <= 8.0, "{o} vs {r}");
        }
    }
}
