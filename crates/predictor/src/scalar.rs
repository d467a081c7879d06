//! Scalar abstraction over `f32`/`f64` fields.
//!
//! The paper's pipeline is identical for single and double precision —
//! only the prequantization boundary touches the float type, and the
//! attainable Huffman-cap ratio doubles (64× for doubles). Everything
//! between prequant and dequant is exact `i64` arithmetic either way.

/// A floating-point element type the compressor accepts.
pub trait Scalar: Copy + Default + Send + Sync + PartialOrd + std::fmt::Debug + 'static {
    /// Size of one element in bytes (4 or 8).
    const BYTES: usize;
    /// Widens to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Rounds from `f64` into this type.
    fn from_f64(v: f64) -> Self;
    /// True for normal/subnormal/zero values.
    fn is_finite_scalar(self) -> bool;
}

impl Scalar for f32 {
    const BYTES: usize = 4;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for f64 {
    const BYTES: usize = 8;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<f64 as Scalar>::BYTES, 8);
    }

    #[test]
    fn conversions_round_trip_exactly_for_f64() {
        let v = 1.234_567_890_123_456_7_f64;
        assert_eq!(f64::from_f64(v.to_f64()), v);
    }

    #[test]
    fn finite_checks() {
        assert!(1.0f32.is_finite_scalar());
        assert!(!f32::NAN.is_finite_scalar());
        assert!(!f64::INFINITY.is_finite_scalar());
    }
}
