//! The quantizer's range guard (ROADMAP item 1a, encode half).
//!
//! Prequantization is `round(d / 2eb)` cast to `i64`, a saturating cast:
//! a finite field far enough above its bound used to compress with exit
//! 0 and decode off by the field's own magnitude. Every driver now
//! refuses, typed, a field whose `max|x| / 2eb` reaches 2⁵³. The property
//! here draws `(max|x|, eb)` on both sides of that limit, `f32` and
//! `f64`, through v1 and both chunked drivers: the outcome is that typed
//! error or a round trip inside the bound — nothing else, and which of
//! the two is decided by the limit alone.

use cuszp_core::{Compressor, Config, CuszpError, Decode, Dims, Dtype, Element, ErrorBound};
use cuszp_parallel::WorkerPool;
use proptest::prelude::*;

const LIMIT: f64 = (1u64 << 53) as f64;

const DIMS: Dims = Dims::D2 { ny: 12, nx: 17 };

/// Small enough that the 12 × 17 field splits into several chunks.
const CHUNK_TARGET: usize = 60;

/// A field spanning `[-max_abs, max_abs]`, reaching `max_abs` itself.
fn field<T: Element>(max_abs: f64, shape: &[f64]) -> Vec<T> {
    let mut data: Vec<T> = (0..DIMS.len())
        .map(|i| T::from_f64(max_abs * shape[i % shape.len()]))
        .collect();
    data[DIMS.len() / 2] = T::from_f64(max_abs);
    data
}

/// Compresses through all three drivers and checks the one property;
/// returns whether the field was refused.
fn check<T: Element>(data: &[T], eb: f64) -> Result<bool, TestCaseError> {
    // What the guard sees: the field as stored, widened.
    let max_abs = data.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max);
    let must_refuse = max_abs / (2.0 * eb) >= LIMIT;

    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(eb),
        ..Config::default()
    });
    let pool = WorkerPool::new(2);
    let mut engine = cuszp_core::PipelineEngine::new();
    let outcomes = [
        (
            "v1",
            c.compress_with_stats(data, DIMS).map(|(a, _)| a.to_bytes()),
        ),
        (
            "chunked",
            c.compress_chunked_with_stats(data, DIMS, CHUNK_TARGET, &pool)
                .map(|(a, _)| a.to_bytes()),
        ),
        (
            "chunked on one engine",
            c.compress_chunked_with_engine(data, DIMS, CHUNK_TARGET, &mut engine)
                .map(|a| a.to_bytes()),
        ),
    ];
    for (driver, outcome) in outcomes {
        match outcome {
            Err(CuszpError::QuantizerRange { max_abs: m, eb: e }) => {
                prop_assert!(must_refuse, "{driver}: refused {max_abs:e} at {eb:e}");
                prop_assert_eq!((m, e), (max_abs, eb), "{}: the error names both", driver);
            }
            Err(other) => prop_assert!(false, "{driver}: unexpected error {other}"),
            Ok(bytes) => {
                prop_assert!(!must_refuse, "{driver}: accepted {max_abs:e} at {eb:e}");
                let (back, dims) = Decode::new(&bytes)
                    .strict::<T>()
                    .map_err(|e| TestCaseError::fail(format!("{driver}: decode failed: {e}")))?;
                prop_assert_eq!(dims, DIMS);
                // The bound, plus what the element type itself cannot
                // hold this close to the limit: a few ulps of the value.
                let ulp = match T::DTYPE {
                    Dtype::F32 => f32::EPSILON as f64,
                    Dtype::F64 => f64::EPSILON,
                };
                for (o, r) in data.iter().zip(&back) {
                    let (o, r) = (o.to_f64(), r.to_f64());
                    let slack = eb * (1.0 + 1e-6) + 4.0 * o.abs() * ulp;
                    prop_assert!(
                        (o - r).abs() <= slack,
                        "{driver}: {o:e} came back {r:e}, off by {:e} at eb {eb:e}",
                        (o - r).abs()
                    );
                }
            }
        }
    }
    Ok(must_refuse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `steps_log2` is log₂ of `max|x| / 2eb`: 53 is the limit, and the
    /// draw leans on its neighbourhood.
    #[test]
    fn typed_refusal_or_in_bound_round_trip(
        steps_log2 in prop_oneof![30.0f64..70.0, 52.0f64..54.0],
        max_log2 in -20.0f64..100.0,
        shape in prop::collection::vec(-1.0f64..1.0, 5..40),
    ) {
        let max_abs = max_log2.exp2();
        let eb = max_abs / steps_log2.exp2() / 2.0;
        check::<f32>(&field(max_abs, &shape), eb)?;
        check::<f64>(&field(max_abs, &shape), eb)?;
    }

    /// The limit itself: powers of two make `max|x| / 2eb` exact, so the
    /// last accepted and the first refused field sit side by side.
    #[test]
    fn the_limit_is_exclusive(max_exp in -10i32..90, shape in prop::collection::vec(-1.0f64..1.0, 5..40)) {
        let max_abs = (max_exp as f64).exp2();
        let eb = max_abs / LIMIT / 2.0;
        let at: Vec<f64> = field(max_abs, &shape);
        prop_assert!(check(&at, eb)?, "a field at the limit is refused");
        let below: Vec<f64> = field(max_abs.next_down(), &shape);
        prop_assert!(!check(&below, eb)?, "the next field below it is not");
    }
}

/// The two fields ROADMAP item 1 reproduced exiting 0 and decoding 10³⁰
/// off: both are refused, by every driver, naming magnitude and bound.
#[test]
fn the_roadmap_reproductions_fail_typed() {
    fn refused<T: Element>(value: f64) {
        let data = vec![T::from_f64(value); DIMS.len()];
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        });
        let want = CuszpError::QuantizerRange {
            max_abs: T::from_f64(value).to_f64(),
            eb: 1e-3,
        };
        assert_eq!(c.compress(&data, DIMS).unwrap_err(), want);
        assert_eq!(
            c.compress_chunked_with(&data, DIMS, CHUNK_TARGET, &WorkerPool::new(1))
                .unwrap_err(),
            want
        );
        let mut engine = cuszp_core::PipelineEngine::new();
        assert_eq!(
            c.compress_chunked_with_engine(&data, DIMS, CHUNK_TARGET, &mut engine)
                .unwrap_err(),
            want
        );
        let text = want.to_string();
        assert!(text.contains("2^53") && text.contains("1e-3"), "{text}");
    }
    refused::<f32>(1e30);
    refused::<f64>(1e300);
}
