//! The unified pipeline engine: one scratch-reusing driver behind every
//! compress/decompress entry point.
//!
//! Three call sites used to each re-allocate the full working set per
//! field — the v1 [`crate::Compressor`], the chunked (CSZ2) worker pool,
//! and the fault-isolated recovery decoder. A [`PipelineEngine`] owns
//! that working set instead:
//!
//! * `dq` — the prequant/fused-delta buffer (`i64` per element),
//! * `codes` — the quant-code buffer (`u16` per element),
//! * `hist` — the symbol histogram (`cap` bins),
//!
//! and drives the stage sequence explicitly: *prequant → Lorenzo +
//! postquant → outlier gather → histogram → selector → entropy code* on
//! the way in, *code decode → outlier fuse → partial-sum → dequant* on
//! the way out. A worker thread keeps one engine and reuses its arenas
//! across chunks, so steady-state compression allocates only for the
//! outputs that outlive the call (outlier list, coded payload, archive
//! bytes), not for the per-chunk working set.
//!
//! The engine is generic over the element type: encode takes an
//! [`Element`] (it records `T::DTYPE`), decode any [`Scalar`].

use crate::archive::Archive;
use crate::element::Element;
use crate::error::CuszpError;
use crate::stats::CompressionStats;
use crate::workflow::{encode_codes_from, WorkflowMode};
use crate::{Config, ErrorBound, LosslessMode, Predictor, PredictorMode};
use cuszp_analysis::{analyze_with_histogram, score_predictors, PredictorChoice};
use cuszp_parallel::WorkerPool;
use cuszp_predictor::{Dims, ReconstructEngine, Scalar};

/// Prefix of the bitshuffled section the lossless probe trial-compresses
/// before committing to a full pass.
const LOSSLESS_PROBE_BYTES: usize = 16 * 1024;

// The probe transposes only this prefix. Whole blocks transpose
// independently, so what it sees is the prefix of the full transposition
// and the rest can be appended once the probe says the wrap pays.
const _: () = assert!(LOSSLESS_PROBE_BYTES.is_multiple_of(cuszp_lossless::BITSHUFFLE_BLOCK));

/// Safety margin on the probe's extrapolated ratio: the wrap is applied
/// only when the predicted full size — inflated by this factor — still
/// beats the plain section.
const LOSSLESS_PROBE_MARGIN: f64 = 1.06;

/// Sections smaller than this never take the wrap: the container
/// overhead dominates and the probe is all cost.
const LOSSLESS_MIN_SECTION: usize = 256;

/// Reusable per-thread scratch arenas plus the stage driver. See the
/// module docs for the stage sequence.
#[derive(Debug, Default)]
pub struct PipelineEngine {
    /// Prequantized values on the way in; fused deltas / reconstructed
    /// prequant on the way out.
    dq: Vec<i64>,
    /// Quant-codes (one per element).
    codes: Vec<u16>,
    /// Symbol histogram (`cap` bins).
    hist: Vec<u32>,
}

impl PipelineEngine {
    /// Creates an engine with empty arenas; they grow to the largest
    /// field seen and stay allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lanes an in-process call fans its chunks out over: one fresh
    /// engine per worker of `pool`.
    pub(crate) fn per_worker(pool: &WorkerPool) -> Vec<Self> {
        (0..pool.workers()).map(|_| Self::new()).collect()
    }

    /// Compresses one field through the full pipeline.
    ///
    /// `eb` is the already-resolved *absolute* error bound — callers
    /// validate input and resolve relative bounds first (see
    /// [`validate_and_range`] / [`resolve_bound`]): v1 and CSZ2 both
    /// resolve once, over the whole field.
    pub fn compress<T: Element>(
        &mut self,
        config: &Config,
        data: &[T],
        dims: Dims,
        eb: f64,
    ) -> Result<(Archive, CompressionStats), CuszpError> {
        debug_assert_eq!(data.len(), dims.len());
        let cap = config.cap;
        assert!(
            cap >= 4 && cap.is_multiple_of(2),
            "cap must be even and ≥ 4"
        );
        let radius = cap / 2;
        // Prequantize once into the arena; every later plan decision
        // (predictor probe, stage construct) reads the same buffer.
        self.dq.resize(data.len(), 0);
        cuszp_predictor::prequantize_into(data, eb, &mut self.dq);

        let predictor = match config.predictor {
            PredictorMode::Force(p) => p,
            PredictorMode::Auto => match score_predictors(&self.dq, dims).choice {
                PredictorChoice::Lorenzo => Predictor::Lorenzo,
                PredictorChoice::Interpolation => Predictor::Interpolation,
            },
        };
        let outliers = predictor
            .stage()
            .construct(&mut self.dq, dims, radius, &mut self.codes);

        cuszp_huffman::histogram_into(&self.codes, cap as usize, &mut self.hist);
        let report = analyze_with_histogram(&self.codes, &self.hist);
        let choice = match config.workflow {
            WorkflowMode::Auto => report.choice,
            WorkflowMode::Force(c) => c,
        };
        let payload = encode_codes_from(&self.codes, cap, &self.hist, choice);
        let mut archive =
            Archive::assemble(dims, eb, radius * 2, outliers, payload, T::DTYPE, predictor);
        if config.lossless == LosslessMode::Auto {
            maybe_wrap_lossless(&mut archive);
        }
        let stats = CompressionStats::new(data.len(), T::BYTES, &archive, report);
        Ok((archive, stats))
    }

    /// Decompresses one archive into a caller-owned slab whose length
    /// must equal `archive.dims.len()`. Dtype dispatch stays with the
    /// caller; this only runs the stage sequence.
    pub fn decompress_into<T: Scalar>(
        &mut self,
        archive: &Archive,
        engine: ReconstructEngine,
        out: &mut [T],
    ) -> Result<(), CuszpError> {
        assert_eq!(
            out.len(),
            archive.dims.len(),
            "output slab length must match dims"
        );
        archive.decode_codes_into(&mut self.codes)?;
        archive.predictor.stage().reconstruct(
            &self.codes,
            &archive.outliers,
            archive.dims,
            archive.cap / 2,
            engine,
            &mut self.dq,
        );
        cuszp_predictor::dequantize_into(&self.dq, archive.eb, out);
        Ok(())
    }

    /// [`PipelineEngine::decompress_into`] allocating the output field.
    pub fn decompress<T: Scalar>(
        &mut self,
        archive: &Archive,
        engine: ReconstructEngine,
    ) -> Result<Vec<T>, CuszpError> {
        let mut out = vec![T::from_f64(0.0); archive.dims.len()];
        self.decompress_into(archive, engine, &mut out)?;
        Ok(out)
    }

    /// Decodes and validates the code payload without reconstructing —
    /// the recovery scanner's integrity probe, reusing the code arena.
    pub fn validate_codes(&mut self, archive: &Archive) -> Result<(), CuszpError> {
        archive.decode_codes_into(&mut self.codes)
    }
}

/// Decides whether the archive's coded section takes the bitshuffle +
/// LZ77 wrap, and applies it when it pays. The decision is a pure
/// function of the section bytes — chunk workers reach the same answer
/// at any worker count — and costs the transposition and one trial
/// compression of a [`LOSSLESS_PROBE_BYTES`] prefix before any
/// full-section pass runs.
fn maybe_wrap_lossless(archive: &mut Archive) {
    let plain = archive.codes_section_bytes();
    if plain.len() < LOSSLESS_MIN_SECTION {
        return;
    }
    let (head, rest) = plain.split_at(LOSSLESS_PROBE_BYTES.min(plain.len()));
    let mut shuffled = cuszp_lossless::bitshuffle(head);
    let probe_ratio = cuszp_lossless::compressed_size(&shuffled) as f64 / head.len() as f64;
    let predicted = probe_ratio * plain.len() as f64 * LOSSLESS_PROBE_MARGIN + 8.0;
    if predicted >= plain.len() as f64 {
        return;
    }
    shuffled.extend_from_slice(&cuszp_lossless::bitshuffle(rest));
    let compressed = cuszp_lossless::compress(&shuffled);
    if 8 + compressed.len() < plain.len() {
        archive.set_lossless_wrap(plain.len(), compressed);
    }
}

/// What one pass over a field learns: its extremes, widened to `f64`,
/// and whether every value was finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FieldScan {
    /// Smallest value seen (`+∞` when there was none).
    pub lo: f64,
    /// Largest value seen (`−∞` when there was none).
    pub hi: f64,
    /// No NaN and no infinity.
    pub all_finite: bool,
}

impl FieldScan {
    /// `hi − lo`; `0.0` for an empty, a constant or an all-NaN field.
    pub fn range(&self) -> f64 {
        if self.hi > self.lo {
            self.hi - self.lo
        } else {
            0.0
        }
    }

    /// `max(|lo|, |hi|)`; `0.0` for an empty field.
    pub fn max_abs(&self) -> f64 {
        if self.hi >= self.lo {
            self.lo.abs().max(self.hi.abs())
        } else {
            0.0
        }
    }
}

/// Independent accumulators of the range scan. Sixteen is what measured
/// fastest for both element types: the three selects per lane compile to
/// whole-register compare-and-blend, which narrower groups did not.
const SCAN_LANES: usize = 16;

/// The one range scan: min, max and finiteness in a single pass with no
/// early exit, so the loop has no data-dependent branch. A NaN compares
/// false against every lane and leaves it alone — lanes start at ±∞,
/// never at a data value — which is the NaN-ignoring contract
/// [`ErrorBound::absolute`] documents; an infinity does move a lane, and
/// both clear `all_finite`.
pub(crate) fn scan_field<T: Scalar>(data: &[T]) -> FieldScan {
    let mut lo = [T::from_f64(f64::INFINITY); SCAN_LANES];
    let mut hi = [T::from_f64(f64::NEG_INFINITY); SCAN_LANES];
    // A lane keeps the last NaN it met: a select in the element's own
    // width, like the two above, where a `bool` flag is not.
    let mut nan = [T::default(); SCAN_LANES];
    let mut step = |k: usize, x: T| {
        lo[k] = if x < lo[k] { x } else { lo[k] };
        hi[k] = if x > hi[k] { x } else { hi[k] };
        nan[k] = if is_nan(x) { x } else { nan[k] };
    };
    let mut groups = data.chunks_exact(SCAN_LANES);
    for g in &mut groups {
        let g: &[T; SCAN_LANES] = g.try_into().expect("chunks_exact yields whole groups");
        for (k, &x) in g.iter().enumerate() {
            step(k, x);
        }
    }
    for (k, &x) in groups.remainder().iter().enumerate() {
        step(k, x);
    }
    let mut scan = FieldScan {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
        all_finite: true,
    };
    for k in 0..SCAN_LANES {
        scan.lo = scan.lo.min(lo[k].to_f64());
        scan.hi = scan.hi.max(hi[k].to_f64());
        scan.all_finite &= !is_nan(nan[k]);
    }
    // An infinity in the data is an extreme of it (an empty field's
    // extremes are the lanes' starting values, the other way round).
    scan.all_finite &= scan.lo > f64::NEG_INFINITY && scan.hi < f64::INFINITY;
    scan
}

/// NaN is the one value unequal to itself.
#[inline(always)]
#[allow(clippy::eq_op)]
fn is_nan<T: Scalar>(x: T) -> bool {
    x != x
}

/// Single-pass input validation shared by every compression driver: the
/// dims/length check, then the finiteness check and the value extremes
/// (for relative-bound resolution and the quantizer's range guard) from
/// one [`scan_field`].
pub(crate) fn validate_and_range<T: Scalar>(
    data: &[T],
    dims: Dims,
) -> Result<FieldScan, CuszpError> {
    if data.len() != dims.len() {
        return Err(CuszpError::DimsMismatch {
            data: data.len(),
            dims: dims.len(),
        });
    }
    let scan = scan_field(data);
    if !scan.all_finite {
        return Err(CuszpError::NonFiniteInput);
    }
    Ok(scan)
}

/// Largest `max|x| / (2·eb)` the quantizer accepts, exclusive: 2⁵³. Up to
/// it an `f64` holds the quotient to the unit; past it the rounding in
/// [`cuszp_predictor::prequantize_into`] is no longer to the nearest
/// integer, and well before `i64` the saturating cast would silently
/// clamp. Below it neither the cast, an 8-term Lorenzo stencil nor a
/// cubic interpolation sum can leave `i64`.
pub(crate) const QUANT_LIMIT: f64 = (1u64 << 53) as f64;

/// Resolves a configured bound against a scanned field and validates the
/// result: the bound must be positive and finite, and the field must fit
/// the quantizer's integer range under it ([`QUANT_LIMIT`]).
pub(crate) fn resolve_bound(bound: ErrorBound, scan: &FieldScan) -> Result<f64, CuszpError> {
    let eb = bound.absolute_for_range(scan.range());
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CuszpError::InvalidErrorBound(eb));
    }
    let max_abs = scan.max_abs();
    if max_abs / (2.0 * eb) >= QUANT_LIMIT {
        return Err(CuszpError::QuantizerRange { max_abs, eb });
    }
    Ok(eb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_dims_and_nan() {
        assert!(matches!(
            validate_and_range(&[1.0f32, 2.0], Dims::D1(3)),
            Err(CuszpError::DimsMismatch { .. })
        ));
        assert!(matches!(
            validate_and_range(&[1.0f32, f32::NAN], Dims::D1(2)),
            Err(CuszpError::NonFiniteInput)
        ));
        let empty = validate_and_range::<f32>(&[], Dims::D1(0)).unwrap();
        assert_eq!((empty.range(), empty.max_abs()), (0.0, 0.0));
        let scan = validate_and_range(&[2.0f32, -1.0, 4.0], Dims::D1(3)).unwrap();
        assert_eq!((scan.lo, scan.hi, scan.range()), (-1.0, 4.0, 5.0));
    }

    /// The early-return loop [`scan_field`] replaced, as
    /// `validate_and_range` ran it.
    fn reference_validated_range<T: Scalar>(data: &[T]) -> Result<f64, CuszpError> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for x in data {
            if !x.is_finite_scalar() {
                return Err(CuszpError::NonFiniteInput);
            }
            let v = x.to_f64();
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Ok(if data.is_empty() { 0.0 } else { hi - lo })
    }

    /// The private copy of that loop `ErrorBound::absolute` kept: no
    /// validation, a NaN compares false and is skipped.
    fn reference_absolute<T: Scalar>(bound: ErrorBound, data: &[T]) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for x in data {
            let v = x.to_f64();
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        bound.absolute_for_range(if data.is_empty() { 0.0 } else { hi - lo })
    }

    fn assert_scan_matches_references<T: Scalar>(data: &[T], what: &str) {
        let dims = Dims::D1(data.len());
        let got = validate_and_range(data, dims).map(|scan| scan.range().to_bits());
        let want = reference_validated_range(data).map(f64::to_bits);
        assert_eq!(got, want, "{what}: {data:?}");
        if let Ok(scan) = validate_and_range(data, dims) {
            let max_abs = data.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max);
            assert_eq!(scan.max_abs(), max_abs, "{what}: {data:?}");
        }
        let bound = ErrorBound::Relative(1e-3);
        assert_eq!(
            bound.absolute(data).to_bits(),
            reference_absolute(bound, data).to_bits(),
            "{what}: {data:?}"
        );
    }

    /// Every length that leaves a different lane tail, with a NaN, an
    /// infinity or a signed zero moved through every position.
    fn scan_cases<T: Scalar>() {
        let v = T::from_f64;
        for n in 0..=40usize {
            let base: Vec<T> = (0..n)
                .map(|i| v(((i * 37 + 11) % 23) as f64 - 9.5))
                .collect();
            assert_scan_matches_references(&base, "plain");
            let zeros: Vec<T> = (0..n)
                .map(|i| v(if i % 3 == 0 { -0.0 } else { 0.0 }))
                .collect();
            assert_scan_matches_references(&zeros, "signed zeros");
            for at in 0..n {
                for (odd, what) in [
                    (f64::NAN, "NaN"),
                    (f64::INFINITY, "+Inf"),
                    (f64::NEG_INFINITY, "-Inf"),
                    (-0.0, "-0.0"),
                ] {
                    let mut data = base.clone();
                    data[at] = v(odd);
                    assert_scan_matches_references(&data, what);
                    let mut data = zeros.clone();
                    data[at] = v(odd);
                    assert_scan_matches_references(&data, what);
                }
                // A NaN ahead of an infinity: the early return named the
                // same error either way.
                let mut data = base.clone();
                data[at] = v(f64::NAN);
                data[n - 1 - at] = v(f64::INFINITY);
                assert_scan_matches_references(&data, "NaN and Inf");
            }
            let all_nan = vec![v(f64::NAN); n];
            assert_scan_matches_references(&all_nan, "all NaN");
            let all_inf = vec![v(f64::NEG_INFINITY); n];
            assert_scan_matches_references(&all_inf, "all -Inf");
        }
    }

    #[test]
    fn lane_scan_equals_the_sequential_loops() {
        scan_cases::<f32>();
        scan_cases::<f64>();
    }

    #[test]
    fn dims_mismatch_is_reported_before_non_finite_input() {
        assert!(matches!(
            validate_and_range(&[f32::NAN, 1.0], Dims::D1(3)),
            Err(CuszpError::DimsMismatch { data: 2, dims: 3 })
        ));
    }

    #[test]
    fn quantizer_range_is_guarded_at_two_to_the_53() {
        let scan = |x: f64| FieldScan {
            lo: -x,
            hi: x / 2.0,
            all_finite: true,
        };
        let eb = ErrorBound::Absolute(0.5); // 2·eb = 1: steps = max|x|
        assert_eq!(resolve_bound(eb, &scan(QUANT_LIMIT.next_down())), Ok(0.5));
        assert_eq!(
            resolve_bound(eb, &scan(QUANT_LIMIT)),
            Err(CuszpError::QuantizerRange {
                max_abs: QUANT_LIMIT,
                eb: 0.5
            })
        );
        // An empty field has no magnitude to refuse.
        let empty = scan_field::<f32>(&[]);
        assert_eq!(
            resolve_bound(ErrorBound::Absolute(f64::MIN_POSITIVE), &empty),
            Ok(f64::MIN_POSITIVE)
        );
    }

    #[test]
    fn engine_matches_compressor_bytes() {
        let data: Vec<f32> = (0..20_000)
            .map(|i| (i as f32 * 0.002).sin() * 4.0)
            .collect();
        let config = Config::default();
        let via_compressor = crate::Compressor::new(config)
            .compress(&data, Dims::D1(20_000))
            .unwrap();
        let mut eng = PipelineEngine::new();
        let scan = validate_and_range(&data, Dims::D1(20_000)).unwrap();
        let eb = resolve_bound(config.error_bound, &scan).unwrap();
        let (via_engine, _) = eng.compress(&config, &data, Dims::D1(20_000), eb).unwrap();
        assert_eq!(via_compressor.to_bytes(), via_engine.to_bytes());
    }

    #[test]
    fn scratch_survives_shrinking_and_growing_fields() {
        let mut eng = PipelineEngine::new();
        let config = Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        };
        for n in [10_000usize, 100, 40_000, 0, 256] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).cos()).collect();
            let (archive, _) = eng.compress(&config, &data, Dims::D1(n), 1e-3).unwrap();
            let recon: Vec<f32> = eng
                .decompress(&archive, ReconstructEngine::FinePartialSum)
                .unwrap();
            for (o, r) in data.iter().zip(&recon) {
                assert!((o - r).abs() <= 1e-3 * 1.001, "n={n}: {o} vs {r}");
            }
        }
    }
}
