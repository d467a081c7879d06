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
use cuszp_predictor::{Dims, ReconstructEngine, Scalar};

/// Prefix of the bitshuffled section the lossless probe trial-compresses
/// before committing to a full pass.
const LOSSLESS_PROBE_BYTES: usize = 16 * 1024;

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
/// at any worker count — and costs one trial compression of a
/// [`LOSSLESS_PROBE_BYTES`] prefix before any full-section pass runs.
fn maybe_wrap_lossless(archive: &mut Archive) {
    let plain = archive.codes_section_bytes();
    if plain.len() < LOSSLESS_MIN_SECTION {
        return;
    }
    let shuffled = cuszp_lossless::bitshuffle(&plain);
    let probe = &shuffled[..LOSSLESS_PROBE_BYTES.min(shuffled.len())];
    let probe_ratio = cuszp_lossless::compressed_size(probe) as f64 / probe.len() as f64;
    let predicted = probe_ratio * shuffled.len() as f64 * LOSSLESS_PROBE_MARGIN + 8.0;
    if predicted >= plain.len() as f64 {
        return;
    }
    let compressed = cuszp_lossless::compress(&shuffled);
    if 8 + compressed.len() < plain.len() {
        archive.set_lossless_wrap(plain.len(), compressed);
    }
}

/// Single-pass input validation shared by every compression driver: the
/// dims/length check, the finiteness check, and the value range (for
/// relative-bound resolution) fused into one scan of the data. Returns
/// the range (`0.0` for an empty field).
pub(crate) fn validate_and_range<T: Scalar>(data: &[T], dims: Dims) -> Result<f64, CuszpError> {
    if data.len() != dims.len() {
        return Err(CuszpError::DimsMismatch {
            data: data.len(),
            dims: dims.len(),
        });
    }
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

/// Resolves a configured bound against a measured range and validates
/// the result.
pub(crate) fn resolve_bound(bound: ErrorBound, range: f64) -> Result<f64, CuszpError> {
    let eb = bound.absolute_for_range(range);
    if !(eb.is_finite() && eb > 0.0) {
        return Err(CuszpError::InvalidErrorBound(eb));
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
        assert_eq!(validate_and_range::<f32>(&[], Dims::D1(0)).unwrap(), 0.0);
        assert_eq!(
            validate_and_range(&[2.0f32, -1.0, 4.0], Dims::D1(3)).unwrap(),
            5.0
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
        let range = validate_and_range(&data, Dims::D1(20_000)).unwrap();
        let eb = resolve_bound(config.error_bound, range).unwrap();
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
