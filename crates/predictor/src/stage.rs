//! The predictor stage abstraction behind per-chunk codec plans.
//!
//! Both predictors share the same dual-quantization frame: the engine
//! prequantizes the field into its `i64` arena, the stage turns that
//! arena into quant-codes + sparse outliers on the way in, and rebuilds
//! the prequantized integers from decoded codes + outliers on the way
//! out. What differs is only the prediction structure — the first-order
//! Lorenzo stencil versus the coarse-to-fine interpolation traversal —
//! so that difference is what the trait isolates. Neither implementation
//! allocates per call beyond growing the caller's arenas: chunk workers
//! keep one [`PipelineEngine`](../../cuszp_core) per thread and reuse
//! the same buffers across every chunk regardless of which plan each
//! chunk picked.

use crate::{Dims, OutlierList, ReconstructEngine};

/// One predictor of a per-chunk codec plan: postquantization over an
/// already-prequantized field into caller-owned arenas, and the exact
/// inverse. Implementations must be stateless (`Send + Sync`) so one
/// static instance can serve every worker thread.
pub trait PredictorStage: Send + Sync {
    /// Short stable name ("lorenzo" / "interpolation") for plan labels.
    fn name(&self) -> &'static str;

    /// Quantizes prediction residuals of the prequantized field `dq`
    /// into `codes` (resized to the field and written everywhere, outlier
    /// positions with the placeholder `0`), returning the out-of-range
    /// residuals index-sorted. `dq` is preserved — the engine may probe
    /// it again.
    fn construct(
        &self,
        dq: &mut [i64],
        dims: Dims,
        radius: u16,
        codes: &mut Vec<u16>,
    ) -> OutlierList;

    /// Rebuilds the prequantized integers from decoded codes + outliers
    /// into `dq` (resized to the field length). `engine` selects the
    /// Lorenzo reconstruction kernel; the interpolation traversal is
    /// level-parallel by construction and ignores it.
    fn reconstruct(
        &self,
        codes: &[u16],
        outliers: &OutlierList,
        dims: Dims,
        radius: u16,
        engine: ReconstructEngine,
        dq: &mut Vec<i64>,
    );
}

/// First-order Lorenzo prediction (the paper's pipeline): tiled stencil
/// construction, partial-sum reconstruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LorenzoStage;

impl PredictorStage for LorenzoStage {
    fn name(&self) -> &'static str {
        "lorenzo"
    }

    fn construct(
        &self,
        dq: &mut [i64],
        dims: Dims,
        radius: u16,
        codes: &mut Vec<u16>,
    ) -> OutlierList {
        crate::construct_codes_into(dq, dims, radius, codes);
        crate::gather_outliers(dq, codes, dims, radius)
    }

    fn reconstruct(
        &self,
        codes: &[u16],
        outliers: &OutlierList,
        dims: Dims,
        radius: u16,
        engine: ReconstructEngine,
        dq: &mut Vec<i64>,
    ) {
        crate::fuse_codes_and_outliers_into(codes, outliers, radius, dq);
        crate::reconstruct_in_place(dq, dims, engine);
    }
}

/// Multi-level cubic interpolation (the SZ3 / cuSZ-i successor): wins on
/// smooth long-range structure, loses on noisy fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpolationStage;

impl PredictorStage for InterpolationStage {
    fn name(&self) -> &'static str {
        "interpolation"
    }

    fn construct(
        &self,
        dq: &mut [i64],
        dims: Dims,
        radius: u16,
        codes: &mut Vec<u16>,
    ) -> OutlierList {
        crate::interpolation::construct_interpolation_codes(dq, dims, radius, codes)
    }

    fn reconstruct(
        &self,
        codes: &[u16],
        outliers: &OutlierList,
        dims: Dims,
        radius: u16,
        _engine: ReconstructEngine,
        dq: &mut Vec<i64>,
    ) {
        crate::interpolation::reconstruct_interpolation_prequant_into(
            codes, outliers, radius, dims, dq,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dequantize, prequantize, DEFAULT_CAP};

    fn field() -> (Vec<f32>, Dims) {
        let dims = Dims::D2 { ny: 37, nx: 53 };
        let data = (0..dims.len())
            .map(|i| (i as f32 * 0.013).sin() * 5.0 + (i as f32 * 0.0007).cos())
            .collect();
        (data, dims)
    }

    #[test]
    fn both_stages_round_trip_through_shared_arenas() {
        let (data, dims) = field();
        let eb = 1e-3;
        let radius = DEFAULT_CAP / 2;
        for stage in [
            &LorenzoStage as &dyn PredictorStage,
            &InterpolationStage as &dyn PredictorStage,
        ] {
            let mut dq = prequantize(&data, eb);
            let expect = dq.clone();
            let mut codes = Vec::new();
            let outliers = stage.construct(&mut dq, dims, radius, &mut codes);
            assert_eq!(dq, expect, "{}: construct must preserve dq", stage.name());
            let mut back = Vec::new();
            stage.reconstruct(
                &codes,
                &outliers,
                dims,
                radius,
                ReconstructEngine::FinePartialSum,
                &mut back,
            );
            assert_eq!(back, expect, "{}: integer path lossless", stage.name());
            let floats: Vec<f32> = dequantize(&back, eb);
            for (o, r) in data.iter().zip(&floats) {
                assert!(((o - r).abs() as f64) <= eb * 1.001, "{o} vs {r}");
            }
        }
    }

    #[test]
    fn stage_codes_match_the_standalone_constructors() {
        let (data, dims) = field();
        let eb = 5e-3;
        let radius = DEFAULT_CAP / 2;

        let mut dq = prequantize(&data, eb);
        let mut codes = Vec::new();
        let out_i = InterpolationStage.construct(&mut dq, dims, radius, &mut codes);
        let qf = crate::construct_interpolation(&data, dims, eb, DEFAULT_CAP);
        assert_eq!(codes, qf.codes);
        assert_eq!(out_i, qf.outliers);

        let out_l = LorenzoStage.construct(&mut dq, dims, radius, &mut codes);
        let qf = crate::construct(&data, dims, eb, DEFAULT_CAP);
        assert_eq!(codes, qf.codes);
        assert_eq!(out_l, qf.outliers);
    }
}
