//! Integration tests for the user-selectable predictor (Lorenzo vs
//! multi-level cubic interpolation) through the full archive pipeline.

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::metrics::verify_error_bound;
use cuszp::{Compressor, Config, Dims, ErrorBound, Predictor, PredictorMode};

#[test]
fn interpolation_round_trips_through_archives() {
    for kind in [DatasetKind::Nyx, DatasetKind::CesmAtm, DatasetKind::Hacc] {
        let spec = dataset_fields(kind)[0];
        let field = generate(&spec, Scale::Tiny);
        let config = Config {
            error_bound: ErrorBound::Relative(1e-3),
            predictor: PredictorMode::Force(Predictor::Interpolation),
            ..Config::default()
        };
        let eb = config.error_bound.absolute(&field.data);
        let archive = Compressor::new(config)
            .compress(&field.data, field.dims)
            .unwrap();
        assert_eq!(archive.predictor, Predictor::Interpolation);
        let bytes = archive.to_bytes();
        let (recon, dims) = cuszp::decompress(&bytes).unwrap();
        assert_eq!(dims, field.dims);
        verify_error_bound(&field.data, &recon, eb)
            .unwrap_or_else(|(i, e)| panic!("{}: bound violated at {i}: {e}", spec.name));
    }
}

#[test]
fn predictor_survives_serialization() {
    let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
    for predictor in [Predictor::Lorenzo, Predictor::Interpolation] {
        let config = Config {
            predictor: predictor.into(),
            ..Config::default()
        };
        let archive = Compressor::new(config)
            .compress(&data, Dims::D1(2048))
            .unwrap();
        let parsed = cuszp::Archive::from_bytes(&archive.to_bytes()).unwrap();
        assert_eq!(parsed.predictor, predictor);
        // Decompression must dispatch to the matching reconstruction.
        let (recon, _) = cuszp::decompress(&archive.to_bytes()).unwrap();
        assert_eq!(recon.len(), 2048);
    }
}

#[test]
fn interpolation_wins_on_smooth_3d_lorenzo_on_rowwise_fields() {
    // The ablation's head-to-head, asserted: cubic interpolation beats
    // Lorenzo on a long-range-smooth 3-D field; the zonal FSDSC (runs
    // along rows) favors Lorenzo+RLE.
    let smooth = generate(&dataset_fields(DatasetKind::Miranda)[0], Scale::Tiny);
    let measure = |field: &cuszp::datagen::Field, predictor| {
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-3),
            predictor: PredictorMode::Force(predictor),
            ..Config::default()
        });
        let (_, stats) = c.compress_with_stats(&field.data, field.dims).unwrap();
        stats.compression_ratio()
    };
    let lorenzo = measure(&smooth, Predictor::Lorenzo);
    let interp = measure(&smooth, Predictor::Interpolation);
    assert!(
        interp > lorenzo,
        "Miranda/density: interpolation {interp:.2} should beat Lorenzo {lorenzo:.2}"
    );
}

#[test]
fn f64_supports_both_predictors() {
    let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.002).sin() * 3.0).collect();
    for predictor in [Predictor::Lorenzo, Predictor::Interpolation] {
        let config = Config {
            error_bound: ErrorBound::Absolute(1e-8),
            predictor: predictor.into(),
            ..Config::default()
        };
        let archive = Compressor::new(config)
            .compress(&data, Dims::D1(4096))
            .unwrap();
        let (recon, _) = cuszp::Decode::new(&archive.to_bytes())
            .strict::<f64>()
            .unwrap();
        for (o, r) in data.iter().zip(&recon) {
            assert!(
                (o - r).abs() <= 1e-8 * 1.001,
                "{}: {o} vs {r}",
                predictor.name()
            );
        }
    }
}
