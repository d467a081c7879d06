//! f32/f64 parity properties across the three pipeline drivers.
//!
//! An `f32` widens to `f64` exactly and the unified engine prequantizes
//! in f64 for both element types, so the same field compressed as f32
//! and as (widened) f64 must produce the same quant codes: the same
//! workflow choice, the same outlier population, and reconstructions
//! that agree bit-for-bit after narrowing. The chunked driver must
//! additionally produce byte-identical archives at any worker count,
//! and the recovery driver must reproduce the plain decoder's output
//! exactly on undamaged archives.

use cuszp_core::{
    decompress, Compressor, Config, Decode, ErrorBound, FillPolicy, WorkflowChoice, WorkflowMode,
};
use cuszp_parallel::WorkerPool;
use cuszp_predictor::Dims;
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Dims> {
    prop_oneof![
        (256usize..20_000).prop_map(Dims::D1),
        ((4usize..60), (4usize..60)).prop_map(|(ny, nx)| Dims::D2 { ny, nx }),
        ((2usize..16), (2usize..16), (2usize..16)).prop_map(|(nz, ny, nx)| Dims::D3 { nz, ny, nx }),
    ]
}

/// Mixed-character field: smooth waves, hash noise, flat stretches and
/// sparse spikes, so every workflow and the outlier path get exercised.
fn mixed_field(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (seed ^ i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            if i % 97 < 23 {
                2.5
            } else {
                let noise = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                let spike = if h.is_multiple_of(1499) { 200.0 } else { 0.0 };
                (i as f32 * 0.013).sin() * 4.0 + noise * 0.3 + spike
            }
        })
        .collect()
}

fn assert_bits_eq_after_narrowing(
    r32: &[f32],
    r64: &[f64],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(r32.len(), r64.len());
    for (i, (a, b)) in r32.iter().zip(r64).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            (*b as f32).to_bits(),
            "{}: f32/f64 reconstructions diverge at {}: {} vs {}",
            what,
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn all_drivers_agree_across_dtypes(
        dims in arb_dims(),
        seed in any::<u64>(),
        eb_exp in -4i32..-1,
        relative in any::<bool>(),
        wf in prop::sample::select(vec![
            WorkflowMode::Auto,
            WorkflowMode::Force(WorkflowChoice::Huffman),
            WorkflowMode::Force(WorkflowChoice::Rle),
            WorkflowMode::Force(WorkflowChoice::RleVle),
        ]),
    ) {
        let n = dims.len();
        let data32 = mixed_field(n, seed);
        let data64: Vec<f64> = data32.iter().map(|&x| x as f64).collect();
        let eb = 10f64.powi(eb_exp);
        let config = Config {
            error_bound: if relative {
                ErrorBound::Relative(eb)
            } else {
                ErrorBound::Absolute(eb)
            },
            workflow: wf,
            ..Config::default()
        };
        let c = Compressor::new(config);

        // Driver 1: whole-field v1 archives. The range (and so a relative
        // bound's resolution) is computed in f64, so both dtypes resolve
        // the exact same absolute bound and quant codes.
        let a32 = c.compress(&data32, dims).unwrap();
        let a64 = c.compress(&data64, dims).unwrap();
        prop_assert_eq!(a32.payload.choice(), a64.payload.choice());
        prop_assert_eq!(a32.outliers.len(), a64.outliers.len());
        prop_assert_eq!(a32.eb.to_bits(), a64.eb.to_bits());
        let (r32, d32) = decompress(&a32.to_bytes()).unwrap();
        let (r64, _) = Decode::new(&a64.to_bytes()).strict::<f64>().unwrap();
        prop_assert_eq!(d32, dims);
        assert_bits_eq_after_narrowing(&r32, &r64, "v1")?;
        let abs_eb = a32.eb;
        for (o, r) in data32.iter().zip(&r32) {
            let slack = abs_eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
            prop_assert!(
                ((o - r).abs() as f64) <= slack,
                "v1 bound {} violated: {} vs {}", abs_eb, o, r
            );
        }

        // Driver 2: chunked (CSZ2). Bytes are pinned to be identical for
        // any worker count; f32/f64 agree chunk-by-chunk.
        let target = (n / 3).max(256);
        let bytes1 = c
            .compress_chunked_with(&data32, dims, target, &WorkerPool::new(1))
            .unwrap()
            .to_bytes();
        let (ca32, stats) = c
            .compress_chunked_with_stats(&data32, dims, target, &WorkerPool::new(3))
            .unwrap();
        let bytes3 = ca32.to_bytes();
        prop_assert_eq!(&bytes1, &bytes3);
        prop_assert_eq!(stats.n_elements(), n);
        prop_assert_eq!(stats.per_chunk.len(), ca32.n_chunks());
        let ca64 = c
            .compress_chunked_with(&data64, dims, target, &WorkerPool::new(3))
            .unwrap();
        prop_assert_eq!(ca32.n_chunks(), ca64.n_chunks());
        for (c32, c64) in ca32.chunks.iter().zip(&ca64.chunks) {
            prop_assert_eq!(c32.payload.choice(), c64.payload.choice());
            prop_assert_eq!(c32.outliers.len(), c64.outliers.len());
        }
        let (cr32, _) = decompress(&bytes3).unwrap();
        let (cr64, _) = Decode::new(&ca64.to_bytes()).strict::<f64>().unwrap();
        assert_bits_eq_after_narrowing(&cr32, &cr64, "chunked")?;

        // Driver 3: recovery. On undamaged archives (v1 and chunked) the
        // resilient decoder must reproduce the plain decoder bit-for-bit.
        let rv32 = Decode::new(&a32.to_bytes()).resilient::<f32>(FillPolicy::Nan).unwrap();
        prop_assert_eq!(rv32.n_damaged(), 0);
        assert_bits_eq_after_narrowing(&rv32.data, &r64, "recovery v1")?;
        let rc32 = Decode::new(&bytes3).resilient::<f32>(FillPolicy::Nan).unwrap();
        prop_assert_eq!(rc32.n_damaged(), 0);
        let rc64 = Decode::new(&ca64.to_bytes()).resilient::<f64>(FillPolicy::Nan).unwrap();
        prop_assert_eq!(rc64.n_damaged(), 0);
        assert_bits_eq_after_narrowing(&rc32.data, &rc64.data, "recovery chunked")?;
        for (a, b) in rc32.data.iter().zip(&cr32) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
