//! Quickstart: compress one synthetic climate field, inspect the stats,
//! decompress, and verify the error bound.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::metrics::{verify_error_bound, ErrorStats};
use cuszp::{Compressor, Config, ErrorBound};

fn main() {
    // 1. Get a field. Real deployments read raw f32 from disk
    //    (`cuszp::read_raw::<f32>`); here we synthesize a CESM-like
    //    2-D climate field.
    let spec = dataset_fields(DatasetKind::CesmAtm)
        .into_iter()
        .find(|s| s.name == "FSDSC")
        .expect("FSDSC exists");
    let field = generate(&spec, Scale::Small);
    println!(
        "field {:?}: {} elements ({:.1} MB)",
        field.name,
        field.data.len(),
        field.bytes() as f64 / 1e6
    );

    // 2. Configure: value-range-relative 1e-3 bound, adaptive workflow.
    let config = Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    };
    let compressor = Compressor::new(config);

    // 3. Compress.
    let t0 = std::time::Instant::now();
    let (archive, stats) = compressor
        .compress_with_stats(&field.data, field.dims)
        .expect("compression failed");
    let dt = t0.elapsed();
    println!("{stats}");
    println!(
        "selected {} (p1 = {:.4}, est. <b> in [{:.3}, {:.3}] bits)",
        stats.workflow.name(),
        stats.report.p1,
        stats.report.b_lower,
        stats.report.b_upper
    );
    println!(
        "compression: {:.1} MB/s wall-clock",
        field.bytes() as f64 / 1e6 / dt.as_secs_f64()
    );

    // 4. Serialize, decompress, verify.
    let bytes = archive.to_bytes();
    println!("archive: {} bytes on the wire", bytes.len());
    let (recon, dims) = cuszp::decompress(&bytes).expect("decompression failed");
    assert_eq!(dims, field.dims);

    let eb = config.error_bound.absolute(&field.data);
    let quality: ErrorStats =
        verify_error_bound(&field.data, &recon, eb).expect("error bound must hold");
    println!(
        "verified: max|err| = {:.3e} <= eb = {:.3e}, PSNR = {:.1} dB, NRMSE = {:.2e}",
        quality.max_abs_err, eb, quality.psnr, quality.nrmse
    );
}
