//! Prints the throughput of both checksums on an 8 MiB buffer (median
//! of 15 passes). `cargo run --release -p cuszp-checksum --example throughput`
use std::hint::black_box;
use std::time::Instant;

fn median_gb_s(bytes: &[u8], sum: fn(&[u8]) -> u64) -> f64 {
    let mut secs: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sum(black_box(bytes)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    bytes.len() as f64 / secs[secs.len() / 2] / 1e9
}

fn main() {
    let bytes: Vec<u8> = (0..8u32 << 20)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    println!(
        "fnv1a      {:6.2} GB/s",
        median_gb_s(&bytes, cuszp_checksum::fnv1a)
    );
    println!(
        "wordsum64  {:6.2} GB/s",
        median_gb_s(&bytes, cuszp_checksum::wordsum64)
    );
}
