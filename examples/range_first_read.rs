//! Served range reads of archives the server has never seen, against
//! repeated reads of one archive.
//!
//! A strict `get_range` verifies the whole container the first time a
//! server sees its bytes; a repeated read of the same bytes does not.
//! This probe times the three cases apart, through one server and one
//! client over loopback, on the Nyx `baryon_density` field at `Small`
//! scale (8 chunks of 256 Ki elements, relative bound 1e-3):
//!
//! * `first`: every read is of archive bytes the server has not seen —
//!   a fresh server per pass, each of `K` distinct archives read once;
//! * `uncached`: `cache_bytes = 0`, so every read verifies and decodes;
//! * `hot`: one archive and one box, read again and again.
//!
//! Each box is about 40 Ki elements inside one chunk. Only the public
//! `Server` / `Client` API is used, so the file builds against older
//! checkouts too.
//!
//! ```sh
//! cargo run --release --example range_first_read
//! ```

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::parallel::WorkerPool;
use cuszp::server::{Client, DecompressMode, Server, ServerConfig};
use cuszp::{Compressor, Config, ErrorBound, RangeSpec};
use std::time::Instant;

/// Distinct archives per pass.
const K: usize = 32;
/// Passes over the `K` archives (a fresh server each).
const PASSES: usize = 3;
const CHUNK_TARGET: usize = 256 * 1024;

fn main() {
    let spec = dataset_fields(DatasetKind::Nyx)
        .into_iter()
        .find(|f| f.name == "baryon_density")
        .expect("datagen has Nyx baryon_density");
    let field = generate(&spec, Scale::Small);
    let eb = ErrorBound::Relative(1e-3).absolute(&field.data);
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let pool = WorkerPool::new(2);
    // Distinct bytes, the same plan: each archive's field carries its
    // own perturbation of at most 1 % of the bound.
    let archives: Vec<Vec<u8>> = (0..K as u64)
        .map(|k| {
            let data: Vec<f32> = field
                .data
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let h = (i as u64 ^ (k << 40)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                    let unit = h as f64 / (1u64 << 53) as f64;
                    (x as f64 + (2.0 * unit - 1.0) * 0.01 * eb) as f32
                })
                .collect();
            compressor
                .compress_chunked_with(&data, field.dims, CHUNK_TARGET, &pool)
                .expect("compress")
                .to_bytes()
        })
        .collect();
    let (nz, ny, nx) = match field.dims {
        cuszp::Dims::D3 { nz, ny, nx } => (nz, ny, nx),
        other => panic!("Nyx is 3-D, got {other:?}"),
    };
    let slabs = nz.div_ceil((CHUNK_TARGET / (ny * nx)).max(1));
    let rows = nz / slabs;
    let box_in = |n: usize| {
        let z = (n % slabs) * rows + (n * 7) % (rows - 10).max(1);
        let y = (n * 13) % (ny - 64);
        let x = (n * 29) % (nx - 64);
        RangeSpec::new(vec![z..z + 10, y..y + 64, x..x + 64])
    };
    println!(
        "{} archives of {:?}, {:.0} KB each; box 10x64x64",
        K,
        field.dims,
        archives[0].len() as f64 / 1e3
    );

    let mut first = Vec::new();
    let mut uncached = Vec::new();
    for _ in 0..PASSES {
        first.extend(reads(2 << 20, (0..K).map(|k| (&archives[k], box_in(k)))));
        uncached.extend(reads(0, (0..K).map(|k| (&archives[k], box_in(k)))));
    }
    let hot_box = box_in(0);
    let hot = reads(
        2 << 20,
        (0..=K * PASSES).map(|_| (&archives[0], hot_box.clone())),
    );
    report("first", &first);
    report("uncached", &uncached);
    // The first hot read is a first read: drop it.
    report("hot", &hot[1..]);
}

/// Times each strict `get_range` on a fresh server with `cache_bytes`.
fn reads<'a>(cache_bytes: usize, reqs: impl Iterator<Item = (&'a Vec<u8>, RangeSpec)>) -> Vec<f64> {
    let config = ServerConfig {
        workers: 2,
        cache_bytes,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let times = reqs
        .map(|(archive, spec)| {
            let t = Instant::now();
            client
                .get_range(archive, &spec, DecompressMode::Strict)
                .expect("get_range");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    handle.shutdown();
    join.join().expect("serve thread").expect("serve");
    times
}

fn report(name: &str, ms: &[f64]) {
    let mut v = ms.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    println!(
        "{name:9} n {:3}  p50 {:.3} ms  [p25 {:.3}, p75 {:.3}]",
        v.len(),
        q(0.5),
        q(0.25),
        q(0.75)
    );
}
