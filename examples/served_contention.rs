//! Served compress throughput and latency when clients contend.
//!
//! `N` client threads each run a closed loop of `remote compress`-style
//! calls — connect, one compress, hang up, as a `cuszp remote compress`
//! process does — against one server of 2 workers on loopback, for a
//! fixed wall time. Every reply must equal the locally built chunked
//! archive. The field is the Nyx `baryon_density` at `Small` scale (8
//! chunks of 256 Ki elements, relative bound 1e-3).
//!
//! Prints one line per client count: completed calls, aggregate MB/s of
//! field bytes and the p50 / p90 call latency. Only the public `Server`
//! / `Client` API is used, so the file builds against older checkouts
//! too.
//!
//! ```sh
//! cargo run --release --example served_contention -- [SECONDS] [CLIENTS ...]
//! # defaults: 10 seconds, clients 1 2 4
//! ```

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::parallel::WorkerPool;
use cuszp::server::{Client, CompressRequest, Server, ServerConfig};
use cuszp::{Compressor, Config, Dtype, ErrorBound, LosslessMode, PredictorMode, WorkflowMode};
use std::time::{Duration, Instant};

const CHUNK_TARGET: usize = 256 * 1024;
const WORKERS: usize = 2;

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: f64 = args.next().map_or(10.0, |s| s.parse().expect("SECONDS"));
    let mut clients: Vec<usize> = args.map(|s| s.parse().expect("CLIENTS")).collect();
    if clients.is_empty() {
        clients = vec![1, 2, 4];
    }

    let spec = dataset_fields(DatasetKind::Nyx)
        .into_iter()
        .find(|f| f.name == "baryon_density")
        .expect("datagen has Nyx baryon_density");
    let field = generate(&spec, Scale::Small);
    let config = Config {
        error_bound: ErrorBound::Relative(1e-3),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Auto,
        lossless: LosslessMode::Auto,
        ..Config::default()
    };
    let local = Compressor::new(config)
        .compress_chunked_with(&field.data, field.dims, CHUNK_TARGET, &WorkerPool::new(2))
        .expect("local compress")
        .to_bytes();
    let raw: Vec<u8> = field.data.iter().flat_map(|x| x.to_le_bytes()).collect();
    let req = CompressRequest {
        dims: field.dims,
        dtype: Dtype::F32,
        error_bound: config.error_bound,
        workflow: config.workflow,
        predictor: config.predictor,
        lossless: config.lossless,
        chunk_target: CHUNK_TARGET as u64,
        parity: None,
        data: &raw,
    };

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());

    println!(
        "{} MB field, server workers {WORKERS}, {seconds} s per client count",
        raw.len() as f64 / 1e6
    );
    for &n in &clients {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut ms: Vec<f64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        let mut times = Vec::new();
                        while Instant::now() < deadline {
                            let t = Instant::now();
                            let mut client = Client::connect(addr.as_str()).expect("connect");
                            let served = client.compress(&req).expect("served compress");
                            drop(client);
                            times.push(t.elapsed().as_secs_f64() * 1e3);
                            assert!(served == local, "served archive != local chunked archive");
                        }
                        times
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        ms.sort_by(f64::total_cmp);
        let q = |f: f64| ms[((ms.len() - 1) as f64 * f).round() as usize];
        println!(
            "clients {n}  calls {:4}  {:7.1} MB/s  p50 {:7.2} ms  p90 {:7.2} ms",
            ms.len(),
            ms.len() as f64 * raw.len() as f64 / 1e6 / wall,
            q(0.5),
            q(0.9)
        );
    }
    handle.shutdown();
    join.join().expect("serve thread").expect("serve");
}
