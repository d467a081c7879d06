//! Hot-slab cache behavior over a real loopback server: repeated range
//! reads are served from cache (observable through the hit counters and
//! bit-identical bytes), tiny budgets force evictions, a different
//! archive hash is a different key space, concurrent clients
//! hammering the same hot chunk never see torn reads, and a strict read
//! parses the whole container once per distinct archive bytes
//! (`containers_verified`).

use cuszp_core::{
    Compressor, Config, Dims, Dtype, ErrorBound, RangeSpec, ReconstructEngine, WorkflowMode,
};
use cuszp_parallel::WorkerPool;
use cuszp_server::{Client, DecompressMode, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;

const DIMS: Dims = Dims::D2 { ny: 48, nx: 2048 };
const CHUNK: usize = 16 * 2048; // -> 3 chunks of 16 slow-rows each
const EB: f64 = 1e-3;

fn start_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

fn stop_server(addr: SocketAddr, join: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown ack");
    join.join().expect("serve thread panicked").expect("serve");
}

fn test_field(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = i as f32 * 0.002 + phase;
            let rough = if i % 97 == 0 {
                (i % 13) as f32 * 0.3
            } else {
                0.0
            };
            x.sin() * 40.0 + rough
        })
        .collect()
}

/// A chunked f32 archive of the loopback test geometry.
fn archive(phase: f32) -> Vec<u8> {
    let data = test_field(DIMS.len(), phase);
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(EB),
        workflow: WorkflowMode::Auto,
        ..Config::default()
    });
    compressor
        .compress_chunked_with(&data, DIMS, CHUNK, &WorkerPool::new(2))
        .expect("compress")
        .to_bytes()
}

/// The locally computed reference slice for a spec, as LE bytes.
fn reference_slice(bytes: &[u8], spec: &RangeSpec) -> Vec<u8> {
    let arc = cuszp_core::ChunkedArchive::from_bytes(bytes).expect("parse");
    let (data, _) = arc
        .decompress_range::<f32>(
            ReconstructEngine::FinePartialSum,
            spec,
            &WorkerPool::with_default_workers(),
        )
        .expect("local range");
    data.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[test]
fn second_identical_read_is_a_cache_hit_with_identical_bytes() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![4..29, 100..900]); // straddles chunks 0 and 1
    let reference = reference_slice(&bytes, &spec);

    let (addr, handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let cold = client
        .get_range(&bytes, &spec, DecompressMode::Strict)
        .expect("cold read");
    let s1 = handle.stats();
    assert_eq!(cold.dtype, Dtype::F32);
    assert_eq!(cold.dims, Dims::D2 { ny: 25, nx: 800 });
    assert_eq!(cold.data, reference);
    assert_eq!(s1.cache_hits, 0, "a cold cache cannot hit");
    assert_eq!(s1.cache_misses, 2, "two intersecting chunks, both cold");

    let hot = client
        .get_range(&bytes, &spec, DecompressMode::Strict)
        .expect("hot read");
    let s2 = handle.stats();
    assert_eq!(hot.data, cold.data, "cached bytes must be bit-identical");
    assert_eq!(s2.cache_hits, 2, "both chunks now served from cache");
    assert_eq!(s2.cache_misses, 2, "no new misses on the hot read");
    assert_eq!(s2.cache_evictions, 0);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn tiny_budget_forces_evictions_and_stays_correct() {
    let bytes = archive(0.0);
    // One decoded slab is 16 rows * 2048 cols * 4 bytes = 128 KiB;
    // budget one and a half slabs so every second slab evicts the first.
    let (addr, handle, join) = start_server(ServerConfig {
        cache_bytes: 192 * 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let full = RangeSpec::new(vec![0..48, 0..2048]);
    let reference = reference_slice(&bytes, &full);
    for round in 0..3 {
        let resp = client
            .get_range(&bytes, &full, DecompressMode::Strict)
            .expect("full-range read");
        assert_eq!(resp.data, reference, "round {round} bytes diverged");
    }
    let s = handle.stats();
    assert!(
        s.cache_evictions > 0,
        "a 3-slab working set over a 1.5-slab budget must evict"
    );
    assert_eq!(
        s.cache_hits + s.cache_misses,
        9,
        "3 rounds x 3 chunks all go through the cache"
    );

    drop(client);
    stop_server(addr, join);
}

#[test]
fn a_different_archive_is_a_different_key_space() {
    let a = archive(0.0);
    let b = archive(1.0); // different content -> different FNV hash
    let spec = RangeSpec::new(vec![0..16, 0..2048]); // exactly chunk 0
    let ref_a = reference_slice(&a, &spec);
    let ref_b = reference_slice(&b, &spec);
    assert_ne!(ref_a, ref_b, "fields must actually differ");

    let (addr, handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let got_a = client
        .get_range(&a, &spec, DecompressMode::Strict)
        .expect("archive a");
    assert_eq!(got_a.data, ref_a);
    assert_eq!(handle.stats().cache_misses, 1);

    // Same spec, different archive: must miss, and must serve b's data.
    let got_b = client
        .get_range(&b, &spec, DecompressMode::Strict)
        .expect("archive b");
    assert_eq!(got_b.data, ref_b, "stale slab served across archives");
    let s = handle.stats();
    assert_eq!(s.cache_misses, 2, "archive b's chunk 0 is a fresh key");
    assert_eq!(s.cache_hits, 0);

    // And both stay hot independently.
    assert_eq!(
        client
            .get_range(&a, &spec, DecompressMode::Strict)
            .expect("a again")
            .data,
        ref_a
    );
    assert_eq!(handle.stats().cache_hits, 1);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn concurrent_clients_hammering_one_hot_chunk_see_no_torn_reads() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![16..32, 0..2048]); // exactly chunk 1
    let reference = reference_slice(&bytes, &spec);

    let (addr, handle, join) = start_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    std::thread::scope(|s| {
        for _ in 0..6 {
            let bytes = &bytes;
            let spec = &spec;
            let reference = &reference;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    let resp = client
                        .get_range(bytes, spec, DecompressMode::Strict)
                        .expect("concurrent read");
                    assert_eq!(&resp.data, reference, "torn or stale read");
                }
            });
        }
    });

    let s = handle.stats();
    assert_eq!(s.cache_hits + s.cache_misses, 30, "6 clients x 5 reads");
    assert!(
        s.cache_hits >= 24,
        "at most one miss per worker engine warming the slab; got {} hits",
        s.cache_hits
    );

    stop_server(addr, join);
}

#[test]
fn zero_budget_disables_the_cache_entirely() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![0..16, 0..2048]);
    let reference = reference_slice(&bytes, &spec);

    let (addr, handle, join) = start_server(ServerConfig {
        cache_bytes: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..2 {
        let resp = client
            .get_range(&bytes, &spec, DecompressMode::Strict)
            .expect("uncached read");
        assert_eq!(resp.data, reference);
    }
    let s = handle.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses, s.cache_evictions),
        (0, 0, 0),
        "a disabled cache must not even count"
    );

    drop(client);
    stop_server(addr, join);
}

#[test]
fn strict_reads_verify_each_distinct_archive_once() {
    let a = archive(0.0);
    let b = archive(1.0);
    let spec = RangeSpec::new(vec![4..29, 100..900]); // chunks 0 and 1
    let other = RangeSpec::new(vec![40..48, 0..2048]); // chunk 2 only
    let (addr, handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let mut read = |bytes: &[u8], spec: &RangeSpec| {
        let got = client
            .get_range(bytes, spec, DecompressMode::Strict)
            .expect("strict read");
        assert_eq!(got.data, reference_slice(bytes, spec));
    };

    read(&a, &spec);
    read(&a, &spec);
    let s = handle.stats();
    assert_eq!(s.containers_verified, 1, "the second read runs no parse");
    assert_eq!((s.cache_hits, s.cache_misses), (2, 2));
    // The same bytes, another chunk: the index still holds, only the
    // chunk it decodes is parsed.
    read(&a, &other);
    let s = handle.stats();
    assert_eq!(s.containers_verified, 1);
    assert_eq!((s.cache_hits, s.cache_misses), (2, 3));
    // Other bytes are verified on their first read, and only then.
    read(&b, &spec);
    read(&b, &spec);
    read(&a, &spec);
    assert_eq!(handle.stats().containers_verified, 2);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn a_tight_budget_evicts_indexes_and_slabs_and_stays_correct() {
    let a = archive(0.0);
    let b = archive(1.0);
    // Slabs are 128 KiB: one index and one slab fit, two slabs do not.
    let (addr, handle, join) = start_server(ServerConfig {
        cache_bytes: 192 * 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let specs = [
        RangeSpec::new(vec![0..48, 0..2048]),
        RangeSpec::new(vec![4..29, 100..900]),
        RangeSpec::new(vec![40..48, 7..8]),
    ];
    for round in 0..3 {
        for bytes in [&a, &b] {
            for spec in &specs {
                let got = client
                    .get_range(bytes, spec, DecompressMode::Strict)
                    .expect("strict read");
                assert_eq!(
                    got.data,
                    reference_slice(bytes, spec),
                    "round {round} spec {spec}"
                );
            }
        }
    }
    let s = handle.stats();
    assert!(s.cache_evictions > 0);
    assert!(
        (2..=18).contains(&s.containers_verified),
        "each of 18 reads verifies at most once: {}",
        s.containers_verified
    );

    drop(client);
    stop_server(addr, join);
}

#[test]
fn a_disabled_cache_verifies_every_read() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![0..16, 0..2048]);
    let (addr, handle, join) = start_server(ServerConfig {
        cache_bytes: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..3 {
        client
            .get_range(&bytes, &spec, DecompressMode::Strict)
            .expect("uncached read");
    }
    assert_eq!(handle.stats().containers_verified, 3);

    drop(client);
    stop_server(addr, join);
}
