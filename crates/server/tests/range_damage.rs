//! Fault-injected range reads over the wire: `get_range` in recover
//! mode must heal in-range damage via parity when parity is present,
//! pinpoint exactly the damaged in-range chunks when it is not, and be
//! entirely blind to damage outside the requested range. Strict mode
//! refuses a damaged copy of an archive even after the clean bytes are
//! warm in the server's cache.
//!
//! Damage placement uses `cuszp_faultsim::targeted_campaign`, which
//! confines every mutation to the byte spans of named chunks — so
//! "outside the range" is a guarantee about the corrupted input, not a
//! hope about the decoder.

use cuszp_core::{
    ChunkStatus, Compressor, Config, Dims, ErrorBound, FillPolicy, ParityConfig, RangeSpec,
    ReconstructEngine, WorkflowMode,
};
use cuszp_faultsim::targeted_campaign;
use cuszp_parallel::WorkerPool;
use cuszp_server::{Client, DecompressMode, Server, ServerConfig};
use std::net::SocketAddr;

const DIMS: Dims = Dims::D2 { ny: 48, nx: 2048 };
const CHUNK: usize = 16 * 2048; // -> 3 chunks of 16 slow-rows each
const EB: f64 = 1e-3;
const SEED: u64 = 0x5EED_0BAD_CAFE;

fn start_server() -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
    Client,
) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let join = std::thread::spawn(move || server.serve());
    let client = Client::connect(addr).expect("connect");
    (addr, join, client)
}

fn stop_server(addr: SocketAddr, join: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown ack");
    join.join().expect("serve thread panicked").expect("serve");
}

fn test_field(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = i as f32 * 0.002;
            x.sin() * 40.0 + ((i % 31) as f32) * 0.01
        })
        .collect()
}

fn archive(parity: Option<ParityConfig>) -> Vec<u8> {
    let data = test_field(DIMS.len());
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(EB),
        workflow: WorkflowMode::Auto,
        ..Config::default()
    });
    let pool = WorkerPool::new(2);
    let mut arc = compressor
        .compress_chunked_with(&data, DIMS, CHUNK, &pool)
        .expect("compress");
    if let Some(cfg) = parity {
        arc.add_parity(cfg, &pool);
    }
    arc.to_bytes()
}

/// The clean reference slice for a spec, as LE bytes.
fn reference_slice(bytes: &[u8], spec: &RangeSpec) -> Vec<u8> {
    let arc = cuszp_core::ChunkedArchive::from_bytes(bytes).expect("parse clean");
    let (data, _) = arc
        .decompress_range::<f32>(
            ReconstructEngine::FinePartialSum,
            spec,
            &WorkerPool::with_default_workers(),
        )
        .expect("clean range");
    data.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[test]
fn in_range_damage_heals_via_parity_over_the_wire() {
    let clean = archive(Some(ParityConfig {
        data_shards: 4,
        parity_shards: 2,
    }));
    let spec = RangeSpec::new(vec![0..16, 0..2048]); // exactly chunk 0
    let reference = reference_slice(&clean, &spec);

    let (addr, join, mut client) = start_server();
    for case in targeted_campaign(&clean, SEED, 6, &[0]) {
        let resp = client
            .get_range(
                &case.bytes,
                &spec,
                DecompressMode::Recover(FillPolicy::Zero),
            )
            .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.id, case.description));
        assert_eq!(
            resp.data, reference,
            "case {} ({}) did not heal bit-exactly",
            case.id, case.description
        );
        let report = resp.report.expect("recover mode carries a report");
        assert!(
            report
                .reports
                .iter()
                .any(|c| matches!(c.status, ChunkStatus::Repaired { .. })),
            "case {} ({}): healing must be visible in the report",
            case.id,
            case.description
        );
        for c in &report.reports {
            assert_eq!(c.index, 0, "only the in-range chunk may be reported");
        }
    }
    drop(client);
    stop_server(addr, join);
}

#[test]
fn parityless_in_range_damage_is_pinpointed_precisely() {
    let clean = archive(None);
    let spec = RangeSpec::new(vec![0..32, 0..2048]); // chunks 0 and 1
    let (addr, join, mut client) = start_server();
    for case in targeted_campaign(&clean, SEED, 6, &[1]) {
        let resp = client
            .get_range(
                &case.bytes,
                &spec,
                DecompressMode::Recover(FillPolicy::Zero),
            )
            .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.id, case.description));
        let report = resp.report.expect("recover mode carries a report");
        let indices: Vec<usize> = report.reports.iter().map(|c| c.index).collect();
        assert_eq!(
            indices,
            vec![0, 1],
            "case {}: exactly the intersecting chunks are reported",
            case.id
        );
        assert_eq!(
            report.reports[0].status,
            ChunkStatus::Ok,
            "case {} ({}): undamaged chunk 0 must verify",
            case.id,
            case.description
        );
        assert_ne!(
            report.reports[1].status,
            ChunkStatus::Ok,
            "case {} ({}): damaged chunk 1 must be flagged",
            case.id,
            case.description
        );
    }
    drop(client);
    stop_server(addr, join);
}

#[test]
fn out_of_range_damage_is_never_touched_or_reported() {
    let clean = archive(None);
    let spec = RangeSpec::new(vec![0..32, 0..2048]); // chunks 0 and 1
    let reference = reference_slice(&clean, &spec);
    let (addr, join, mut client) = start_server();
    for case in targeted_campaign(&clean, SEED, 6, &[2]) {
        // Strict mode verifies the whole container at parse time, so
        // any damage — in range or not — is a typed error, not a panic
        // and not silently wrong data.
        let strict = client.get_range(&case.bytes, &spec, DecompressMode::Strict);
        assert!(
            strict.is_err(),
            "case {} ({}): strict mode must reject a damaged container",
            case.id,
            case.description
        );
        let resp = client
            .get_range(
                &case.bytes,
                &spec,
                DecompressMode::Recover(FillPolicy::Zero),
            )
            .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.id, case.description));
        assert_eq!(
            resp.data, reference,
            "case {} ({}): recover-mode bytes diverged",
            case.id, case.description
        );
        let report = resp.report.expect("recover mode carries a report");
        for c in &report.reports {
            assert!(
                c.index < 2,
                "case {}: out-of-range chunk {} reported",
                case.id,
                c.index
            );
            assert_eq!(
                c.status,
                ChunkStatus::Ok,
                "case {}: in-range chunks are undamaged",
                case.id
            );
        }
    }
    drop(client);
    stop_server(addr, join);
}

#[test]
fn damage_after_warm_up_still_fails_strict_reads() {
    let clean = archive(Some(ParityConfig {
        data_shards: 4,
        parity_shards: 2,
    }));
    let spec = RangeSpec::new(vec![0..32, 0..2048]); // chunks 0 and 1
    let reference = reference_slice(&clean, &spec);
    let (addr, join, mut client) = start_server();

    // Warm the clean archive: its index and both slabs are cached, and
    // the second read is served from them.
    for _ in 0..2 {
        let resp = client
            .get_range(&clean, &spec, DecompressMode::Strict)
            .expect("clean strict read");
        assert_eq!(resp.data, reference);
    }
    let warm = client.stats().expect("stats");
    assert_eq!(warm.cache_hits, 2, "the warm read must hit the cache");
    assert_eq!(warm.containers_verified, 1);

    let mut damaged = 0;
    for (target, place) in [(0, "in range"), (2, "out of range")] {
        for case in targeted_campaign(&clean, SEED, 6, &[target]) {
            assert_ne!(case.bytes, clean, "case {} must change a byte", case.id);
            let strict = client.get_range(&case.bytes, &spec, DecompressMode::Strict);
            assert!(
                strict.is_err(),
                "case {} ({}, {place}): a warmed archive's damaged copy must fail strict mode",
                case.id,
                case.description
            );
            damaged += 1;
            let resp = client
                .get_range(
                    &case.bytes,
                    &spec,
                    DecompressMode::Recover(FillPolicy::Zero),
                )
                .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.id, case.description));
            assert_eq!(
                resp.data, reference,
                "case {} ({}, {place}): recover mode must return the clean bytes",
                case.id, case.description
            );
        }
    }
    let s = client.stats().expect("stats");
    assert_eq!(
        s.containers_verified,
        1 + damaged,
        "every damaged copy gets the whole-container parse"
    );
    // The clean bytes are still warm.
    let resp = client
        .get_range(&clean, &spec, DecompressMode::Strict)
        .expect("clean strict read after the campaign");
    assert_eq!(resp.data, reference);
    assert_eq!(
        client.stats().expect("stats").containers_verified,
        1 + damaged
    );
    drop(client);
    stop_server(addr, join);
}
