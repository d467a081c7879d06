//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, and the determinism contract — archive bytes served
//! over the wire are bit-identical to the local chunked drivers at any
//! server worker count.

use cuszp_core::{
    ChunkStatus, Compressor, Config, Dims, Dtype, ErrorBound, FillPolicy, LosslessMode,
    ParityConfig, Predictor, PredictorMode, WorkflowMode,
};
use cuszp_parallel::WorkerPool;
use cuszp_server::{
    Client, ClientError, CompressRequest, DecompressMode, ErrorCode, Op, Server, ServerConfig,
    ServerHandle,
};
use std::net::SocketAddr;
use std::time::Duration;

/// Starts a server on an ephemeral loopback port; returns its address,
/// a control handle, and the serve-thread join handle.
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

/// A deterministic mixed-texture field: smooth wave plus a rough band,
/// enough elements for several chunks at a small chunk target.
fn test_field(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = i as f32 * 0.002;
            let rough = if i % 97 == 0 {
                (i % 13) as f32 * 0.3
            } else {
                0.0
            };
            x.sin() * 40.0 + rough
        })
        .collect()
}

fn as_bytes(data: &[f32]) -> Vec<u8> {
    data.iter().flat_map(|x| x.to_le_bytes()).collect()
}

const DIMS: Dims = Dims::D2 { ny: 48, nx: 2048 };
const CHUNK: usize = 16 * 2048; // -> 3 chunks of 16 slow-rows each
const EB: f64 = 1e-3;

fn request(raw: &[u8], parity: Option<ParityConfig>) -> CompressRequest<'_> {
    CompressRequest {
        dims: DIMS,
        dtype: Dtype::F32,
        error_bound: ErrorBound::Relative(EB),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Force(Predictor::Lorenzo),
        lossless: LosslessMode::Off,
        chunk_target: CHUNK as u64,
        parity,
        data: raw,
    }
}

fn local_golden(data: &[f32], parity: Option<ParityConfig>) -> Vec<u8> {
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(EB),
        ..Config::default()
    });
    let pool = WorkerPool::new(2);
    let mut arc = compressor
        .compress_chunked_with(data, DIMS, CHUNK, &pool)
        .expect("local compress");
    if let Some(cfg) = parity {
        arc.add_parity(cfg, &pool);
    }
    arc.to_bytes()
}

#[test]
fn served_bytes_match_local_goldens_at_any_worker_count() {
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let golden = local_golden(&data, None);

    for workers in [1usize, 2, 8] {
        let (addr, _handle, join) = start_server(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect");
        let served = client.compress(&request(&raw, None)).expect("compress");
        assert_eq!(
            served, golden,
            "served bytes diverged from local golden at {workers} workers"
        );
        drop(client);
        stop_server(addr, join);
    }
}

#[test]
fn concurrent_clients_contending_for_helper_lanes_get_local_bytes() {
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let golden = local_golden(&data, None);
    let (want, _) = cuszp_core::Decode::new(&golden)
        .strict::<f32>()
        .expect("local decode");
    let want = as_bytes(&want);

    for workers in [1usize, 2, 8] {
        let (addr, _handle, join) = start_server(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        // Four clients, each with several requests in a row: requests
        // start while others hold the helper engines, or have just
        // given them back.
        std::thread::scope(|s| {
            for t in 0..4 {
                let (raw, golden, want) = (&raw, &golden, &want);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for round in 0..3 {
                        let served = client.compress(&request(raw, None)).expect("compress");
                        assert!(
                            served == *golden,
                            "client {t} round {round}: served bytes diverged at {workers} workers"
                        );
                        let field = client
                            .decompress(&served, DecompressMode::Strict)
                            .expect("decompress");
                        assert!(
                            field.data == *want,
                            "client {t} round {round}: served field diverged at {workers} workers"
                        );
                    }
                });
            }
        });
        stop_server(addr, join);
    }
}

#[test]
fn remote_roundtrip_respects_the_bound_and_reports_geometry() {
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let (addr, _handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let archive = client.compress(&request(&raw, None)).expect("compress");
    let resp = client
        .decompress(&archive, DecompressMode::Strict)
        .expect("decompress");
    assert_eq!(resp.dtype, Dtype::F32);
    assert_eq!(resp.dims, DIMS);
    assert!(resp.report.is_none(), "strict mode carries no report");

    let recon: Vec<f32> = resp
        .data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let range = data
        .iter()
        .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let abs_eb = EB * (range.1 - range.0) as f64;
    for (i, (o, r)) in data.iter().zip(&recon).enumerate() {
        assert!(
            ((o - r).abs() as f64) <= abs_eb * 1.0001,
            "bound violated at {i}: |{o} - {r}| > {abs_eb}"
        );
    }

    // info describes the archive without decoding it.
    let info = client.info(&archive).expect("info");
    assert_eq!(info.format, "csz2");
    assert_eq!(info.dims, DIMS);
    assert_eq!(info.n_chunks, 3);
    assert_eq!(info.stored_bytes, archive.len() as u64);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn recovery_over_the_wire_heals_from_parity_and_reports_per_chunk() {
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let parity = ParityConfig {
        data_shards: 8,
        parity_shards: 2,
    };
    let (addr, _handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let mut archive = client
        .compress(&request(&raw, Some(parity)))
        .expect("compress");
    assert_eq!(archive, local_golden(&data, Some(parity)));

    // Damage one byte inside chunk 1's body (located via a local scan of
    // the intact archive).
    let clean = cuszp_core::scan(&archive).expect("scan clean");
    let target = clean.reports[1]
        .byte_range
        .clone()
        .expect("chunk 1 locatable");
    let hit = target.start + (target.end - target.start) / 2;
    archive[hit] ^= 0x40;

    // Remote scan sees the damage as parity-repairable (exit code 1).
    let scanned = client.scan(&archive).expect("remote scan");
    assert_eq!(scanned.exit_code(), 1, "damage should be covered by parity");

    // Recovery decompression heals it and says so per chunk.
    let resp = client
        .decompress(&archive, DecompressMode::Recover(FillPolicy::Zero))
        .expect("recover");
    let report = resp.report.expect("recover mode carries a report");
    assert_eq!(report.reports.len(), 3);
    assert!(
        matches!(report.reports[1].status, ChunkStatus::Repaired { .. }),
        "chunk 1 should heal from parity, got {:?}",
        report.reports[1].status
    );
    assert_eq!(report.n_damaged(), 0);

    // Healed data matches a clean decompression bit-exactly.
    let clean_resp = client
        .decompress(&local_golden(&data, Some(parity)), DecompressMode::Strict)
        .expect("clean decompress");
    assert_eq!(resp.data, clean_resp.data);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn eight_concurrent_clients_interleave_ops_without_cross_talk() {
    let (addr, _handle, join) = start_server(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                s.spawn(move || {
                    let dims = Dims::D1(4096 + t * 512);
                    let data: Vec<f32> = (0..dims.len())
                        .map(|i| ((i + t * 1000) as f32 * 0.01).cos() * (t + 1) as f32)
                        .collect();
                    let raw: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
                    let mut client = Client::connect(addr).expect("connect");
                    client.ping().expect("ping");
                    let req = CompressRequest {
                        dims,
                        dtype: Dtype::F32,
                        error_bound: ErrorBound::Absolute(1e-3),
                        workflow: WorkflowMode::Auto,
                        predictor: PredictorMode::Force(Predictor::Lorenzo),
                        lossless: LosslessMode::Off,
                        chunk_target: 1024,
                        parity: None,
                        data: &raw,
                    };
                    let archive = client.compress(&req).expect("compress");
                    let info = client.info(&archive).expect("info");
                    assert_eq!(info.dims, dims, "client {t} got someone else's archive");
                    let resp = client
                        .decompress(&archive, DecompressMode::Strict)
                        .expect("decompress");
                    assert_eq!(resp.dims, dims);
                    let recon: Vec<f32> = resp
                        .data
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    for (o, r) in data.iter().zip(&recon) {
                        assert!((o - r).abs() <= 1.001e-3, "client {t}: {o} vs {r}");
                    }
                    client.stats().expect("stats")
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // Pipelined on one connection: three requests in flight, responses
    // matched strictly by request id.
    let mut client = Client::connect(addr).expect("connect");
    let id_a = client.send(Op::Ping, &[]).expect("send a");
    let id_b = client.send(Op::Stats, &[]).expect("send b");
    let id_c = client.send(Op::Ping, &[]).expect("send c");
    let mut got = Vec::new();
    for _ in 0..3 {
        let frame = client.recv().expect("recv");
        assert!(!frame.is_error(), "unexpected error frame");
        got.push(frame.req_id);
    }
    got.sort_unstable();
    let mut want = vec![id_a, id_b, id_c];
    want.sort_unstable();
    assert_eq!(got, want, "every request id answered exactly once");

    // The service metrics saw all of it: compress/decompress traffic,
    // latency percentiles, connection counts.
    let snap = client.stats().expect("final stats");
    let compress = snap.op(Op::Compress).expect("compress stats");
    assert_eq!(compress.requests, 8);
    assert_eq!(compress.errors, 0);
    assert!(compress.bytes_in > 0 && compress.bytes_out > 0);
    assert!(compress.latency.count == 8 && compress.latency.p99_us > 0.0);
    assert_eq!(snap.op(Op::Decompress).expect("d").requests, 8);
    assert!(snap.connections_total >= 9);
    assert_eq!(snap.rejected_busy, 0);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn bad_requests_get_typed_errors_and_the_connection_survives() {
    let (addr, _handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Garbage archive: typed pipeline error, not a dead connection.
    let err = client
        .decompress(b"definitely not an archive", DecompressMode::Strict)
        .expect_err("garbage must fail");
    match &err {
        ClientError::Server(e) => {
            assert!(
                matches!(e.code, ErrorCode::Pipeline | ErrorCode::BadRequest),
                "unexpected code {:?}",
                e.code
            );
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }

    // Geometry lie: data length does not match dims.
    let req = CompressRequest {
        dims: Dims::D1(1000),
        dtype: Dtype::F32,
        error_bound: ErrorBound::Absolute(1e-3),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Force(Predictor::Lorenzo),
        lossless: LosslessMode::Off,
        chunk_target: 0,
        parity: None,
        data: &[0u8; 16],
    };
    let err = client.compress(&req).expect_err("geometry lie must fail");
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));

    // Non-finite input is the client's fault, typed as such.
    let bad: Vec<u8> = std::iter::repeat_n(f32::NAN.to_le_bytes(), 64)
        .flatten()
        .collect();
    let req = CompressRequest {
        dims: Dims::D1(64),
        dtype: Dtype::F32,
        error_bound: ErrorBound::Absolute(1e-3),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Force(Predictor::Lorenzo),
        lossless: LosslessMode::Off,
        chunk_target: 0,
        parity: None,
        data: &bad,
    };
    let err = client.compress(&req).expect_err("NaN field must fail");
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));

    // Same connection still serves good requests.
    client.ping().expect("connection survives bad requests");
    let snap = client.stats().expect("stats");
    assert!(snap.op(Op::Compress).unwrap().errors >= 2);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn graceful_shutdown_acks_then_drains() {
    let (addr, handle, join) = start_server(ServerConfig {
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    assert!(!handle.is_shutting_down());
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    client.shutdown_server().expect("shutdown acked");
    assert!(handle.is_shutting_down());
    join.join().expect("serve thread").expect("serve result");
    // The listener is gone: new connections are refused (or connect and
    // are never served; either way no server answers a ping).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            let _ = c.set_timeouts(Some(Duration::from_millis(500)), None);
            assert!(c.ping().is_err(), "a drained server must not answer");
        }
    }
}
