//! Double-precision fields through the served path: every op answers an
//! `f64` archive bit-equal to the local decode of the same bytes, tagged
//! `dtype == F64`, and header damage answers with the local parser's own
//! typed error.

use cuszp_core::{
    scalars_to_le, Compressor, Config, Decode, Dims, Dtype, ErrorBound, FillPolicy, LosslessMode,
    PredictorMode, RangeSpec, WorkflowMode,
};
use cuszp_parallel::WorkerPool;
use cuszp_server::{
    Client, ClientError, CompressRequest, DecompressMode, DecompressResponse, ErrorCode, Server,
    ServerConfig, ServerHandle,
};

const DIMS: Dims = Dims::D2 { ny: 48, nx: 1024 };
const CHUNK: usize = 16 * 1024; // 3 chunks of 16 slow-rows each
const EB: f64 = 1e-6; // below f32 resolution at |x| ~ 40: needs a real f64 path

fn field() -> Vec<f64> {
    (0..DIMS.len())
        .map(|i| {
            let (y, x) = ((i / 1024) as f64, (i % 1024) as f64);
            (x * 0.002).sin() * 40.0 + (y * 0.05).cos() * 3.0 + 1e-5 * x * y
        })
        .collect()
}

fn compressor() -> Compressor {
    Compressor::new(Config {
        error_bound: ErrorBound::Absolute(EB),
        ..Config::default()
    })
}

fn chunked_archive() -> Vec<u8> {
    compressor()
        .compress_chunked_with(&field(), DIMS, CHUNK, &WorkerPool::new(2))
        .expect("local compress")
        .to_bytes()
}

/// Runs `f` against a fresh server + client, then shuts the server down.
fn with_server(f: impl FnOnce(&mut Client, &ServerHandle)) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(addr).expect("connect");
    f(&mut client, &handle);
    client.shutdown_server().expect("shutdown ack");
    join.join().expect("serve thread panicked").expect("serve");
}

fn assert_f64_field(resp: &DecompressResponse, want: &[f64], want_dims: Dims, what: &str) {
    assert_eq!(resp.dtype, Dtype::F64, "{what}: dtype");
    assert_eq!(resp.dims, want_dims, "{what}: dims");
    assert!(resp.data == scalars_to_le(want), "{what}: bytes diverged");
}

#[test]
fn served_compress_of_doubles_equals_the_local_chunked_bytes() {
    let raw = scalars_to_le(&field());
    with_server(|client, _| {
        let served = client
            .compress(&CompressRequest {
                dims: DIMS,
                dtype: Dtype::F64,
                error_bound: ErrorBound::Absolute(EB),
                workflow: WorkflowMode::Auto,
                predictor: PredictorMode::default(),
                lossless: LosslessMode::Off,
                chunk_target: CHUNK as u64,
                parity: None,
                data: &raw,
            })
            .expect("served compress");
        assert!(served == chunked_archive(), "served f64 archive diverged");
    });
}

#[test]
fn served_decompress_strict_and_recover_equal_the_local_decode() {
    let archive = chunked_archive();
    let (full, dims) = Decode::new(&archive).strict::<f64>().unwrap();
    // The field really needs doubles: the bound is below f32 resolution.
    for (o, r) in field().iter().zip(&full) {
        assert!((o - r).abs() <= EB * (1.0 + 1e-6));
    }
    // Damage one chunk body: recover fills exactly that slab.
    let mut damaged = archive.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x5A;
    let local = Decode::new(&damaged)
        .resilient::<f64>(FillPolicy::Zero)
        .unwrap();
    assert_eq!(local.n_damaged(), 1);

    with_server(|client, _| {
        let resp = client.decompress(&archive, DecompressMode::Strict).unwrap();
        assert!(resp.report.is_none());
        assert_f64_field(&resp, &full, dims, "strict");

        let mode = DecompressMode::Recover(FillPolicy::Zero);
        let resp = client.decompress(&archive, mode).unwrap();
        assert_eq!(resp.report.as_ref().unwrap().n_damaged(), 0);
        assert_f64_field(&resp, &full, dims, "recover, clean");

        let resp = client.decompress(&damaged, mode).unwrap();
        let report = resp.report.as_ref().expect("recover carries a report");
        assert_eq!(report.dtype, Some(Dtype::F64));
        assert_eq!(report.n_damaged(), 1);
        assert_f64_field(&resp, &local.data, local.dims, "recover, damaged");
    });
}

#[test]
fn served_get_range_cold_hot_and_recover_equal_the_local_decode() {
    let archive = chunked_archive();
    let spec = RangeSpec::new(vec![10..40, 100..900]); // all three chunks
    let (want, dims) = Decode::new(&archive).range(&spec).strict::<f64>().unwrap();

    with_server(|client, handle| {
        let cold = client
            .get_range(&archive, &spec, DecompressMode::Strict)
            .unwrap();
        assert_f64_field(&cold, &want, dims, "cold");
        let s = handle.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 3));

        let hot = client
            .get_range(&archive, &spec, DecompressMode::Strict)
            .unwrap();
        assert_f64_field(&hot, &want, dims, "hot");
        let s = handle.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (3, 3), "hot read must hit");

        let mode = DecompressMode::Recover(FillPolicy::Nan);
        let resp = client.get_range(&archive, &spec, mode).unwrap();
        assert_eq!(resp.report.as_ref().unwrap().reports.len(), 3);
        assert_f64_field(&resp, &want, dims, "recover");
    });
}

#[test]
fn served_get_range_of_a_v1_double_archive_equals_the_local_decode() {
    let archive = compressor().compress(&field(), DIMS).unwrap().to_bytes();
    let spec = RangeSpec::new(vec![5..30, 17..600]);
    let (want, dims) = Decode::new(&archive).range(&spec).strict::<f64>().unwrap();
    with_server(|client, _| {
        for mode in [
            DecompressMode::Strict,
            DecompressMode::Recover(FillPolicy::Nan),
        ] {
            let resp = client.get_range(&archive, &spec, mode).unwrap();
            assert_f64_field(&resp, &want, dims, "v1 range");
        }
        let resp = client.decompress(&archive, DecompressMode::Strict).unwrap();
        let (full, full_dims) = Decode::new(&archive).strict::<f64>().unwrap();
        assert_f64_field(&resp, &full, full_dims, "v1 full");
    });
}

#[test]
fn header_damage_answers_with_the_local_parsers_typed_error() {
    let chunked = chunked_archive();
    let v1 = compressor().compress(&field(), DIMS).unwrap().to_bytes();
    let mut bad_magic = chunked.clone();
    bad_magic[1] ^= 0x40;
    let mut bad_dtype = v1.clone();
    bad_dtype[42] = 7;
    let cases = [&chunked[..30], &v1[..50], &bad_magic[..], &bad_dtype[..]];
    let spec = RangeSpec::new(vec![0..4, 0..4]);
    with_server(|client, _| {
        for bytes in cases {
            let want = Decode::new(bytes).strict::<f64>().unwrap_err().to_string();
            for mode in [
                DecompressMode::Strict,
                DecompressMode::Recover(FillPolicy::Nan),
            ] {
                for got in [
                    client.decompress(bytes, mode),
                    client.get_range(bytes, &spec, mode),
                ] {
                    match got {
                        Err(ClientError::Server(e)) => {
                            assert_eq!(e.code, ErrorCode::Pipeline);
                            assert_eq!(e.message, want);
                        }
                        other => panic!("expected a typed server error, got {other:?}"),
                    }
                }
            }
        }
    });
}
