//! Chaos soak battery: a real server behind a seeded fault-injection
//! proxy, driven by the retrying client. The contract under fire:
//!
//! - zero panics anywhere (client, proxy, server);
//! - every *successful* response is bit-identical to local output;
//! - every *failure* is a typed [`ClientError`] delivered before the
//!   call deadline (plus scheduling slack);
//! - the client's resilience counters exactly account for every
//!   attempt: `attempts == calls + retries`, every call lands in
//!   exactly one outcome bucket, and failed attempts trace to injected
//!   faults.

use cuszp_core::{
    Compressor, Config, Dims, Dtype, ErrorBound, LosslessMode, Predictor, PredictorMode, RangeSpec,
    WorkflowMode,
};
use cuszp_faultsim::{ChaosPolicy, ChaosProxy};
use cuszp_parallel::WorkerPool;
use cuszp_server::{
    Client, ClientError, CompressRequest, DecompressMode, RetryPolicy, RetryStats, RetryingClient,
    Server, ServerConfig,
};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const DIMS: Dims = Dims::D2 { ny: 16, nx: 1024 };
const CHUNK: usize = 4 * 1024; // -> 4 chunks of 4 slow-rows each
const EB: f64 = 1e-3;
const SEED: u64 = 20210907; // fixed: the whole battery replays from it

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

fn request(raw: &[u8]) -> CompressRequest<'_> {
    CompressRequest {
        dims: DIMS,
        dtype: Dtype::F32,
        error_bound: ErrorBound::Relative(EB),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Force(Predictor::Lorenzo),
        lossless: LosslessMode::Off,
        chunk_target: CHUNK as u64,
        parity: None,
        data: raw,
    }
}

/// The local golden archive the served bytes must match bit-for-bit.
fn local_golden(data: &[f32]) -> Vec<u8> {
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(EB),
        ..Config::default()
    });
    let pool = WorkerPool::new(2);
    compressor
        .compress_chunked_with(data, DIMS, CHUNK, &pool)
        .expect("local compress")
        .to_bytes()
}

fn start_server() -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let join = std::thread::spawn(move || server.serve());
    (addr, join)
}

fn stop_server(addr: SocketAddr, join: std::thread::JoinHandle<std::io::Result<()>>) {
    // Shut down over a *direct* connection — never through the proxy:
    // shutdown is the one op the retry layer refuses to re-issue.
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    join.join().expect("serve thread panicked").expect("serve");
}

fn soak_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(40),
        deadline: Duration::from_secs(20),
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        seed: SEED,
    }
}

/// The internal accounting identities every soak must satisfy.
fn assert_accounting(stats: &RetryStats, successes: u64) {
    let calls = stats.calls.get();
    let attempts = stats.attempts.get();
    let retries = stats.retries.get();
    let failed_calls =
        stats.deadline_exceeded.get() + stats.exhausted.get() + stats.failed_terminal.get();
    assert_eq!(
        attempts,
        calls + retries,
        "every attempt is a first try or a counted retry"
    );
    assert_eq!(
        calls,
        successes + failed_calls,
        "every call lands in exactly one outcome bucket"
    );
    // A reconnect only ever happens to serve an attempt.
    assert!(
        stats.reconnects.get() <= attempts,
        "reconnects ({}) exceed attempts ({attempts})",
        stats.reconnects.get()
    );
}

/// Drives `n` calls of mixed ops through the proxy, checking every
/// success against local goldens and every failure for typedness and
/// deadline. Returns (successes, failures).
fn drive(
    client: &mut RetryingClient,
    golden: &[u8],
    raw: &[u8],
    expect_plain: &[u8],
    expect_range: &[u8],
    spec: &RangeSpec,
    n: usize,
) -> (u64, u64) {
    let mut ok = 0u64;
    let mut failed = 0u64;
    for i in 0..n {
        let t0 = Instant::now();
        let outcome: Result<(), ClientError> = match i % 4 {
            0 => client.compress(&request(raw)).map(|bytes| {
                assert_eq!(bytes, golden, "served archive must be bit-identical");
            }),
            1 => client
                .decompress(golden, DecompressMode::Strict)
                .map(|resp| {
                    assert_eq!(resp.data, expect_plain, "decompress must match local");
                }),
            2 => client
                .get_range(golden, spec, DecompressMode::Strict)
                .map(|resp| {
                    assert_eq!(resp.data, expect_range, "range read must match local");
                }),
            _ => client.ping(),
        };
        let elapsed = t0.elapsed();
        match outcome {
            Ok(()) => ok += 1,
            Err(e) => {
                failed += 1;
                // Typed and on time: the deadline plus one socket
                // timeout (the attempt in flight when it closed) plus
                // scheduling slack.
                let bound = client.policy().deadline
                    + client.policy().read_timeout
                    + Duration::from_secs(2);
                assert!(
                    elapsed < bound,
                    "failure took {elapsed:?}, past the deadline bound {bound:?}: {e}"
                );
                // Exhaustive: every failure is one of the typed shapes.
                match e {
                    ClientError::Io(_)
                    | ClientError::Wire(_)
                    | ClientError::Server(_)
                    | ClientError::Protocol(_)
                    | ClientError::DeadlineExceeded { .. } => {}
                }
            }
        }
    }
    (ok, failed)
}

fn locals(golden: &[u8]) -> (Vec<u8>, Vec<u8>, RangeSpec) {
    let (plain, _) = cuszp_core::decompress(golden).expect("local decompress");
    let spec = RangeSpec::new(vec![3..11, 100..900]);
    let (ranged, _) = cuszp_core::decompress_range(golden, &spec).expect("local range");
    (as_bytes(&plain), as_bytes(&ranged), spec)
}

/// One soak under one policy; returns the client for counter checks.
fn soak(policy: ChaosPolicy, n: usize, label: &str) -> (RetryingClient, u64, u64) {
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let golden = local_golden(&data);
    let (expect_plain, expect_range, spec) = locals(&golden);

    let (addr, join) = start_server();
    let mut proxy = ChaosProxy::start(addr, policy, SEED).expect("proxy");
    let mut client = RetryingClient::new(proxy.local_addr().to_string(), soak_policy());
    let (ok, failed) = drive(
        &mut client,
        &golden,
        &raw,
        &expect_plain,
        &expect_range,
        &spec,
        n,
    );
    assert_eq!(ok + failed, n as u64, "{label}: every call accounted");
    assert_accounting(client.stats(), ok);
    proxy.stop();
    stop_server(addr, join);
    (client, ok, failed)
}

#[test]
fn clean_proxy_soak_is_all_success_no_retries() {
    let (client, ok, failed) = soak(ChaosPolicy::clean(), 24, "clean");
    assert_eq!(failed, 0, "clean relay must not fail anything");
    assert_eq!(ok, 24);
    assert_eq!(client.stats().retries.get(), 0);
    assert_eq!(client.stats().reconnects.get(), 0);
}

#[test]
fn request_cut_soak_retries_through() {
    let policy = ChaosPolicy {
        cut_request_per_mille: 300,
        cut_request_window: 4096,
        ..ChaosPolicy::clean()
    };
    let (client, ok, _failed) = soak(policy, 32, "request-cut");
    // With 6 attempts against a 30% per-connection cut, calls
    // overwhelmingly recover; the soak's real assertions are
    // bit-identity + accounting inside `soak`.
    assert!(ok > 0, "some calls must get through");
    assert!(
        client.stats().retries.get() > 0,
        "cuts must have forced retries"
    );
    assert!(
        client.stats().reconnects.get() > 0,
        "cut connections must have been replaced"
    );
}

#[test]
fn response_truncation_soak_retries_through() {
    let policy = ChaosPolicy {
        cut_response_per_mille: 300,
        cut_response_window: 8192,
        ..ChaosPolicy::clean()
    };
    let (client, ok, _failed) = soak(policy, 32, "response-cut");
    assert!(ok > 0);
    assert!(client.stats().retries.get() > 0);
}

#[test]
fn bit_flip_soak_never_accepts_corrupt_bytes() {
    let policy = ChaosPolicy {
        flip_request_per_mille: 250,
        flip_response_per_mille: 250,
        flip_window: 2048,
        ..ChaosPolicy::clean()
    };
    // `drive` asserts bit-identity on every success: if a flipped frame
    // were ever accepted, the data comparison would catch it.
    let (_client, ok, _failed) = soak(policy, 32, "bit-flip");
    assert!(ok > 0);
}

#[test]
fn stall_and_chop_soak_stays_correct() {
    let policy = ChaosPolicy {
        stall_per_mille: 400,
        stall_max_ms: 40,
        chop_per_mille: 400,
        // 64 KiB payloads in ~100-byte pieces: visible trickle, but the
        // per-piece pacing stays far inside the 2 s socket timeouts.
        chop_piece: 96,
        ..ChaosPolicy::clean()
    };
    let (client, ok, failed) = soak(policy, 24, "stall-chop");
    // Stalls are shorter than every timeout and chopping only reshapes
    // delivery: nothing here is a failure, just latency.
    assert_eq!(failed, 0, "stalls/chops under the timeouts must not fail");
    assert_eq!(ok, 24);
    assert_eq!(client.stats().retries.get(), 0);
}

#[test]
fn refuse_all_exhausts_retries_with_typed_errors() {
    // A proxy that refuses every connection: every call must burn its
    // full attempt budget and land in the `exhausted` bucket, typed.
    // Fully deterministic: no draw can save a call.
    let policy = ChaosPolicy {
        refuse_per_mille: 1000,
        ..ChaosPolicy::clean()
    };
    let (client, ok, failed) = soak(policy, 8, "refuse-all");
    assert_eq!(ok, 0, "nothing can get through a refuse-all proxy");
    assert_eq!(failed, 8);
    let stats = client.stats();
    assert_eq!(stats.exhausted.get(), 8);
    assert_eq!(stats.attempts.get(), 8 * 6, "every call used all attempts");
    // Every attempt connects fresh (the failed connection is dropped as
    // suspect); only the very first connect of the run is not a
    // reconnect.
    assert_eq!(stats.reconnects.get(), 8 * 6 - 1);
}

#[test]
fn mixed_chaos_soak_200_requests() {
    // The acceptance soak: ≥200 proxied requests under every fault
    // class at once, fixed seed. Zero panics (the harness), successes
    // bit-identical (drive asserts), failures typed within deadline
    // (drive asserts), counters accounting for all attempts (below).
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let golden = local_golden(&data);
    let (expect_plain, expect_range, spec) = locals(&golden);

    let (addr, join) = start_server();
    let policy = ChaosPolicy {
        stall_max_ms: 40, // well under the 2 s socket timeouts
        chop_piece: 64,   // ditto: chopping must stay latency, not failure
        ..ChaosPolicy::mixed()
    };
    let mut proxy = ChaosProxy::start(addr, policy, SEED).expect("proxy");
    let mut client = RetryingClient::new(proxy.local_addr().to_string(), soak_policy());

    let (ok, failed) = drive(
        &mut client,
        &golden,
        &raw,
        &expect_plain,
        &expect_range,
        &spec,
        200,
    );
    assert_eq!(ok + failed, 200);
    assert_accounting(client.stats(), ok);

    let stats = client.stats();
    let failed_attempts = stats.attempts.get() - ok;
    // Every failed attempt traces to an injected fault: refusals, cuts,
    // and flips are the only classes that can fail an attempt here
    // (stalls and chops stay under the timeouts), so fired faults bound
    // failed attempts from above.
    let px = proxy.stats();
    let refused = px.refused.load(Ordering::Relaxed);
    let cuts = px.requests_cut.load(Ordering::Relaxed) + px.responses_cut.load(Ordering::Relaxed);
    let flips = px.bits_flipped.load(Ordering::Relaxed);
    assert!(
        failed_attempts <= refused + cuts + flips,
        "failed attempts ({failed_attempts}) exceed injected faults \
         ({refused} refused + {cuts} cut + {flips} flipped)"
    );
    // ...and from below: refusals and cuts each fail an attempt. Two
    // edge cases get slack: a flip can land in an unchecksummed header
    // byte the client ignores (harmless), and a cut that lands exactly
    // on a frame boundary defers its failure to the connection's *next*
    // use, which the end of the soak may never issue.
    assert!(
        refused + cuts <= failed_attempts + 2,
        "refusals and cuts must fail attempts \
         ({refused} + {cuts} vs {failed_attempts} failed)"
    );
    assert!(
        px.connections.load(Ordering::Relaxed) > 0 && px.faults_fired() > 0,
        "the mixed policy must actually inject"
    );
    // The soak must have exercised the retry machinery, not tiptoed
    // around it.
    assert!(stats.retries.get() > 0, "no retries — chaos too gentle");
    assert!(
        stats.reconnects.get() > 0,
        "no reconnects — chaos too gentle"
    );
    assert!(ok > 0, "nothing succeeded — chaos too harsh");

    proxy.stop();
    stop_server(addr, join);
}

#[test]
fn refusing_proxy_ends_calls_in_typed_deadline_exceeded() {
    // Every connection refused, generous attempt budget, short overall
    // deadline: the call must end in a typed DeadlineExceeded *before*
    // the deadline plus one attempt's socket timeout.
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);

    let (addr, join) = start_server();
    let policy = ChaosPolicy {
        refuse_per_mille: 1000,
        ..ChaosPolicy::clean()
    };
    let mut proxy = ChaosProxy::start(addr, policy, SEED).expect("proxy");
    let retry = RetryPolicy {
        max_attempts: 10_000, // never exhausts: the deadline closes first
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        deadline: Duration::from_millis(600),
        connect_timeout: Duration::from_secs(1),
        read_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_millis(250),
        seed: SEED,
    };
    let mut client = RetryingClient::new(proxy.local_addr().to_string(), retry);
    let t0 = Instant::now();
    let err = client.compress(&request(&raw)).expect_err("must time out");
    let elapsed = t0.elapsed();
    assert!(
        matches!(err, ClientError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err}"
    );
    assert!(
        elapsed < retry.deadline + retry.read_timeout + Duration::from_secs(2),
        "took {elapsed:?}"
    );
    assert_eq!(client.stats().deadline_exceeded.get(), 1);
    assert!(
        client.stats().attempts.get() > 1,
        "the deadline must have been spent attempting, not sleeping"
    );
    assert_accounting(client.stats(), 0);

    proxy.stop();
    stop_server(addr, join);
}

#[test]
fn a_failed_retrying_shutdown_makes_one_attempt() {
    // Through a proxy that refuses every connection, and through one
    // that cuts every request after its first byte, the shutdown never
    // reaches the server. The failure is one an idempotent op would
    // retry; shutdown is not one, so the call ends on its one attempt as
    // a terminal failure.
    let (addr, join) = start_server();
    let refuse = ChaosPolicy {
        refuse_per_mille: 1000,
        ..ChaosPolicy::clean()
    };
    let cut = ChaosPolicy {
        cut_request_per_mille: 1000,
        cut_request_window: 1,
        ..ChaosPolicy::clean()
    };
    for (policy, label) in [(refuse, "refuse"), (cut, "cut")] {
        let mut proxy = ChaosProxy::start(addr, policy, SEED).expect("proxy");
        let mut client = RetryingClient::new(proxy.local_addr().to_string(), soak_policy());
        let err = client.shutdown_server().expect_err("nothing gets through");
        assert!(err.is_retryable(), "{label}: {err}");
        let s = client.stats();
        assert_eq!(s.calls.get(), 1, "{label}");
        assert_eq!(s.attempts.get(), 1, "{label}: shutdown makes one attempt");
        assert_eq!(s.attempts.get(), s.calls.get() + s.retries.get(), "{label}");
        assert_eq!(s.failed_terminal.get(), 1, "{label}");
        assert_eq!(s.exhausted.get() + s.deadline_exceeded.get(), 0, "{label}");
        proxy.stop();
    }
    // The server never saw a shutdown: it is still serving.
    let mut probe = Client::connect(addr).expect("probe connect");
    assert!(!probe.health().expect("health").draining);
    drop(probe);
    stop_server(addr, join);
}

#[test]
fn shutdown_is_never_retried_and_draining_sheds_unavailable() {
    // Direct connections (no proxy): this exercises the load-shedding
    // half of the contract. After shutdown begins, heavy ops get a
    // typed Unavailable with a retry hint while probes still answer.
    let (addr, join) = start_server();
    let mut probe = Client::connect(addr).expect("probe connect");
    let h = probe.health().expect("health");
    assert!(!h.draining);
    assert_eq!(h.workers, 2);

    let mut client = RetryingClient::new(addr.to_string(), soak_policy());
    client.shutdown_server().expect("shutdown acks");
    assert_eq!(client.stats().attempts.get(), 1, "shutdown: one attempt");
    drop(client);

    // The connection that was open before the drain keeps serving
    // probes...
    let h = probe.health().expect("health while draining");
    assert!(h.draining, "health must report the drain");
    assert!(h.retry_after_ms > 0);
    // ...but new work is shed, typed and hinted.
    let data = test_field(DIMS.len());
    let raw = as_bytes(&data);
    let err = probe.compress(&request(&raw)).expect_err("must be shed");
    match &err {
        ClientError::Server(e) => {
            assert_eq!(e.code, cuszp_server::ErrorCode::Unavailable, "{e}");
            assert!(e.retry_after_ms.is_some(), "shed without a hint");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    let snap = probe.stats().expect("stats while draining");
    assert!(
        snap.rejected_unavailable >= 1,
        "shedding must count in metrics"
    );

    drop(probe);
    join.join().expect("serve thread panicked").expect("serve");
}
