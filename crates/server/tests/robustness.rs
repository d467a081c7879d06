//! Protocol robustness: a live server fed corrupted, truncated, and
//! hostile frames must answer with typed errors or close the connection
//! cleanly — and keep serving. Zero panics, ever.

use cuszp_server::wire::wordsum64;
use cuszp_server::{
    Client, ClientError, ErrorCode, ErrorResponse, Op, Server, ServerConfig, ServerHandle,
    FLAG_ERROR, FRAME_HEADER_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// Builds one valid frame by hand.
fn raw_frame(op: u8, flags: u8, req_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + 8);
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(op);
    out.push(flags);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&wordsum64(payload).to_le_bytes());
    out
}

/// Sends raw bytes, then reads whatever the server answers until it
/// closes the connection (or a read timeout fires). Returns the bytes.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    // Half-close so the server sees EOF instead of waiting out its read
    // timeout on frames that never complete.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(_) => break, // timeout: server chose to keep the conn open
        }
    }
    got
}

/// Decodes the first error-response frame out of raw reply bytes.
fn first_error(reply: &[u8]) -> Option<ErrorResponse> {
    if reply.len() < FRAME_HEADER_BYTES {
        return None;
    }
    let flags = reply[7];
    if flags & FLAG_ERROR == 0 {
        return None;
    }
    let len = u32::from_le_bytes(reply[16..20].try_into().unwrap()) as usize;
    ErrorResponse::decode(&reply[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len]).ok()
}

/// Tiny deterministic generator for the garbage campaign.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn corrupted_frame_campaign_never_kills_the_server() {
    let (addr, handle, join) = start_server(ServerConfig::default());
    let valid = raw_frame(Op::Ping as u8, 0, 7, b"");

    // 1. Wrong magic: typed malformed-frame error.
    let mut bad = valid.clone();
    bad[0] ^= 0xFF;
    let e = first_error(&send_raw(addr, &bad)).expect("error frame for bad magic");
    assert_eq!(e.code, ErrorCode::MalformedFrame);

    // 2. Wrong protocol version: typed unsupported-version error.
    let mut bad = valid.clone();
    bad[4] = 0x63;
    let e = first_error(&send_raw(addr, &bad)).expect("error frame for bad version");
    assert_eq!(e.code, ErrorCode::UnsupportedVersion);

    // 3. Every truncation point of a payload-carrying frame: the server
    //    must close cleanly (nothing useful to answer) without dying.
    let framed = raw_frame(Op::Scan as u8, 0, 9, b"some archive bytes");
    for cut in [1, 4, 6, FRAME_HEADER_BYTES - 1, FRAME_HEADER_BYTES + 3] {
        let _ = send_raw(addr, &framed[..cut]);
    }

    // 4. Length inflation: header declares more than is sent; the read
    //    times out server-side and the connection closes. No panic.
    let mut bad = valid.clone();
    bad[16..20].copy_from_slice(&(64u32 << 10).to_le_bytes());
    let _ = send_raw(addr, &bad);

    // 5. Payload bit flips fail the frame checksum.
    let framed = raw_frame(Op::Scan as u8, 0, 11, b"archive-ish payload");
    for bit in [0, 3, 7] {
        let mut bad = framed.clone();
        bad[FRAME_HEADER_BYTES + 2] ^= 1 << bit;
        let e = first_error(&send_raw(addr, &bad)).expect("error frame for flipped payload");
        assert_eq!(e.code, ErrorCode::MalformedFrame);
    }

    // 6. Unknown op tag: typed error, and the connection keeps serving.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(&raw_frame(0x63, 0, 13, b""))
            .expect("write unknown op");
        let mut reply = vec![0u8; FRAME_HEADER_BYTES];
        stream.read_exact(&mut reply).expect("error header");
        let len = u32::from_le_bytes(reply[16..20].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len + 8];
        stream.read_exact(&mut payload).expect("error body");
        let e = ErrorResponse::decode(&payload[..len]).expect("decode");
        assert_eq!(e.code, ErrorCode::UnknownOp);
        // Same connection, now a well-formed ping: still served.
        stream
            .write_all(&raw_frame(Op::Ping as u8, 0, 14, b""))
            .expect("write ping");
        let mut pong = vec![0u8; FRAME_HEADER_BYTES + 8];
        stream.read_exact(&mut pong).expect("pong after unknown op");
        assert_eq!(u64::from_le_bytes(pong[8..16].try_into().unwrap()), 14);
    }

    // 7. Pure garbage streams of assorted sizes.
    let mut rng = XorShift(0x5EED_CAFE_F00D_D00D);
    for len in [1usize, 19, 20, 64, 1000] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = send_raw(addr, &garbage);
    }

    // After the whole campaign the server still serves typed requests,
    // and the malformed traffic showed up in the metrics.
    let mut client = Client::connect(addr).expect("connect after campaign");
    client.ping().expect("server survived the campaign");
    let snap = client.stats().expect("stats");
    assert!(
        snap.malformed_frames >= 5,
        "expected malformed frames recorded, got {}",
        snap.malformed_frames
    );
    assert!(!handle.is_shutting_down());

    drop(client);
    stop_server(addr, join);
}

#[test]
fn oversized_frames_are_rejected_by_the_configured_cap() {
    let (addr, _handle, join) = start_server(ServerConfig {
        max_frame_payload: 1024,
        ..ServerConfig::default()
    });
    // Declared length over the cap: rejected from the header alone, no
    // payload needs to arrive.
    let mut bad = raw_frame(Op::Scan as u8, 0, 21, b"");
    bad[16..20].copy_from_slice(&(4096u32).to_le_bytes());
    let e = first_error(&send_raw(addr, &bad)).expect("error frame for oversize");
    assert_eq!(e.code, ErrorCode::FrameTooLarge);

    // At the cap still works.
    let payload = vec![0u8; 1024];
    let reply = send_raw(addr, &raw_frame(Op::Ping as u8, 0, 22, &payload));
    assert!(
        !reply.is_empty() && reply[7] & FLAG_ERROR == 0,
        "a frame at the cap must be served"
    );
    stop_server(addr, join);
}

#[test]
fn full_queue_answers_busy_and_it_shows_in_stats() {
    // One worker, queue of one. Occupy the worker with an idle parked
    // connection, fill the queue with a second, and the third must be
    // rejected with a typed Busy frame.
    let (addr, handle, join) = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });

    let mut parked = Client::connect(addr).expect("connect parked");
    parked.ping().expect("parked ping");
    // The ping response proves the single worker now owns this
    // connection and is parked in its serve loop.

    let _queued = TcpStream::connect(addr).expect("connect queued");
    // Give the acceptor a moment to enqueue it.
    std::thread::sleep(Duration::from_millis(300));

    let mut rejected = Client::connect(addr).expect("connect rejected");
    rejected
        .set_timeouts(Some(Duration::from_secs(5)), None)
        .unwrap();
    let err = rejected.ping().expect_err("third connection must be busy");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, ErrorCode::Busy, "{e}");
            assert!(
                e.retry_after_ms.is_some(),
                "busy rejections carry a retry hint"
            );
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    assert_eq!(handle.stats().rejected_busy, 1);

    // Freeing the worker drains the queue; service resumes for everyone.
    drop(parked);
    let mut client = Client::connect(addr).expect("connect after drain");
    client.ping().expect("service resumed");
    let snap = client.stats().expect("stats");
    assert_eq!(
        snap.rejected_busy, 1,
        "busy rejection visible over the wire"
    );

    drop(client);
    stop_server(addr, join);
}

#[test]
fn busy_rejection_echoes_the_request_id_when_readable() {
    // Same full-queue setup as above, but the rejected client's frame is
    // already on the socket when the acceptor rejects — so the Busy
    // response must echo its request id and op (the peek path).
    // A short server read timeout keeps the post-assert cleanup quick:
    // the worker only needs to stay parked through the rejection window.
    let (addr, _handle, join) = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });

    let mut parked = Client::connect(addr).expect("connect parked");
    parked.ping().expect("parked ping");
    let _queued = TcpStream::connect(addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(300));

    let mut stream = TcpStream::connect(addr).expect("connect rejected");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&raw_frame(Op::Ping as u8, 0, 77, b""))
        .expect("write ping");
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    assert!(got.len() >= FRAME_HEADER_BYTES, "no busy frame came back");
    let req_id = u64::from_le_bytes(got[8..16].try_into().unwrap());
    assert_eq!(req_id, 77, "busy rejection echoes the peeked request id");
    assert_eq!(got[6], Op::Ping as u8);
    let e = first_error(&got).expect("typed busy error");
    assert_eq!(e.code, ErrorCode::Busy);

    drop(parked);
    drop(stream);
    stop_server(addr, join);
}

#[test]
fn responses_sent_as_requests_are_rejected_not_obeyed() {
    let (addr, _handle, join) = start_server(ServerConfig::default());
    let reply = send_raw(
        addr,
        &raw_frame(Op::Ping as u8, cuszp_server::FLAG_RESPONSE, 31, b""),
    );
    let e = first_error(&reply).expect("typed error for a response-flagged request");
    assert_eq!(e.code, ErrorCode::BadRequest);
    stop_server(addr, join);
}
