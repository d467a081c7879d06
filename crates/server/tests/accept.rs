//! The acceptor blocks in `accept()`: a fresh connection is queued the
//! moment it arrives (no poll interval to wait out), and shutdown wakes
//! the parked acceptor instead of waiting for its next poll.

use cuszp_server::{Client, ErrorCode, ErrorResponse, Op, Server, ServerConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn fresh_connections_are_served_without_a_poll_delay() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());

    // Each sample opens its own connection, so each one crosses the
    // acceptor. A polling acceptor put its whole sleep (20 ms) into the
    // median; a blocking one leaves loopback + a thread hand-off.
    let mut samples: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let mut client = Client::connect(addr).expect("connect");
            client.ping().expect("first ping");
            t0.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect + first ping took {median:?}"
    );

    handle.shutdown();
    join.join().expect("serve thread panicked").expect("serve");
}

#[test]
fn shutdown_wakes_a_parked_acceptor() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(bind, ServerConfig::default()).expect("bind");
        let port = server.local_addr().expect("local addr").port();
        let handle = server.handle();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let join = std::thread::spawn(move || {
            let result = server.serve();
            let _ = done_tx.send(());
            result
        });
        // One answered ping proves the acceptor is running; having
        // queued that connection it is back in `accept()`, and nothing
        // but the wake-up connection `shutdown` makes will end the wait.
        Client::connect(("127.0.0.1", port))
            .expect("connect")
            .ping()
            .expect("ping");
        handle.shutdown();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("serve on {bind} did not return after shutdown"));
        join.join().expect("serve thread panicked").expect("serve");
        assert_eq!(
            handle.stats().connections_total,
            1,
            "the wake-up connection is not a client"
        );
    }
}

#[test]
fn lingering_rejected_clients_do_not_hold_the_acceptor() {
    // One worker, queue of one, both occupied: everything after is shed.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    let mut parked = Client::connect(addr).expect("connect parked");
    parked.ping().expect("parked ping");
    let queued = TcpStream::connect(addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(100));

    // Eight clients send a whole request each and then keep their
    // sockets open. The acceptor has read each request off in full, so
    // it has nothing left to wait for on any of them — a close that
    // lingered for the client's would cost eight rejection budgets
    // (8 × 50 ms) here, one after the other.
    const N: usize = 8;
    let t0 = Instant::now();
    let mut shed: Vec<(Client, u64)> = (0..N)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect shed");
            let id = client.send(Op::Ping, &[]).expect("send");
            (client, id)
        })
        .collect();
    for (client, id) in &mut shed {
        let frame = client.recv().expect("busy answer");
        assert!(frame.is_error());
        assert_eq!(frame.req_id, *id, "the rejection echoes the request id");
        let e = ErrorResponse::decode(&frame.payload).expect("error payload");
        assert_eq!(e.code, ErrorCode::Busy);
    }
    assert_eq!(handle.stats().rejected_busy, N as u64);

    // Free the worker and the queue: the next connection is served, and
    // the whole episode fits well inside half of those eight budgets.
    drop(parked);
    drop(queued);
    Client::connect(addr)
        .expect("connect")
        .ping()
        .expect("served once a worker is free");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "{N} lingering rejected clients held the acceptor for {elapsed:?}"
    );

    drop(shed);
    handle.shutdown();
    join.join().expect("serve thread panicked").expect("serve");
}
