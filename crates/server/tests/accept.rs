//! The acceptor blocks in `accept()`: a fresh connection is queued the
//! moment it arrives (no poll interval to wait out), and shutdown wakes
//! the parked acceptor instead of waiting for its next poll.

use cuszp_server::{Client, Server, ServerConfig};
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
