//! Cluster-tier integration: three real cluster nodes on ephemeral
//! loopback ports, erasure-coded puts, live failover, degraded reads,
//! typed routing errors, and anti-entropy repair — all asserting the
//! core contract that bytes read back are bit-identical to the bytes
//! put, healthy or degraded.

use cuszp_core::{Compressor, Config, Dims, ErrorBound, RangeSpec};
use cuszp_parallel::WorkerPool;
use cuszp_server::wire::{ErrorCode, GetShardRequest, Op, PutShardRequest};
use cuszp_server::{
    Client, ClientError, ClusterClient, ClusterConfig, ClusterError, ConnectOptions, NodeInfo,
    Ring, Server, ServerConfig, ServerHandle,
};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners. Racy in principle; fine in this container.
fn free_ports(n: usize) -> Vec<u16> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    holds
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

struct TestCluster {
    ring: Ring,
    handles: Vec<ServerHandle>,
    addrs: Vec<SocketAddr>,
    joins: Vec<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestCluster {
    /// Starts `n` cluster nodes sharing one ring (k data + m parity).
    fn start(n: usize, k: u16, m: u16, epoch: u64) -> TestCluster {
        let ports = free_ports(n);
        let nodes: Vec<NodeInfo> = ports
            .iter()
            .enumerate()
            .map(|(i, p)| NodeInfo {
                id: i as u64 + 1,
                addr: format!("127.0.0.1:{p}"),
            })
            .collect();
        let ring = Ring::new(epoch, k, m, nodes).unwrap();
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        let mut addrs = Vec::new();
        for (i, p) in ports.iter().enumerate() {
            let server = Server::bind_cluster(
                format!("127.0.0.1:{p}"),
                ServerConfig::default(),
                Some(ClusterConfig {
                    node_id: i as u64 + 1,
                    ring: ring.clone(),
                    backend: cuszp_server::StoreBackendConfig::Memory,
                }),
            )
            .expect("bind cluster node");
            addrs.push(server.local_addr().unwrap());
            handles.push(server.handle());
            joins.push(std::thread::spawn(move || server.serve()));
        }
        TestCluster {
            ring,
            handles,
            addrs,
            joins,
        }
    }

    fn client(&self) -> ClusterClient {
        ClusterClient::with_ring(self.ring.clone(), opts())
    }

    fn stop(self) {
        for addr in &self.addrs {
            if let Ok(mut c) = Client::connect(*addr) {
                let _ = c.shutdown_server();
            }
        }
        for j in self.joins {
            j.join().expect("serve thread panicked").expect("serve");
        }
    }
}

fn opts() -> ConnectOptions {
    ConnectOptions {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
    }
}

/// A real compressed archive to shard: deterministic mixed field.
fn archive(seed: u32) -> Vec<u8> {
    let dims = Dims::D2 { ny: 24, nx: 512 };
    let data: Vec<f32> = (0..dims.len())
        .map(|i| {
            let x = (i as f32 + seed as f32 * 31.0) * 0.002;
            x.sin() * 40.0 + ((i as u32).wrapping_mul(seed + 1) % 13) as f32 * 0.25
        })
        .collect();
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let pool = WorkerPool::new(1);
    compressor
        .compress_chunked_with(&data, dims, 8 * 512, &pool)
        .expect("compress")
        .to_bytes()
}

#[test]
fn put_get_roundtrips_bit_identical_and_fully_replicated() {
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut client = cluster.client();
    let archives: Vec<Vec<u8>> = (0..4).map(archive).collect();
    for (i, bytes) in archives.iter().enumerate() {
        let report = client.put(&format!("arch-{i}"), bytes).expect("put");
        assert!(report.fully_replicated(), "healthy put must store k+m");
        assert!(report.failed.is_empty());
    }
    for (i, bytes) in archives.iter().enumerate() {
        let got = client.get(&format!("arch-{i}")).expect("get");
        assert!(!got.degraded, "healthy read must not degrade");
        assert_eq!(&got.bytes, bytes, "arch-{i} not bit-identical");
    }
    assert_eq!(client.stats().degraded_reads.get(), 0);
    assert_eq!(client.stats().puts.get(), 4);
    assert_eq!(client.stats().gets.get(), 4);
    // Every node holds some shards: 4 stripes × 3 slots over 3 nodes.
    let total: usize = cluster.handles.iter().map(|h| h.shard_count()).sum();
    assert_eq!(total, 12);
    cluster.stop();
}

#[test]
fn get_range_served_from_the_cluster_matches_local_decode() {
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut client = cluster.client();
    let bytes = archive(9);
    client.put("ranged", &bytes).expect("put");
    let spec = RangeSpec::new(vec![4..20, 100..400]);
    let (samples, dims, degraded) = client.get_range("ranged", &spec).expect("get_range");
    assert!(!degraded);
    let (local, local_dims) = cuszp_core::decompress_range(&bytes, &spec).expect("local range");
    assert_eq!(dims, local_dims);
    assert_eq!(samples, local, "cluster range read diverged from local");
    cluster.stop();
}

#[test]
fn every_single_node_death_still_serves_every_archive() {
    // The acceptance criterion, in-process: a 3-node, m=1 cluster keeps
    // serving every archive bit-identical after killing ANY one node.
    let archives: Vec<Vec<u8>> = (0..3).map(archive).collect();
    for victim in 0..3usize {
        let cluster = TestCluster::start(3, 2, 1, 1);
        let mut client = cluster.client();
        for (i, bytes) in archives.iter().enumerate() {
            client.put(&format!("arch-{i}"), bytes).expect("put");
        }
        // Kill the victim: drain refuses new shard work, and its
        // in-flight queue empties before we read.
        cluster.handles[victim].shutdown();
        std::thread::sleep(Duration::from_millis(50));
        let mut degraded_seen = 0u64;
        for (i, bytes) in archives.iter().enumerate() {
            let got = client
                .get(&format!("arch-{i}"))
                .unwrap_or_else(|e| panic!("arch-{i} with node {victim} down: {e}"));
            assert_eq!(&got.bytes, bytes, "arch-{i} corrupted by failover");
            if got.degraded {
                degraded_seen += 1;
            }
        }
        assert_eq!(client.stats().degraded_reads.get(), degraded_seen);
        cluster.stop();
    }
}

#[test]
fn stale_epoch_answers_redirect_and_wrong_owner_answers_not_mine() {
    let cluster = TestCluster::start(3, 2, 1, 7);
    // Hand-roll shard requests so the typed errors are observable raw.
    let key = "routed";
    let owner0 = cluster.ring.shard_owner(key, 0).unwrap().clone();
    let mut c = Client::connect(&owner0.addr as &str).expect("connect owner");
    // Stale epoch → Redirect carrying the current epoch + owner.
    let stale = PutShardRequest {
        key: key.into(),
        shard_idx: 0,
        ring_epoch: 3,
        total_len: 4,
        archive_sum: 0,
        flags: 0,
        shard: b"abcd",
    };
    let err = c.call(Op::Put, &stale.encode()).unwrap_err();
    let ClientError::Server(resp) = err else {
        panic!("expected a typed server error")
    };
    assert_eq!(resp.code, ErrorCode::Redirect);
    let target = resp.redirect.expect("redirect carries the owner");
    assert_eq!(target.epoch, 7);
    assert_eq!(target.owner_id, owner0.id);
    assert_eq!(target.owner_addr, owner0.addr);
    assert!(!resp.code.is_transient(), "Redirect is a routing signal");
    // Right epoch, wrong node → NotMine naming the true owner.
    let not_owner = cluster
        .ring
        .nodes()
        .iter()
        .find(|n| n.id != owner0.id)
        .unwrap()
        .clone();
    let mut c2 = Client::connect(&not_owner.addr as &str).expect("connect non-owner");
    let misrouted = GetShardRequest {
        key: key.into(),
        shard_idx: 0,
        ring_epoch: 7,
    };
    let err = c2.call(Op::Get, &misrouted.encode()).unwrap_err();
    let ClientError::Server(resp) = err else {
        panic!("expected a typed server error")
    };
    assert_eq!(resp.code, ErrorCode::NotMine);
    assert_eq!(resp.redirect.unwrap().owner_id, owner0.id);
    // Absent shard on the right owner → NotFound.
    let missing = GetShardRequest {
        key: key.into(),
        shard_idx: 0,
        ring_epoch: 7,
    };
    let err = c.call(Op::Get, &missing.encode()).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::NotFound));
    cluster.stop();
}

#[test]
fn stale_client_follows_the_redirect_after_one_ring_refresh() {
    let cluster = TestCluster::start(3, 2, 1, 5);
    // A client that believes an older epoch of the same topology.
    let stale_ring = Ring::new(
        4,
        cluster.ring.data_shards,
        cluster.ring.parity_shards,
        cluster.ring.nodes().to_vec(),
    )
    .unwrap();
    let mut client = ClusterClient::with_ring(stale_ring, opts());
    let bytes = archive(2);
    let report = client
        .put("stale-routed", &bytes)
        .expect("put via redirect");
    assert!(report.fully_replicated());
    assert_eq!(client.ring().epoch, 5, "client adopted the served ring");
    assert!(client.stats().redirects_followed.get() >= 1);
    assert!(client.stats().ring_refreshes.get() >= 1);
    let got = client.get("stale-routed").expect("get after refresh");
    assert_eq!(got.bytes, bytes);
    cluster.stop();
}

#[test]
fn ring_op_serves_the_topology_and_health_carries_identity() {
    let cluster = TestCluster::start(3, 2, 1, 11);
    let mut c = Client::connect(cluster.addrs[1]).expect("connect");
    let ring = Ring::decode(&c.call(Op::Ring, &[]).expect("ring op")).expect("ring decode");
    assert_eq!(ring, cluster.ring);
    let health = c.health().expect("health");
    let id = health
        .cluster
        .expect("cluster node health carries identity");
    assert_eq!(id.node_id, 2);
    assert_eq!(id.ring_epoch, 11);
    cluster.stop();
}

#[test]
fn non_cluster_servers_refuse_shard_ops_typed() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let join = std::thread::spawn(move || server.serve());
    let mut c = Client::connect(addr).expect("connect");
    let err = c.call(Op::Ring, &[]).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRequest));
    let health = c.health().expect("health");
    assert!(health.cluster.is_none(), "plain server has no identity");
    c.shutdown_server().expect("shutdown");
    join.join().unwrap().unwrap();
}

#[test]
fn scrub_heals_a_wiped_node_and_counts_repairs() {
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut client = cluster.client();
    let archives: Vec<Vec<u8>> = (0..3).map(archive).collect();
    for (i, bytes) in archives.iter().enumerate() {
        client.put(&format!("arch-{i}"), bytes).expect("put");
    }
    // Node 2 loses its disk.
    let wiped = 1usize;
    let before = cluster.handles[wiped].shard_count();
    assert!(before > 0, "test needs the wiped node to hold shards");
    cluster.handles[wiped].clear_shards();
    assert_eq!(cluster.handles[wiped].shard_count(), 0);
    // Scrub finds and re-replicates everything that lived there.
    let report = client.scrub().expect("scrub");
    assert_eq!(report.unreachable_nodes, 0);
    assert_eq!(report.repaired as usize, before);
    assert_eq!(report.unrepairable, 0);
    assert_eq!(cluster.handles[wiped].shard_count(), before);
    // The repairs are visible in the node's metrics, flagged as such.
    let snap = cluster.handles[wiped].stats();
    assert_eq!(snap.scrub_repairs as usize, before);
    // A second pass is a no-op: anti-entropy is idempotent.
    let again = client.scrub().expect("second scrub");
    assert_eq!(again.repaired, 0);
    // And reads are healthy (not degraded) again.
    for (i, bytes) in archives.iter().enumerate() {
        let got = client.get(&format!("arch-{i}")).expect("get after scrub");
        assert!(!got.degraded);
        assert_eq!(&got.bytes, bytes);
    }
    cluster.stop();
}

#[test]
fn missing_key_fails_typed_not_enough_shards() {
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut client = cluster.client();
    let err = client.get("never-stored").unwrap_err();
    assert!(
        matches!(err, ClusterError::NotEnoughShards { have: 0, .. }),
        "unexpected: {err}"
    );
    cluster.stop();
}
