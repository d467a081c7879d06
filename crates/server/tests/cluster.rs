//! Cluster-tier integration: three real cluster nodes on ephemeral
//! loopback ports, erasure-coded puts, live failover, degraded reads,
//! typed routing errors, and anti-entropy repair — all asserting the
//! core contract that bytes read back are bit-identical to the bytes
//! put, healthy or degraded.

use cuszp_core::{
    slice_field, ChunkIndex, Compressor, Config, CuszpError, Decode, Dims, Element, ErrorBound,
    RangeSpec,
};
use cuszp_parallel::{plan_chunks, WorkerPool};
use cuszp_server::wire::{ErrorCode, GetShardRequest, GetShardResponse, Op, PutShardRequest};
use cuszp_server::{
    Client, ClientError, ClusterClient, ClusterConfig, ClusterError, ConnectOptions, NodeInfo,
    Ring, Server, ServerConfig, ServerHandle, StoreBackendConfig,
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
        TestCluster::start_with(n, k, m, epoch, |_| StoreBackendConfig::Memory)
    }

    /// [`TestCluster::start`] with node `i + 1` storing on `backend(i)`.
    fn start_with(
        n: usize,
        k: u16,
        m: u16,
        epoch: u64,
        backend: impl Fn(usize) -> StoreBackendConfig,
    ) -> TestCluster {
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
                    backend: backend(i),
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
    let (samples, dims, degraded) = client.get_range::<f32>("ranged", &spec).expect("get_range");
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
        window: None,
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
        window: None,
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

/// Every shard of `arch-0..arch-{keys}` that node `node + 1` owns, as
/// its `get_shard` answers: `(key, slot, bytes)`.
fn shards_on(cluster: &TestCluster, node: usize, keys: usize) -> Vec<(String, u16, Vec<u8>)> {
    let mut c = Client::connect(cluster.addrs[node]).expect("connect");
    let owned = (0..keys).flat_map(|i| (0..3u16).map(move |slot| (format!("arch-{i}"), slot)));
    owned
        .filter(|(key, slot)| cluster.ring.shard_owner(key, *slot).unwrap().id == node as u64 + 1)
        .map(|(key, slot)| {
            let req = GetShardRequest {
                key: key.clone(),
                shard_idx: slot,
                ring_epoch: cluster.ring.epoch,
                window: None,
            };
            let reply = c.call(Op::Get, &req.encode()).expect("get_shard");
            let shard = GetShardResponse::decode(&reply).expect("reply").shard;
            (key, slot, shard)
        })
        .collect()
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
    let stored = shards_on(&cluster, wiped, archives.len());
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
    // Each re-put is the wiped shard byte for byte: splitting the
    // verified archive again reproduces the stored stripe.
    assert_eq!(shards_on(&cluster, wiped, archives.len()), stored);
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

// ---- Range reads: the key's container verified once, then windows ----

const RANGE_KEY: &str = "ranged/field";

/// A 48 × 512 field in six chunks of eight rows, as `T`; `scale`
/// multiplies every value (a power of two keeps the archive's length).
fn field_archive<T: Element>(scale: f64) -> (Vec<u8>, Dims) {
    let dims = Dims::D2 { ny: 48, nx: 512 };
    let data: Vec<T> = (0..dims.len())
        .map(|i| {
            let x = i as f64 * 0.002;
            T::from_f64((x.sin() * 40.0 + (i % 13) as f64 * 0.25) * scale)
        })
        .collect();
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-3),
        ..Config::default()
    });
    let bytes = compressor
        .compress_chunked_with(&data, dims, 8 * 512, &WorkerPool::new(1))
        .expect("compress")
        .to_bytes();
    (bytes, dims)
}

/// The slow-axis rows of each chunk of [`field_archive`].
fn chunk_rows() -> Vec<std::ops::Range<usize>> {
    plan_chunks(&[48, 512], 8 * 512)
        .chunks
        .into_iter()
        .map(|c| c.slow)
        .collect()
}

/// The chunk whose bytes cross from data slot 0 into slot 1 (k = 2).
fn straddling_chunk(bytes: &[u8]) -> usize {
    let (index, _) = ChunkIndex::verify(bytes).expect("verify");
    let shard_size = bytes.len().div_ceil(2);
    (0..index.n_chunks())
        .find(|&i| {
            let r = index.chunk_range(i).unwrap();
            r.start < shard_size && shard_size < r.end
        })
        .expect("a chunk straddles the slot boundary")
}

/// A box in every chunk, a box over each pair of neighbouring chunks,
/// and one over the whole field.
fn boxes() -> Vec<RangeSpec> {
    let rows = chunk_rows();
    let mut boxes: Vec<RangeSpec> = rows
        .iter()
        .map(|r| RangeSpec::new(vec![r.start + 1..r.end - 1, 37..301]))
        .collect();
    boxes.extend(
        rows.windows(2)
            .map(|w| RangeSpec::new(vec![w[0].end - 2..w[1].start + 3, 0..512])),
    );
    boxes.push(RangeSpec::new(vec![0..48, 0..512]));
    boxes
}

fn check_range_reads<T: Element + PartialEq + std::fmt::Debug>() {
    let (bytes, dims) = field_archive::<T>(1.0);
    let (full, _) = Decode::new(&bytes).strict::<T>().expect("full decode");
    assert!(chunk_rows().len() >= 4);
    let straddler = straddling_chunk(&bytes);
    assert!(straddler > 0 && straddler + 1 < chunk_rows().len());
    let boxes = boxes();
    for down in [None, Some(0usize), Some(1), Some(2)] {
        let cluster = TestCluster::start(3, 2, 1, 1);
        cluster.client().put(RANGE_KEY, &bytes).expect("put");
        let data_nodes: Vec<usize> = (0..2)
            .map(|s| cluster.ring.shard_owner(RANGE_KEY, s).unwrap().id as usize - 1)
            .collect();
        let degrades = down.is_some_and(|d| data_nodes.contains(&d));
        // `warm` reads every box (a first read, then hits) with every
        // node up; `cold` makes its first read after `down` died.
        let mut warm = cluster.client();
        let mut cold = cluster.client();
        for spec in &boxes {
            let (got, got_dims, degraded) = warm.get_range::<T>(RANGE_KEY, spec).expect("read");
            assert_eq!((got, got_dims), slice_field(&full, dims, spec).unwrap());
            assert!(!degraded);
        }
        if let Some(d) = down {
            cluster.handles[d].shutdown();
            std::thread::sleep(Duration::from_millis(50));
        }
        for spec in &boxes {
            for (name, client) in [("warm", &mut warm), ("cold", &mut cold)] {
                let (got, got_dims, degraded) = client
                    .get_range::<T>(RANGE_KEY, spec)
                    .unwrap_or_else(|e| panic!("{name} {spec} with {down:?} down: {e}"));
                assert_eq!(
                    (got, got_dims),
                    slice_field(&full, dims, spec).unwrap(),
                    "{name} {spec} with {down:?} down"
                );
                assert_eq!(degraded, degrades, "{name} {spec} with {down:?} down");
            }
        }
        for client in [&warm, &cold] {
            assert_eq!(client.stats().containers_verified.get(), 1);
            assert_eq!(client.stats().gets.get(), 1);
        }
        // Open connections would hold the nodes' drain.
        drop((warm, cold));
        cluster.stop();
    }
}

#[test]
fn range_reads_equal_the_full_decode_healthy_and_with_each_node_down_f32() {
    check_range_reads::<f32>();
}

#[test]
fn range_reads_equal_the_full_decode_healthy_and_with_each_node_down_f64() {
    check_range_reads::<f64>();
}

#[test]
fn a_repeated_range_read_fetches_only_its_chunk_and_verifies_nothing() {
    let (bytes, _) = field_archive::<f32>(1.0);
    let (index, _) = ChunkIndex::verify(&bytes).expect("verify");
    let rows = chunk_rows();
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut client = cluster.client();
    client.put(RANGE_KEY, &bytes).expect("put");
    let stats = |c: &ClusterClient| {
        (
            c.stats().range_bytes_fetched.get(),
            c.stats().containers_verified.get(),
        )
    };
    let in_chunk = |i: usize| RangeSpec::new(vec![rows[i].start + 2..rows[i].start + 5, 9..99]);

    // The first read fetches the whole stripe (k shards of
    // ceil(len / k), padding included) and verifies the container once.
    client
        .get_range::<f32>(RANGE_KEY, &in_chunk(0))
        .expect("first");
    assert_eq!(stats(&client), (2 * bytes.len().div_ceil(2) as u64, 1));
    // Each later one-chunk box fetches exactly its chunk's bytes, split
    // over two slots or not, and verifies nothing whole.
    for i in 0..rows.len() {
        let (fetched, _) = stats(&client);
        client
            .get_range::<f32>(RANGE_KEY, &in_chunk(i))
            .expect("hit");
        let chunk = index.chunk_range(i).unwrap().len() as u64;
        assert_eq!(stats(&client), (fetched + chunk, 1), "chunk {i}");
    }

    // The wrong element type is typed on a hit — before any fetch — and
    // on a first read, which still keeps the index it verified.
    let before = stats(&client);
    let err = client
        .get_range::<f64>(RANGE_KEY, &in_chunk(1))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Pipeline(CuszpError::DtypeMismatch { .. })
        ),
        "{err}"
    );
    assert_eq!(stats(&client), before);
    let mut fresh = cluster.client();
    let err = fresh.get_range::<f64>(RANGE_KEY, &in_chunk(1)).unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Pipeline(CuszpError::DtypeMismatch { .. })
        ),
        "{err}"
    );
    assert_eq!(fresh.stats().containers_verified.get(), 1);
    fresh
        .get_range::<f32>(RANGE_KEY, &in_chunk(1))
        .expect("f32 hit");
    assert_eq!(fresh.stats().containers_verified.get(), 1);

    // A put through this client drops the key's index.
    client.put(RANGE_KEY, &bytes).expect("put again");
    client
        .get_range::<f32>(RANGE_KEY, &in_chunk(2))
        .expect("after put");
    assert_eq!(stats(&client).1, 2);

    // With data slot 1's node dead, a hit on a chunk that lies wholly in
    // slot 1 fetches that chunk's columns from the k = 2 survivors.
    let last = rows.len() - 1;
    let last_range = index.chunk_range(last).unwrap();
    assert!(last_range.start >= bytes.len().div_ceil(2));
    let owner = cluster.ring.shard_owner(RANGE_KEY, 1).unwrap().id as usize;
    cluster.handles[owner - 1].shutdown();
    std::thread::sleep(Duration::from_millis(50));
    let (fetched, _) = stats(&client);
    let (_, _, degraded) = client
        .get_range::<f32>(RANGE_KEY, &in_chunk(last))
        .expect("degraded hit");
    assert!(degraded);
    let chunk = last_range.len() as u64;
    assert_eq!(stats(&client), (fetched + 2 * chunk, 2));
    drop((client, fresh));
    cluster.stop();
}

#[test]
fn a_damaged_chunk_fails_a_read_of_any_other_chunk_on_every_first_read() {
    let (mut bytes, _) = field_archive::<f32>(1.0);
    let (index, _) = ChunkIndex::verify(&bytes).expect("verify");
    let rows = chunk_rows();
    let damaged = 3;
    let r = index.chunk_range(damaged).unwrap();
    bytes[(r.start + r.end) / 2] ^= 0x10;
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut client = cluster.client();
    client.put(RANGE_KEY, &bytes).expect("put");
    for (i, slab) in rows.iter().enumerate().filter(|(i, _)| *i != damaged) {
        let spec = RangeSpec::new(vec![slab.start..slab.start + 2, 0..64]);
        // Twice: a failed verify keeps no index to read by.
        for _ in 0..2 {
            let read: Result<(Vec<f32>, Dims, bool), _> = client.get_range(RANGE_KEY, &spec);
            assert!(
                matches!(read, Err(ClusterError::Pipeline(_))),
                "chunk {i}: {read:?}"
            );
        }
    }
    drop(client);
    cluster.stop();
}

#[test]
fn a_key_put_again_by_another_client_reads_its_new_values() {
    let (old, dims) = field_archive::<f32>(1.0);
    let (new, _) = field_archive::<f32>(2.0);
    assert_eq!(old.len(), new.len(), "the same codes at twice the scale");
    assert_ne!(old, new);
    let (want_new, _) = Decode::new(&new).strict::<f32>().expect("decode new");
    let spec = RangeSpec::new(vec![9..14, 100..200]);
    let cluster = TestCluster::start(3, 2, 1, 1);
    let mut reader = cluster.client();
    let mut writer = cluster.client();
    writer.put(RANGE_KEY, &old).expect("put old");
    // A first read and a repeat: the reader now holds the old index.
    for _ in 0..2 {
        let (got, _, _): (Vec<f32>, _, _) = reader.get_range(RANGE_KEY, &spec).expect("read old");
        let (want, _) = cuszp_core::decompress_range(&old, &spec).expect("local old");
        assert_eq!(got, want);
    }
    writer.put(RANGE_KEY, &new).expect("put new");
    let (got, got_dims, degraded) = reader.get_range(RANGE_KEY, &spec).expect("read new");
    assert!(!degraded);
    assert_eq!(
        (got, got_dims),
        slice_field(&want_new, dims, &spec).unwrap()
    );
    drop((reader, writer));
    cluster.stop();
}

#[test]
fn a_shard_window_is_served_after_the_whole_record_and_refused_past_its_end() {
    let dir = std::env::temp_dir().join(format!("cuszp-cluster-window-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for kind in ["memory", "durable"] {
        let cluster = TestCluster::start_with(3, 2, 1, 1, |i| match kind {
            "memory" => StoreBackendConfig::Memory,
            _ => {
                StoreBackendConfig::Durable(cuszp_store::StoreConfig::new(dir.join(i.to_string())))
            }
        });
        assert_eq!(cluster.handles[0].store_kind(), Some(kind));
        let mut client = cluster.client();
        let bytes = archive(4);
        client.put("windowed", &bytes).expect("put");
        let shard_size = bytes.len().div_ceil(2) as u64;
        let owner = cluster.ring.shard_owner("windowed", 0).unwrap().clone();
        let mut c = Client::connect(&owner.addr as &str).expect("connect owner");
        let get = |window| GetShardRequest {
            key: "windowed".into(),
            shard_idx: 0,
            ring_epoch: 1,
            window,
        };
        let shard = |payload: Vec<u8>| GetShardResponse::decode(&payload).expect("reply").shard;
        let whole = shard(c.call(Op::Get, &get(None).encode()).expect("whole"));
        assert_eq!(whole, bytes[..shard_size as usize], "{kind}");
        for (offset, len) in [(0, shard_size), (5, 100), (shard_size, 0), (0, 0)] {
            let part = shard(
                c.call(Op::Get, &get(Some((offset, len))).encode())
                    .expect("window"),
            );
            assert_eq!(
                part,
                whole[offset as usize..(offset + len) as usize],
                "{kind}"
            );
        }
        for window in [(0, shard_size + 1), (shard_size, 1), (u64::MAX - 1, 1)] {
            let err = c.call(Op::Get, &get(Some(window)).encode()).unwrap_err();
            assert_eq!(
                err.server_code(),
                Some(ErrorCode::BadRequest),
                "{kind} {window:?}"
            );
        }
        drop((client, c));
        cluster.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
