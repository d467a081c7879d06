//! Durable-backend cluster integration: nodes run on `LogStore` data
//! directories, so a full cluster restart (every process gone) serves
//! every archive bit-identical from disk with ZERO scrub repairs — the
//! durable half of the crash-recovery acceptance criterion. A damaged
//! segment is the flip side: surfaced typed at boot, shard dropped (not
//! served corrupt), healed end-to-end by cluster-scrub. A stripe
//! stored before the v2 record format — FNV-1a record trailers and an
//! FNV-1a stripe checksum — still reads, degrades and scrubs under the
//! function it was put with. A key put again while one owner was down
//! reads its new bytes once that owner returns with its old shard, and
//! scrub re-puts the stale slot; two puts that each reach `k` slots
//! fail typed as a conflict.

use cuszp_core::{Compressor, Config, Dims, ErrorBound, RangeSpec};
use cuszp_ecc::ReedSolomon;
use cuszp_parallel::WorkerPool;
use cuszp_server::wire::{wordsum64, ShardListResponse, SumKind};
use cuszp_server::{
    Client, ClusterClient, ClusterConfig, ClusterError, ConnectOptions, NodeInfo, Op, Ring, Server,
    ServerConfig, ServerHandle, StoreBackendConfig,
};
use cuszp_store::{fnv1a, FsyncPolicy, StoreConfig};
use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn free_ports(n: usize) -> Vec<u16> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    holds
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cuszp-durable-cluster-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts() -> ConnectOptions {
    ConnectOptions {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
    }
}

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

/// A cluster whose nodes persist to fixed data dirs on fixed ports, so
/// it can be torn down completely and brought back on the same state.
struct DurableCluster {
    ring: Ring,
    ports: Vec<u16>,
    dirs: Vec<PathBuf>,
    handles: Vec<ServerHandle>,
    joins: Vec<std::thread::JoinHandle<std::io::Result<()>>>,
    addrs: Vec<SocketAddr>,
}

/// The ring of 2 data slots and the rest parity over `ports` (2+1 over
/// three); node `i + 1` listens on `ports[i]`.
fn ring_over(ports: &[u16], epoch: u64) -> Ring {
    let nodes: Vec<NodeInfo> = ports
        .iter()
        .enumerate()
        .map(|(i, p)| NodeInfo {
            id: i as u64 + 1,
            addr: format!("127.0.0.1:{p}"),
        })
        .collect();
    Ring::new(epoch, 2, ports.len() as u16 - 2, nodes).unwrap()
}

impl DurableCluster {
    fn start(ports: &[u16], dirs: &[PathBuf], epoch: u64) -> DurableCluster {
        DurableCluster::start_without(ports, dirs, epoch, &[])
    }

    /// Starts every node but those in `down`, which stay dead: their
    /// ring slots refuse connections until revived.
    fn start_without(
        ports: &[u16],
        dirs: &[PathBuf],
        epoch: u64,
        down: &[usize],
    ) -> DurableCluster {
        let mut cluster = DurableCluster {
            ring: ring_over(ports, epoch),
            ports: ports.to_vec(),
            dirs: dirs.to_vec(),
            handles: Vec::new(),
            joins: Vec::new(),
            addrs: Vec::new(),
        };
        for i in (0..ports.len()).filter(|i| !down.contains(i)) {
            cluster.revive(i);
        }
        cluster
    }

    /// Starts node `i + 1` on its port and data dir, holding whatever
    /// its store held when it went down.
    fn revive(&mut self, i: usize) {
        let server = Server::bind_cluster(
            format!("127.0.0.1:{}", self.ports[i]),
            ServerConfig::default(),
            Some(ClusterConfig {
                node_id: i as u64 + 1,
                ring: self.ring.clone(),
                backend: StoreBackendConfig::Durable(StoreConfig {
                    dir: self.dirs[i].clone(),
                    fsync: FsyncPolicy::EveryNBytes(64 * 1024),
                    compact_at: 256 * 1024 * 1024,
                }),
            }),
        )
        .expect("bind durable cluster node");
        assert_eq!(server.handle().store_kind(), Some("durable"));
        self.addrs.push(server.local_addr().unwrap());
        self.handles.push(server.handle());
        self.joins.push(std::thread::spawn(move || server.serve()));
    }

    /// Stops node `i + 1` and starts it again on its port and data dir.
    /// `i` indexes the nodes in start order, so every node must have
    /// started with none down.
    fn restart(&mut self, i: usize) {
        self.handles.remove(i).shutdown();
        let join = self.joins.remove(i);
        join.join().expect("serve thread panicked").expect("serve");
        self.addrs.remove(i);
        self.revive(i);
        // `revive` appends: move the node back to its place.
        self.addrs[i..].rotate_right(1);
        self.handles[i..].rotate_right(1);
        self.joins[i..].rotate_right(1);
    }

    fn client(&self) -> ClusterClient {
        ClusterClient::with_ring(self.ring.clone(), opts())
    }

    /// Full teardown: every node gone, sockets released, stores synced
    /// by drop. Restart with the same `(ports, dirs)` resumes the state.
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

/// Flips one bit inside the final record of a node's newest segment —
/// deterministic damage that is guaranteed to hit a live record.
fn damage_newest_segment(dir: &Path) {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read data dir")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".czl"))
        })
        .collect();
    segs.sort();
    let seg = segs.pop().expect("node has a segment");
    let mut bytes = fs::read(&seg).expect("read segment");
    assert!(bytes.len() > 64, "segment too small to damage");
    let off = bytes.len() - 24; // inside the final record's payload/trailer
    bytes[off] ^= 0x40;
    fs::write(&seg, &bytes).expect("write damaged segment");
}

#[test]
fn full_cluster_restart_serves_from_disk_with_zero_repairs() {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("restart-{i}"))).collect();
    let archives: Vec<Vec<u8>> = (0..4).map(archive).collect();

    // Generation 1: populate and remember per-node shard counts.
    let before: Vec<usize> = {
        let cluster = DurableCluster::start(&ports, &dirs, 1);
        let mut client = cluster.client();
        for (i, bytes) in archives.iter().enumerate() {
            let report = client.put(&format!("arch-{i}"), bytes).expect("put");
            assert!(report.fully_replicated());
        }
        let counts = cluster.handles.iter().map(|h| h.shard_count()).collect();
        cluster.stop();
        counts
    };
    assert_eq!(before.iter().sum::<usize>(), 12, "4 stripes x (k+m)=3");

    // Generation 2: same dirs, same ports, fresh processes. Recovery
    // must be clean and the inventory identical.
    let cluster = DurableCluster::start(&ports, &dirs, 1);
    for (i, h) in cluster.handles.iter().enumerate() {
        assert_eq!(
            h.shard_count(),
            before[i],
            "node {i} lost shards across restart"
        );
        let summary = h.store_recovery_summary().expect("durable node summary");
        assert!(
            summary.contains("clean"),
            "node {i} recovery not clean: {summary}"
        );
    }
    let mut client = cluster.client();
    for (i, bytes) in archives.iter().enumerate() {
        let got = client.get(&format!("arch-{i}")).expect("get after restart");
        assert!(!got.degraded, "restart must not degrade arch-{i}");
        assert_eq!(
            &got.bytes, bytes,
            "arch-{i} not bit-identical after restart"
        );
    }
    // The acceptance bar: nothing to repair — the disk state IS the
    // cluster state.
    let report = client.scrub().expect("scrub");
    assert_eq!(report.unreachable_nodes, 0);
    assert_eq!(report.repaired, 0, "restart required scrub repairs");
    assert_eq!(report.unrepairable, 0);
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn damaged_segment_is_surfaced_typed_and_healed_by_scrub() {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("damage-{i}"))).collect();
    let archives: Vec<Vec<u8>> = (0..3).map(archive).collect();

    let before: Vec<usize> = {
        let cluster = DurableCluster::start(&ports, &dirs, 1);
        let mut client = cluster.client();
        for (i, bytes) in archives.iter().enumerate() {
            client.put(&format!("arch-{i}"), bytes).expect("put");
        }
        let counts = cluster.handles.iter().map(|h| h.shard_count()).collect();
        cluster.stop();
        counts
    };
    assert!(before[0] > 0, "node 0 must hold shards to damage");

    // Rot one bit in node 0's newest segment while everything is down.
    damage_newest_segment(&dirs[0]);

    let cluster = DurableCluster::start(&ports, &dirs, 1);
    // The damage is a typed boot report, and exactly the damaged
    // record is gone — not the whole store.
    let summary = cluster.handles[0]
        .store_recovery_summary()
        .expect("durable node summary");
    assert!(
        !summary.contains("clean"),
        "bit flip went unreported: {summary}"
    );
    assert_eq!(
        cluster.handles[0].shard_count(),
        before[0] - 1,
        "exactly one record should be dropped"
    );
    // Degraded but correct: every archive still reconstructs bit-exact.
    let mut client = cluster.client();
    for (i, bytes) in archives.iter().enumerate() {
        let got = client.get(&format!("arch-{i}")).expect("get degraded");
        assert_eq!(&got.bytes, bytes, "arch-{i} corrupted by segment damage");
    }
    // Scrub heals the dropped shard back onto node 0's disk…
    let report = client.scrub().expect("scrub");
    assert_eq!(report.unreachable_nodes, 0);
    assert_eq!(report.repaired, 1, "scrub must repair the dropped shard");
    assert_eq!(report.unrepairable, 0);
    assert_eq!(cluster.handles[0].shard_count(), before[0]);
    // …idempotently…
    assert_eq!(client.scrub().expect("second scrub").repaired, 0);
    // …and reads are healthy again.
    for (i, bytes) in archives.iter().enumerate() {
        let got = client.get(&format!("arch-{i}")).expect("get healed");
        assert!(!got.degraded, "arch-{i} still degraded after scrub");
        assert_eq!(&got.bytes, bytes);
    }
    cluster.stop();

    // The heal is itself durable: one more cold restart serves all.
    let cluster = DurableCluster::start(&ports, &dirs, 1);
    let mut client = cluster.client();
    for (i, bytes) in archives.iter().enumerate() {
        let got = client
            .get(&format!("arch-{i}"))
            .expect("get after heal+restart");
        assert_eq!(&got.bytes, bytes);
    }
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

/// One record in the v1 store format ("CZLR", FNV-1a trailer over the
/// body) — how a build before the v2 record format stored a shard.
fn v1_record(key: &str, shard_idx: u16, shard: &[u8], total_len: u64, archive_sum: u64) -> Vec<u8> {
    let mut body = vec![1u8, 0]; // kind put, no flags
    body.extend_from_slice(&(key.len() as u16).to_le_bytes());
    body.extend_from_slice(&shard_idx.to_le_bytes());
    body.extend_from_slice(&total_len.to_le_bytes());
    body.extend_from_slice(&archive_sum.to_le_bytes());
    body.extend_from_slice(&(shard.len() as u32).to_le_bytes());
    body.extend_from_slice(key.as_bytes());
    body.extend_from_slice(shard);
    let mut out = b"CZLR".to_vec();
    out.extend_from_slice(&((body.len() + 8) as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv1a(&body).to_le_bytes());
    out
}

/// Writes `key`'s stripe into the nodes' data dirs as a build before
/// the v2 record format left them: split as `ClusterClient::put`
/// splits (2 data + 1 parity), each slot in a v1 segment on its ring
/// owner, the stripe checksum FNV-1a. Returns the slot-0 owner's index.
fn write_v1_stripe(ring: &Ring, dirs: &[PathBuf], key: &str, bytes: &[u8]) -> usize {
    let (k, m) = (2usize, 1usize);
    let shard_size = bytes.len().div_ceil(k);
    let mut shards: Vec<Vec<u8>> = bytes
        .chunks(shard_size)
        .map(|c| {
            let mut s = c.to_vec();
            s.resize(shard_size, 0);
            s
        })
        .collect();
    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
    let parity = ReedSolomon::new(k, m)
        .unwrap()
        .encode(&refs, shard_size)
        .unwrap();
    shards.extend(parity);
    let mut segments: Vec<Vec<u8>> = (1..=dirs.len())
        .map(|_| {
            let mut h = b"CZLS".to_vec();
            h.extend_from_slice(&1u32.to_le_bytes()); // segment version 1
            h.extend_from_slice(&1u64.to_le_bytes()); // seq 1
            h
        })
        .collect();
    let mut slot0_owner = 0;
    for (slot, shard) in shards.iter().enumerate() {
        let owner = ring.shard_owner(key, slot as u16).unwrap().id as usize - 1;
        if slot == 0 {
            slot0_owner = owner;
        }
        segments[owner].extend(v1_record(
            key,
            slot as u16,
            shard,
            bytes.len() as u64,
            fnv1a(bytes),
        ));
    }
    for (dir, segment) in dirs.iter().zip(&segments) {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("seg-00000001.czl"), segment).unwrap();
        fs::write(dir.join("MANIFEST"), "czl-manifest 1\nsegments 1\nnext 2\n").unwrap();
    }
    slot0_owner
}

/// The `(slot, archive_sum, archive_sum_kind)` of every shard of `key`
/// a node lists.
fn listed(addr: SocketAddr, key: &str) -> Vec<(u16, u64, SumKind)> {
    let mut c = Client::connect(addr).expect("connect for list");
    let payload = c.call(Op::ListShards, &[]).expect("list_shards");
    ShardListResponse::decode(&payload)
        .expect("decode list")
        .records
        .into_iter()
        .filter(|r| r.key == key)
        .map(|r| (r.shard_idx, r.archive_sum, r.archive_sum_kind))
        .collect()
}

#[test]
fn a_stripe_put_under_fnv1a_reads_degrades_and_scrubs_under_fnv1a() {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("legacy-{i}"))).collect();
    let key = "legacy/nyx";
    let bytes = archive(5);
    let sum = fnv1a(&bytes);
    let spec = RangeSpec::new(vec![3..17, 40..300]);
    let (want_range, want_dims) = cuszp_core::decompress_range(&bytes, &spec).expect("local range");
    let down = write_v1_stripe(&ring_over(&ports, 1), &dirs, key, &bytes);

    // Healthy: both reads verify the reassembled archive under FNV-1a,
    // and every node lists its shard with the function named.
    let cluster = DurableCluster::start(&ports, &dirs, 1);
    for (i, h) in cluster.handles.iter().enumerate() {
        let summary = h.store_recovery_summary().expect("durable node summary");
        assert!(summary.contains("clean"), "node {i}: {summary}");
        assert_eq!(listed(cluster.addrs[i], key).len(), 1, "node {i}");
        for (slot, archive_sum, kind) in listed(cluster.addrs[i], key) {
            assert_eq!((archive_sum, kind), (sum, SumKind::Fnv1a), "slot {slot}");
        }
    }
    let mut client = cluster.client();
    let got = client.get(key).expect("get a v1 stripe");
    assert!(!got.degraded);
    assert_eq!(got.bytes, bytes);
    let (samples, dims, degraded) = client.get_range(key, &spec).expect("get_range");
    assert!(!degraded);
    assert_eq!((samples, dims), (want_range.clone(), want_dims));
    cluster.stop();

    // Slot 0's owner down: the read rebuilds it from parity, and the
    // rebuilt archive still verifies under FNV-1a.
    let cluster = DurableCluster::start_without(&ports, &dirs, 1, &[down]);
    let mut client = cluster.client();
    let got = client.get(key).expect("degraded get");
    assert!(got.degraded);
    assert_eq!(got.bytes, bytes);
    let (samples, dims, degraded) = client.get_range(key, &spec).expect("degraded get_range");
    assert!(degraded);
    assert_eq!((samples, dims), (want_range, want_dims));
    cluster.stop();

    // Slot 0's owner comes back empty: scrub re-puts the slot with its
    // FNV-1a stripe checksum and the flag that names it.
    fs::remove_dir_all(&dirs[down]).unwrap();
    let cluster = DurableCluster::start(&ports, &dirs, 1);
    assert!(listed(cluster.addrs[down], key).is_empty());
    let mut client = cluster.client();
    let report = client.scrub().expect("scrub");
    assert_eq!((report.repaired, report.unrepairable), (1, 0));
    assert_eq!(
        listed(cluster.addrs[down], key),
        vec![(0, sum, SumKind::Fnv1a)]
    );
    cluster.stop();

    // The repaired slot is durable and serves a read of its own: with
    // another node down, slot 0 must come from the repaired copy.
    let other = (down + 1) % 3;
    let cluster = DurableCluster::start_without(&ports, &dirs, 1, &[other]);
    let mut client = cluster.client();
    let got = client.get(key).expect("get through the repaired slot");
    assert_eq!(got.bytes, bytes);
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn a_shard_that_rots_after_its_index_is_cached_is_never_served_wrong() {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("rot-{i}"))).collect();
    let key = "rot/field";
    let bytes = archive(6);
    // Rows 0..8 are chunk 0, whose bytes lie in data slot 0.
    let spec = RangeSpec::new(vec![1..6, 20..400]);
    let (want, want_dims) = cuszp_core::decompress_range(&bytes, &spec).expect("local range");
    let cluster = DurableCluster::start(&ports, &dirs, 1);
    let mut client = cluster.client();
    client.put(key, &bytes).expect("put");
    // A first read and a repeat: the client holds the key's index.
    for _ in 0..2 {
        let (samples, dims, degraded) = client.get_range(key, &spec).expect("read");
        assert!(!degraded);
        assert_eq!((samples, dims), (want.clone(), want_dims));
    }
    // Slot 0's record rots on disk, inside the bytes the box reads.
    let owner = cluster.ring.shard_owner(key, 0).unwrap().id as usize - 1;
    let seg = fs::read_dir(&dirs[owner])
        .expect("read data dir")
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "czl"))
        .expect("a segment");
    let mut disk = fs::read(&seg).expect("read segment");
    let needle = &bytes[200..264];
    let at = disk
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("slot 0's payload is on disk");
    disk[at + 10] ^= 0x04;
    fs::write(&seg, &disk).expect("write rotted segment");
    // The node drops the record it can no longer verify; the read is
    // rebuilt from parity bit-identical, or fails typed — never wrong.
    for _ in 0..2 {
        let read: Result<(Vec<f32>, cuszp_core::Dims, bool), _> = client.get_range(key, &spec);
        match read {
            Ok((samples, dims, degraded)) => {
                assert!(degraded, "a rotted slot cannot read healthy");
                assert_eq!((samples, dims), (want.clone(), want_dims));
            }
            Err(e) => assert!(
                matches!(
                    e,
                    cuszp_server::ClusterError::NotEnoughShards { .. }
                        | cuszp_server::ClusterError::Corrupt { .. }
                        | cuszp_server::ClusterError::Pipeline(_)
                ),
                "{e}"
            ),
        }
    }
    drop(client);
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

/// Puts `gen1` under a key, puts `gen2` while the owner of
/// `stale_slot` is down, and revives that owner holding `gen1`'s slot.
/// Reads must outvote the stale slot and scrub must re-put it.
fn a_stale_slot_is_outvoted_then_repaired(stale_slot: u16, tag: &str) {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("{tag}-{i}"))).collect();
    let ring = ring_over(&ports, 1);
    let key = "stale/field";
    let owner = |slot: u16| ring.shard_owner(key, slot).unwrap().id as usize - 1;
    let (gen1, gen2) = (archive(7), archive(8));
    // Rows 0..8 are chunk 0, whose bytes lie in data slot 0.
    let spec = RangeSpec::new(vec![1..6, 20..400]);
    let (want, want_dims) = cuszp_core::decompress_range(&gen2, &spec).expect("local range");
    // Only a stale data slot makes a read rebuild.
    let degrades = stale_slot < 2;

    let cluster = DurableCluster::start(&ports, &dirs, 1);
    let mut client = cluster.client();
    assert!(client.put(key, &gen1).expect("put gen1").fully_replicated());
    drop(client);
    cluster.stop();

    // gen2 is acknowledged on the two live owners.
    let mut cluster = DurableCluster::start_without(&ports, &dirs, 1, &[owner(stale_slot)]);
    let mut client = cluster.client();
    assert_eq!(client.put(key, &gen2).expect("put gen2").shards_stored, 2);
    let got = client.get(key).expect("get with the owner down");
    assert_eq!((got.bytes == gen2, got.degraded), (true, degrades));
    let read = client
        .get_range::<f32>(key, &spec)
        .expect("range with the owner down");
    assert_eq!(read, (want.clone(), want_dims, degrades));

    // The owner returns with gen1's slot. The index cached from gen2
    // holds: each range read outvotes the stale slot and verifies no
    // container again.
    cluster.revive(owner(stale_slot));
    for _ in 0..3 {
        let read = client
            .get_range::<f32>(key, &spec)
            .expect("range with a stale slot");
        assert_eq!(read, (want.clone(), want_dims, degrades));
    }
    assert_eq!(client.stats().containers_verified.get(), 1);
    let got = client.get(key).expect("get with a stale slot");
    assert_eq!((got.bytes == gen2, got.degraded), (true, degrades));

    // Scrub re-puts exactly the stale slot, and every slot names gen2.
    let report = client.scrub().expect("scrub");
    assert_eq!((report.repaired, report.unrepairable), (1, 0));
    for addr in &cluster.addrs {
        let slots = listed(*addr, key);
        assert_eq!(slots.len(), 1, "node {addr}");
        for (slot, sum, kind) in slots {
            assert_eq!(
                (sum, kind),
                (wordsum64(&gen2), SumKind::Wordsum64),
                "slot {slot}"
            );
        }
    }
    let got = client.get(key).expect("get after scrub");
    assert_eq!((got.bytes == gen2, got.degraded), (true, false));
    assert_eq!(client.scrub().expect("second scrub").repaired, 0);
    drop(client);
    cluster.stop();

    // With a data owner other than the stale one down, the read
    // rebuilds through the repaired slot.
    let other = owner(if stale_slot == 0 { 1 } else { 0 });
    let cluster = DurableCluster::start_without(&ports, &dirs, 1, &[other]);
    let mut client = cluster.client();
    let got = client.get(key).expect("get through the repaired slot");
    assert_eq!((got.bytes == gen2, got.degraded), (true, true));
    drop(client);
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn a_stale_data_slot_0_is_outvoted_then_repaired() {
    a_stale_slot_is_outvoted_then_repaired(0, "stale-d0");
}

#[test]
fn a_stale_data_slot_1_is_outvoted_then_repaired() {
    a_stale_slot_is_outvoted_then_repaired(1, "stale-d1");
}

#[test]
fn a_stale_parity_slot_is_repaired() {
    a_stale_slot_is_outvoted_then_repaired(2, "stale-p");
}

#[test]
fn two_puts_that_each_reach_k_slots_fail_typed_as_a_conflict() {
    let ports = free_ports(4);
    let dirs: Vec<PathBuf> = (0..4).map(|i| temp_dir(&format!("conflict-{i}"))).collect();
    let key = "conflict/field";
    let ring = ring_over(&ports, 1);
    assert_eq!((ring.data_shards, ring.parity_shards), (2, 2));
    let (gen1, gen2) = (archive(9), archive(10));
    let spec = RangeSpec::new(vec![1..6, 20..400]);
    let cluster = DurableCluster::start(&ports, &dirs, 1);
    let mut client = cluster.client();
    assert!(client.put(key, &gen1).expect("put gen1").fully_replicated());
    drop(client);
    cluster.stop();

    // gen2 reaches exactly k = 2 slots: data slot 1 and parity slot 1.
    let down: Vec<usize> = [0u16, 2]
        .map(|slot| ring.shard_owner(key, slot).unwrap().id as usize - 1)
        .to_vec();
    let mut cluster = DurableCluster::start_without(&ports, &dirs, 1, &down);
    let mut client = cluster.client();
    assert_eq!(client.put(key, &gen2).expect("put gen2").shards_stored, 2);
    for &i in &down {
        cluster.revive(i);
    }
    let before: Vec<_> = cluster.addrs.iter().map(|a| listed(*a, key)).collect();

    // Two stripes each hold k slots: neither read guesses.
    let err = client.get(key).expect_err("get of a split key");
    assert!(matches!(err, ClusterError::Conflict { .. }), "{err}");
    let err = client
        .get_range::<f32>(key, &spec)
        .expect_err("range of a split key");
    assert!(matches!(err, ClusterError::Conflict { .. }), "{err}");
    // Scrub re-puts nothing and counts the key's four slots.
    let report = client.scrub().expect("scrub");
    assert_eq!((report.repaired, report.unrepairable), (0, 4));
    let after: Vec<_> = cluster.addrs.iter().map(|a| listed(*a, key)).collect();
    assert_eq!(after, before);
    drop(client);
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn the_first_read_after_a_node_restart_reconnects_instead_of_degrading() {
    let ports = free_ports(3);
    let dirs: Vec<PathBuf> = (0..3)
        .map(|i| temp_dir(&format!("reconnect-{i}")))
        .collect();
    let key = "reconnect/field";
    let bytes = archive(11);
    let spec = RangeSpec::new(vec![1..6, 20..400]);
    let (want, want_dims) = cuszp_core::decompress_range(&bytes, &spec).expect("local range");
    let mut cluster = DurableCluster::start(&ports, &dirs, 1);
    // The owner of data slot 0: every read of the key asks it.
    let node = cluster.ring.shard_owner(key, 0).unwrap().id as usize - 1;
    let mut client = cluster.client();
    assert!(client.put(key, &bytes).expect("put").fully_replicated());
    // Pool a connection to every owner and cache the key's range index.
    let read = client.get_range::<f32>(key, &spec).expect("first range");
    assert_eq!(read, (want.clone(), want_dims, false));

    // The client's pooled connection to the node dies with it.
    cluster.restart(node);
    let got = client.get(key).expect("first get after a restart");
    assert_eq!((got.bytes == bytes, got.degraded), (true, false));

    cluster.restart(node);
    let read = client
        .get_range::<f32>(key, &spec)
        .expect("first range after a restart");
    assert_eq!(read, (want, want_dims, false));
    drop(client);
    cluster.stop();
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}
