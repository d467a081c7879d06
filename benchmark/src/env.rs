//! Set-up: everything that must exist before the first timed phase —
//! generated fields, the chunked archive of the first field, one server
//! with one persistent client, and a three-node durable cluster.

use crate::inputs::{chunk_target, make_fields, BenchField, Workload};
use crate::phases::Run;
use cuszp::parallel::WorkerPool;
use cuszp::server::{
    Client, ClusterClient, ClusterConfig, ConnectOptions, NodeInfo, Ring, Server, ServerConfig,
    ServerHandle, StoreBackendConfig,
};
use cuszp::store::{FsyncPolicy, StoreConfig};
use cuszp::{Compressor, Config, ErrorBound, LosslessMode, PredictorMode, WorkflowMode};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

/// The relative error bound of every workload.
pub const EB_REL: f64 = 1e-3;

/// Budget of the server's hot-slab range cache: two decoded chunks, so one
/// repeated box fits and a cycle over every chunk does not.
pub const CACHE_BYTES: usize = 2 << 20;

/// Workers of the library, the server and each cluster node.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The codec plan of every workload.
pub fn codec_config() -> Config {
    Config {
        error_bound: ErrorBound::Relative(EB_REL),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Auto,
        lossless: LosslessMode::Auto,
        ..Config::default()
    }
}

pub struct Node {
    pub addr: String,
    pub handle: ServerHandle,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl Node {
    fn start(server: Server) -> std::io::Result<Node> {
        Ok(Node {
            addr: server.local_addr()?.to_string(),
            handle: server.handle(),
            join: Some(std::thread::spawn(move || server.serve())),
        })
    }

    /// Shuts the node down and waits until its serve loop has ended.
    pub fn stop(&mut self) {
        self.handle.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: workers(),
        cache_bytes: CACHE_BYTES,
        // Clients of a stopped node are the harness's own; nothing is in
        // flight, so the drain window only delays tear-down.
        drain_deadline: Duration::from_millis(100),
        // The one client idles while other phases run; the server must
        // not hang up on it in between.
        read_timeout: Duration::from_secs(3600),
        ..ServerConfig::default()
    }
}

pub struct Cluster {
    pub ring: Ring,
    pub nodes: Vec<Node>,
    pub client: ClusterClient,
}

/// Starts three durable nodes (2 data + 1 parity, `FsyncPolicy::Always`)
/// over `dirs`; node ids are 1..=3, so a restart over the same directories
/// places every key where it was.
pub fn start_cluster(dirs: &[PathBuf], compact_at: u64) -> std::io::Result<Cluster> {
    // Hold a listener per node just long enough to learn a free port: the
    // ring must name every address before the first node binds.
    let holds: Vec<std::net::TcpListener> = (0..dirs.len())
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let infos: Vec<NodeInfo> = holds
        .iter()
        .enumerate()
        .map(|(i, l)| {
            Ok(NodeInfo {
                id: i as u64 + 1,
                addr: l.local_addr()?.to_string(),
            })
        })
        .collect::<std::io::Result<_>>()?;
    let ring =
        Ring::new(1, 2, 1, infos.clone()).map_err(|e| std::io::Error::other(e.to_string()))?;
    drop(holds);
    let mut nodes = Vec::new();
    for (info, dir) in infos.iter().zip(dirs) {
        let server = Server::bind_cluster(
            info.addr.as_str(),
            server_config(),
            Some(ClusterConfig {
                node_id: info.id,
                ring: ring.clone(),
                backend: StoreBackendConfig::Durable(StoreConfig {
                    dir: dir.clone(),
                    fsync: FsyncPolicy::Always,
                    compact_at,
                }),
            }),
        )?;
        nodes.push(Node::start(server)?);
    }
    let client = ClusterClient::with_ring(ring.clone(), ConnectOptions::default());
    Ok(Cluster {
        ring,
        nodes,
        client,
    })
}

pub struct Env {
    pub fields: Vec<BenchField>,
    /// Raw little-endian bytes of the first field (the served payload).
    pub raw: Vec<u8>,
    pub target: usize,
    /// The first field's chunked (CSZ2) archive, built locally.
    pub archive: Vec<u8>,
    pub server: Node,
    pub client: Client,
    pub cluster: Cluster,
    pub node_dirs: Vec<PathBuf>,
}

impl Env {
    /// One whole set-up; `gates` counts a failed step.
    pub fn setup(w: &Workload, run: &mut Run, run_dir: &Path) -> Option<Env> {
        let (scale, seed) = (run.scale(), run.seed);
        let Run { tr, gates, .. } = run;
        let span = tr.begin("datagen.generate", "");
        let fields = make_fields(w, scale, seed);
        tr.end(span);
        let first = &fields[0];
        let raw: Vec<u8> = first.data.iter().flat_map(|x| x.to_le_bytes()).collect();
        let target = chunk_target(first.dims, scale);
        let archive = gates.call(
            "setup: chunked archive",
            Compressor::new(codec_config()).compress_chunked_with(
                &first.data,
                first.dims,
                target,
                &WorkerPool::new(workers()),
            ),
        )?;
        let archive = archive.to_bytes();
        let server = gates.call(
            "setup: server",
            Server::bind("127.0.0.1:0", server_config()).and_then(Node::start),
        )?;
        let client = gates.call("setup: client", Client::connect(server.addr.as_str()))?;
        let node_dirs: Vec<PathBuf> = (1..=3).map(|i| run_dir.join(format!("node-{i}"))).collect();
        let _ = std::fs::remove_dir_all(run_dir);
        let cluster = gates.call("setup: cluster", start_cluster(&node_dirs, w.compact_at))?;
        Some(Env {
            fields,
            raw,
            target,
            archive,
            server,
            client,
            cluster,
            node_dirs,
        })
    }

    /// Stops every process-like thing the set-up started and removes the
    /// node directories.
    pub fn teardown(mut self, run_dir: &Path) {
        drop(self.client);
        drop(self.cluster.client);
        self.server.stop();
        for n in &mut self.cluster.nodes {
            n.stop();
        }
        let _ = std::fs::remove_dir_all(run_dir);
    }
}
