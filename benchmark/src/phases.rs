//! The timed phases of the chain, shared by the untraced and the traced
//! run: codec in process, the same archive through one server, then
//! through the durable cluster. One caller, closed loop: each call waits
//! for its reply before the next is sent.

use crate::env::{codec_config, start_cluster, Env, EB_REL};
use crate::gates::Gates;
use crate::inputs::{key_name, BenchField, BoxMaker, N_KEYS};
use crate::trace::Tracer;
use crate::util::{run_phase, Budget, Rng};
use cuszp::datagen::Scale;
use cuszp::server::{Client, CompressRequest, DecompressMode};
use cuszp::{Compressor, Dtype, ErrorBound, LosslessMode, PredictorMode, RangeSpec, WorkflowMode};

/// What a run carries through its phases.
pub struct Run {
    pub tr: Tracer,
    pub gates: Gates,
    pub seed: u64,
    pub seconds: f64,
    /// `--smoke`: two calls per phase instead of a time budget.
    pub smoke: bool,
}

impl Run {
    /// `Tiny` fields under `--smoke`, `Small` otherwise.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Tiny
        } else {
            Scale::Small
        }
    }

    /// A fixed call count: `n`, or two under `--smoke`.
    pub fn calls(&self, n: usize) -> usize {
        if self.smoke {
            2
        } else {
            n
        }
    }

    /// `share` of `--seconds`, at least `min` calls.
    pub fn budget(&self, share: f64, min: usize) -> Budget {
        if self.smoke {
            Budget::Count(2)
        } else {
            Budget::Time {
                secs: share * self.seconds,
                min,
            }
        }
    }
}

fn le_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// v1 `Compressor::compress` → `to_bytes` over every field; one sample per
/// pass over the fields. The first pass ever fills `archives`; every later
/// pass must reproduce them byte for byte.
pub fn compress(
    run: &mut Run,
    fields: &[BenchField],
    archives: &mut Vec<Vec<u8>>,
    budget: Budget,
) -> Vec<f64> {
    let compressor = Compressor::new(codec_config());
    let Run { tr, gates, .. } = run;
    run_phase(budget, |_| {
        tr.next_op();
        let mut secs = 0.0;
        for (i, f) in fields.iter().enumerate() {
            let span = tr.begin("core.compress", f.name);
            let archive = compressor.compress(&f.data, f.dims);
            secs += tr.end(span);
            let Some(archive) = gates.call("compress", archive) else {
                continue;
            };
            let span = tr.begin("core.serialize", f.name);
            let bytes = archive.to_bytes();
            secs += tr.end(span);
            match archives.get(i) {
                Some(first) => {
                    gates.check("archive bytes identical across iterations", *first == bytes);
                }
                None => archives.push(bytes),
            }
        }
        secs
    })
}

/// `cuszp::decompress` over every archive; the first and the last pass
/// are checked elementwise against the error bound.
pub fn decompress(
    run: &mut Run,
    fields: &[BenchField],
    archives: &[Vec<u8>],
    budget: Budget,
) -> Vec<f64> {
    let Run { tr, gates, .. } = run;
    let mut last: Vec<Vec<f32>> = Vec::new();
    let mut first_checked = false;
    let verify = |gates: &mut Gates, recon: &[Vec<f32>]| {
        for (f, r) in fields.iter().zip(recon) {
            let eb = ErrorBound::Relative(EB_REL).absolute(&f.data);
            gates.within_bound("decompress within the error bound", &f.data, r, eb);
        }
    };
    let samples = run_phase(budget, |i| {
        tr.next_op();
        let mut secs = 0.0;
        let mut recon = Vec::with_capacity(archives.len());
        for (f, bytes) in fields.iter().zip(archives) {
            let span = tr.begin("core.decompress", f.name);
            let out = cuszp::decompress(bytes);
            secs += tr.end(span);
            if let Some((data, _)) = gates.call("decompress", out) {
                recon.push(data);
            }
        }
        if i != usize::MAX && !first_checked {
            first_checked = true;
            verify(gates, &recon);
        }
        last = recon;
        secs
    });
    verify(gates, &last);
    samples
}

/// A fresh connection and its first ping reply.
pub fn connect_first_request(run: &mut Run, addr: &str, budget: Budget) -> Vec<f64> {
    let Run { tr, gates, .. } = run;
    run_phase(budget, |_| {
        tr.next_op();
        let span = tr.begin("server.connect_first_req", "");
        let pinged = Client::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.ping().map_err(|e| e.to_string()));
        let secs = tr.end(span);
        gates.call("connect + first ping", pinged);
        secs
    })
}

pub fn pings(run: &mut Run, client: &mut Client, budget: Budget) -> Vec<f64> {
    let Run { tr, gates, .. } = run;
    run_phase(budget, |_| {
        tr.next_op();
        let span = tr.begin("server.ping", "");
        let r = client.ping();
        let secs = tr.end(span);
        gates.call("ping", r);
        secs
    })
}

pub fn compress_request<'a>(f: &BenchField, raw: &'a [u8], target: usize) -> CompressRequest<'a> {
    CompressRequest {
        dims: f.dims,
        dtype: Dtype::F32,
        error_bound: ErrorBound::Relative(EB_REL),
        workflow: WorkflowMode::Auto,
        predictor: PredictorMode::Auto,
        lossless: LosslessMode::Auto,
        chunk_target: target as u64,
        parity: None,
        data: raw,
    }
}

/// Served compression of the first field; the reply must equal the
/// locally built chunked archive.
pub fn rt_compress(run: &mut Run, env: &mut Env, budget: Budget) -> Vec<f64> {
    let Run { tr, gates, .. } = run;
    let req = compress_request(&env.fields[0], &env.raw, env.target);
    let (client, archive) = (&mut env.client, &env.archive);
    run_phase(budget, |_| {
        tr.next_op();
        let span = tr.begin("server.rt_compress", "");
        let served = client.compress(&req);
        let secs = tr.end(span);
        if let Some(served) = gates.call("served compress", served) {
            gates.check(
                "served archive == local chunked archive",
                served == *archive,
            );
        }
        secs
    })
}

/// Served decompression of the chunked archive; the reply must equal the
/// local decompress bit for bit.
pub fn rt_decompress(
    run: &mut Run,
    env: &mut Env,
    reference_raw: &[u8],
    budget: Budget,
) -> Vec<f64> {
    let Run { tr, gates, .. } = run;
    run_phase(budget, |_| {
        tr.next_op();
        let span = tr.begin("server.rt_decompress", "");
        let resp = env.client.decompress(&env.archive, DecompressMode::Strict);
        let secs = tr.end(span);
        if let Some(resp) = gates.call("served decompress", resp) {
            gates.check(
                "served field == local decompress",
                resp.data == reference_raw,
            );
        }
        secs
    })
}

/// Served `get_range` over the boxes `next_box` yields; every reply must
/// equal that slice of the full decompress.
pub fn served_range(
    run: &mut Run,
    env: &mut Env,
    reference: &[f32],
    span_name: &'static str,
    mut next_box: impl FnMut(usize) -> RangeSpec,
    budget: Budget,
) -> Vec<f64> {
    let Run { tr, gates, .. } = run;
    let dims = env.fields[0].dims;
    let mut n = 0usize;
    run_phase(budget, |_| {
        let spec = next_box(n);
        n += 1;
        tr.next_op();
        let span = tr.begin(span_name, "");
        let resp = env
            .client
            .get_range(&env.archive, &spec, DecompressMode::Strict);
        let secs = tr.end(span);
        if let Some(resp) = gates.call("served get_range", resp) {
            let want = cuszp::core::slice_field(reference, dims, &spec).map(|(s, _)| s);
            gates.check(
                "range == slice of the full decompress",
                want.is_ok_and(|w| w == le_f32(&resp.data)),
            );
        }
        secs
    })
}

/// Bytes of every file under the node directories.
pub fn disk_bytes(dirs: &[std::path::PathBuf]) -> u64 {
    dirs.iter()
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// The put phase, resumable across rounds: `ClusterClient::put` over the
/// 16 keys, each cycle of 16 in a freshly shuffled order.
pub struct Puts {
    rng: Rng,
    order: Vec<usize>,
    done: usize,
    pub samples: Vec<f64>,
    disk_sum: f64,
    disk_samples: usize,
}

impl Puts {
    pub fn new(seed: u64) -> Puts {
        Puts {
            rng: Rng::new(seed ^ 0x5075_7473),
            order: Vec::new(),
            done: 0,
            samples: Vec::new(),
            disk_sum: 0.0,
            disk_samples: 0,
        }
    }

    /// The next `puts` calls.
    pub fn run(&mut self, run: &mut Run, env: &mut Env, puts: usize) {
        let Run { tr, gates, .. } = run;
        let samples = run_phase(Budget::Count(puts), |i| {
            // A warm-up put rewrites key 0 and is not one of the cycle.
            let key = if i == usize::MAX {
                0
            } else {
                if self.done.is_multiple_of(N_KEYS) {
                    self.order = (0..N_KEYS).collect();
                    self.rng.shuffle(&mut self.order);
                }
                self.order[self.done % N_KEYS]
            };
            tr.next_op();
            let span = tr.begin("cluster.put", "");
            let report = env.cluster.client.put(&key_name(key), &env.archive);
            let secs = tr.end(span);
            if let Some(report) = gates.call("cluster put", report) {
                gates.check("put stored on every node", report.fully_replicated());
            }
            if i != usize::MAX {
                self.done += 1;
                // Steady state only: after the first cycle every key exists.
                if self.done > N_KEYS {
                    self.disk_sum += disk_bytes(&env.node_dirs) as f64;
                    self.disk_samples += 1;
                }
            }
            secs
        });
        self.samples.extend(samples);
    }

    /// Whether every key has been put at least once.
    pub fn all_keys_stored(&self) -> bool {
        self.done >= N_KEYS
    }

    /// Mean, over the puts after the first cycle, of the bytes on disk
    /// after the put (after the last put, if there was only one cycle).
    pub fn mean_disk_bytes(&self, env: &Env) -> f64 {
        if self.disk_samples == 0 {
            disk_bytes(&env.node_dirs) as f64
        } else {
            self.disk_sum / self.disk_samples as f64
        }
    }
}

/// Keys one of whose *data* shards lives on `node`: the reads that node's
/// death degrades.
pub fn keys_with_data_on(env: &Env, node: u64) -> Vec<usize> {
    (0..N_KEYS)
        .filter(|&k| {
            (0..2).any(|slot| {
                env.cluster
                    .ring
                    .shard_owner(&key_name(k), slot)
                    .is_some_and(|n| n.id == node)
            })
        })
        .collect()
}

/// `ClusterClient::get_range` reads, resumable across rounds: keys in
/// turn, boxes drawn from `box_seed`. Two of these with one seed ask for
/// the same boxes in the same order.
pub struct ClusterReads {
    keys: Vec<usize>,
    expect_degraded: bool,
    span_name: &'static str,
    boxes: BoxMaker,
    asked: usize,
    pub samples: Vec<f64>,
    /// Replies to the first timed calls, to compare healthy with degraded.
    pub first_replies: Vec<Vec<f32>>,
}

impl ClusterReads {
    pub fn new(env: &Env, keys: &[usize], expect_degraded: bool, box_seed: u64) -> ClusterReads {
        ClusterReads {
            keys: keys.to_vec(),
            expect_degraded,
            span_name: if expect_degraded {
                "cluster.get_range_degraded"
            } else {
                "cluster.get_range"
            },
            boxes: BoxMaker::new(env.fields[0].dims, env.target, box_seed),
            asked: 0,
            samples: Vec::new(),
            first_replies: Vec::new(),
        }
    }

    /// Every reply must equal the slice of the full decompress and carry
    /// the expected `degraded` flag.
    pub fn run(&mut self, run: &mut Run, env: &mut Env, reference: &[f32], budget: Budget) {
        let Run { tr, gates, .. } = run;
        let dims = env.fields[0].dims;
        let samples = run_phase(budget, |_| {
            let key = key_name(self.keys[self.asked % self.keys.len()]);
            let spec = self.boxes.anywhere();
            self.asked += 1;
            tr.next_op();
            let span = tr.begin(self.span_name, "");
            let got = env.cluster.client.get_range(&key, &spec);
            let secs = tr.end(span);
            if let Some((samples, _, degraded)) = gates.call("cluster get_range", got) {
                let want = cuszp::core::slice_field(reference, dims, &spec).map(|(s, _)| s);
                gates.check(
                    "cluster range == slice of the full decompress",
                    want.is_ok_and(|w| w == samples) && degraded == self.expect_degraded,
                );
                if self.first_replies.len() < 8 {
                    self.first_replies.push(samples);
                }
            }
            secs
        });
        self.samples.extend(samples);
    }
}

/// Shuts every node down, reopens each data directory under a fresh
/// cluster and reads all keys back: every acknowledged put must return
/// bit-identical. Returns the seconds the reopen took.
pub fn restart_and_read_back(run: &mut Run, env: &mut Env, compact_at: u64) -> f64 {
    for n in &mut env.cluster.nodes {
        n.stop();
    }
    let t0 = std::time::Instant::now();
    let restarted = start_cluster(&env.node_dirs, compact_at);
    let secs = t0.elapsed().as_secs_f64();
    let Some(cluster) = run
        .gates
        .call("restart cluster over the same directories", restarted)
    else {
        return secs;
    };
    env.cluster = cluster;
    for k in 0..N_KEYS {
        let got = env.cluster.client.get(&key_name(k));
        if let Some(got) = run.gates.call("read back after restart", got) {
            run.gates.check(
                "acknowledged put reads back bit-identical",
                got.bytes == env.archive && !got.degraded,
            );
        }
    }
    secs
}
