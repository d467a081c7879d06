//! Probes only the traced run makes: single layers driven directly
//! through their public functions, each call inside a span.

use crate::env::{codec_config, workers, Env};
use crate::gates::Gates;
use crate::inputs::{key_name, BenchField, BoxMaker, N_KEYS};
use crate::phases::Run;
use crate::trace::{allocs, Tracer};
use crate::util::{run_phase, Budget, Rng};
use cuszp::analysis::{analyze_with_histogram, score_predictors, PredictorChoice};
use cuszp::core::{CodesPayload, PipelineEngine};
use cuszp::gpusim::{modeled_throughput, KernelClass, KernelEstimate, SimtCounters, V100};
use cuszp::parallel::{with_serial_inner, WorkerPool};
use cuszp::server::{DecompressResponse, ShardStore};
use cuszp::store::{FsyncPolicy, LogStore, StoreConfig};
use cuszp::{
    Archive, Compressor, Config, Dims, Dtype, LosslessMode, LosslessStage, ParityConfig, Predictor,
    ReconstructEngine, WorkflowChoice,
};

/// Bytes of a v1 archive before its payload (outliers, then the codes
/// section); `codes_section` checks it against the header's own length
/// field, so a format change fails a gate instead of skewing a span.
const V1_HEADER_BYTES: usize = 72;

/// Prefix of the bitshuffled section the engine's lossless probe
/// trial-compresses, and the smallest section it considers.
const LOSSLESS_PROBE_BYTES: usize = 16 * 1024;
const LOSSLESS_MIN_SECTION: usize = 256;

/// The codes section of serialized v1 archive bytes.
fn codes_section<'a>(gates: &mut Gates, bytes: &'a [u8], archive: &Archive) -> &'a [u8] {
    let payload_len = bytes.get(56..64).map_or(0, |b| {
        u64::from_le_bytes(b.try_into().expect("8 bytes")) as usize
    });
    let start = V1_HEADER_BYTES + archive.outliers.storage_bytes();
    if gates.check(
        "v1 header is 72 bytes",
        bytes.len() == V1_HEADER_BYTES + payload_len && start <= bytes.len(),
    ) {
        &bytes[start..]
    } else {
        &[]
    }
}

/// One field's real archives, made once before the replay loop.
pub struct Real {
    /// The archive the workload's plan produces, and its bytes.
    archive: Archive,
    bytes: Vec<u8>,
    /// The real decompress of `bytes`.
    recon: Vec<f32>,
    /// The codes section as stored in `bytes`: `[raw_len u64][container]`
    /// when the lossless stage wrapped it.
    stored_section: Vec<u8>,
    /// Codes section of the same plan with the lossless stage off: the
    /// bytes the engine's probe sees.
    plain_section: Vec<u8>,
    codes: Vec<u16>,
}

impl Real {
    pub fn make(gates: &mut Gates, f: &BenchField) -> Option<Real> {
        let archive = gates.call(
            "replay: real compress",
            Compressor::new(codec_config()).compress(&f.data, f.dims),
        )?;
        let bytes = archive.to_bytes();
        let stored_section = codes_section(gates, &bytes, &archive).to_vec();
        let (recon, _) = gates.call("replay: real decompress", cuszp::decompress(&bytes))?;
        let plain = gates.call(
            "replay: compress without the lossless stage",
            Compressor::new(Config {
                lossless: LosslessMode::Off,
                ..codec_config()
            })
            .compress(&f.data, f.dims),
        )?;
        let plain_bytes = plain.to_bytes();
        let plain_section = codes_section(gates, &plain_bytes, &plain).to_vec();
        let mut codes = Vec::new();
        gates.call(
            "replay: decode real codes",
            archive.decode_codes_into(&mut codes),
        )?;
        Some(Real {
            archive,
            bytes,
            recon,
            stored_section,
            plain_section,
            codes,
        })
    }

    pub fn outliers(&self) -> usize {
        self.archive.outliers.len()
    }

    pub fn wrapped(&self) -> bool {
        self.archive.lossless == LosslessStage::BitshuffleLz77
    }

    pub fn plan(&self) -> String {
        self.archive.plan().label()
    }
}

/// Arenas the replay reuses across fields and iterations, as a
/// `PipelineEngine` does.
#[derive(Default)]
pub struct Arenas {
    dq: Vec<i64>,
    codes: Vec<u16>,
    hist: Vec<u32>,
    back: Vec<i64>,
    out: Vec<f32>,
}

/// Replays the stage sequence of `PipelineEngine::compress` through the
/// public stage functions, one span per stage, and checks that what it
/// built equals what the engine built.
fn replay_compress(
    tr: &mut Tracer,
    gates: &mut Gates,
    a: &mut Arenas,
    f: &BenchField,
    real: &Real,
) {
    let parent = tr.begin("replay.compress", f.name);
    let cap = real.archive.cap;
    let radius = cap / 2;

    let s = tr.begin("predictor.prequant", f.name);
    a.dq.resize(f.data.len(), 0);
    cuszp::predictor::prequantize_into(&f.data, real.archive.eb, &mut a.dq);
    tr.end(s);

    let s = tr.begin("analysis.score_predictors", f.name);
    let predictor = match score_predictors(&a.dq, f.dims).choice {
        PredictorChoice::Lorenzo => Predictor::Lorenzo,
        PredictorChoice::Interpolation => Predictor::Interpolation,
    };
    tr.end(s);

    let s = tr.begin("predictor.construct", f.name);
    let outliers = predictor
        .stage()
        .construct(&mut a.dq, f.dims, radius, &mut a.codes);
    tr.end(s);
    tr.count("predictor.outliers", outliers.len() as f64);

    let s = tr.begin("huffman.histogram", f.name);
    cuszp::huffman::histogram_into(&a.codes, cap as usize, &mut a.hist);
    tr.end(s);

    let s = tr.begin("analysis.select_workflow", f.name);
    let choice = analyze_with_histogram(&a.codes, &a.hist).choice;
    tr.end(s);

    let payload = match choice {
        WorkflowChoice::Huffman => {
            let s = tr.begin("huffman.codebook", f.name);
            let book = cuszp::huffman::build_codebook_limited(&a.hist, 16);
            tr.end(s);
            let s = tr.begin("huffman.encode", f.name);
            let enc = cuszp::huffman::encode(&a.codes, &book, cuszp::huffman::DEFAULT_ENCODE_CHUNK);
            tr.end(s);
            let bits: f64 = enc.chunk_bits.iter().map(|&b| b as f64).sum();
            tr.count("huffman.bits", bits);
            tr.count("huffman.symbols", enc.n_symbols as f64);
            CodesPayload::Huffman(enc)
        }
        WorkflowChoice::Rle => {
            let s = tr.begin("rle.encode", f.name);
            let enc = cuszp::rle::rle_encode(&a.codes);
            tr.end(s);
            CodesPayload::Rle(enc)
        }
        WorkflowChoice::RleVle => {
            let s = tr.begin("rle.encode", f.name);
            let enc = cuszp::rle::rle_vle_from_rle(&cuszp::rle::rle_encode(&a.codes), cap);
            tr.end(s);
            CodesPayload::RleVle(enc)
        }
    };

    let mut wrap_ok = true;
    if real.plain_section.len() >= LOSSLESS_MIN_SECTION {
        let s = tr.begin("lossless.bitshuffle", f.name);
        let shuffled = cuszp::lossless::bitshuffle(&real.plain_section);
        tr.end(s);
        let s = tr.begin("lossless.probe", f.name);
        let probe = &shuffled[..LOSSLESS_PROBE_BYTES.min(shuffled.len())];
        std::hint::black_box(cuszp::lossless::compressed_size(probe));
        tr.end(s);
        if real.wrapped() {
            let s = tr.begin("lossless.lz77_compress", f.name);
            let wrapped = cuszp::lossless::compress(&shuffled);
            tr.end(s);
            wrap_ok = real.stored_section.get(8..) == Some(&wrapped[..]);
        }
    }
    tr.count("lossless.wraps_taken", f64::from(u8::from(real.wrapped())));
    tr.end(parent);

    gates.check(
        "replayed quant-codes and plan equal the engine's",
        a.codes == real.codes
            && outliers == real.archive.outliers
            && predictor == real.archive.predictor
            && payload == real.archive.payload
            && wrap_ok,
    );
}

/// Replays `cuszp::decompress` stage by stage and checks the field it
/// rebuilds equals the real one bit for bit.
fn replay_decompress(
    tr: &mut Tracer,
    gates: &mut Gates,
    a: &mut Arenas,
    f: &BenchField,
    real: &Real,
) {
    let parent = tr.begin("replay.decompress", f.name);
    let s = tr.begin("core.parse", f.name);
    let parsed = Archive::from_bytes(&real.bytes);
    tr.end(s);
    let Some(archive) = gates.call("replay: parse", parsed) else {
        tr.end(parent);
        return;
    };
    if real.wrapped() {
        // `from_bytes` undoes the lossless stage inside the parse above;
        // the same work is timed here on the same bytes, and the report
        // subtracts it from `core.parse_ms`.
        let s = tr.begin("lossless.lz77_decompress", f.name);
        let plain = cuszp::lossless::decompress(real.stored_section.get(8..).unwrap_or(&[]))
            .map(|shuffled| cuszp::lossless::unbitshuffle(&shuffled));
        tr.end(s);
        gates.check(
            "replayed lossless unwrap equals the plain codes section",
            plain.as_deref() == Some(&real.plain_section[..]),
        );
    }
    let decode_span = match archive.payload {
        CodesPayload::Huffman(_) => "huffman.decode",
        _ => "rle.decode",
    };
    let s = tr.begin(decode_span, f.name);
    let decoded = archive.decode_codes_into(&mut a.codes);
    tr.end(s);
    gates.call("replay: decode codes", decoded);

    let s = tr.begin("predictor.reconstruct", f.name);
    archive.predictor.stage().reconstruct(
        &a.codes,
        &archive.outliers,
        archive.dims,
        archive.cap / 2,
        ReconstructEngine::FinePartialSum,
        &mut a.back,
    );
    tr.end(s);

    let s = tr.begin("predictor.dequant", f.name);
    a.out.resize(a.back.len(), 0.0);
    cuszp::predictor::dequantize_into(&a.back, archive.eb, &mut a.out);
    tr.end(s);
    tr.end(parent);
    gates.check(
        "replayed field equals the real decompress",
        a.out == real.recon,
    );
}

/// One traced pass over a field: the real whole calls and, right beside
/// each, its stage-by-stage replay — the same seconds of the same box, so
/// whole call minus stages is not the difference of two weathers.
pub fn codec_pass(
    tr: &mut Tracer,
    gates: &mut Gates,
    a: &mut Arenas,
    compressor: &Compressor,
    f: &BenchField,
    real: &Real,
) {
    let s = tr.begin("core.compress", f.name);
    let archive = compressor.compress(&f.data, f.dims);
    tr.end(s);
    if let Some(archive) = gates.call("compress", archive) {
        let s = tr.begin("core.serialize", f.name);
        let bytes = archive.to_bytes();
        tr.end(s);
        gates.check(
            "archive bytes identical across iterations",
            bytes == real.bytes,
        );
    }
    replay_compress(tr, gates, a, f, real);
    let s = tr.begin("core.decompress", f.name);
    let field = cuszp::decompress(&real.bytes);
    tr.end(s);
    gates.call("decompress", field);
    replay_decompress(tr, gates, a, f, real);
}

/// Allocations of one serial pass of `call` over the fields, per field.
pub fn allocs_per_call(fields: &[BenchField], mut call: impl FnMut(usize, &BenchField)) -> f64 {
    let made = with_serial_inner(|| {
        let before = allocs();
        for (i, f) in fields.iter().enumerate() {
            call(i, f);
        }
        allocs() - before
    });
    made as f64 / fields.len() as f64
}

/// Key slot of call `i` of a phase; the warm-up call shares slot 0.
fn slot(i: usize) -> usize {
    if i == usize::MAX {
        0
    } else {
        i % N_KEYS
    }
}

/// What the direct drive of the store reports.
#[derive(Default)]
pub struct StoreProbe {
    pub put_us: Vec<f64>,
    pub get_us: Vec<f64>,
    pub mem_get_us: Vec<f64>,
    pub compactions: f64,
    pub write_amp: f64,
    pub space_amp: f64,
    pub reopen_ms: f64,
}

/// Drives a `LogStore` (fsync always) and an in-memory `ShardStore`
/// directly with shards of the size the cluster phases store.
pub fn store_probe(
    run: &mut Run,
    dir: &std::path::Path,
    shard_len: usize,
    compact_at: u64,
    ops: usize,
) -> StoreProbe {
    let Run {
        tr, gates, seed, ..
    } = run;
    let mut probe = StoreProbe::default();
    let payload = Rng::new(*seed ^ 0x53_746f_7265).bytes(shard_len);
    let fnv = cuszp::store::fnv1a(&payload);
    let config = StoreConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        compact_at,
    };
    let _ = std::fs::remove_dir_all(dir);
    let Some(mut store) = gates.call("store: open", LogStore::open(config.clone())) else {
        return probe;
    };
    let mut written = 0u64;
    probe.put_us = run_phase(Budget::Count(ops), |i| {
        let key = key_name(slot(i));
        let (before, compactions) = (store.total_bytes(), store.compactions());
        tr.next_op();
        let s = tr.begin("store.put", "");
        let r = store.put(&key, 0, &payload, payload.len() as u64, fnv, false);
        let secs = tr.end(s);
        gates.call("store: put", r);
        if i != usize::MAX {
            // A put appends one record; a compaction it triggers also
            // rewrites every live record into a fresh segment.
            written += if store.compactions() > compactions {
                payload.len() as u64 + store.total_bytes()
            } else {
                store.total_bytes() - before
            };
        }
        secs * 1e6
    });
    probe.compactions = store.compactions() as f64;
    probe.write_amp = written as f64 / (ops * payload.len()) as f64;
    let live = store.total_bytes() - store.dead_bytes();
    probe.space_amp = store.total_bytes() as f64 / live.max(1) as f64;
    probe.get_us = run_phase(Budget::Count(ops), |i| {
        let key = key_name(slot(i));
        tr.next_op();
        let s = tr.begin("store.get", "");
        let got = store.get(&key, 0);
        let secs = tr.end(s);
        if let Some(got) = gates.call("store: get", got) {
            gates.check(
                "store: get returns the put bytes",
                got.is_some_and(|g| g.bytes == payload),
            );
        }
        secs * 1e6
    });
    drop(store);
    tr.next_op();
    let s = tr.begin("store.reopen", "");
    let reopened = LogStore::open(config);
    probe.reopen_ms = tr.end(s) * 1e3;
    if let Some(reopened) = gates.call("store: reopen", reopened) {
        gates.check(
            "store: recovery finds every key",
            reopened.len() == N_KEYS.min(ops) && reopened.recovery_report().is_clean(),
        );
    }
    let _ = std::fs::remove_dir_all(dir);

    let mut mem = ShardStore::new();
    for k in 0..N_KEYS {
        let r = mem.put(&key_name(k), 0, &payload, payload.len() as u64, fnv);
        gates.call("memory store: put", r);
    }
    probe.mem_get_us = run_phase(Budget::Count(ops), |i| {
        let key = key_name(slot(i));
        tr.next_op();
        let s = tr.begin("store.mem_get", "");
        // The copy is what the node's backend hands a `Get` request, and
        // what `LogStore::get` returns too.
        let got = mem.get(&key, 0).map(|g| g.bytes.clone());
        let secs = tr.end(s);
        gates.check("memory store: get", got.is_some_and(|g| g == payload));
        secs * 1e6
    });
    probe
}

/// `CompressRequest::encode` and `DecompressResponse::decode` on this
/// workload's payloads, in milliseconds.
pub fn wire_probe(
    run: &mut Run,
    env: &Env,
    reference_raw: &[u8],
    calls: usize,
) -> (Vec<f64>, Vec<f64>) {
    let Run { tr, gates, .. } = run;
    let f = &env.fields[0];
    let req = crate::phases::compress_request(f, &env.raw, env.target);
    let encode = run_phase(Budget::Count(calls), |_| {
        tr.next_op();
        let s = tr.begin("server.wire_encode", "");
        let bytes = req.encode();
        let secs = tr.end(s);
        gates.check(
            "wire: request carries the field",
            bytes.len() > env.raw.len(),
        );
        secs * 1e3
    });
    let response = DecompressResponse {
        dtype: Dtype::F32,
        dims: f.dims,
        report: None,
        data: reference_raw.to_vec(),
    }
    .encode();
    let decode = run_phase(Budget::Count(calls), |_| {
        tr.next_op();
        let s = tr.begin("server.wire_decode", "");
        let decoded = DecompressResponse::decode(&response);
        let secs = tr.end(s);
        if let Some(d) = gates.call("wire: decode response", decoded) {
            gates.check("wire: response carries the field", d.data == reference_raw);
        }
        secs * 1e3
    });
    (encode, decode)
}

/// The calls a server worker makes for a compress and a decompress
/// request, made locally the way a worker makes them (inner parallelism
/// serial, one reused engine) — the base of the round-trip overheads.
pub fn local_equivalents(run: &mut Run, env: &Env, budget: Budget) -> (Vec<f64>, Vec<f64>) {
    let Run { tr, gates, .. } = run;
    let f = &env.fields[0];
    let compressor = Compressor::new(codec_config());
    let mut engine = PipelineEngine::new();
    let compress = run_phase(budget, |_| {
        tr.next_op();
        let s = tr.begin("local.chunked_compress_serial", "");
        let bytes = with_serial_inner(|| {
            compressor
                .compress_chunked_with_engine(&f.data, f.dims, env.target, &mut engine)
                .map(|a| a.to_bytes())
        });
        let secs = tr.end(s);
        if let Some(bytes) = gates.call("local serial chunked compress", bytes) {
            gates.check(
                "local serial archive == pooled archive",
                bytes == env.archive,
            );
        }
        secs
    });
    let decompress = run_phase(budget, |_| {
        tr.next_op();
        let s = tr.begin("local.decompress_serial", "");
        let out = with_serial_inner(|| cuszp::decompress(&env.archive));
        let secs = tr.end(s);
        gates.call("local serial decompress", out);
        secs
    });
    (compress, decompress)
}

/// Pooled chunked compress, the parity section over it, and local range
/// decodes cycling the chunks; milliseconds each.
pub fn chunked_probe(
    run: &mut Run,
    env: &Env,
    reference: &[f32],
    budget: Budget,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let Run {
        tr, gates, seed, ..
    } = run;
    let f = &env.fields[0];
    let pool = WorkerPool::new(workers());
    let compressor = Compressor::new(codec_config());
    let mut parity = Vec::new();
    let chunked = run_phase(budget, |_| {
        tr.next_op();
        let s = tr.begin("core.chunked_compress", "");
        let arc = compressor.compress_chunked_with(&f.data, f.dims, env.target, &pool);
        let secs = tr.end(s);
        if let Some(mut arc) = gates.call("chunked compress", arc) {
            let s = tr.begin("ecc.parity_encode", "");
            arc.add_parity(
                ParityConfig {
                    data_shards: 8,
                    parity_shards: 2,
                },
                &pool,
            );
            parity.push(tr.end(s) * 1e3);
            gates.check("parity section attached", arc.parity.is_some());
        }
        secs * 1e3
    });
    // The warm-up call's parity sample is not one of the timed calls.
    if parity.len() > chunked.len() {
        parity.remove(0);
    }
    let mut boxes = BoxMaker::new(f.dims, env.target, *seed ^ 0x72_616e_6765);
    let mut n = 0usize;
    let range = run_phase(budget, |_| {
        let spec = boxes.in_chunk(n % boxes.chunks());
        n += 1;
        tr.next_op();
        let s = tr.begin("core.range_decode", "");
        let got = cuszp::decompress_range(&env.archive, &spec);
        let secs = tr.end(s);
        if let Some((got, _)) = gates.call("local range decode", got) {
            let want = cuszp::core::slice_field(reference, f.dims, &spec).map(|(s, _)| s);
            gates.check(
                "local range == slice of the full decompress",
                want.is_ok_and(|w| w == got),
            );
        }
        secs * 1e3
    });
    (chunked, parity, range)
}

/// Modeled V100 numbers for the first field's shape: kernel throughputs
/// from the analytic model, and DRAM transactions the lane-level
/// simulator counts for the partial-sum reconstruction of one slab.
pub fn gpusim_probe(dims: Dims, outlier_fraction: f64) -> (f64, f64, f64) {
    let m = KernelEstimate {
        n_elems: dims.len(),
        rank: dims.rank(),
        outlier_fraction,
    };
    let reconstruct = modeled_throughput(KernelClass::LorenzoReconstruct, &V100, &m);
    let encode = modeled_throughput(KernelClass::HuffmanEncode, &V100, &m);
    let mut counters = SimtCounters::default();
    match dims {
        Dims::D1(n) => {
            let mut q = vec![0i64; n.min(64 * 1024)];
            cuszp::gpusim::kernels::simt_reconstruct_1d(&mut q, 8, &mut counters);
        }
        Dims::D2 { ny, nx } => {
            let rows = ny.min(64);
            let mut q = vec![0i64; rows * nx];
            cuszp::gpusim::kernels::simt_reconstruct_2d(&mut q, rows, nx, 8, &mut counters);
        }
        Dims::D3 { nz, ny, nx } => {
            let planes = nz.min(8);
            let mut q = vec![0i64; planes * ny * nx];
            cuszp::gpusim::kernels::simt_reconstruct_3d(&mut q, planes, ny, nx, 8, &mut counters);
        }
    }
    let txn = counters.load_transactions + counters.store_transactions;
    (reconstruct, encode, txn as f64)
}
