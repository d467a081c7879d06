//! The `--trace 1` run.

use crate::chain::{range_boxes, reference_field, ClusterPhases};
use crate::env::{self, Env};
use crate::inputs::Workload;
use crate::inputs::{key_name, N_KEYS};
use crate::phases::{self, Run};
use crate::trace::Tracer;
use crate::util::{self, median, metric, percentile, Budget, Metric};
use crate::{layers, OUT_DIR};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median, over the ops that have such spans, of the self time of `name`
/// summed within the op (so: per pass over the workload's fields).
fn stage_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.per_op_self_ms(name))
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The `--trace 1` run: every per-layer metric, and the span file.
pub fn run(w: &Workload, run: &mut Run, run_dir: &Path) -> Vec<Metric> {
    run.tr = Tracer::new(true);
    let Some(mut env) = Env::setup(w, run, run_dir) else {
        return Vec::new();
    };
    let Some((reference, reference_raw)) = reference_field(run, &env) else {
        env.teardown(run_dir);
        return Vec::new();
    };
    let datagen_ms = stage_ms(&run.tr, "datagen.generate");

    // Whole calls with spans off, at the default width and — the
    // single-thread baseline — at one worker.
    run.tr.on = false;
    let mut archives = Vec::new();
    let c_off = phases::compress(run, &env.fields, &mut archives, run.budget(0.04, 3));
    let d_off = phases::decompress(run, &env.fields, &archives, run.budget(0.04, 3));
    cuszp::parallel::set_workers(1);
    let c_one = phases::compress(run, &env.fields, &mut archives, run.budget(0.03, 3));
    let d_one = phases::decompress(run, &env.fields, &archives, run.budget(0.03, 3));
    cuszp::parallel::set_workers(env::workers());
    let compressor = cuszp::Compressor::new(env::codec_config());
    let compress_allocs = layers::allocs_per_call(&env.fields, |_, f| {
        std::hint::black_box(
            compressor
                .compress(&f.data, f.dims)
                .map(|a| a.to_bytes())
                .ok(),
        );
    });
    let decompress_allocs = layers::allocs_per_call(&env.fields, |i, _| {
        std::hint::black_box(cuszp::decompress(&archives[i]).ok());
    });
    run.tr.on = true;

    // The traced codec passes: real whole calls beside their stage replay.
    let reals: Vec<layers::Real> = env
        .fields
        .iter()
        .filter_map(|f| layers::Real::make(&mut run.gates, f))
        .collect();
    if reals.len() != env.fields.len() {
        env.teardown(run_dir);
        return Vec::new();
    }
    let mut arenas = layers::Arenas::default();
    // Passes over the fields, the warm-up one included: counts are per pass.
    let replay_passes = {
        let budget = run.budget(0.2, 3);
        let Run { tr, gates, .. } = run;
        util::run_phase(budget, |_| {
            tr.next_op();
            let t0 = Instant::now();
            for (f, real) in env.fields.iter().zip(&reals) {
                layers::codec_pass(tr, gates, &mut arenas, &compressor, f, real);
            }
            t0.elapsed().as_secs_f64()
        })
        .len()
            + 1
    };
    for (f, real) in env.fields.iter().zip(&reals) {
        println!("# field {} {:?}: plan {}", f.name, f.dims, real.plan());
    }

    let (chunked_ms, parity_ms, range_decode_ms) =
        layers::chunked_probe(run, &env, &reference, run.budget(0.03, 3));

    // The store, driven directly with the cluster's shard size.
    let shard_len = env.archive.len().div_ceil(2);
    let store = layers::store_probe(
        run,
        &run_dir.join("store"),
        shard_len,
        w.compact_at,
        run.calls(1000),
    );

    // One server, one persistent client.
    let ping_s = phases::pings(run, &mut env.client, Budget::Count(run.calls(2000)));
    let (wire_encode_ms, wire_decode_ms) =
        layers::wire_probe(run, &env, &reference_raw, run.calls(10));
    let rt_compress_s = phases::rt_compress(run, &mut env, run.budget(0.05, 5));
    let rt_decompress_s = phases::rt_decompress(run, &mut env, &reference_raw, run.budget(0.05, 5));
    let (local_compress_s, local_decompress_s) =
        layers::local_equivalents(run, &env, run.budget(0.03, 5));
    let stats_before = run.gates.call("server stats", env.client.stats());
    let (hot, mut cold) = range_boxes(&env, run.seed);
    let hot_s = phases::served_range(
        run,
        &mut env,
        &reference,
        "server.range_hot",
        |_| hot.clone(),
        run.budget(0.03, 1000),
    );
    let stats_hot = run.gates.call("server stats", env.client.stats());
    let chunks = cold.chunks();
    let cold_s = phases::served_range(
        run,
        &mut env,
        &reference,
        "server.range_cold",
        |n| cold.in_chunk(n % chunks),
        run.budget(0.05, 200),
    );
    let stats_cold = run.gates.call("server stats", env.client.stats());
    let hit_ratio = |a: &Option<cuszp::server::StatsSnapshot>,
                     b: &Option<cuszp::server::StatsSnapshot>| {
        match (a, b) {
            (Some(a), Some(b)) => {
                let hits = (b.cache_hits - a.cache_hits) as f64;
                let lookups = hits + (b.cache_misses - a.cache_misses) as f64;
                if lookups > 0.0 {
                    hits / lookups
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    };
    let cache_hit_ratio_hot = hit_ratio(&stats_before, &stats_hot);
    let cache_hit_ratio_cold = hit_ratio(&stats_hot, &stats_cold);
    let (cache_evictions, rejected_busy) = stats_cold.as_ref().map_or((0.0, 0.0), |s| {
        (s.cache_evictions as f64, s.rejected_busy as f64)
    });

    // The durable cluster.
    let puts = if run.smoke { N_KEYS } else { 13 * N_KEYS };
    let get_s = {
        // Fetch + reassemble without decode; needs a stored key first.
        let put = env.cluster.client.put(&key_name(0), &env.archive);
        run.gates.call("cluster put", put);
        let budget = run.budget(0.03, 20);
        let Run { tr, gates, .. } = &mut *run;
        util::run_phase(budget, |_| {
            tr.next_op();
            let s = tr.begin("cluster.get", "");
            let got = env.cluster.client.get(&key_name(0));
            let secs = tr.end(s);
            if let Some(got) = gates.call("cluster get", got) {
                gates.check(
                    "cluster get returns the put bytes",
                    got.bytes == env.archive,
                );
            }
            secs
        })
    };
    let mut cluster = ClusterPhases::new(run, &env);
    cluster.healthy_round(run, &mut env, &reference, puts, run.budget(0.05, 200));
    cluster.degraded_round(run, &mut env, &reference, run.budget(0.05, 200));
    let cluster = cluster.finish(run, w, &mut env);

    let f0 = &env.fields[0];
    let (gpu_reconstruct, gpu_encode, gpu_txn) = layers::gpusim_probe(
        f0.dims,
        reals[0].outliers() as f64 / f0.data.len().max(1) as f64,
    );
    env.teardown(run_dir);

    let tr = &run.tr;
    let trace_path = PathBuf::from(OUT_DIR).join(format!("trace_{}.jsonl", w.name));
    let written = tr.write_jsonl(&trace_path).map_err(|e| e.to_string());
    run.gates.call("write span file", written);
    println!(
        "# {} spans written to {}",
        tr.spans.len(),
        trace_path.display()
    );

    let per_pass = |name: &str| tr.counted(name).iter().sum::<f64>() / replay_passes as f64;
    let compress_ms = stage_ms(tr, "core.compress");
    let decompress_ms = stage_ms(tr, "core.decompress");
    let serialize_ms = stage_ms(tr, "core.serialize");
    // Spans on against spans off, compress + serialize + decompress.
    let whole_off_ms = (median(&c_off) + median(&d_off)) * 1e3;
    let trace_overhead_pct = pct(
        compress_ms + serialize_ms + decompress_ms - whole_off_ms,
        whole_off_ms,
    );
    let compress_stages: f64 = [
        "predictor.prequant",
        "analysis.score_predictors",
        "predictor.construct",
        "huffman.histogram",
        "analysis.select_workflow",
        "huffman.codebook",
        "huffman.encode",
        "rle.encode",
        "lossless.bitshuffle",
        "lossless.probe",
        "lossless.lz77_compress",
    ]
    .iter()
    .map(|n| stage_ms(tr, n))
    .sum();
    // `core.parse` holds `from_bytes` whole, lossless unwrap included.
    let parse_whole_ms = stage_ms(tr, "core.parse");
    let unwrap_ms = stage_ms(tr, "lossless.lz77_decompress");
    let decompress_stages: f64 = parse_whole_ms
        + [
            "huffman.decode",
            "rle.decode",
            "predictor.reconstruct",
            "predictor.dequant",
        ]
        .iter()
        .map(|n| stage_ms(tr, n))
        .sum::<f64>();
    let us = |s: &[f64], q: f64| percentile(s, q) * 1e6;
    let ms = |s: &[f64], q: f64| percentile(s, q) * 1e3;
    let healthy_p50 = ms(&cluster.healthy_s, 0.5);

    vec![
        metric("datagen.generate_ms", "ms", datagen_ms),
        metric(
            "predictor.prequant_ms",
            "ms",
            stage_ms(tr, "predictor.prequant"),
        ),
        metric(
            "predictor.construct_ms",
            "ms",
            stage_ms(tr, "predictor.construct"),
        ),
        metric(
            "predictor.reconstruct_ms",
            "ms",
            stage_ms(tr, "predictor.reconstruct"),
        ),
        metric(
            "predictor.dequant_ms",
            "ms",
            stage_ms(tr, "predictor.dequant"),
        ),
        metric(
            "predictor.outliers",
            "count",
            per_pass("predictor.outliers"),
        ),
        metric(
            "analysis.score_predictors_ms",
            "ms",
            stage_ms(tr, "analysis.score_predictors"),
        ),
        metric(
            "analysis.select_workflow_ms",
            "ms",
            stage_ms(tr, "analysis.select_workflow"),
        ),
        metric(
            "huffman.histogram_ms",
            "ms",
            stage_ms(tr, "huffman.histogram"),
        ),
        metric(
            "huffman.codebook_ms",
            "ms",
            stage_ms(tr, "huffman.codebook"),
        ),
        metric("huffman.encode_ms", "ms", stage_ms(tr, "huffman.encode")),
        metric("huffman.decode_ms", "ms", stage_ms(tr, "huffman.decode")),
        metric(
            "huffman.bits_per_symbol",
            "bit",
            per_pass("huffman.bits") / per_pass("huffman.symbols").max(1.0),
        ),
        metric("rle.encode_ms", "ms", stage_ms(tr, "rle.encode")),
        metric("rle.decode_ms", "ms", stage_ms(tr, "rle.decode")),
        metric(
            "lossless.bitshuffle_ms",
            "ms",
            stage_ms(tr, "lossless.bitshuffle"),
        ),
        metric("lossless.probe_ms", "ms", stage_ms(tr, "lossless.probe")),
        metric(
            "lossless.lz77_compress_ms",
            "ms",
            stage_ms(tr, "lossless.lz77_compress"),
        ),
        metric("lossless.lz77_decompress_ms", "ms", unwrap_ms),
        metric(
            "lossless.wraps_taken",
            "count",
            per_pass("lossless.wraps_taken"),
        ),
        metric("core.compress_ms", "ms", compress_ms),
        metric("core.decompress_ms", "ms", decompress_ms),
        metric("core.serialize_ms", "ms", serialize_ms),
        metric("core.parse_ms", "ms", (parse_whole_ms - unwrap_ms).max(0.0)),
        metric(
            "core.compress_unattributed_pct",
            "%",
            pct(compress_ms - compress_stages, compress_ms),
        ),
        metric(
            "core.decompress_unattributed_pct",
            "%",
            pct(decompress_ms - decompress_stages, decompress_ms),
        ),
        metric("core.chunked_compress_ms", "ms", median(&chunked_ms)),
        metric("core.range_decode_ms", "ms", median(&range_decode_ms)),
        metric("core.compress_allocs_per_call", "count", compress_allocs),
        metric(
            "core.decompress_allocs_per_call",
            "count",
            decompress_allocs,
        ),
        metric(
            "parallel.compress_speedup",
            "x",
            median(&c_one) / median(&c_off).max(f64::MIN_POSITIVE),
        ),
        metric(
            "parallel.decompress_speedup",
            "x",
            median(&d_one) / median(&d_off).max(f64::MIN_POSITIVE),
        ),
        metric("ecc.parity_encode_ms", "ms", median(&parity_ms)),
        metric(
            "cluster.degraded_overhead_ms",
            "ms",
            ms(&cluster.degraded_s, 0.5) - healthy_p50,
        ),
        metric("store.put_us_p50", "us", percentile(&store.put_us, 0.5)),
        metric("store.put_us_p99", "us", percentile(&store.put_us, 0.99)),
        metric("store.get_us_p50", "us", percentile(&store.get_us, 0.5)),
        metric("store.get_us_p99", "us", percentile(&store.get_us, 0.99)),
        metric(
            "store.mem_get_us_p50",
            "us",
            percentile(&store.mem_get_us, 0.5),
        ),
        metric("store.compactions", "count", store.compactions),
        metric("store.write_amp", "B/B", store.write_amp),
        metric("store.space_amp", "B/B", store.space_amp),
        metric("store.reopen_ms", "ms", store.reopen_ms),
        metric("server.ping_us_p50", "us", us(&ping_s, 0.5)),
        metric("server.ping_us_p99", "us", us(&ping_s, 0.99)),
        metric("server.wire_encode_ms", "ms", median(&wire_encode_ms)),
        metric("server.wire_decode_ms", "ms", median(&wire_decode_ms)),
        metric(
            "server.rt_compress_overhead_ms",
            "ms",
            ms(&rt_compress_s, 0.5) - ms(&local_compress_s, 0.5),
        ),
        metric(
            "server.rt_decompress_overhead_ms",
            "ms",
            ms(&rt_decompress_s, 0.5) - ms(&local_decompress_s, 0.5),
        ),
        metric("server.range_hot_p99_ms", "ms", ms(&hot_s, 0.99)),
        metric("server.range_cold_p95_ms", "ms", ms(&cold_s, 0.95)),
        metric("server.cache_hit_ratio_hot", "ratio", cache_hit_ratio_hot),
        metric("server.cache_hit_ratio_cold", "ratio", cache_hit_ratio_cold),
        metric("server.cache_evictions", "count", cache_evictions),
        metric("server.rejected_busy", "count", rejected_busy),
        metric("cluster.put_p95_ms", "ms", ms(&cluster.put_s, 0.95)),
        metric("cluster.get_p50_ms", "ms", ms(&get_s, 0.5)),
        metric(
            "cluster.get_range_p95_ms",
            "ms",
            ms(&cluster.healthy_s, 0.95),
        ),
        metric("cluster.failovers", "count", cluster.failovers),
        metric("gpusim.reconstruct_modeled_gbps", "GB/s", gpu_reconstruct),
        metric("gpusim.huffman_encode_modeled_gbps", "GB/s", gpu_encode),
        metric("gpusim.reconstruct_dram_txn", "count", gpu_txn),
        metric("trace_overhead_pct", "%", trace_overhead_pct),
    ]
}
