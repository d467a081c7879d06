//! The `--trace 0` run.

use crate::chain::{range_boxes, reference_field, ClusterPhases};
use crate::env::Env;
use crate::inputs::Workload;
use crate::inputs::N_KEYS;
use crate::phases::{self, Run};
use crate::util::{self, median, metric, Metric};
use std::path::Path;
use std::time::Instant;

/// Whole set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds the run splits every phase over; the first `HEALTHY_ROUNDS` have
/// every node up, the rest run with one node down.
const ROUNDS: usize = 5;
const HEALTHY_ROUNDS: usize = 3;

/// The `--trace 0` run: every end-to-end metric, tracing off.
///
/// The phases run in rounds, each phase getting its share of `--seconds`
/// split over the rounds, so every metric samples the whole run: on a
/// shared box a slow few seconds then touch a part of every metric's
/// samples, which a median shrugs off, and not all of one metric's.
pub fn run(w: &Workload, run: &mut Run, run_dir: &Path) -> Vec<Metric> {
    let reps = if run.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..reps {
        if let Some(previous) = env.take() {
            Env::teardown(previous, run_dir);
        }
        let t0 = Instant::now();
        env = Env::setup(w, run, run_dir);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut env) = env else {
        return Vec::new();
    };
    let Some((reference, reference_raw)) = reference_field(run, &env) else {
        env.teardown(run_dir);
        return Vec::new();
    };
    let s = &w.shares;
    let (rounds, healthy_rounds) = if run.smoke {
        (2, 1)
    } else {
        (ROUNDS, HEALTHY_ROUNDS)
    };
    let addr = env.server.addr.clone();
    let (hot, mut cold) = range_boxes(&env, run.seed);
    let chunks = cold.chunks();
    let mut cluster = ClusterPhases::new(run, &env);
    let mut archives = Vec::new();
    let (mut compress_s, mut decompress_s, mut connect_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rt_compress_s, mut rt_decompress_s) = (Vec::new(), Vec::new());
    let (mut hot_s, mut cold_s) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let per_round = 1.0 / rounds as f64;
        compress_s.extend(phases::compress(
            run,
            &env.fields,
            &mut archives,
            run.budget(s.compress * per_round, 2),
        ));
        decompress_s.extend(phases::decompress(
            run,
            &env.fields,
            &archives,
            run.budget(s.decompress * per_round, 2),
        ));
        connect_s.extend(phases::connect_first_request(
            run,
            &addr,
            run.budget(s.connect * per_round, 2),
        ));
        rt_compress_s.extend(phases::rt_compress(
            run,
            &mut env,
            run.budget(s.rt_compress * per_round, 2),
        ));
        rt_decompress_s.extend(phases::rt_decompress(
            run,
            &mut env,
            &reference_raw,
            run.budget(s.rt_decompress * per_round, 2),
        ));
        hot_s.extend(phases::served_range(
            run,
            &mut env,
            &reference,
            "server.range_hot",
            |_| hot.clone(),
            run.budget(s.range_hot * per_round, 4),
        ));
        cold_s.extend(phases::served_range(
            run,
            &mut env,
            &reference,
            "server.range_cold",
            |n| cold.in_chunk(n % chunks),
            run.budget(s.range_cold * per_round, 4),
        ));
        if round < healthy_rounds {
            let reads = run.budget(s.get_range / healthy_rounds as f64, 4);
            let puts = if run.smoke { N_KEYS } else { w.puts_per_round };
            cluster.healthy_round(run, &mut env, &reference, puts, reads);
        } else {
            let reads = run.budget(s.get_range_degraded / (rounds - healthy_rounds) as f64, 4);
            cluster.degraded_round(run, &mut env, &reference, reads);
        }
    }
    let cluster = cluster.finish(run, w, &mut env);
    let field_bytes: usize = env.fields.iter().map(|f| f.bytes()).sum();
    let archive_bytes: usize = archives.iter().map(|a| a.len()).sum();
    let mb = field_bytes as f64 / 1e6;
    let first_mb = env.fields[0].bytes() as f64 / 1e6;
    env.teardown(run_dir);

    vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("compress_mb_s", "MB/s", mb / median(&compress_s)),
        metric("decompress_mb_s", "MB/s", mb / median(&decompress_s)),
        metric(
            "ratio",
            "x",
            field_bytes as f64 / archive_bytes.max(1) as f64,
        ),
        metric("peak_rss_mb", "MB", util::peak_rss_mb()),
        metric("connect_first_req_p50_ms", "ms", median(&connect_s) * 1e3),
        metric(
            "rt_compress_mb_s",
            "MB/s",
            first_mb / median(&rt_compress_s),
        ),
        metric(
            "rt_decompress_mb_s",
            "MB/s",
            first_mb / median(&rt_decompress_s),
        ),
        metric("range_hot_p50_ms", "ms", median(&hot_s) * 1e3),
        metric("range_cold_p50_ms", "ms", median(&cold_s) * 1e3),
        metric("put_p50_ms", "ms", median(&cluster.put_s) * 1e3),
        metric("get_range_p50_ms", "ms", median(&cluster.healthy_s) * 1e3),
        metric(
            "get_range_degraded_p50_ms",
            "ms",
            median(&cluster.degraded_s) * 1e3,
        ),
        metric(
            "disk_bytes_per_user_byte",
            "B/B",
            cluster.disk_per_user_byte,
        ),
    ]
}
