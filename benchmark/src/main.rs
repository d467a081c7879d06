//! The repo's benchmark harness. One process runs one workload:
//!
//! ```text
//! cuszp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` records a span around every call into a layer and reports
//! the per-layer metrics. The last line of standard output is the result
//! object `BENCHMARK.json` describes. See `benchmark/README.md`.

mod chain;
mod env;
mod gates;
mod inputs;
mod layers;
mod phases;
mod trace;
mod traced;
mod untraced;
mod util;

use inputs::{Workload, WORKLOADS};
use phases::Run;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{Span, Tracer};
use util::{median, percentile};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seconds measured when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Where span files and the run's scratch directories go, relative to the
/// checkout root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) =
        (DEFAULT_SEED, DEFAULT_SECONDS, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(bad("a workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("error: {e}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    if args.smoke && !self_test() {
        eprintln!("error: percentile / span self-time self-test failed");
        return ExitCode::from(1);
    }
    cuszp::parallel::set_workers(env::workers());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} smoke {} | nproc {nproc}, library/server/node workers {}, one client, closed loop",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        env::workers()
    );
    let run_dir =
        PathBuf::from(OUT_DIR).join(format!("run-{}-{}", args.workload.name, std::process::id()));
    let mut run = Run {
        tr: Tracer::new(false),
        gates: gates::Gates::default(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let metrics = if args.trace {
        traced::run(args.workload, &mut run, &run_dir)
    } else {
        untraced::run(args.workload, &mut run, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    for m in &metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &run.gates.notes {
        println!("# FAILED {note}");
    }
    let correct = run.gates.failed == 0 && !metrics.is_empty();
    println!(
        "# ops_attempted {} ops_failed {}",
        run.gates.attempted, run.gates.failed
    );
    println!(
        "{}",
        util::result_line(
            correct,
            run.gates.attempted.max(1),
            run.gates.failed,
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Checks the percentile and span self-time arithmetic on hand-built
/// inputs; part of `--smoke`.
fn self_test() -> bool {
    let samples = [4.0, 1.0, 3.0, 2.0];
    let mut ok = percentile(&samples, 0.5) == 2.5
        && percentile(&samples, 0.0) == 1.0
        && percentile(&samples, 1.0) == 4.0
        && percentile(&[7.0], 0.99) == 7.0
        && (percentile(&[0.0, 10.0], 0.95) - 9.5).abs() < 1e-12;

    // op 1: a 100 ns parent with children of 30 and 20 ns, one of which
    // has a 5 ns child of its own; op 2: a lone 40 ns span of the parent's
    // name.
    let span = |name, op, parent, start_ns, end_ns| Span {
        name,
        op,
        parent,
        start_ns,
        end_ns,
        label: "",
    };
    let mut tr = Tracer::new(true);
    tr.spans = vec![
        span("whole", 1, None, 0, 100),
        span("stage", 1, Some(0), 10, 40),
        span("inner", 1, Some(1), 20, 25),
        span("stage", 1, Some(0), 50, 70),
        span("whole", 2, None, 200, 240),
    ];
    ok &= tr.self_ns() == vec![50, 25, 5, 20, 40];
    let close = |got: &[f64], want: &[f64]| {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-12)
    };
    ok &= close(&tr.per_op_self_ms("stage"), &[45e-6]);
    ok &= close(&tr.per_op_self_ms("whole"), &[50e-6, 40e-6]);
    ok &= close(&[median(&tr.per_op_self_ms("whole"))], &[45e-6]);
    ok
}
