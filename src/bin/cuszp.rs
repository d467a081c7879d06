//! `cuszp` — command-line front-end for the compressor.
//!
//! ```text
//! cuszp compress   -i field.f32 -o field.csz -d 512x512x512 [-e 1e-3] [-m abs|rel]
//!                  [-w auto|huffman|rle|rle+vle] [--double]
//! cuszp decompress -i field.csz -o recon.f32
//! cuszp info       field.csz
//! cuszp analyze    -i field.f32 -d 1800x3600 [-e 1e-2] [-m rel]
//! cuszp gen        -o field.f32 --dataset cesm --field FSDSC [--scale small]
//! cuszp serve      [-a 127.0.0.1:7117] [--workers 2] [--queue 16]
//! cuszp remote <compress|decompress|scan|info|stats|ping|shutdown> -s <addr> ...
//! ```
//!
//! Input/output rasters are raw little-endian `f32` (or `f64` with
//! `--double`), SDRBench's convention: dimensions travel out-of-band via
//! `-d`, fastest axis last.
//!
//! Every command line goes through one intake ([`Opts::from_args`]) against
//! one declaration ([`COMMANDS`]): an option a command does not declare
//! is a usage error before any file is read or written.

use cuszp::analysis::analyze;
use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::faultsim::{ChaosPolicy, ChaosProxy};
use cuszp::metrics::{verify_error_bound, verify_error_bound_f64};
use cuszp::parallel::WorkerPool;
use cuszp::server::{
    ClusterClient, ClusterConfig, CompressRequest, ConnectOptions, DecompressMode, RetryPolicy,
    RetryingClient, Ring, Server, ServerConfig, StoreBackendConfig,
};
use cuszp::store::{FsyncPolicy, RecordStatus, StoreConfig};
use cuszp::{
    json_escape, scalars_from_le, scalars_to_le, stored_dtype, Archive, ChunkReport, ChunkStatus,
    ChunkedArchive, CodecPlan, Compressor, Config, CuszpError, Decode, Dims, Dtype, Element,
    ErrorBound, FillPolicy, LosslessMode, ParityConfig, Predictor, PredictorMode, RangeSpec,
    ScanReport, WorkflowChoice, WorkflowMode,
};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// `println!` through [`Out`], returning the write's `io::Result`.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(Out, $($arg)*)
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match Opts::from_args(&args).and_then(|opts| run(&opts)) {
        Ok(code) => code,
        Err(Fail::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Fail::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Opts) -> Result<ExitCode, Fail> {
    let ok = |r: Result<(), Fail>| r.map(|()| ExitCode::SUCCESS);
    match opts.cmd {
        "compress" | "remote compress" if opts.has("double") => ok(cmd_compress::<f64>(opts)),
        "compress" | "remote compress" => ok(cmd_compress::<f32>(opts)),
        "decompress" | "extract" | "remote decompress" | "remote get-range" => ok(cmd_decode(opts)),
        "info" => ok(cmd_info(opts)),
        // fsck picks its own exit code: 0 clean, 1 damaged-but-repaired
        // (or repairable), 2 data loss.
        "fsck" => cmd_fsck(opts),
        // store-fsck shares the taxonomy: 0 clean, 1 repairable via
        // cluster-scrub, 2 directory unreadable.
        "store-fsck" => cmd_store_fsck(opts),
        "analyze" if opts.has("double") => ok(analyze_raw::<f64>(opts)),
        "analyze" => ok(analyze_raw::<f32>(opts)),
        "gen" => ok(cmd_gen(opts)),
        "serve" => ok(cmd_serve(opts)),
        "chaos-proxy" => ok(cmd_chaos_proxy(opts)),
        "help" => {
            say!("{USAGE}")?;
            Ok(ExitCode::SUCCESS)
        }
        // `remote scan` mirrors fsck's exit-code contract.
        cmd => match cmd.split_once(' ') {
            Some(("remote", op)) => cmd_remote(op, opts),
            Some(("cluster", op)) => cmd_cluster(op, opts),
            _ => unreachable!("{cmd} is declared but not dispatched"),
        },
    }
}

/// Every command line `cuszp` accepts: the command (`remote` and
/// `cluster` name one entry per operation) and the options it reads.
/// An option is `name` (takes a value), `name!` (a flag) or
/// `name|alias`. The command's primary input — `-k` where declared,
/// else `-i` — may also be its first argument.
const COMMANDS: &[(&str, &[&str])] = &[
    ("compress", &["i o d threads parity stats!", CODEC]),
    ("decompress", &["i o verify threads", RECOVER]),
    ("extract", &["i o range", RECOVER]),
    ("info", &["i"]),
    ("fsck", &["i repair! json!"]),
    ("store-fsck", &["i json!"]),
    ("analyze", &["i d e m double!"]),
    ("gen", &["o dataset field scale"]),
    ("serve", &[SERVE]),
    ("chaos-proxy", &[CHAOS]),
    ("remote compress", &[REMOTE, "i o d parity chunk", CODEC]),
    ("remote decompress", &[REMOTE, "i o", RECOVER]),
    ("remote get-range", &[REMOTE, "i o range", RECOVER]),
    ("remote scan", &[REMOTE, "i json!"]),
    ("remote info", &[REMOTE, "i"]),
    ("remote stats", &[REMOTE]),
    ("remote ping", &[REMOTE]),
    ("remote health", &[REMOTE]),
    ("remote shutdown", &[REMOTE]),
    ("cluster put", &[CLUSTER, "k i"]),
    ("cluster get", &[CLUSTER, "k o"]),
    ("cluster get-range", &[CLUSTER, "k o range"]),
    ("cluster ring", &[CLUSTER]),
    ("cluster scrub", &[CLUSTER]),
    ("help", &[]),
];
const CODEC: &str = "e m w p lossless! double!";
const RECOVER: &str = "recover! fill";
const REMOTE: &str = "s|server retries deadline-ms connect-timeout-ms retry-seed";
const CLUSTER: &str = "seeds|s connect-timeout-ms";
const SERVE: &str = "a|addr workers queue cache-bytes node-id ring ring-epoch ring-parity \
                     data-dir fsync compact-at";
const CHAOS: &str = "upstream|u a|addr seed profile refuse cut-request cut-response flip stall \
                     stall-max-ms chop chop-piece redraw-bytes kill-after-bytes";

const USAGE: &str = "\
cuszp — error-bounded lossy compression for scientific data (cuSZ+ reproduction)

USAGE:
  cuszp compress   -i <raw> -o <archive> -d <dims> [-e <bound>] [-m abs|rel]
                   [-w auto|huffman|rle|rle+vle] [-p lorenzo|interp|auto]
                   [--lossless] [--double] [--threads <n>] [--stats] [--parity <m/k>]
  cuszp decompress -i <archive> -o <raw> [--verify <original raw>] [--threads <n>]
                   [--recover [--fill nan|zero]]
  cuszp extract    -i <archive> -o <raw> --range <spec>
                   [--recover [--fill nan|zero]]
  cuszp info       -i <archive>
  cuszp fsck       <archive> [--repair] [--json]
  cuszp analyze    -i <raw> -d <dims> [-e <bound>] [-m abs|rel] [--double]
  cuszp gen        -o <raw> --dataset <name> --field <name> [--scale tiny|small]
  cuszp serve      [-a|--addr <addr>] [--workers <n>] [--queue <n>] [--cache-bytes <n>]
                   [--node-id <id> --ring <id=addr,...> [--ring-epoch <n>]
                    [--ring-parity <m/k>] [--data-dir <path>]
                    [--fsync always|never|<bytes>] [--compact-at <bytes>]]
  cuszp store-fsck <data-dir> [--json]
  cuszp cluster put       <key> -i <archive> --seeds <addr,addr,...>
  cuszp cluster get       <key> -o <archive> --seeds <addr,addr,...>
  cuszp cluster get-range <key> -o <raw> --range <spec> --seeds <addr,addr,...>
  cuszp cluster ring|scrub --seeds <addr,addr,...>
  cuszp cluster-scrub      --seeds <addr,addr,...>   (alias of cluster scrub)
  cuszp cluster <op>       --seeds|-s <addr,addr,...> [--connect-timeout-ms <ms>]
  cuszp remote compress   -s <addr> -i <raw> -o <archive> -d <dims> [-e] [-m]
                          [-w] [-p] [--lossless] [--double] [--parity <m/k>]
                          [--chunk <elems>]
  cuszp remote decompress <archive> -o <raw> [-s <addr>]
                          [--recover [--fill nan|zero]]
  cuszp remote get-range  <archive> -o <raw> --range <spec> [-s <addr>]
                          [--recover [--fill nan|zero]]
  cuszp remote scan       <archive> [-s <addr>] [--json]
  cuszp remote info       <archive> [-s <addr>]
  cuszp remote stats|ping|health|shutdown -s <addr>
  cuszp remote <op>       [-s|--server <addr>] [--retries <n>] [--deadline-ms <ms>]
                          [--connect-timeout-ms <ms>] [--retry-seed <n>]
  cuszp chaos-proxy --upstream|-u <addr> [-a|--addr <addr>] [--seed <n>]
                    [--profile clean|mixed] [--refuse <pm>] [--cut-request <pm>]
                    [--cut-response <pm>] [--flip <pm>] [--stall <pm>]
                    [--stall-max-ms <ms>] [--chop <pm>] [--chop-piece <bytes>]
                    [--redraw-bytes <n>] [--kill-after-bytes <n>]

A command's input (-i; the <key> of cluster put/get/get-range) may also be
its first argument: `cuszp info <archive>` is `cuszp info -i <archive>`.

OPTIONS:
  -d  dimensions, fastest axis last: '268435456', '1800x3600', '512x512x512'
  -e  error bound (default 1e-4)
  -m  bound mode: 'rel' (relative to value range, default) or 'abs'
  -w  workflow (default auto = the compressibility-aware selector)
  -p  predictor: 'lorenzo' (default), 'interp' (multi-level cubic), or
      'auto' (score both per chunk and record the choice in the plan)
  --lossless  allow the post-coding bitshuffle+LZ77 stage where a sampled
              probe says it pays (recorded per chunk in the plan)
  --double   treat the raw file as f64
  --threads  chunk-parallel engine with an n-worker pool; compress writes the
             multi-chunk (v2) archive, whose bytes are identical for any n
  --stats    with --threads: aggregate per-chunk compression stats (workflow
             mix, bit rate, outliers) on stderr
  --parity   append Reed-Solomon parity stripes (m parity per k data shards,
             RAID-style '2/8'); any <= m damaged shards per stripe later
             repair bit-exactly. Implies the chunked (v2) container.
  --recover  fault-isolated decompression of a damaged chunked archive:
             shards covered by parity are repaired first, then undamaged
             chunks reconstruct exactly and lost slabs are filled
             (--fill nan|zero, default nan) and reported per chunk
  --range    sub-volume to extract, one 'start:end' (half-open, element
             coordinates of the logical field) per axis, fastest axis last:
             '1000:5000', '10:20x0:3600', '2:6x100:200x0:512'. The written
             raster holds exactly the requested sub-volume, row-major.
  --cache-bytes  serve only: byte budget for the hot-slab range cache
             (default 64 MiB; 0 disables). Repeated `remote get-range`
             reads of the same chunks skip the decoder entirely.
  --retries  remote <op> only: retry transport failures up to <n> extra
             attempts with seeded decorrelated-jitter backoff, reconnecting
             as needed. Only idempotent ops retry (shutdown never does);
             server `retry_after` hints raise the next backoff.
  --deadline-ms      remote <op> only: overall wall-clock budget per call,
             covering every attempt, reconnect, and backoff sleep
             (default 30000)
  --connect-timeout-ms  remote and cluster ops: TCP connect timeout per
             attempt (default 5000)
  --retry-seed  remote <op> only: seed of the backoff jitter, so a retry
             schedule replays exactly
  --stall-max-ms  chaos-proxy only: longest injected stall (default 50)
  --dataset  one of: hacc cesm hurricane nyx rtm miranda qmcpack

`fsck` validates and decodes every chunk independently (healing damaged
shards from parity when possible), prints a per-chunk report (--json for a
machine-readable one), and exits 0 when clean, 1 when damage exists but
parity covers all of it (with --repair: heals the file in place, atomically),
and 2 on data loss.

`serve` runs the compression service (CSRP framed protocol over TCP; -a
defaults to 127.0.0.1:7117, port 0 picks an ephemeral port). Each worker owns
a reusable pipeline engine; a full queue answers clients with a typed `busy`
error. `remote <op>` talks to a server (-s defaults to 127.0.0.1:7117):
compression runs server-side through the same chunked pipeline, so the
archive bytes match a local `cuszp compress --threads` exactly. `remote scan`
mirrors fsck's report and exit codes; `remote stats` prints live service
metrics (per-op counts, bytes, latency percentiles, cache hit rates).

`extract` decodes only the chunks a `--range` touches — a 3-slab slice of a
terabyte field never decompresses the whole field. `remote get-range` is the
served form: hot chunks come from the server's slab cache, and `--recover`
reads around damage, reporting exactly the damaged in-range chunks.

`serve --node-id N --ring <id=addr,...>` joins a fault-tolerant cluster:
every archive key is split into k data + m parity shards (--ring-parity,
default 1/2) and placed on distinct members by rendezvous hashing. The
`cluster` ops route shard traffic with failover: while at most m placement
nodes are down, `cluster get`/`get-range` still return bit-identical bytes,
reconstructing missing shards from parity. Stale clients are answered with
typed redirect errors carrying the current epoch and owner. `cluster-scrub`
is the anti-entropy pass: it lists every reachable member's verified shards
and re-replicates anything missing or dropped as corrupt (exit 0 fully
healthy, 1 when lost stripes or unreachable members remain).

`serve --data-dir <path>` makes a cluster node durable: shards are appended
to checksummed log segments (`seg-<n>.czl`) under <path>, the index is
rebuilt by scanning them at boot (torn tails truncated, corrupt records
skipped and reported), and overwritten/deleted slots are reclaimed by
size-triggered compaction (--compact-at, default 256 MiB) behind an atomic
manifest swap. --fsync picks the durability contract: `always` (default —
an acknowledged put survives kill -9), a byte interval, or `never`.
A durable node restarted with its data dir serves its shards bit-identically
with zero scrub repairs. `store-fsck` scans a data dir offline (read-only,
same scanner as boot recovery) and prints per-record status: exit 0 clean,
1 damage repairable via restart + cluster-scrub, 2 directory unreadable.

`chaos-proxy` relays TCP to --upstream while injecting seeded faults
(connection refusal, mid-frame cuts, bit flips, stalls, chopped writes) —
point `remote <op> --retries` at it to rehearse client resilience. Fault
rates are per-mille per redraw epoch; the same seed replays the same faults.
`remote health` is a cheap liveness probe: exit 0 when serving, 1 when
draining (the reply carries the server's retry-after hint).";

/// Why a command failed: a malformed command line (exit 2, with USAGE) or
/// a failure while running it (exit 1).
enum Fail {
    Usage(String),
    Run(String),
}

impl<E: Display> From<E> for Fail {
    fn from(e: E) -> Fail {
        Fail::Run(e.to_string())
    }
}

/// Locked stdout, the one writer every report goes through. A reader
/// that went away (`cuszp info big.csz | head`) is not an error: the rest
/// of the report is dropped and the command ends with the exit code it
/// would have had.
struct Out;

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match std::io::stdout().lock().write(buf) {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(buf.len()),
            r => r,
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match std::io::stdout().lock().flush() {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
            r => r,
        }
    }
}

/// One parsed command line: its [`COMMANDS`] entry and the options given,
/// under their canonical names (flags map to an empty value).
struct Opts {
    cmd: &'static str,
    values: HashMap<&'static str, String>,
}

impl Opts {
    /// Parses `cmd [sub] [input] [options]` against [`COMMANDS`].
    fn from_args(args: &[String]) -> Result<Opts, Fail> {
        let (cmd, mut rest) = args
            .split_first()
            .expect("main refuses an empty command line");
        let mut name = match cmd.as_str() {
            "--help" | "-h" => "help".to_string(),
            "cluster-scrub" => "cluster scrub".to_string(),
            _ => cmd.clone(),
        };
        if cmd == "remote" || cmd == "cluster" {
            let Some((sub, tail)) = rest.split_first() else {
                return Err(Fail::Usage(format!("{cmd} needs an operation")));
            };
            name = format!("{cmd} {sub}");
            rest = tail;
        }
        let Some(&(cmd_name, decl)) = COMMANDS.iter().find(|(n, _)| *n == name) else {
            let Some((_, sub)) = name.split_once(' ') else {
                return Err(format!("unknown command '{cmd}'").into());
            };
            let ops: Vec<&str> = COMMANDS
                .iter()
                .filter_map(|(n, _)| n.strip_prefix(&format!("{cmd} ")))
                .collect();
            return Err(format!("unknown {cmd} operation '{sub}' ({})", ops.join(" ")).into());
        };
        let options = || decl.iter().flat_map(|group| group.split_whitespace());
        // (canonical name, is a flag) of an option spelling.
        let lookup = |spelling: &str| {
            let o =
                options().find(|o| o.trim_end_matches('!').split('|').any(|s| s == spelling))?;
            Some((o.trim_end_matches('!').split('|').next()?, o.ends_with('!')))
        };
        let mut values = HashMap::new();
        if let Some(first) = rest.first().filter(|a| !a.starts_with('-')) {
            if let Some((key, false)) = lookup("k").or(lookup("i")) {
                values.insert(key, first.clone());
                rest = &rest[1..];
            }
        }
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') {
                return Err(Fail::Usage(format!("unexpected positional argument '{a}'")));
            }
            let key = a.trim_start_matches('-');
            let (canonical, flag) = lookup(key).ok_or_else(|| {
                let names = options().flat_map(|o| o.trim_end_matches('!').split('|'));
                let known: Vec<String> = names.map(spelled).collect();
                Fail::Usage(format!(
                    "{cmd_name} does not take '{a}' (it takes: {})",
                    known.join(" ")
                ))
            })?;
            let value = if flag {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| Fail::Usage(format!("option -{key} needs a value")))?
                    .clone()
            };
            values.insert(canonical, value);
        }
        Ok(Opts {
            cmd: cmd_name,
            values,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option -{key}"))
    }

    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// `key`'s value through `parse`, if given; a value `parse` refuses
    /// is an error naming the option.
    fn parse<T, E: Display>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, Fail> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        Ok(Some(
            parse(v).map_err(|e| format!("bad {} '{v}': {e}", spelled(key)))?,
        ))
    }

    /// Overwrites `place` with `key`'s value, if given.
    fn set<T: FromStr>(&self, key: &str, place: &mut T) -> Result<(), Fail>
    where
        T::Err: Display,
    {
        if let Some(v) = self.parse(key, str::parse)? {
            *place = v;
        }
        Ok(())
    }

    /// `key`'s value among named `choices`; the first is the default.
    fn pick<T: Copy>(&self, key: &str, choices: &[(&str, T)]) -> Result<T, Fail> {
        let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
        let found = |v: &str| {
            choices
                .iter()
                .find(|(n, _)| *n == v)
                .map(|&(_, t)| t)
                .ok_or_else(|| format!("expected {}", names.join("|")))
        };
        Ok(self.parse(key, found)?.unwrap_or(choices[0].1))
    }

    /// The primary input (`-i`, or the first argument) and its bytes.
    fn read_input(&self) -> Result<(&str, Vec<u8>), Fail> {
        let input = self.require("i")?;
        let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
        Ok((input, bytes))
    }
}

/// An option name as typed: `-x` or `--name`.
fn spelled(name: &str) -> String {
    let dashes = if name.len() == 1 { "-" } else { "--" };
    format!("{dashes}{name}")
}

fn parse_dims(spec: &str) -> Result<Dims, String> {
    let parts: Result<Vec<usize>, _> = spec.split(['x', 'X']).map(str::parse).collect();
    let parts = parts.map_err(|e| format!("bad dims '{spec}': {e}"))?;
    match parts.as_slice() {
        [n] => Ok(Dims::D1(*n)),
        [ny, nx] => Ok(Dims::D2 { ny: *ny, nx: *nx }),
        [nz, ny, nx] => Ok(Dims::D3 {
            nz: *nz,
            ny: *ny,
            nx: *nx,
        }),
        _ => Err(format!("dims must have 1-3 axes, got {}", parts.len())),
    }
}

fn parse_config(opts: &Opts) -> Result<Config, Fail> {
    let eb = opts.parse("e", str::parse)?.unwrap_or(1e-4);
    let bound = opts.pick(
        "m",
        &[
            ("rel", ErrorBound::Relative as fn(f64) -> ErrorBound),
            ("abs", ErrorBound::Absolute),
        ],
    )?;
    let workflow = opts.pick(
        "w",
        &[
            ("auto", WorkflowMode::Auto),
            ("huffman", WorkflowMode::Force(WorkflowChoice::Huffman)),
            ("rle", WorkflowMode::Force(WorkflowChoice::Rle)),
            ("rle+vle", WorkflowMode::Force(WorkflowChoice::RleVle)),
        ],
    )?;
    let interp = PredictorMode::Force(Predictor::Interpolation);
    let predictor = opts.pick(
        "p",
        &[
            ("lorenzo", PredictorMode::Force(Predictor::Lorenzo)),
            ("interp", interp),
            ("interpolation", interp),
            ("auto", PredictorMode::Auto),
        ],
    )?;
    Ok(Config {
        error_bound: bound(eb),
        workflow,
        predictor,
        lossless: match opts.has("lossless") {
            true => LosslessMode::Auto,
            false => LosslessMode::Off,
        },
        ..Config::default()
    })
}

fn read_raw<T: Element>(path: &str) -> Result<Vec<T>, String> {
    cuszp::read_raw(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(bytes))
        .map_err(|e| format!("{path}: {e}"))
}

/// `compress` and `remote compress` of a raw raster of `T`. Here, the
/// chunked (v2) container when `--threads` or `--parity` asks for it, v1
/// otherwise. The server compresses through its per-worker engine with
/// the same chunked plan as a local `compress --threads`, so the archive
/// bytes it returns are identical.
fn cmd_compress<T: Element>(opts: &Opts) -> Result<(), Fail> {
    let output = opts.require("o")?;
    let dims = parse_dims(opts.require("d")?)?;
    let config = parse_config(opts)?;
    let parity = opts.parse("parity", ParityConfig::parse)?;
    if opts.cmd == "remote compress" {
        let chunk_target = opts.parse("chunk", str::parse)?.unwrap_or(0);
        let (input, data) = opts.read_input()?;
        if data.len() != dims.len() * T::BYTES {
            return Err(format!(
                "{input} holds {} bytes, dims say {} x {} bytes",
                data.len(),
                dims.len(),
                T::BYTES
            )
            .into());
        }
        let req = CompressRequest {
            dims,
            dtype: T::DTYPE,
            error_bound: config.error_bound,
            workflow: config.workflow,
            predictor: config.predictor,
            lossless: config.lossless,
            chunk_target,
            parity,
            data: &data,
        };
        let t0 = Instant::now();
        let archive = remote(opts, |c| c.compress(&req))?;
        write_bytes(output, &archive)?;
        eprintln!(
            "remote: wrote {} bytes to {output} in {:.2}s (ratio {:.2}x)",
            archive.len(),
            t0.elapsed().as_secs_f64(),
            data.len() as f64 / archive.len().max(1) as f64
        );
        return Ok(());
    }
    let compressor = Compressor::new(config);
    let threads = opts.parse("threads", str::parse)?;

    let t0 = Instant::now();
    let data = read_raw::<T>(opts.require("i")?)?;
    // Parity stripes live in the chunked (v2) container, so --parity
    // selects it even without --threads.
    let bytes = if threads.is_some() || parity.is_some() {
        // Chunk-parallel engine: multi-chunk (v2) archive, byte-identical
        // for any worker count.
        let pool = match threads {
            Some(n) => WorkerPool::new(n),
            None => WorkerPool::with_default_workers(),
        };
        let target = cuszp::parallel::DEFAULT_CHUNK_ELEMS;
        let (mut arc, stats) =
            compressor.compress_chunked_with_stats(&data, dims, target, &pool)?;
        if let Some(cfg) = parity {
            arc.add_parity(cfg, &pool);
        }
        eprintln!(
            "chunked: {} chunks, {} workers{}",
            arc.n_chunks(),
            pool.workers(),
            match &arc.parity {
                Some(p) => format!(
                    ", parity {}/{} ({} stripes)",
                    p.parity_shards, p.data_shards, p.n_stripes
                ),
                None => String::new(),
            }
        );
        if opts.has("stats") {
            eprintln!("{stats}");
        }
        arc.to_bytes()
    } else {
        let (archive, stats) = compressor.compress_with_stats(&data, dims)?;
        eprintln!("{stats}");
        archive.to_bytes()
    };
    write_bytes(output, &bytes)?;
    let original_bytes = data.len() * T::BYTES;
    eprintln!(
        "wrote {} bytes to {output} in {:.2}s ({:.1} MB/s, ratio {:.2}x)",
        bytes.len(),
        t0.elapsed().as_secs_f64(),
        original_bytes as f64 / 1e6 / t0.elapsed().as_secs_f64(),
        original_bytes as f64 / bytes.len().max(1) as f64
    );
    Ok(())
}

/// A decoded field (or sub-volume) as raw little-endian bytes, and the
/// per-chunk reports of a fault-isolated decode (empty for a strict one).
struct Raster {
    data: Vec<u8>,
    dims: Dims,
    dtype: Dtype,
    reports: Vec<ChunkReport>,
}

/// Decodes `bytes` (or the sub-volume `range`) in the archive's own
/// element type: strict without `fill`, fault-isolated with it.
fn decode_raster(
    bytes: &[u8],
    range: Option<&RangeSpec>,
    fill: Option<FillPolicy>,
) -> Result<Raster, CuszpError> {
    fn run<T: Element>(decode: Decode<'_>, fill: Option<FillPolicy>) -> Result<Raster, CuszpError> {
        let (data, dims, reports) = match fill {
            Some(fill) => decode
                .resilient::<T>(fill)
                .map(|rf| (rf.data, rf.dims, rf.reports))?,
            None => decode
                .strict::<T>()
                .map(|(data, dims)| (data, dims, Vec::new()))?,
        };
        Ok(Raster {
            data: scalars_to_le(&data),
            dims,
            dtype: T::DTYPE,
            reports,
        })
    }
    let decode = Decode::new(bytes);
    let decode = range.map_or(decode, |spec| decode.range(spec));
    match stored_dtype(bytes)? {
        Dtype::F32 => run::<f32>(decode, fill),
        Dtype::F64 => run::<f64>(decode, fill),
    }
}

/// Writes a decoded raster to `output`, lists the chunks whose data is
/// lost, then prints the command's summary, which `summary` formats from
/// the chunks read back, of how many, and how many healed from parity.
fn write_raster(
    output: &str,
    raster: &Raster,
    summary: impl FnOnce(usize, usize, usize) -> String,
) -> Result<(), Fail> {
    write_bytes(output, &raster.data)?;
    let mut ok = raster.reports.len();
    for r in raster.reports.iter().filter(|r| !r.status.is_recovered()) {
        eprintln!(
            "  chunk {}: {} (elements {}..{})",
            r.index, r.status, r.elem_range.start, r.elem_range.end
        );
        ok -= 1;
    }
    let healed = raster
        .reports
        .iter()
        .filter(|r| matches!(r.status, ChunkStatus::Repaired { .. }))
        .count();
    eprintln!("{}", summary(ok, raster.reports.len(), healed));
    Ok(())
}

/// `" ({n} {what})"`, or nothing when `n` is 0.
fn note(n: usize, what: &str) -> String {
    if n == 0 {
        String::new()
    } else {
        format!(" ({n} {what})")
    }
}

/// `decompress`, `extract`, `remote decompress` and `remote get-range`:
/// decode the archive (or only the chunks a `--range` touches) here or on
/// the server. Strict by default, checked against the `--verify` original
/// when one is given; with `--recover`, fault-isolated: the strict
/// metadata parse is skipped on purpose — the archive may be damaged —
/// and the element type comes from the fixed header alone.
fn cmd_decode(opts: &Opts) -> Result<(), Fail> {
    let served = opts.cmd.starts_with("remote");
    let output = opts.require("o")?;
    let spec = match opts.cmd {
        "extract" | "remote get-range" => Some(RangeSpec::parse(opts.require("range")?)?),
        _ => None,
    };
    let (input, bytes) = opts.read_input()?;
    if let Some(n) = opts.parse("threads", str::parse)? {
        // Pool width for chunk fan-out (v1 archives reconstruct whole).
        cuszp::parallel::set_workers(n);
    }
    let fill = match opts.has("recover") {
        true => Some(opts.pick(
            "fill",
            &[("nan", FillPolicy::Nan), ("zero", FillPolicy::Zero)],
        )?),
        false => None,
    };
    let verify = opts.get("verify");
    if fill.is_some() && verify.is_some() {
        return Err(
            "--verify cannot be combined with --recover (damaged slabs hold fill values)".into(),
        );
    }
    let t0 = Instant::now();
    let raster = if served {
        let mode = fill.map_or(DecompressMode::Strict, DecompressMode::Recover);
        let resp = remote(opts, |c| match &spec {
            Some(spec) => c.get_range(&bytes, spec, mode),
            None => c.decompress(&bytes, mode),
        })?;
        Raster {
            data: resp.data,
            dims: resp.dims,
            dtype: resp.dtype,
            reports: resp.report.map_or(Vec::new(), |r| r.reports),
        }
    } else {
        decode_raster(&bytes, spec.as_ref(), fill).map_err(|e| match (&spec, fill) {
            (None, None) => e.to_string(),
            (None, Some(_)) => format!("{input}: unrecoverable: {e}"),
            (Some(_), _) => format!("{input}: {e}"),
        })?
    };
    if let Some(original) = verify {
        verify_raster(&bytes, &raster, original)?;
    }
    write_raster(output, &raster, |ok, total, healed| {
        let (dtype, dims, n) = (raster.dtype.name(), raster.dims, raster.data.len());
        let secs = t0.elapsed().as_secs_f64();
        // What the server reports of a --recover read precedes its summary.
        let served_tally = |tally: String| match fill {
            Some(_) => format!("remote: {tally}{}\n", note(healed, "healed from parity")),
            None => String::new(),
        };
        match (served, &spec, fill) {
            (false, None, None) => format!("wrote {n} bytes to {output} in {secs:.2}s"),
            (false, None, Some(_)) => format!(
                "recovered {ok}/{total} chunks to {output} in {secs:.2}s{}{}",
                note(healed, "chunk(s) healed from parity"),
                note(total - ok, "damaged slab(s) filled")
            ),
            (false, Some(spec), _) => format!(
                "extracted {spec} -> {output} ({dims:?}, {n} bytes{}) in {secs:.2}s",
                fill.map_or(String::new(), |_| format!(", {ok}/{total} in-range chunks ok"))
            ),
            (true, None, _) => format!(
                "{}remote: wrote {n} bytes ({dtype}, {dims:?}) to {output} in {secs:.2}s",
                served_tally(format!("recovered {ok}/{total} chunks"))
            ),
            (true, Some(spec), _) => format!(
                "{}remote: extracted {spec} -> {output} ({dtype}, {dims:?}, {n} bytes) in {secs:.2}s",
                served_tally(format!("{ok}/{total} in-range chunks ok"))
            ),
        }
    })
}

/// `--verify`: every value of `raster` lies within the archive's error
/// bound of the `original` raw file.
fn verify_raster(archive: &[u8], raster: &Raster, original: &str) -> Result<(), Fail> {
    let eb = ChunkedArchive::from_bytes(archive)?.eb;
    let checked = match raster.dtype {
        Dtype::F32 => verify_error_bound(
            &read_raw::<f32>(original)?,
            &scalars_from_le(&raster.data)?,
            eb,
        )
        .map(drop),
        Dtype::F64 => verify_error_bound_f64(
            &read_raw::<f64>(original)?,
            &scalars_from_le(&raster.data)?,
            eb,
        ),
    };
    checked.map_err(|(i, e)| format!("bound violated at {i}: {e} > {eb}"))?;
    eprintln!("verified against {original}: max|err| <= {eb}");
    Ok(())
}

/// `fsck`: validates and decodes every chunk independently (repairing
/// damaged shards from parity first), prints a per-chunk and per-stripe
/// report, and exits 0 (clean), 1 (damage fully covered by parity — with
/// `--repair`, healed in place), or 2 (data loss).
fn cmd_fsck(opts: &Opts) -> Result<ExitCode, Fail> {
    let (input, bytes) = opts.read_input()?;
    let json = opts.has("json");

    // An unusable container header means nothing is recoverable: that is
    // data loss, not a usage error.
    let scanned = if opts.has("repair") {
        cuszp::repair(&bytes)
    } else {
        cuszp::scan(&bytes).map(|report| cuszp::RepairOutcome {
            bytes: Vec::new(),
            report,
            modified: false,
        })
    };
    let outcome = match scanned {
        Ok(o) => o,
        Err(e) => return unreadable(opts, "archive", input, e),
    };
    let report = &outcome.report;
    let mut code = report.exit_code();
    let rewritten = if opts.has("repair") {
        let do_write = code != 2 && outcome.modified;
        if do_write {
            write_atomic(input, &outcome.bytes)?;
            // The file on disk is whole again.
            code = 0;
        }
        Some(do_write)
    } else {
        None
    };

    if json {
        say!("{}", fsck_json(input, report, code, rewritten))?;
    } else {
        print_scan_report(input, "", report, code, rewritten)?;
    }
    Ok(ExitCode::from(code))
}

/// An `fsck` / `store-fsck` target that cannot be scanned at all: data
/// loss (exit 2), reported as `{"<what>":..,"error":..,"exit_code":2}`
/// under `--json`.
fn unreadable(opts: &Opts, what: &str, path: &str, e: impl Display) -> Result<ExitCode, Fail> {
    if opts.has("json") {
        say!(
            "{{\"{what}\":\"{}\",\"error\":\"{}\",\"exit_code\":2}}",
            json_escape(path),
            json_escape(&e.to_string())
        )?;
    } else {
        eprintln!("error: {path}: {e}");
    }
    Ok(ExitCode::from(2))
}

/// The report `fsck` and `remote scan` print: header facts, one line per
/// chunk (status, location, codec plan), the parity-stripe summary and
/// the verdict for `code`. `origin` qualifies the first line.
fn print_scan_report(
    input: &str,
    origin: &str,
    report: &ScanReport,
    code: u8,
    rewritten: Option<bool>,
) -> std::io::Result<()> {
    say!("archive: {input} ({}{origin})", report.format)?;
    if let Some(dims) = report.dims {
        say!("  dims:   {dims:?} ({} elements)", dims.len())?;
    }
    if let Some(dtype) = report.dtype {
        say!("  dtype:  {}", dtype.name())?;
    }
    say!("  chunks: {} declared", report.declared_chunks)?;
    for r in &report.reports {
        let loc = match &r.byte_range {
            Some(range) => format!("bytes {}..{}", range.start, range.end),
            None => "unlocatable".to_string(),
        };
        let plan = r
            .plan
            .map_or(String::new(), |p| format!(", plan {}", p.label()));
        say!(
            "    [{}] {}  ({loc}, elements {}..{}{plan})",
            r.index,
            r.status,
            r.elem_range.start,
            r.elem_range.end
        )?;
    }
    if let Some(p) = &report.parity {
        say!(
            "  parity: {}/{} (shard {} B, {} stripes): {} repaired, {} unrepairable",
            p.parity_shards,
            p.data_shards,
            p.shard_size,
            p.n_stripes,
            p.n_repaired(),
            p.n_unrepairable()
        )?;
    }
    match (code, rewritten) {
        (2, _) => say!(
            "  data loss: {} of {} chunk(s) unrecoverable",
            report.n_damaged(),
            report.reports.len()
        ),
        (_, Some(true)) => say!("  repaired: {input} rewritten, archive is whole again"),
        (1, _) => {
            say!("  repairable: damage is covered by parity; run `cuszp fsck {input} --repair`")
        }
        _ => say!(
            "  clean: all {} chunk(s) validated and decoded",
            report.reports.len()
        ),
    }
}

/// Writes via a temp file in the same directory plus rename, so a crash
/// mid-repair never leaves a half-written archive where a good (if
/// damaged) one used to be.
fn write_atomic(path: &str, bytes: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.repair.{}", std::process::id());
    write_bytes(&tmp, bytes)?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("{path}: {e}")
    })
}

/// The whole fsck report as one JSON object. The report body renders
/// through [`ScanReport::to_json_fields`], the same code path as
/// `remote scan --json`, so the formats cannot drift.
/// `repaired_file` is null without `--repair`, else whether the archive
/// was rewritten.
fn fsck_json(input: &str, report: &ScanReport, code: u8, repaired_file: Option<bool>) -> String {
    format!(
        "{{\"archive\":\"{}\",{},\"repaired_file\":{},\"exit_code\":{}}}",
        json_escape(input),
        report.to_json_fields(),
        repaired_file.map_or("null".to_string(), |b| b.to_string()),
        code
    )
}

fn cmd_info(opts: &Opts) -> Result<(), Fail> {
    let (input, bytes) = opts.read_input()?;
    let arc = ChunkedArchive::from_bytes(&bytes)?;
    // A v1 archive opens as a container of one chunk, and prints as the
    // bare chunk it is: no chunk list, no parity line.
    let container = (arc.format() == "csz2").then_some(&arc);
    let (chunks, dtype, dims, eb) = (&arc.chunks[..], arc.dtype, arc.dims, arc.eb);
    let n = dims.len();
    let (kind, scope) = match container {
        Some(_) => (" (chunked v2)", ", global"),
        None => ("", ""),
    };
    say!("archive: {input}{kind}")?;
    say!("  dtype:        {}", dtype.name())?;
    say!("  dims:         {dims:?} ({n} elements)")?;
    say!("  error bound:  {eb:.6e} (absolute{scope})")?;
    match container {
        Some(arc) => {
            say!(
                "  chunks:       {} (target {} elems)",
                arc.n_chunks(),
                arc.chunk_target
            )?;
            for (i, ch) in chunks.iter().enumerate() {
                say!(
                    "    [{i}] {:?}  plan {}  {} outliers  {} bytes",
                    ch.dims,
                    ch.plan().label(),
                    ch.outliers.len(),
                    ch.serialized_bytes()
                )?;
            }
            let mix: Vec<String> = [
                WorkflowChoice::Huffman,
                WorkflowChoice::Rle,
                WorkflowChoice::RleVle,
            ]
            .into_iter()
            .filter_map(|c| {
                let count = chunks.iter().filter(|ch| ch.payload.choice() == c).count();
                (count > 0).then(|| format!("{} x{count}", c.name()))
            })
            .collect();
            say!("  workflow mix: {}", mix.join(", "))?;
            let plan_mix: Vec<String> = CodecPlan::mix(chunks.iter().map(Archive::plan))
                .into_iter()
                .map(|(label, n)| format!("{label} x{n}"))
                .collect();
            say!("  plan mix:     {}", plan_mix.join(", "))?;
        }
        None => {
            let ch = &chunks[0];
            say!("  quant cap:    {}", ch.cap)?;
            say!("  predictor:    {}", ch.predictor.name())?;
            say!("  workflow:     {}", ch.payload.choice().name())?;
            say!("  plan:         {}", ch.plan().label())?;
        }
    }
    let outliers: usize = chunks.iter().map(|ch| ch.outliers.len()).sum();
    say!(
        "  outliers:     {outliers} ({:.3}%)",
        100.0 * outliers as f64 / n.max(1) as f64
    )?;
    if let Some(arc) = container {
        match &arc.parity {
            Some(p) => {
                let section = p.serialized_bytes();
                say!(
                    "  parity:       {}/{} (shard {} B, {} stripes, {} bytes = {:.2}% overhead)",
                    p.parity_shards,
                    p.data_shards,
                    p.shard_size,
                    p.n_stripes,
                    section,
                    100.0 * section as f64 / bytes.len().max(1) as f64
                )?;
            }
            None => say!("  parity:       none")?,
        }
    }
    say!("  stored size:  {} bytes", bytes.len())?;
    say!(
        "  ratio:        {:.2}x",
        (n * dtype.bytes()) as f64 / bytes.len().max(1) as f64
    )?;
    Ok(())
}

fn analyze_raw<T: Element>(opts: &Opts) -> Result<(), Fail> {
    let input = opts.require("i")?;
    let dims = parse_dims(opts.require("d")?)?;
    let bound = parse_config(opts)?.error_bound;
    let data = read_raw::<T>(input)?;
    if data.len() != dims.len() {
        return Err(format!(
            "{input} has {} elements, dims say {}",
            data.len(),
            dims.len()
        )
        .into());
    }
    let eb = bound.absolute(&data);
    let qf = cuszp::predictor::construct(&data, dims, eb, cuszp::predictor::DEFAULT_CAP);
    let report = analyze(&qf.codes, qf.cap());
    say!("field: {input} {dims:?}, abs eb {eb:.6e}")?;
    say!("  outliers:      {:.3}%", qf.outlier_fraction() * 100.0)?;
    say!("  p1:            {:.4}", report.p1)?;
    say!("  entropy:       {:.3} bits/symbol", report.entropy)?;
    say!(
        "  <b> bracket:   [{:.3}, {:.3}] bits",
        report.b_lower,
        report.b_upper
    )?;
    say!("  roughness(1):  {:.4}", report.roughness)?;
    say!("  est CR (VLE):  {:.1}x", report.est_cr_huffman)?;
    say!("  est CR (RLE):  {:.1}x", report.est_cr_rle)?;
    say!("  recommended:   {}", report.choice.name())?;
    Ok(())
}

fn cmd_gen(opts: &Opts) -> Result<(), Fail> {
    let output = opts.require("o")?;
    // A dataset by its name, or by the part before a '-' (`cesm`).
    let wanted = opts.require("dataset")?.to_ascii_lowercase();
    let dataset = DatasetKind::ALL
        .into_iter()
        .find(|d| {
            let name = d.name().to_ascii_lowercase();
            name == wanted || name.split('-').next() == Some(&wanted)
        })
        .ok_or_else(|| format!("unknown dataset '{wanted}'"))?;
    let field_name = opts.require("field")?;
    let scale = opts.pick("scale", &[("small", Scale::Small), ("tiny", Scale::Tiny)])?;
    let spec = dataset_fields(dataset)
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(field_name))
        .ok_or_else(|| {
            let names: Vec<&str> = dataset_fields(dataset).iter().map(|s| s.name).collect();
            format!(
                "no field '{field_name}' in {}; available: {}",
                dataset.name(),
                names.join(", ")
            )
        })?;
    let field = generate(&spec, scale);
    let rank = field.dims.rank();
    let axes: Vec<String> = field.dims.extents()[3 - rank..]
        .iter()
        .map(usize::to_string)
        .collect();
    cuszp::write_raw(Path::new(output), &field.data).map_err(|e| format!("{output}: {e}"))?;
    eprintln!(
        "generated {}/{} {:?} -> {output} ({} bytes); compress with: cuszp compress -i {output} -o {output}.csz -d {}",
        dataset.name(),
        spec.name,
        field.dims,
        field.bytes(),
        axes.join("x")
    );
    Ok(())
}

/// `store-fsck <data-dir>`: offline, read-only scan of a durable shard
/// store's segment files, sharing the store crate's recovery scanner so
/// it can never disagree with what a node boot would accept. Exit codes
/// follow the fsck taxonomy: 0 clean, 1 damage found but repairable
/// (torn tails truncate at the next boot; dropped shards re-replicate
/// via `cluster-scrub`), 2 the directory itself is unreadable.
fn cmd_store_fsck(opts: &Opts) -> Result<ExitCode, Fail> {
    let dir = opts
        .get("i")
        .ok_or("store-fsck needs a data directory argument")?;
    let json = opts.has("json");
    let report = match cuszp::store::scan_dir(Path::new(dir)) {
        Ok(r) => r,
        Err(e) => return unreadable(opts, "data_dir", dir, e),
    };
    let code = report.exit_code();
    if json {
        let segments: Vec<String> = report
            .segments
            .iter()
            .map(|seg| {
                let records: Vec<String> = seg
                    .records
                    .iter()
                    .map(|r| {
                        let key = r.key.as_ref().map_or(String::new(), |(key, idx)| {
                            let len = r.payload_len;
                            format!(
                                ",\"key\":\"{}\",\"shard_idx\":{idx},\"len\":{len}",
                                json_escape(key)
                            )
                        });
                        let (status, detail) = match &r.status {
                            RecordStatus::Damaged(fault) => {
                                let detail = json_escape(&fault.to_string());
                                ("damaged".to_string(), format!(",\"detail\":\"{detail}\""))
                            }
                            status => (status.to_string(), String::new()),
                        };
                        format!(
                            "{{\"offset\":{},\"status\":\"{status}\"{key}{detail}}}",
                            r.offset
                        )
                    })
                    .collect();
                format!(
                    "{{\"seq\":{},\"bytes\":{},\"records\":[{}]}}",
                    seg.seq,
                    seg.bytes,
                    records.join(",")
                )
            })
            .collect();
        say!(
            "{{\"data_dir\":\"{}\",\"segments\":[{}],\"live\":{},\"superseded\":{},\"tombstones\":{},\"damaged\":{},\"exit_code\":{code}}}",
            json_escape(dir),
            segments.join(","),
            report.live_shards,
            report.superseded,
            report.tombstones,
            report.damaged
        )?;
        return Ok(ExitCode::from(code as u8));
    }
    say!("store: {dir} ({} segment(s))", report.segments.len())?;
    for fault in &report.dir_faults {
        say!("  DIRECTORY: {fault}")?;
    }
    for seg in &report.segments {
        say!("  seg-{:08}.czl  {} bytes", seg.seq, seg.bytes)?;
        for r in &seg.records {
            match &r.key {
                Some((key, idx)) => say!(
                    "    @{:<10} {}  '{key}' shard {idx} ({} bytes)",
                    r.offset,
                    r.status,
                    r.payload_len
                )?,
                None => say!("    @{:<10} {}", r.offset, r.status)?,
            }
        }
    }
    say!(
        "  {} live, {} superseded, {} tombstone(s), {} damaged",
        report.live_shards,
        report.superseded,
        report.tombstones,
        report.damaged
    )?;
    if code == 0 {
        say!("  clean")?;
    } else {
        say!(
            "  repairable: a node restart truncates torn tails; `cuszp cluster-scrub` \
             re-replicates dropped shards"
        )?;
    }
    Ok(ExitCode::from(code as u8))
}

// ---------------------------------------------------------------------
// The compression service: `serve`, `chaos-proxy`, `cluster <op>` and
// `remote <op>`.

const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// `serve`: run the compression service until a `remote shutdown` (or a
/// signal kills the process). Prints the bound address on stdout first,
/// so scripts binding port 0 can discover the ephemeral port.
fn cmd_serve(opts: &Opts) -> Result<(), Fail> {
    let addr = opts.get("a").unwrap_or(DEFAULT_ADDR);
    let mut config = ServerConfig::default();
    opts.set("workers", &mut config.workers)?;
    opts.set("queue", &mut config.queue_capacity)?;
    opts.set("cache-bytes", &mut config.cache_bytes)?;
    // Cluster mode: `--node-id` + `--ring` turn this instance into one
    // member of an erasure-coded placement ring (CSRP v3 shard ops).
    if opts.has("data-dir") && !(opts.has("node-id") && opts.has("ring")) {
        return Err("--data-dir needs cluster mode (--node-id and --ring)".into());
    }
    let epoch = opts.parse("ring-epoch", str::parse)?.unwrap_or(1);
    let (m, k) = opts
        .parse("ring-parity", ParityConfig::parse)?
        .map_or((1, 2), |p| (p.parity_shards, p.data_shards));
    let ring = opts.parse("ring", |spec| Ring::parse_spec(spec, epoch, k, m))?;
    let cluster = match (opts.parse("node-id", str::parse)?, ring) {
        (None, None) => None,
        (Some(node_id), Some(ring)) => {
            // Shard persistence: `--data-dir` switches the node from the
            // in-memory store (empty after restart, healed by scrub) to
            // the durable log-structured store.
            let backend = match opts.get("data-dir") {
                Some(dir) => {
                    let mut store_config = StoreConfig::new(dir);
                    store_config.fsync = opts
                        .parse("fsync", FsyncPolicy::parse)?
                        .unwrap_or(store_config.fsync);
                    opts.set("compact-at", &mut store_config.compact_at)?;
                    StoreBackendConfig::Durable(store_config)
                }
                None => {
                    if opts.has("fsync") || opts.has("compact-at") {
                        return Err("--fsync / --compact-at need --data-dir (durable store)".into());
                    }
                    StoreBackendConfig::Memory
                }
            };
            Some(ClusterConfig {
                node_id,
                ring,
                backend,
            })
        }
        _ => return Err("cluster mode needs both --node-id and --ring".into()),
    };
    let workers = config.workers;
    let queue_capacity = config.queue_capacity;
    let cluster_banner = cluster.as_ref().map(|c| {
        let store_desc = match &c.backend {
            StoreBackendConfig::Memory => "memory shard store".to_string(),
            StoreBackendConfig::Durable(sc) => format!(
                "durable shard store at {} (fsync {}, compact at {} bytes)",
                sc.dir.display(),
                sc.fsync,
                sc.compact_at
            ),
        };
        format!(
            "node {} of {} (epoch {}, {}+{} shards per stripe), {store_desc}",
            c.node_id,
            c.ring.nodes().len(),
            c.ring.epoch,
            c.ring.data_shards,
            c.ring.parity_shards
        )
    });
    let server = Server::bind_cluster(addr, config, cluster).map_err(|e| format!("{addr}: {e}"))?;
    let recovery_banner = server.handle().store_recovery_summary();
    let bound = server.local_addr()?;
    say!("cuszp-server listening on {bound}")?;
    eprintln!(
        "  {} workers (one pipeline engine each), queue capacity {}; stop with: cuszp remote shutdown -s {bound}",
        workers, queue_capacity
    );
    if let Some(banner) = cluster_banner {
        eprintln!("  cluster: {banner}");
    }
    if let Some(recovery) = recovery_banner {
        eprintln!("  recovery: {recovery}");
    }
    server.serve()?;
    eprintln!("cuszp-server: drained, bye");
    Ok(())
}

/// `chaos-proxy`: run a seeded fault-injection relay in front of
/// `--upstream` until the process is killed. Prints the bound address on
/// stdout first (same shape as `serve`) so scripts binding port 0 can
/// discover the ephemeral port; injection counters go to stderr
/// periodically.
fn cmd_chaos_proxy(opts: &Opts) -> Result<(), Fail> {
    let upstream = resolve_addr(
        opts.get("upstream")
            .ok_or("chaos-proxy needs --upstream <addr>")?,
    )?;
    let listen = resolve_addr(opts.get("a").unwrap_or("127.0.0.1:0"))?;
    let seed = opts.parse("seed", str::parse)?.unwrap_or(1);
    let mut policy = opts.pick(
        "profile",
        &[
            ("clean", ChaosPolicy::clean as fn() -> _),
            ("mixed", ChaosPolicy::mixed),
        ],
    )?();
    opts.set("refuse", &mut policy.refuse_per_mille)?;
    opts.set("cut-request", &mut policy.cut_request_per_mille)?;
    opts.set("cut-response", &mut policy.cut_response_per_mille)?;
    if let Some(flip) = opts.parse("flip", str::parse)? {
        policy.flip_request_per_mille = flip;
        policy.flip_response_per_mille = flip;
    }
    opts.set("stall", &mut policy.stall_per_mille)?;
    opts.set("stall-max-ms", &mut policy.stall_max_ms)?;
    opts.set("chop", &mut policy.chop_per_mille)?;
    opts.set("chop-piece", &mut policy.chop_piece)?;
    opts.set("redraw-bytes", &mut policy.redraw_bytes)?;
    // A zero stall ceiling, chop piece or redraw epoch is read as 1.
    policy.stall_max_ms = policy.stall_max_ms.max(1);
    policy.chop_piece = policy.chop_piece.max(1);
    policy.redraw_bytes = policy.redraw_bytes.max(1);
    // Node-death profile: after this many relayed bytes the proxied
    // node dies (in-flight relays sever, later connections refused).
    opts.set("kill-after-bytes", &mut policy.kill_after_bytes)?;
    let proxy =
        ChaosProxy::bind(listen, upstream, policy, seed).map_err(|e| format!("{listen}: {e}"))?;
    say!("chaos-proxy listening on {}", proxy.local_addr())?;
    eprintln!("  relaying to {upstream}, seed {seed}; stop by killing the process");
    let mut last_report = (0u64, 0u64);
    loop {
        std::thread::sleep(Duration::from_secs(10));
        let s = proxy.stats();
        let now = (
            s.connections.load(std::sync::atomic::Ordering::Relaxed),
            s.faults_fired(),
        );
        if now != last_report {
            last_report = now;
            eprintln!(
                "  chaos: {} connection(s) ({} refused), {} request / {} response cut(s), {} bit flip(s), {} stall(s), {} chopped epoch(s)",
                now.0,
                s.refused.load(std::sync::atomic::Ordering::Relaxed),
                s.requests_cut.load(std::sync::atomic::Ordering::Relaxed),
                s.responses_cut.load(std::sync::atomic::Ordering::Relaxed),
                s.bits_flipped.load(std::sync::atomic::Ordering::Relaxed),
                s.stalls.load(std::sync::atomic::Ordering::Relaxed),
                s.chopped.load(std::sync::atomic::Ordering::Relaxed),
            );
        }
    }
}

fn resolve_addr(spec: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    spec.to_socket_addrs()
        .map_err(|e| format!("{spec}: {e}"))?
        .next()
        .ok_or_else(|| format!("{spec}: resolved to no address"))
}

/// One `remote <op>` call. The retrying client talks to `-s`; without
/// `--retries` its policy is single-attempt (`RetryPolicy::no_retry`), so
/// failures surface immediately; `--retries N` allows N extra attempts
/// with the default backoff schedule. `--deadline-ms` and
/// `--connect-timeout-ms` bound each call either way. After the call, the
/// client's resilience counters go to stderr, but only when something
/// nontrivial happened, so the clean fast path stays quiet.
fn remote<T, E: Display>(
    opts: &Opts,
    call: impl FnOnce(&mut RetryingClient) -> Result<T, E>,
) -> Result<T, Fail> {
    let mut policy = RetryPolicy::no_retry();
    if let Some(extra) = opts.parse("retries", str::parse::<u32>)? {
        policy.max_attempts = extra.saturating_add(1);
    }
    let ms = |key| opts.parse(key, |v: &str| v.parse().map(Duration::from_millis));
    policy.deadline = ms("deadline-ms")?.unwrap_or(policy.deadline);
    policy.connect_timeout = ms("connect-timeout-ms")?.unwrap_or(policy.connect_timeout);
    opts.set("retry-seed", &mut policy.seed)?;
    let mut client = RetryingClient::new(opts.get("s").unwrap_or(DEFAULT_ADDR), policy);
    let result = call(&mut client);
    let s = client.stats();
    let noteworthy = s.retries.get() + s.reconnects.get() + s.hints_honored.get();
    if noteworthy > 0 || s.deadline_exceeded.get() > 0 {
        eprintln!(
            "remote: {} attempt(s) for {} call(s): {} retried, {} reconnect(s), {} backoff hint(s) honored, {} deadline exceeded",
            s.attempts.get(),
            s.calls.get(),
            s.retries.get(),
            s.reconnects.get(),
            s.hints_honored.get(),
            s.deadline_exceeded.get()
        );
    }
    Ok(result?)
}

/// Builds the ring-aware client every `cluster <op>` talks through:
/// `--seeds` (or `-s`) names any live members, the ring is fetched from
/// the first that answers, and every shard op routes by rendezvous
/// placement with failover to survivors.
fn cluster_client(opts: &Opts) -> Result<ClusterClient, Fail> {
    let spec = opts
        .get("seeds")
        .ok_or("cluster ops need --seeds <addr,addr,...> (any live members)")?;
    let seeds: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if seeds.is_empty() {
        return Err("--seeds named no addresses".into());
    }
    let mut conn = ConnectOptions::default();
    if let Some(ms) = opts.parse("connect-timeout-ms", str::parse)? {
        conn.connect_timeout = Duration::from_millis(ms);
    }
    Ok(ClusterClient::connect_any(&seeds, conn)?)
}

/// After a cluster op, surface the client-side routing counters on
/// stderr when anything nontrivial happened (mirrors `remote`'s retries).
fn report_cluster(client: &ClusterClient) {
    let s = client.stats();
    let noteworthy = s.degraded_reads.get()
        + s.redirects_followed.get()
        + s.shard_failures.get()
        + s.scrub_repairs.get();
    if noteworthy > 0 {
        eprintln!(
            "cluster: {} degraded read(s), {} redirect(s) followed, {} ring refresh(es), {} shard failure(s), {} scrub repair(s)",
            s.degraded_reads.get(),
            s.redirects_followed.get(),
            s.ring_refreshes.get(),
            s.shard_failures.get(),
            s.scrub_repairs.get()
        );
    }
}

fn cmd_cluster(sub: &str, opts: &Opts) -> Result<ExitCode, Fail> {
    match sub {
        "put" => {
            let key = opts.require("k")?;
            let (_, bytes) = opts.read_input()?;
            let mut client = cluster_client(opts)?;
            let report = client.put(key, &bytes)?;
            if report.fully_replicated() {
                eprintln!(
                    "stored '{key}' ({} bytes) on {}/{} nodes",
                    bytes.len(),
                    report.shards_stored,
                    report.total_shards
                );
            } else {
                eprintln!(
                    "stored '{key}' ({} bytes) UNDER-REPLICATED: {}/{} shards placed ({} failed); run `cuszp cluster-scrub` once the nodes return",
                    bytes.len(),
                    report.shards_stored,
                    report.total_shards,
                    report.failed.len()
                );
            }
            report_cluster(&client);
        }
        "get" | "get-range" => {
            let key = opts.require("k")?;
            let output = opts.require("o")?;
            let spec = match sub {
                "get-range" => Some(RangeSpec::parse(opts.require("range")?)?),
                _ => None,
            };
            let mut client = cluster_client(opts)?;
            // Fetch the stripe (degraded if needed); a range read then
            // decodes only the requested sub-volume locally, in the
            // archive's own dtype.
            let got = client.get(key)?;
            let degraded = match got.degraded {
                true => ", reconstructed from parity",
                false => "",
            };
            match spec {
                None => {
                    write_bytes(output, &got.bytes)?;
                    let n = got.bytes.len();
                    eprintln!("fetched '{key}' -> {output} ({n} bytes{degraded})");
                }
                Some(spec) => {
                    let raster = decode_raster(&got.bytes, Some(&spec), None)?;
                    let (dims, n) = (raster.dims, raster.data.len());
                    write_raster(output, &raster, |_, _, _| {
                        format!("extracted {spec} of '{key}' -> {output} ({dims:?}, {n} bytes{degraded})")
                    })?;
                }
            }
            report_cluster(&client);
        }
        "ring" => {
            let client = cluster_client(opts)?;
            let ring = client.ring();
            say!(
                "epoch {}: {} data + {} parity shards per stripe, {} member(s)",
                ring.epoch,
                ring.data_shards,
                ring.parity_shards,
                ring.nodes().len()
            )?;
            for n in ring.nodes() {
                say!("  node {:>4}  {}", n.id, n.addr)?;
            }
        }
        // `scrub`, the anti-entropy repair pass (alias `cluster-scrub`).
        _ => {
            let mut client = cluster_client(opts)?;
            let report = client.scrub()?;
            say!(
                "scrubbed {} key(s): {} shard(s) re-replicated, {} unrepairable, {} unreachable node(s)",
                report.keys,
                report.repaired,
                report.unrepairable,
                report.unreachable_nodes
            )?;
            report_cluster(&client);
            // Exit 0 when fully healthy, 1 when work remains (lost
            // stripes or members the pass could not see).
            if report.unrepairable > 0 || report.unreachable_nodes > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_remote(sub: &str, opts: &Opts) -> Result<ExitCode, Fail> {
    match sub {
        "scan" => {
            let (input, bytes) = opts.read_input()?;
            let report = remote(opts, |c| c.scan(&bytes))?;
            let code = report.exit_code();
            if opts.has("json") {
                say!(
                    "{{\"archive\":\"{}\",{},\"exit_code\":{}}}",
                    json_escape(input),
                    report.to_json_fields(),
                    code
                )?;
            } else {
                print_scan_report(input, ", scanned remotely", &report, code, None)?;
            }
            return Ok(ExitCode::from(code));
        }
        "info" => {
            let (input, bytes) = opts.read_input()?;
            let info = remote(opts, |c| c.info(&bytes))?;
            say!("archive: {input} ({}, described remotely)", info.format)?;
            say!("  dtype:        {}", info.dtype.name())?;
            say!(
                "  dims:         {:?} ({} elements)",
                info.dims,
                info.dims.len()
            )?;
            say!("  error bound:  {:.6e} (absolute)", info.eb)?;
            say!("  chunks:       {}", info.n_chunks)?;
            match info.parity {
                Some((k, m)) => say!("  parity:       {m}/{k}")?,
                None => say!("  parity:       none")?,
            }
            say!("  stored size:  {} bytes", info.stored_bytes)?;
        }
        "stats" => remote_stats(opts)?,
        "ping" => {
            let t0 = Instant::now();
            remote(opts, |c| c.ping())?;
            say!("pong ({:.1} ms)", t0.elapsed().as_secs_f64() * 1e3)?;
        }
        // Cheap liveness probe: exit 0 while serving, 1 while draining,
        // so scripts can gate on readiness without parsing output.
        "health" => {
            let h = remote(opts, |c| c.health())?;
            let (state, hint) = match h.draining {
                true => ("draining", format!("; retry after {} ms", h.retry_after_ms)),
                false => ("healthy", String::new()),
            };
            say!(
                "{state}: queue {}/{}, {} worker(s), {} active connection(s){hint}",
                h.queue_depth,
                h.queue_capacity,
                h.workers,
                h.active_connections
            )?;
            if h.draining {
                return Ok(ExitCode::FAILURE);
            }
        }
        // `shutdown`.
        _ => {
            remote(opts, |c| c.shutdown_server())?;
            say!("server acknowledged shutdown; draining")?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `remote stats`: the server's live metrics — per-op request counts,
/// error counts, bytes in/out, latency percentiles, plus the service
/// gauges (busy rejections, malformed frames, connections).
fn remote_stats(opts: &Opts) -> Result<(), Fail> {
    let snap = remote(opts, |c| c.server_stats())?;
    say!(
        "{:<11} {:>9} {:>7} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "op",
        "requests",
        "errors",
        "bytes_in",
        "bytes_out",
        "p50_us",
        "p90_us",
        "p99_us",
        "max_us"
    )?;
    for o in &snap.ops {
        if o.requests == 0 {
            continue;
        }
        say!(
            "{:<11} {:>9} {:>7} {:>12} {:>12} {:>9.0} {:>9.0} {:>9.0} {:>9}",
            o.op.name(),
            o.requests,
            o.errors,
            o.bytes_in,
            o.bytes_out,
            o.latency.p50_us,
            o.latency.p90_us,
            o.latency.p99_us,
            o.latency.max_us
        )?;
    }
    say!("total {} requests; {} busy / {} unavailable rejections, {} malformed frames, {} connections ({} active)",
        snap.total_requests(),
        snap.rejected_busy,
        snap.rejected_unavailable,
        snap.malformed_frames,
        snap.connections_total,
        snap.active_connections
    )?;
    // Guard the rate against a zero-op server: 0/0 must print as a
    // plain "n/a", never NaN.
    let lookups = snap.cache_hits + snap.cache_misses;
    let hit_rate = if lookups > 0 {
        format!(
            "{:.0}% hit rate",
            100.0 * snap.cache_hits as f64 / lookups as f64
        )
    } else {
        "hit rate n/a".to_string()
    };
    say!(
        "slab cache: {} hits / {} lookups ({hit_rate}), {} evictions",
        snap.cache_hits,
        lookups,
        snap.cache_evictions
    )?;
    if snap.redirects + snap.scrub_repairs + snap.corrupt_shards_dropped > 0 {
        say!("cluster: {} redirect(s) answered, {} scrub repair(s) received, {} corrupt shard(s) dropped",
            snap.redirects, snap.scrub_repairs, snap.corrupt_shards_dropped
        )?;
    }
    Ok(())
}
