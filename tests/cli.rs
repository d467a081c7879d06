//! The `cuszp` command line, driven through its binary.
//!
//! The transcript tests are the CLI's contract: each `$ cuszp ...` line of
//! a transcript is run in a scratch directory, and what it printed —
//! stdout verbatim, stderr as `2> ` lines, a non-zero exit code as
//! `exit N` — must render back to the transcript itself. Only wall-clock
//! digits are masked (`#`): seconds, MB/s, ping milliseconds, the
//! latency columns of `remote stats` and the server's live connection count. `% ...` lines build fixtures
//! between commands.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn analyze(input: &Path, double: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cuszp"));
    cmd.args(["analyze", "-d", "64x128", "-i"]).arg(input);
    if double {
        cmd.arg("--double");
    }
    cmd.output().expect("run cuszp analyze")
}

/// The `p1` and `recommended` lines of an `analyze` report.
fn verdict(out: &Output) -> Vec<String> {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("p1:") || l.contains("recommended:"))
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 2, "report lost its p1/recommended lines");
    lines
}

#[test]
fn analyze_double_reads_f64_and_agrees_with_the_f32_narrowing() {
    let dir = std::env::temp_dir().join(format!("cuszp-cli-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let narrow: Vec<f32> = (0..64 * 128)
        .map(|i| (i as f32 * 0.003).sin() * 5.0 + (i % 128) as f32 * 0.01)
        .collect();
    let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
    let (f32_raw, f64_raw) = (dir.join("field.f32"), dir.join("field.f64"));
    cuszp::write_raw(&f32_raw, &narrow).unwrap();
    cuszp::write_raw(&f64_raw, &wide).unwrap();

    assert_eq!(
        verdict(&analyze(&f64_raw, true)),
        verdict(&analyze(&f32_raw, false))
    );

    // Without the flag the same file is twice as many f32 as the dims say.
    let out = analyze(&f64_raw, false);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("has 16384 elements, dims say 8192"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A scratch directory of its own per test, removed when the test passes.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cuszp-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn cuszp<S: AsRef<str>>(&self, args: &[S]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_cuszp"))
            .args(args.iter().map(AsRef::as_ref))
            .current_dir(&self.0)
            .output()
            .expect("run cuszp")
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Replaces the digits of every wall-clock reading — a number directly
/// followed by `s`, or by ` MB/s` / ` ms` — with `#`, and of the server's
/// live connection count (` active`), which depends on how soon it saw the
/// previous client hang up.
fn mask_timing(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        let run = rest[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .map_or(rest.len(), |n| start + n);
        let after = &rest[run..];
        let seconds = after.starts_with('s')
            && !after[1..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        let prev_word = start > 0 && rest[..start].ends_with(|c: char| c.is_ascii_alphabetic());
        out.push_str(&rest[..start]);
        if !prev_word
            && (seconds
                || [" MB/s", " ms)", " active"]
                    .iter()
                    .any(|u| after.starts_with(u)))
        {
            out.push('#');
        } else {
            out.push_str(&rest[start..run]);
        }
        rest = after;
    }
    out.push_str(rest);
    out
}

/// Runs a transcript (see the module docs) in `dir`, substituting `addr`
/// for `$ADDR`, and returns what it rendered.
fn run_transcript(dir: &Scratch, transcript: &str, addr: &str) -> String {
    let usage = String::from_utf8(dir.cuszp(&["help"]).stdout).unwrap();
    let mut rendered = String::new();
    for line in transcript.lines() {
        if let Some(step) = line.strip_prefix("% ") {
            fixture(dir, step);
            rendered.push_str(line);
            rendered.push('\n');
            continue;
        }
        let Some(cmd) = line.strip_prefix("$ cuszp") else {
            continue;
        };
        let args: Vec<String> = cmd
            .split_whitespace()
            .map(|a| a.replace("$ADDR", addr))
            .collect();
        let out = dir.cuszp(&args);
        rendered.push_str(line);
        rendered.push('\n');
        let stdout = String::from_utf8(out.stdout)
            .unwrap()
            .replace(addr, "$ADDR");
        let stats = args.starts_with(&["remote".to_string(), "stats".to_string()]);
        let mut in_table = false;
        for l in stdout.lines() {
            // `remote stats` latency columns (p50/p90/p99/max) start at
            // byte 55 of each per-op row, between the header and `total`.
            in_table &= !l.starts_with("total ");
            if in_table {
                rendered.push_str(&format!("{} #\n", &l[..55]));
                continue;
            }
            in_table = stats && l.starts_with("op ");
            rendered.push_str(&mask_timing(l));
            rendered.push('\n');
        }
        let stderr = String::from_utf8(out.stderr)
            .unwrap()
            .replace(usage.trim_end(), "<USAGE>")
            .replace(addr, "$ADDR");
        for l in stderr.lines() {
            rendered.push_str(format!("2> {}", mask_timing(l)).trim_end());
            rendered.push('\n');
        }
        match out.status.code() {
            Some(0) => {}
            Some(code) => rendered.push_str(&format!("exit {code}\n")),
            None => rendered.push_str("killed by a signal\n"),
        }
    }
    rendered
}

/// One `% ...` fixture step:
/// * `flip <src> <dst> <offset>...` — copy `src` with one bit flipped at each offset;
/// * `widen <f32 raw> <f64 raw>` — the same field as f64;
/// * `mkdir <dir>`;
/// * `store <dir>` — a durable shard store with a live, an overwritten and a deleted slot.
fn fixture(dir: &Scratch, step: &str) {
    let words: Vec<&str> = step.split_whitespace().collect();
    match words.as_slice() {
        ["flip", src, dst, offsets @ ..] => {
            let mut bytes = std::fs::read(dir.path(src)).unwrap();
            for off in offsets {
                bytes[off.parse::<usize>().unwrap()] ^= 0x01;
            }
            std::fs::write(dir.path(dst), bytes).unwrap();
        }
        ["widen", src, dst] => {
            let narrow: Vec<f32> = cuszp::read_raw(&dir.path(src)).unwrap();
            let wide: Vec<f64> = narrow.iter().map(|&x| f64::from(x)).collect();
            cuszp::write_raw(&dir.path(dst), &wide).unwrap();
        }
        ["mkdir", name] => std::fs::create_dir(dir.path(name)).unwrap(),
        ["store", name] => {
            let config = cuszp::store::StoreConfig::new(dir.path(name));
            let mut store = cuszp::store::LogStore::open(config).unwrap();
            store.put("alpha", 0, b"first shard", 22, 7, false).unwrap();
            store
                .put("alpha", 1, b"second shard", 22, 7, false)
                .unwrap();
            store.put("beta", 0, b"stale", 5, 9, false).unwrap();
            store.put("beta", 0, b"fresh", 5, 9, true).unwrap();
            store.delete("alpha", 1).unwrap();
            store.sync().unwrap();
        }
        _ => panic!("unknown fixture step '{step}'"),
    }
}

/// Runs `transcript` and requires it to render back to itself.
fn check_transcript(dir: &Scratch, transcript: &str, addr: &str) {
    let rendered = run_transcript(dir, transcript, addr);
    let expected: String = transcript
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    if rendered != expected {
        let at = rendered
            .lines()
            .zip(expected.lines())
            .position(|(r, e)| r != e)
            .unwrap_or(rendered.lines().count().min(expected.lines().count()));
        panic!(
            "transcript differs at line {}:\n  expected: {:?}\n  rendered: {:?}\n\nfull rendering:\n{rendered}",
            at + 1,
            expected.lines().nth(at),
            rendered.lines().nth(at)
        );
    }
}

const LOCAL_TRANSCRIPT: &str = include_str!("cli_local.transcript");
const REMOTE_TRANSCRIPT: &str = include_str!("cli_remote.transcript");

#[test]
fn local_commands_print_their_transcript() {
    let dir = Scratch::new("local");
    check_transcript(&dir, LOCAL_TRANSCRIPT, "\0");
}

/// A `cuszp serve` on an ephemeral port; killed if the test fails first.
struct Served {
    child: Child,
    addr: String,
}

impl Served {
    fn start(dir: &Scratch) -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cuszp"))
            .args(["serve", "-a", "127.0.0.1:0", "--workers", "2"])
            .current_dir(&dir.0)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cuszp serve");
        let mut first = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        let addr = first
            .trim()
            .strip_prefix("cuszp-server listening on ")
            .unwrap_or_else(|| panic!("unexpected serve banner {first:?}"))
            .to_string();
        Served { child, addr }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn remote_commands_print_their_transcript() {
    let dir = Scratch::new("remote");
    let mut served = Served::start(&dir);
    check_transcript(&dir, REMOTE_TRANSCRIPT, &served.addr.clone());
    // The transcript ends in `remote shutdown`: the server drains and exits 0.
    assert!(served.child.wait().unwrap().success());
}

#[test]
fn a_malformed_value_fails_naming_its_option() {
    let dir = Scratch::new("malformed");
    let field: Vec<f32> = (0..64).map(|i| i as f32).collect();
    cuszp::write_raw(&dir.path("f.f32"), &field).unwrap();
    let archive = cuszp::Compressor::default().compress(&field, cuszp::Dims::D1(64));
    std::fs::write(dir.path("x.csz"), archive.unwrap().to_bytes()).unwrap();
    for (args, option) in [
        (
            &[
                "compress",
                "-i",
                "f.f32",
                "-o",
                "x.csz",
                "-d",
                "64",
                "--threads",
                "x",
            ][..],
            "--threads",
        ),
        (
            &[
                "decompress",
                "-i",
                "x.csz",
                "-o",
                "x.f32",
                "--threads",
                "-3",
            ][..],
            "--threads",
        ),
        (&["remote", "ping", "--retries", "many"][..], "--retries"),
        (&["serve", "--workers", "two"][..], "--workers"),
        (
            &["chaos-proxy", "--upstream", "127.0.0.1:1", "--flip", "lots"][..],
            "--flip",
        ),
    ] {
        let out = dir.cuszp(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(option), "{args:?}: {err}");
    }
}

/// A small 1-D f32 field and its v1 archive in `dir`: `f.f32`, `a.csz`.
fn small_archive(dir: &Scratch) {
    let field: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
    cuszp::write_raw(&dir.path("f.f32"), &field).unwrap();
    let archive = cuszp::Compressor::default().compress(&field, cuszp::Dims::D1(4096));
    std::fs::write(dir.path("a.csz"), archive.unwrap().to_bytes()).unwrap();
}

#[test]
fn a_misspelled_option_is_refused_before_any_file_is_touched() {
    let dir = Scratch::new("unknown-option");
    small_archive(&dir);
    for (args, option, untouched) in [
        (
            &[
                "decompress",
                "-i",
                "a.csz",
                "-o",
                "r.f32",
                "--veriffy",
                "f.f32",
            ][..],
            "--veriffy",
            "r.f32",
        ),
        (
            &[
                "compress", "-i", "f.f32", "-o", "x.csz", "-d", "4096", "--thread", "4",
            ][..],
            "--thread",
            "x.csz",
        ),
        (
            &["info", "-i", "a.csz", "--json"][..],
            "--json",
            "a.csz.repair",
        ),
        (&["remote", "ping", "-i", "a.csz"][..], "-i", "a.csz.repair"),
    ] {
        let out = dir.cuszp(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("'{option}'")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!dir.path(untouched).exists(), "{args:?} wrote {untouched}");
    }
}

#[test]
fn info_takes_its_archive_as_the_first_argument() {
    let dir = Scratch::new("info-positional");
    small_archive(&dir);
    let (positional, flagged) = (
        dir.cuszp(&["info", "a.csz"]),
        dir.cuszp(&["info", "-i", "a.csz"]),
    );
    assert!(
        positional.status.success(),
        "{}",
        String::from_utf8_lossy(&positional.stderr)
    );
    assert_eq!(positional.stdout, flagged.stdout);
    assert!(positional.stdout.starts_with(b"archive: a.csz\n"));
}

#[test]
fn a_closed_stdout_ends_a_report_quietly() {
    let dir = Scratch::new("broken-pipe");
    // 2 048 chunks of 32 elements: `info` prints one line per chunk,
    // well past a 64 KiB pipe buffer.
    let field: Vec<f32> = (0..65536).map(|i| (i as f32 * 0.001).cos()).collect();
    let pool = cuszp::parallel::WorkerPool::new(1);
    let archive = cuszp::Compressor::default()
        .compress_chunked_with(&field, cuszp::Dims::D1(field.len()), 32, &pool)
        .unwrap();
    std::fs::write(dir.path("many.csz"), archive.to_bytes()).unwrap();
    let full = dir.cuszp(&["info", "-i", "many.csz"]);
    assert!(full.stdout.len() > 64 * 1024, "{} bytes", full.stdout.len());

    let mut child = Command::new(env!("CARGO_BIN_EXE_cuszp"))
        .args(["info", "-i", "many.csz"])
        .current_dir(&dir.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

#[test]
fn every_remote_op_reports_its_retries() {
    let dir = Scratch::new("retries");
    small_archive(&dir);
    // A port nothing listens on: every attempt is refused.
    let refused = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    for op in [
        &["ping"][..],
        &["health"],
        &["stats"],
        &["info", "a.csz"],
        &["scan", "a.csz"],
    ] {
        let mut args = vec!["remote"];
        args.extend_from_slice(op);
        args.extend_from_slice(&["-s", &refused, "--retries", "2", "--retry-seed", "7"]);
        let out = dir.cuszp(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains("remote: 3 attempt(s) for 1 call(s): 2 retried"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn usage_lists_exactly_the_options_each_command_takes() {
    let dir = Scratch::new("usage");
    let usage = String::from_utf8(dir.cuszp(&["help"]).stdout).unwrap();
    // The synopsis, one entry per `cuszp ...` line with its continuations.
    let synopsis = usage.split("\nUSAGE:\n").nth(1).unwrap();
    let mut lines: Vec<String> = Vec::new();
    for l in synopsis.split("\n\n").next().unwrap().lines() {
        match l.trim_start().strip_prefix("cuszp ") {
            Some(line) => lines.push(line.to_string()),
            None => lines.last_mut().unwrap().push_str(l),
        }
    }
    // What the parser takes, from its answer to an option no command has.
    let declared = |cmd: &[&str]| -> Vec<String> {
        let mut args = cmd.to_vec();
        args.push("--no-such-option");
        let err = String::from_utf8(dir.cuszp(&args).stderr).unwrap();
        let list = err
            .split_once("(it takes: ")
            .unwrap_or_else(|| panic!("{cmd:?}: {err}"))
            .1;
        let mut names: Vec<String> = list[..list.find(')').unwrap()]
            .split_whitespace()
            .map(str::to_owned)
            .collect();
        names.sort();
        names
    };
    let ops = |group: &str| -> Vec<String> {
        let err = String::from_utf8(dir.cuszp(&[group, "no-such-op"]).stderr).unwrap();
        let list = err
            .rsplit_once('(')
            .unwrap()
            .1
            .trim_end()
            .trim_end_matches(')');
        list.split(' ').map(str::to_owned).collect()
    };
    let mut documented: std::collections::BTreeMap<Vec<String>, Vec<String>> = Default::default();
    for line in &lines {
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap();
        let commands: Vec<Vec<String>> = match cmd {
            "remote" | "cluster" => {
                let op = words.next().unwrap();
                let names = match op {
                    "<op>" => ops(cmd),
                    _ => op.split('|').map(str::to_owned).collect(),
                };
                names
                    .into_iter()
                    .map(|op| vec![cmd.to_string(), op])
                    .collect()
            }
            "cluster-scrub" => vec![vec!["cluster".into(), "scrub".into()]],
            _ => vec![vec![cmd.to_string()]],
        };
        let options = line
            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .filter(|t| t.trim_start_matches('-').len() < t.len())
            .filter(|t| {
                t.trim_start_matches('-')
                    .starts_with(|c: char| c.is_ascii_lowercase())
            });
        let mut options: Vec<String> = options.map(str::to_owned).collect();
        // A leading `<archive>` / `<key>` is the primary input given bare.
        if words.next().is_some_and(|w| w.starts_with('<')) {
            options.push(if cmd == "cluster" { "-k" } else { "-i" }.to_string());
        }
        for c in commands {
            documented
                .entry(c)
                .or_default()
                .extend(options.iter().cloned());
        }
    }
    assert!(documented.len() >= 20, "{documented:?}");
    let mut mismatches = Vec::new();
    for (cmd, mut options) in documented {
        options.sort();
        options.dedup();
        let cmd: Vec<&str> = cmd.iter().map(String::as_str).collect();
        let takes = declared(&cmd);
        if options != takes {
            let cmd = cmd.join(" ");
            mismatches.push(format!("cuszp {cmd}: USAGE {options:?}, parser {takes:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
