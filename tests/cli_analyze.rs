//! `cuszp analyze --double` reads the raw file as f64.

use std::path::Path;
use std::process::{Command, Output};

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
