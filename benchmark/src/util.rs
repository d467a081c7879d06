//! Small shared pieces: the seeded generator, percentile arithmetic, the
//! phase loop, and the hand-rolled JSON the result line needs.

use std::time::Instant;

/// splitmix64 — every seeded choice of the harness draws from one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// Percentile `q ∈ [0, 1]` of `samples`, linearly interpolated between the
/// two closest ranks (so `q = 0.5` is the usual median). Empty input reads 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many seconds have passed and at least `min` calls ran
    /// (capped at four times the seconds, so a slow box still finishes).
    Time { secs: f64, min: usize },
    /// Exactly this many calls.
    Count(usize),
}

/// Runs `call(i)` once untimed to warm up (`i = usize::MAX`), then under
/// `budget`; `call` returns the seconds its own timed section took.
pub fn run_phase(budget: Budget, mut call: impl FnMut(usize) -> f64) -> Vec<f64> {
    call(usize::MAX);
    let mut samples = Vec::new();
    let t0 = Instant::now();
    loop {
        let done = match budget {
            Budget::Count(n) => samples.len() >= n,
            Budget::Time { secs, min } => {
                let t = t0.elapsed().as_secs_f64();
                (t >= secs && samples.len() >= min.max(1)) || t >= 4.0 * secs
            }
        };
        if done && !samples.is_empty() {
            return samples;
        }
        samples.push(call(samples.len()));
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// JSON number: every digit `f64` carries; non-finite values (never
/// produced by a healthy run) degrade to 0 so the line stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `VmHWM` of this process in MB (10⁶ B); 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
