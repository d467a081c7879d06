//! Correctness gates. Every call into the system and every output check
//! is one attempted operation; a failed or refused call, or an output that
//! fails its check, is a failed one.

use std::fmt::Display;

#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Gates {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(format!("{what}: {why}"));
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what, "output check failed");
        }
        ok
    }

    /// Counts one call; `None` when it failed.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e.to_string());
                None
            }
        }
    }

    /// Elementwise `|x − x̂| ≤ eb` in `f64`, with the one-ULP slack of the
    /// final `f32` rounding that `cuszp::metrics::verify_error_bound` allows.
    pub fn within_bound(&mut self, what: &str, orig: &[f32], recon: &[f32], eb: f64) -> bool {
        let ok = orig.len() == recon.len()
            && cuszp::metrics::verify_error_bound(orig, recon, eb).is_ok();
        self.check(what, ok)
    }
}
