//! Spans recorded from outside the program, around calls into each
//! layer's public functions, plus the counting allocator behind the
//! `core.*_allocs_per_call` metrics.
//!
//! A span is `{name, op, parent, start_ns, end_ns, label}`. Spans of one
//! request (or one codec iteration) share `op`. They stay in memory and
//! are written to `benchmark/out/trace_<workload>.jsonl` when the run
//! ends. A span's self time is its duration minus its children's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc`/`realloc` and forwards to the system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub label: &'static str,
}

/// An open span: `Tracer::end` closes it and returns its seconds.
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Always times; records spans only when `on`, so the untraced run pays
/// two `Instant::now()` per call and nothing else.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Counts taken at the same boundaries: `(name, op, value)`.
    pub counts: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: Vec::new(),
        }
    }

    /// Starts the next request / iteration; later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &'static str, label: &'static str) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.stack.last().copied(),
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                label,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
        elapsed.as_secs_f64()
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, self.op, value));
        }
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time of `name` summed within each op, in milliseconds, one
    /// entry per op that has such a span (ops in order).
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += ns;
            }
        }
        per_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Values counted under `name`, in order.
    pub fn counted(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// One JSON object per line: spans first, then counts.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"label\": \"{}\"}}",
                s.name, s.op, s.start_ns, s.end_ns, own[i], s.label
            )?;
        }
        for (name, op, value) in &self.counts {
            writeln!(
                w,
                "{{\"count\": \"{name}\", \"op\": {op}, \"value\": {value}}}"
            )?;
        }
        w.flush()
    }
}
