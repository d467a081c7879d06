//! The one chunk walk behind every decoder.
//!
//! CSZ2 chunks are independent slabs along the slowest axis, and the
//! chunk plan is a pure function of the container header
//! ([`cuszp_parallel::plan_chunks`]). Three things follow, and each lives
//! here once:
//!
//! * [`PlanView`] — the plan recomputed from the header, never
//!   materialized, plus the range → chunk-span mapping;
//! * [`PlanView::check`] — **the** chunk-vs-container check: the
//!   container header is the authority for a chunk's element type, slab
//!   shape *and error bound*;
//! * [`PlanView::walk`] / [`PlanView::reconstruct`] — carve the output
//!   into one segment per in-span chunk, fan out over lanes (a slice of
//!   engines: the caller's own, or one fresh engine per pool worker from
//!   [`PipelineEngine::per_worker`]) with a per-lane scratch, and
//!   reconstruct each checked chunk.
//!
//! A whole-field decode is the range "everything"
//! ([`ResolvedRange::full`]): a chunk whose rows are all requested
//! reconstructs straight into its segment, any other into scratch with
//! the requested rows gathered out. The decoders differ only in where a
//! chunk comes from and what an error means — strict
//! ([`crate::ChunkSource`]) takes parsed chunks or parses each out of
//! verified bytes, may take a chunk's slab from a caller's cache
//! instead of decoding it, and returns the first error in chunk order;
//! resilient (`crate::recovery`) frames chunks from the length table,
//! fills and reports. A v1 archive is walked as a container of one
//! chunk ([`PlanView::single`]).

use crate::archive::{Archive, Dtype};
use crate::element::Element;
use crate::engine::PipelineEngine;
use crate::error::{ArchiveSection, CuszpError};
use crate::range::{chunk_span, gather_chunk, ResolvedRange};
use cuszp_parallel::{plan_chunk_spec, plan_len, ChunkSpec, WorkerPool};
use cuszp_predictor::{Dims, ReconstructEngine};
use std::ops::Range;

/// The extents a `dims` field is chunked over: its slow axis, and the
/// elements per slow-axis unit.
pub(crate) fn plan_extents(dims: Dims) -> [usize; 2] {
    [dims.slow_extent(), dims.elems_per_slow()]
}

/// Lazy view of the plan a container header implies: chunk count and
/// per-chunk specs in O(1). A corrupted extent or chunk target can claim
/// billions of chunks; nothing here costs memory until a chunk is
/// actually evaluated.
pub(crate) struct PlanView {
    dims: Dims,
    dtype: Dtype,
    eb: f64,
    extents: [usize; 2],
    target: usize,
    /// Number of planned chunks.
    pub n: usize,
}

impl PlanView {
    /// The plan of a container declaring `dims`, `dtype`, `eb` and
    /// `chunk_target`.
    pub fn new(dims: Dims, dtype: Dtype, eb: f64, chunk_target: u64) -> Self {
        let extents = plan_extents(dims);
        let target = usize::try_from(chunk_target).unwrap_or(usize::MAX);
        Self {
            dims,
            dtype,
            eb,
            extents,
            target,
            n: plan_len(&extents, target),
        }
    }

    /// The plan of a v1 archive: one chunk, the whole field — even an
    /// empty one, which the balanced split would plan no chunk for.
    pub fn single(dims: Dims, dtype: Dtype, eb: f64) -> Self {
        Self {
            n: 1,
            ..Self::new(dims, dtype, eb, u64::MAX)
        }
    }

    /// The `i`-th planned chunk.
    pub fn spec(&self, i: usize) -> ChunkSpec {
        if self.n == 1 {
            return ChunkSpec {
                index: 0,
                slow: 0..self.extents[0],
                elems: 0..self.dims.len(),
            };
        }
        plan_chunk_spec(&self.extents, self.target, i)
    }

    /// The chunks whose slabs intersect `r`.
    pub fn span(&self, r: &ResolvedRange) -> Range<usize> {
        chunk_span(&self.extents, self.target, &r.slow)
    }

    /// Checks chunk `i` against the container header, which is the
    /// authority for everything the two state twice: the element type,
    /// the planned slab shape, and the error bound (compared bit for
    /// bit — every chunk is written with the container's resolved bound,
    /// and a chunk dequantizes with its own copy). The fault is
    /// chunk-local (offset 0 is the chunk's header); callers rebase it
    /// with [`CuszpError::in_chunk`].
    pub fn check(&self, i: usize, chunk: &Archive) -> Result<(), CuszpError> {
        let what = if chunk.dtype != self.dtype {
            "chunk dtype mismatches container"
        } else if chunk.dims != self.dims.slab(self.spec(i).slow_len()) {
            "chunk shape mismatches plan"
        } else if chunk.eb.to_bits() != self.eb.to_bits() {
            "chunk eb mismatches container"
        } else {
            return Ok(());
        };
        Err(CuszpError::malformed(what, ArchiveSection::ChunkBody, 0))
    }

    /// Carves `out` — the sub-volume `r`, or a prefix of it when `span`
    /// stops short of `r`'s last chunk — into one contiguous segment per
    /// chunk of `span`: chunks tile the slow axis in order, so a chunk's
    /// requested rows are consecutive in the output.
    fn carve<'o, T>(
        &self,
        span: Range<usize>,
        r: &ResolvedRange,
        out: &'o mut [T],
    ) -> Vec<(usize, &'o mut [T])> {
        let seps = r.sub_elems_per_slow();
        let mut parts = Vec::with_capacity(span.len());
        let mut rest = out;
        for i in span {
            let slab = self.spec(i).slow;
            let rows = slab.end.min(r.slow.end) - slab.start.max(r.slow.start);
            let (head, tail) = rest.split_at_mut(rows * seps);
            parts.push((i, head));
            rest = tail;
        }
        parts
    }

    /// The per-chunk step: checks `chunk` as chunk `i`, then
    /// reconstructs its share of `r` into `seg` — in place when `seg`
    /// is the whole slab, otherwise into `scratch` with the requested
    /// rows gathered out. Returns the full decoded slab, wherever it
    /// landed. Errors are chunk-local; after one, `seg` may be partly
    /// written.
    #[allow(clippy::too_many_arguments)]
    pub fn reconstruct<'a, T: Element>(
        &self,
        i: usize,
        chunk: &Archive,
        r: &ResolvedRange,
        engine: ReconstructEngine,
        eng: &mut PipelineEngine,
        scratch: &'a mut Vec<T>,
        seg: &'a mut [T],
    ) -> Result<&'a [T], CuszpError> {
        self.check(i, chunk)?;
        let spec = self.spec(i);
        if seg.len() == spec.len() {
            eng.decompress_into(chunk, engine, seg)?;
            return Ok(seg);
        }
        scratch.clear();
        scratch.resize(spec.len(), T::default());
        eng.decompress_into(chunk, engine, scratch)?;
        gather_chunk(scratch, &spec.slow, r, seg);
        Ok(scratch)
    }

    /// The walk: runs `step(i, segment, engine, scratch)` for every
    /// chunk of `span`, fanned out over `lanes` (one thread per engine),
    /// each lane keeping its engine and one slab scratch across the
    /// chunks it drains. Results come back in chunk order. A span of one
    /// chunk has nothing to fan out: it runs here on the first engine,
    /// with its inner loops serial as in a lane — except in a one-chunk
    /// container (every v1 archive), where they stay parallel. Decoding
    /// is a pure function of the bytes, so no output depends on the
    /// number of lanes.
    ///
    /// # Panics
    /// When `lanes` is empty and `span` is not.
    pub fn walk<T, R, F>(
        &self,
        span: Range<usize>,
        r: &ResolvedRange,
        out: &mut [T],
        lanes: &mut [PipelineEngine],
        step: F,
    ) -> Vec<R>
    where
        T: Element,
        R: Send,
        F: Fn(usize, &mut [T], &mut PipelineEngine, &mut Vec<T>) -> R + Sync,
    {
        let mut parts = self.carve(span, r, out);
        if let [(i, seg)] = &mut parts[..] {
            let mut run = || step(*i, seg, &mut lanes[0], &mut Vec::new());
            return vec![match self.n {
                1 => run(),
                _ => cuszp_parallel::with_serial_inner(run),
            }];
        }
        let mut states: Vec<_> = lanes.iter_mut().map(|eng| (eng, Vec::new())).collect();
        WorkerPool::run_parts_on(&mut states, parts, |_, (i, seg), (eng, scratch)| {
            step(i, seg, eng, scratch)
        })
    }
}
