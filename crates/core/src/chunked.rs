//! Chunk-parallel execution engine: the v2 multi-chunk archive, and the
//! one place that tells the two archive formats apart.
//!
//! The field is split into independent slabs along its slowest-varying
//! axis ([`cuszp_parallel::plan_chunks`]); each chunk runs the **full**
//! per-chunk pipeline — prequant → Lorenzo → histogram/selector →
//! Huffman-or-RLE — on a [`WorkerPool`], with its own histogram and its
//! own codebook. The per-chunk payloads are concatenated into the "CSZ2"
//! container in plan order. Decompression fans the chunks back out in
//! parallel, each writing its slab of the output in place.
//!
//! # Determinism
//!
//! Chunked archives are **byte-identical regardless of thread count**:
//!
//! * the chunk plan is a pure function of the field shape and chunk
//!   target — the worker count never enters it;
//! * a relative error bound is resolved to an absolute one **once, over
//!   the whole field**, before chunking;
//! * every chunk job runs with nested parallelism forced serial
//!   ([`WorkerPool`] does this even for one worker), so a chunk's bytes
//!   come from the identical code path under any pool width;
//! * the merge is ordered by chunk index, not completion order.
//!
//! A v1 archive is exactly one chunk with no container around it, and
//! every reader opens it as such: [`Format::header`] is the only code
//! that tells the formats apart.

use crate::archive::{v1_declared_len, v1_field};
use crate::element::Element;
use crate::engine::{resolve_bound, validate_and_range, PipelineEngine};
use crate::error::{ArchiveSection, CuszpError};
use crate::parity::{ParityConfig, ParitySection, PARITY_MAGIC};
use crate::range::{resolve, ChunkSource, RangeSpec};
use crate::stats::ChunkedStats;
use crate::walk::{plan_extents, PlanView};
use crate::{Archive, Compressor, Dims, Dtype, ReconstructEngine};
use cuszp_parallel::{plan_chunks, plan_len, WorkerPool, DEFAULT_CHUNK_ELEMS};
use std::ops::Range;

pub(crate) const CHUNKED_MAGIC: u32 = 0x325A_5343; // "CSZ2"
const CHUNKED_VERSION: u16 = 2;
pub(crate) const CHUNKED_HEADER_BYTES: usize = 4 + 2 + 1 + 1 + 24 + 8 + 8 + 4;

/// True when `bytes` starts with the chunked-container magic.
pub fn is_chunked_archive(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && u32::from_le_bytes(bytes[0..4].try_into().unwrap()) == CHUNKED_MAGIC
}

/// Which of the two archive formats some bytes hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// One v1 archive: a single chunk with no container around it. Its
    /// faults are not placed in a chunk, and it has no table or parity.
    V1,
    /// A "CSZ2" container of independent chunks.
    Csz2,
}

impl Format {
    /// The sniff: bytes without the CSZ2 magic are read as v1, and fail
    /// there with v1's own errors when they are not v1 either.
    pub fn of(bytes: &[u8]) -> Self {
        match is_chunked_archive(bytes) {
            true => Format::Csz2,
            false => Format::V1,
        }
    }

    /// Display name ("v1" / "csz2").
    pub fn name(self) -> &'static str {
        match self {
            Format::V1 => "v1",
            Format::Csz2 => "csz2",
        }
    }

    /// Reads the fixed header of `bytes` as a container header. A v1
    /// header opens as a container of one chunk: dims, dtype and `eb`
    /// from the header, one planned chunk ([`PlanView::single`]).
    pub fn header(self, bytes: &[u8]) -> Result<ChunkedHeader, CuszpError> {
        if self == Format::Csz2 {
            return parse_chunked_header(bytes);
        }
        let (dims, dtype, eb) = v1_field(bytes)?;
        Ok(ChunkedHeader {
            format: self,
            dims,
            dtype,
            eb,
            chunk_target: u64::MAX,
            n_chunks: 1,
            table_offset: 0,
        })
    }
}

/// How many chunks a chunked compress of a `dims` field at
/// `target_elems` writes: the most lanes
/// [`Compressor::compress_chunked_on_lanes`] can keep busy.
pub fn chunk_count(dims: Dims, target_elems: usize) -> usize {
    plan_len(&plan_extents(dims), target_elems)
}

/// The open step every reader starts with: sniff once, read the header.
pub(crate) fn open(bytes: &[u8]) -> Result<ChunkedHeader, CuszpError> {
    Format::of(bytes).header(bytes)
}

/// A v2 multi-chunk archive: per-chunk v1 [`Archive`]s in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedArchive {
    /// Original field dimensions.
    pub dims: Dims,
    /// Element type of the field.
    pub dtype: Dtype,
    /// Global absolute error bound (resolved once over the whole field).
    pub eb: f64,
    /// Target elements per chunk the plan was built with.
    pub chunk_target: u64,
    /// Per-chunk archives, in plan (= slab) order.
    pub chunks: Vec<Archive>,
    /// Optional Reed–Solomon parity over the serialized chunk region
    /// (see [`crate::ParitySection`]). `None` serializes byte-identically
    /// to the pre-parity format.
    pub parity: Option<ParitySection>,
    /// The format the container was read from (a v1 archive parses as
    /// its one-chunk container). Serializing always writes CSZ2.
    format: Format,
}

impl Compressor {
    /// Chunk-parallel compression of an `f32` or `f64` field (inferred
    /// from `data`) with the default chunk granularity and the global
    /// worker policy.
    pub fn compress_chunked<T: Element>(
        &self,
        data: &[T],
        dims: Dims,
    ) -> Result<ChunkedArchive, CuszpError> {
        self.compress_chunked_with(
            data,
            dims,
            DEFAULT_CHUNK_ELEMS,
            &WorkerPool::with_default_workers(),
        )
    }

    /// Chunk-parallel compression with explicit chunk target and pool.
    /// The archive bytes depend on `target_elems` (it shapes the plan)
    /// but **never** on the pool width.
    pub fn compress_chunked_with<T: Element>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        pool: &WorkerPool,
    ) -> Result<ChunkedArchive, CuszpError> {
        self.compress_chunked_with_stats(data, dims, target_elems, pool)
            .map(|(a, _)| a)
    }

    /// [`Compressor::compress_chunked_with`] also returning the
    /// aggregated per-chunk statistics ([`ChunkedStats`]): the lanes
    /// ([`Compressor::compress_chunked_on_lanes`]) are one fresh engine
    /// per pool worker.
    pub fn compress_chunked_with_stats<T: Element>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        pool: &WorkerPool,
    ) -> Result<(ChunkedArchive, ChunkedStats), CuszpError> {
        let lanes = &mut PipelineEngine::per_worker(pool);
        self.compress_chunked_on_lanes(data, dims, target_elems, lanes)
    }

    /// The chunked-compress driver: the plan's chunks fan out over
    /// `lanes`, one thread per engine ([`WorkerPool::run_parts_on`]),
    /// and each engine reuses its scratch arenas across the chunks it
    /// takes — and across calls, when the caller keeps its engines. A
    /// `cuszp-server` worker lends its own engine plus whatever idle
    /// helper engines the server holds. Every chunk runs under
    /// [`cuszp_parallel::with_serial_inner`], so the bytes are the same
    /// for any number of lanes.
    ///
    /// # Panics
    /// When `lanes` is empty and the plan has a chunk.
    pub fn compress_chunked_on_lanes<T: Element>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        lanes: &mut [PipelineEngine],
    ) -> Result<(ChunkedArchive, ChunkedStats), CuszpError> {
        // One validation + range pass over the whole field; chunks then
        // skip their own scans entirely. Resolving the bound globally
        // BEFORE chunking matters twice over: a relative bound must scale
        // with the whole field's range, not each slab's, both for uniform
        // quality and for plan-independent bytes.
        let scan = validate_and_range(data, dims)?;
        let eb = resolve_bound(self.config().error_bound, &scan)?;
        let plan = plan_chunks(&plan_extents(dims), target_elems);
        let config = self.config();
        let results = WorkerPool::run_parts_on(lanes, plan.chunks, |_, spec, eng| {
            let chunk_dims = dims.slab(spec.slow_len());
            eng.compress(config, &data[spec.elems], chunk_dims, eb)
        });
        let mut chunks = Vec::with_capacity(results.len());
        let mut per_chunk = Vec::with_capacity(results.len());
        for r in results {
            let (archive, stats) = r?;
            chunks.push(archive);
            per_chunk.push(stats);
        }
        Ok((
            ChunkedArchive {
                dims,
                dtype: T::DTYPE,
                eb,
                chunk_target: target_elems as u64,
                chunks,
                parity: None,
                format: Format::Csz2,
            },
            ChunkedStats { per_chunk },
        ))
    }

    /// [`Compressor::compress_chunked_with`] plus a self-healing parity
    /// section: after compression the serialized chunk region is striped
    /// and Reed–Solomon parity (`parity.parity_shards` per stripe of
    /// `parity.data_shards` data shards) is appended. Parity encoding
    /// fans stripes across the same pool; bytes stay independent of the
    /// pool width.
    pub fn compress_chunked_with_parity<T: Element>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        pool: &WorkerPool,
        parity: ParityConfig,
    ) -> Result<ChunkedArchive, CuszpError> {
        parity.validate()?;
        let mut arc = self.compress_chunked_with(data, dims, target_elems, pool)?;
        arc.add_parity(parity, pool);
        Ok(arc)
    }

    /// Chunk-sequential compression on a **caller-owned engine**: the
    /// one-lane case of [`Compressor::compress_chunked_on_lanes`]. The
    /// whole plan runs on this thread on `engine`, reusing its scratch
    /// arenas across chunks *and across calls*, and the bytes are
    /// identical to the pooled drivers at any worker count.
    pub fn compress_chunked_with_engine<T: Element>(
        &self,
        data: &[T],
        dims: Dims,
        target_elems: usize,
        engine: &mut PipelineEngine,
    ) -> Result<ChunkedArchive, CuszpError> {
        self.compress_chunked_on_lanes(data, dims, target_elems, std::slice::from_mut(engine))
            .map(|(a, _)| a)
    }
}

impl ChunkedArchive {
    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The format these chunks were read from: "csz2", or "v1" for the
    /// one-chunk container a v1 archive opens as.
    pub fn format(&self) -> &'static str {
        self.format.name()
    }

    /// Total serialized size in bytes.
    pub fn serialized_bytes(&self) -> usize {
        CHUNKED_HEADER_BYTES
            + self.chunks.len() * 8
            + self
                .chunks
                .iter()
                .map(Archive::serialized_bytes)
                .sum::<usize>()
            + self
                .parity
                .as_ref()
                .map_or(0, ParitySection::serialized_bytes)
    }

    /// Computes and attaches a parity section over the serialized chunk
    /// region, replacing any existing one. A no-op for an empty region
    /// (nothing to protect). Deterministic at any pool width.
    pub fn add_parity(&mut self, cfg: ParityConfig, pool: &WorkerPool) {
        // The region is exactly what to_bytes will emit for the chunk
        // bodies: each chunk serializes into the same bytes it would
        // inside the container.
        let mut region =
            Vec::with_capacity(self.chunks.iter().map(Archive::serialized_bytes).sum());
        for chunk in &self.chunks {
            chunk.write_into(&mut region);
        }
        self.parity = ParitySection::build(&region, &cfg, pool);
    }

    /// Parallel decompression into `T` on `pool`; `T` must be the stored
    /// element type ([`CuszpError::DtypeMismatch`] otherwise).
    pub fn decompress<T: Element>(
        &self,
        engine: ReconstructEngine,
        pool: &WorkerPool,
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        self.decode(engine, None, pool)
    }

    /// Decodes only the chunks intersecting `spec` on `pool` and
    /// assembles the requested sub-volume; `T` must be the stored
    /// element type ([`CuszpError::DtypeMismatch`] otherwise).
    pub fn decompress_range<T: Element>(
        &self,
        engine: ReconstructEngine,
        spec: &RangeSpec,
        pool: &WorkerPool,
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        self.decode(engine, Some(spec), pool)
    }

    /// The strict policy over the chunk walk, on this container's
    /// parsed chunks ([`ChunkSource::decode`]).
    fn decode<T: Element>(
        &self,
        engine: ReconstructEngine,
        spec: Option<&RangeSpec>,
        pool: &WorkerPool,
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        let lanes = &mut PipelineEngine::per_worker(pool);
        ChunkSource::Parsed(self).decode(engine, spec, lanes, |_| None, |_, _| {})
    }

    /// The header this container serializes with.
    pub(crate) fn header(&self) -> ChunkedHeader {
        ChunkedHeader {
            format: self.format,
            dims: self.dims,
            dtype: self.dtype,
            eb: self.eb,
            chunk_target: self.chunk_target,
            n_chunks: self.chunks.len(),
            table_offset: CHUNKED_HEADER_BYTES,
        }
    }

    /// Rebases chunk `i`'s chunk-local error to container coordinates,
    /// by the layout [`Self::to_bytes`] writes.
    pub(crate) fn place(&self, i: usize, e: CuszpError) -> CuszpError {
        let lens = self.chunks.iter().map(Archive::serialized_bytes);
        ChunkIndex::new(self.header(), lens).place(i, e)
    }

    /// Serializes the container:
    /// `[magic][version u16][rank u8][dtype u8][extents 3×u64][eb f64]
    ///  [chunk_target u64][n_chunks u32][chunk_len u64]* [chunk bytes]*
    ///  [parity section]?` — the parity section only when present, so
    /// parity-less archives keep the exact pre-parity byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        // `Archive::serialized_bytes` is exact, so the length table can
        // be written before any chunk body and every chunk serializes
        // directly into the single pre-sized output buffer.
        let mut out = Vec::with_capacity(self.serialized_bytes());
        out.extend_from_slice(&CHUNKED_MAGIC.to_le_bytes());
        out.extend_from_slice(&CHUNKED_VERSION.to_le_bytes());
        out.push(self.dims.rank() as u8);
        out.push(match self.dtype {
            Dtype::F32 => 0,
            Dtype::F64 => 1,
        });
        for e in self.dims.extents() {
            out.extend_from_slice(&(e as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&self.chunk_target.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for chunk in &self.chunks {
            out.extend_from_slice(&(chunk.serialized_bytes() as u64).to_le_bytes());
        }
        for chunk in &self.chunks {
            chunk.write_into(&mut out);
        }
        if let Some(parity) = &self.parity {
            parity.write_into(&mut out);
        }
        out
    }

    /// Parses a container written by [`Self::to_bytes`], or a v1 archive
    /// as its one-chunk container. Every chunk is structurally validated
    /// and checksummed by [`Archive::from_bytes`]; a container's failures
    /// carry the chunk index and container-relative byte offset, a v1
    /// archive's are its own.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CuszpError> {
        ChunkIndex::verify(bytes).map(|(_, archive)| archive)
    }
}

/// Where a container's chunks lie: its header and one byte range per
/// chunk, without the parsed chunks themselves — about 100 bytes plus 16
/// per chunk. A v1 archive's one chunk spans all of its bytes.
///
/// [`ChunkIndex::verify`] is the strict parse: it checks the container
/// exactly as [`ChunkedArchive::from_bytes`] does and returns its layout
/// beside the parsed chunks. A holder that knows some bytes were
/// verified can later keep only this layout and decode any chunk of
/// those bytes on its own ([`crate::ChunkSource::Verified`]): the
/// chunk's own checksum and its check against the header run again
/// there, the rest of the container is not touched.
#[derive(Debug, Clone)]
pub struct ChunkIndex {
    pub(crate) hdr: ChunkedHeader,
    /// Container byte range of each chunk, in plan order. Read from the
    /// length table, so not yet checked against any buffer.
    chunks: Vec<Range<usize>>,
}

impl ChunkIndex {
    /// The layout of chunks of lengths `lens` laid end to end after
    /// `hdr`'s length table.
    fn new(hdr: ChunkedHeader, lens: impl IntoIterator<Item = usize>) -> Self {
        let mut pos = hdr.body_offset();
        let chunks = lens
            .into_iter()
            .map(|len| {
                let start = pos;
                pos = pos.saturating_add(len);
                start..pos
            })
            .collect();
        Self { hdr, chunks }
    }

    /// Verifies a whole container — every check and every error of
    /// [`ChunkedArchive::from_bytes`] — and returns its layout and the
    /// parsed container.
    pub fn verify(bytes: &[u8]) -> Result<(Self, ChunkedArchive), CuszpError> {
        let hdr = open(bytes)?;
        let table = ChunkTable::read(bytes, &hdr);
        // A cut v1 archive fails in its own parser, below.
        if !table.complete && hdr.format == Format::Csz2 {
            return Err(CuszpError::malformed(
                "chunk length table truncated",
                ArchiveSection::LengthTable,
                bytes.len(),
            ));
        }
        // An overflowing range can lie in no buffer: "chunk truncated".
        let chunks = table.ranges.into_iter();
        let chunks = chunks.map(|r| r.unwrap_or(usize::MAX..usize::MAX));
        let index = Self {
            hdr,
            chunks: chunks.collect(),
        };
        let chunks = (0..index.n_chunks())
            .map(|i| index.chunk_at(bytes, 0, i))
            .collect::<Result<Vec<_>, _>>()?;
        // Anything after the chunk region must be a valid parity section
        // — the only extension the format defines; other trailing bytes
        // stay a hard error.
        let region = hdr.body_offset()..index.chunks.last().map_or(hdr.body_offset(), |c| c.end);
        let pos = region.end;
        let parity = if pos == bytes.len() {
            None
        } else if bytes.len() - pos >= 4
            && u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) == PARITY_MAGIC
        {
            Some(ParitySection::from_bytes(
                &bytes[pos..],
                &bytes[region],
                pos,
            )?)
        } else {
            return Err(CuszpError::malformed(
                "trailing bytes after last chunk",
                ArchiveSection::Trailer,
                pos,
            ));
        };
        // The strict parse is up front and total: every chunk is checked
        // against the plan here — exact per-slab equality, not merely
        // slow extents that sum up, so a container whose chunks were
        // reordered self-consistently is rejected — and damage outside a
        // later range read still fails it.
        let plan = index.plan()?;
        for (i, chunk) in chunks.iter().enumerate() {
            plan.check(i, chunk).map_err(|e| index.place(i, e))?;
        }
        let archive = ChunkedArchive {
            dims: hdr.dims,
            dtype: hdr.dtype,
            eb: hdr.eb,
            chunk_target: hdr.chunk_target,
            chunks,
            parity,
            format: hdr.format,
        };
        Ok((index, archive))
    }

    /// Original field dimensions.
    pub fn dims(&self) -> Dims {
        self.hdr.dims
    }

    /// Element type of the field.
    pub fn dtype(&self) -> Dtype {
        self.hdr.dtype
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes this index occupies in memory: what a cache holding it
    /// should charge against its budget.
    pub fn footprint(&self) -> usize {
        std::mem::size_of::<Self>() + self.chunks.capacity() * std::mem::size_of::<Range<usize>>()
    }

    /// Container byte range of chunk `i`, or `None` past the last chunk.
    pub fn chunk_range(&self, i: usize) -> Option<Range<usize>> {
        self.chunks.get(i).cloned()
    }

    /// The container bytes a range read of `spec` decodes: from the first
    /// byte of the first chunk it touches to the last byte of the last
    /// (chunks lie end to end in plan order). A spec the field cannot
    /// hold is the typed [`CuszpError::InvalidRange`] a decode gives.
    pub fn span_bytes(&self, spec: &RangeSpec) -> Result<Range<usize>, CuszpError> {
        let span = self.plan()?.span(&resolve(spec, self.hdr.dims)?);
        Ok(self.chunks[span.start].start..self.chunks[span.end - 1].end)
    }

    /// Parses chunk `i` out of `bytes`, which hold the container from
    /// byte `at` on: its own checksum and structure
    /// ([`Archive::from_bytes`]), with any fault placed in the container.
    pub(crate) fn chunk_at(
        &self,
        bytes: &[u8],
        at: usize,
        i: usize,
    ) -> Result<Archive, CuszpError> {
        let range = &self.chunks[i];
        let window = range.start.checked_sub(at).zip(range.end.checked_sub(at));
        let slice = window.and_then(|(lo, hi)| bytes.get(lo..hi)).ok_or(
            CuszpError::malformed(
                "chunk truncated",
                ArchiveSection::ChunkBody,
                at.saturating_add(bytes.len()),
            )
            .in_chunk(i, 0),
        )?;
        Archive::from_bytes(slice).map_err(|e| self.place(i, e))
    }

    /// The plan the header implies ([`ChunkedHeader::checked_plan`]).
    pub(crate) fn plan(&self) -> Result<PlanView, CuszpError> {
        self.hdr.checked_plan()
    }

    /// Rebases chunk `i`'s chunk-local error to container coordinates.
    /// A v1 archive's one chunk is the archive: its errors stay as the
    /// v1 parser gave them.
    pub(crate) fn place(&self, i: usize, e: CuszpError) -> CuszpError {
        match self.hdr.format {
            Format::V1 => e,
            Format::Csz2 => e.in_chunk(i, self.chunks[i].start),
        }
    }
}

/// Parsed fixed-size prefix of a container — a CSZ2 header, or the
/// one-chunk header a v1 archive opens as ([`open`]) — shared between
/// the strict parser ([`ChunkedArchive::from_bytes`]) and the lenient
/// recovery scanner (`crate::recovery`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkedHeader {
    pub format: Format,
    pub dims: Dims,
    pub dtype: Dtype,
    pub eb: f64,
    pub chunk_target: u64,
    pub n_chunks: usize,
    /// Byte offset of the chunk length table (first byte after the
    /// fixed header).
    pub table_offset: usize,
}

impl ChunkedHeader {
    /// The chunk plan this header implies.
    pub fn plan(&self) -> PlanView {
        match self.format {
            Format::V1 => PlanView::single(self.dims, self.dtype, self.eb),
            Format::Csz2 => PlanView::new(self.dims, self.dtype, self.eb, self.chunk_target),
        }
    }

    /// The plan, once the chunk count is known to agree with it. Count
    /// first, specs lazily: a corrupted extent can claim billions of
    /// chunks, and materializing that plan would abort on allocation.
    pub fn checked_plan(&self) -> Result<PlanView, CuszpError> {
        let plan = self.plan();
        if self.n_chunks != plan.n {
            return Err(CuszpError::malformed(
                "chunk count disagrees with plan",
                ArchiveSection::ContainerHeader,
                CHUNKED_HEADER_BYTES - 4,
            ));
        }
        Ok(plan)
    }

    /// Byte offset of the first chunk body (end of a complete table; 0
    /// for v1, which has no table). Saturates on inflated chunk counts so
    /// lenient scanners can call it before any bounds validation.
    pub fn body_offset(&self) -> usize {
        match self.format {
            Format::V1 => 0,
            Format::Csz2 => self
                .table_offset
                .saturating_add(self.n_chunks.saturating_mul(8)),
        }
    }
}

/// Parses and validates the fixed CSZ2 header.
pub(crate) fn parse_chunked_header(bytes: &[u8]) -> Result<ChunkedHeader, CuszpError> {
    use ArchiveSection::ContainerHeader;
    if bytes.len() < CHUNKED_HEADER_BYTES {
        return Err(CuszpError::malformed(
            "chunked header truncated",
            ContainerHeader,
            bytes.len(),
        ));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != CHUNKED_MAGIC {
        return Err(CuszpError::malformed(
            "bad chunked magic",
            ContainerHeader,
            0,
        ));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != CHUNKED_VERSION {
        return Err(CuszpError::UnsupportedVersion(version));
    }
    let rank = bytes[6];
    let dtype = match bytes[7] {
        0 => Dtype::F32,
        1 => Dtype::F64,
        _ => {
            return Err(CuszpError::malformed(
                "bad chunked dtype",
                ContainerHeader,
                7,
            ))
        }
    };
    let mut pos = 8usize;
    let mut ext = [0usize; 3];
    for e in ext.iter_mut() {
        *e = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
    }
    let (dims, n_elems) = match rank {
        1 => (Dims::D1(ext[2]), Some(ext[2])),
        2 => (
            Dims::D2 {
                ny: ext[1],
                nx: ext[2],
            },
            ext[1].checked_mul(ext[2]),
        ),
        3 => (
            Dims::D3 {
                nz: ext[0],
                ny: ext[1],
                nx: ext[2],
            },
            ext[0]
                .checked_mul(ext[1])
                .and_then(|p| p.checked_mul(ext[2])),
        ),
        _ => {
            return Err(CuszpError::malformed(
                "bad chunked rank",
                ContainerHeader,
                6,
            ))
        }
    };
    if n_elems.is_none() {
        return Err(CuszpError::malformed(
            "extent product overflow",
            ContainerHeader,
            8,
        ));
    }
    let eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let chunk_target = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let n_chunks = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 4;
    Ok(ChunkedHeader {
        format: Format::Csz2,
        dims,
        dtype,
        eb,
        chunk_target,
        n_chunks,
        table_offset: pos,
    })
}

/// Where the bytes say each chunk lies, read once from as much of the
/// length table as the buffer holds: [`ChunkIndex::verify`] needs it
/// complete, the recovery scanner makes do with what it holds. A v1
/// archive's one chunk spans all its bytes.
pub(crate) struct ChunkTable {
    /// Byte offset of the first chunk body.
    start: usize,
    /// Declared byte range of each entry the buffer holds, in order;
    /// `None` from the first that overflows on (no resync framing).
    pub ranges: Vec<Option<Range<usize>>>,
    /// The buffer holds every entry — for v1, the whole payload its
    /// header declares. Chunk bodies exist only then.
    complete: bool,
    /// Entries the buffer could hold at all, whatever the header claims.
    capacity: usize,
}

impl ChunkTable {
    /// Reads the table `hdr` declares; an inflated `n_chunks` allocates
    /// no more than the buffer holds entries for.
    pub fn read(bytes: &[u8], hdr: &ChunkedHeader) -> Self {
        let start = hdr.body_offset();
        if hdr.format == Format::V1 {
            return Self {
                start,
                ranges: vec![Some(0..bytes.len())],
                complete: v1_declared_len(bytes).is_some_and(|n| n <= bytes.len()),
                capacity: 1,
            };
        }
        let entries = bytes.get(hdr.table_offset..).unwrap_or_default();
        let mut cursor = Some(start);
        let ranges: Vec<_> = (entries.chunks_exact(8).take(hdr.n_chunks))
            .map(|entry| {
                let len = u64::from_le_bytes(entry.try_into().unwrap()) as usize;
                let range = cursor.and_then(|at| Some(at..at.checked_add(len)?));
                cursor = range.as_ref().map(|r| r.end);
                range
            })
            .collect();
        Self {
            start,
            complete: ranges.len() == hdr.n_chunks,
            ranges,
            capacity: entries.len() / 8,
        }
    }

    /// Chunk `i`'s declared byte range, when the table still locates it.
    pub fn range(&self, i: usize) -> Option<Range<usize>> {
        self.ranges.get(i).cloned().flatten()
    }

    /// Chunk `i`'s bytes, when the table is complete and the buffer
    /// holds all of them.
    pub fn body<'a>(&self, bytes: &'a [u8], i: usize) -> Option<&'a [u8]> {
        self.complete.then(|| bytes.get(self.range(i)?)).flatten()
    }

    /// Of `planned` chunks, how many the input can possibly frame, so
    /// per-chunk work is bounded by the buffer, never by a header claim.
    pub fn evaluable(&self, planned: usize) -> usize {
        planned.min(self.capacity.max(1))
    }

    /// The chunk region, when the table is complete, no range overflows
    /// and the region lies in the buffer. `None` also makes the parity
    /// section unlocatable, so repair degrades to the plain fill path.
    pub fn region(&self, len: usize) -> Option<Range<usize>> {
        let end = match self.ranges.last() {
            None => self.start,
            Some(last) => last.as_ref()?.end,
        };
        (self.complete && end <= len).then_some(self.start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, ErrorBound, WorkflowMode};

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.0021).sin() * 9.0 + (i as f32 * 0.00047).cos())
            .collect()
    }

    #[test]
    fn chunked_round_trip_all_ranks() {
        let c = Compressor::default();
        let pool = WorkerPool::new(3);
        for dims in [
            Dims::D1(40_000),
            Dims::D2 { ny: 180, nx: 220 },
            Dims::D3 {
                nz: 19,
                ny: 40,
                nx: 50,
            },
        ] {
            let data = field(dims.len());
            let arc = c.compress_chunked_with(&data, dims, 8_000, &pool).unwrap();
            assert!(arc.n_chunks() > 1, "{dims:?} must split");
            let bytes = arc.to_bytes();
            assert_eq!(bytes.len(), arc.serialized_bytes());
            let parsed = ChunkedArchive::from_bytes(&bytes).unwrap();
            assert_eq!(parsed, arc);
            let (recon, got) = parsed
                .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
                .unwrap();
            assert_eq!(got, dims);
            let eb = arc.eb;
            for (o, r) in data.iter().zip(&recon) {
                let slack = eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
                assert!(((o - r).abs() as f64) <= slack, "{o} vs {r} (eb {eb})");
            }
        }
    }

    #[test]
    fn f64_chunked_round_trip() {
        let data: Vec<f64> = (0..30_000)
            .map(|i| (i as f64 * 0.001).sin() * 5.0)
            .collect();
        let c = Compressor::default();
        let pool = WorkerPool::new(2);
        let arc = c
            .compress_chunked_with(&data, Dims::D1(30_000), 7_000, &pool)
            .unwrap();
        let parsed = ChunkedArchive::from_bytes(&arc.to_bytes()).unwrap();
        let (recon, _) = parsed
            .decompress::<f64>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        for (o, r) in data.iter().zip(&recon) {
            assert!((o - r).abs() <= arc.eb * (1.0 + 1e-12), "{o} vs {r}");
        }
        // Wrong-dtype request is refused.
        assert!(matches!(
            parsed.decompress::<f32>(ReconstructEngine::FinePartialSum, &pool),
            Err(CuszpError::DtypeMismatch { .. })
        ));
    }

    #[test]
    fn global_bound_resolution_differs_from_per_slab() {
        // First half is flat, second half spans a large range: per-slab
        // relative resolution would give the flat half a much tighter
        // bound than the global one.
        let mut data = vec![1.0f32; 20_000];
        for (i, x) in data[10_000..].iter_mut().enumerate() {
            *x = (i as f32) * 0.01;
        }
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Relative(1e-3),
            ..Config::default()
        });
        let arc = c
            .compress_chunked_with(&data, Dims::D1(20_000), 5_000, &WorkerPool::new(2))
            .unwrap();
        let global_eb = ErrorBound::Relative(1e-3).absolute(&data);
        assert_eq!(arc.eb, global_eb);
        for chunk in &arc.chunks {
            assert_eq!(
                chunk.eb, global_eb,
                "every chunk must carry the global bound"
            );
        }
    }

    #[test]
    fn per_chunk_workflows_can_differ() {
        // Flat region (RLE territory) followed by rough region (Huffman
        // territory): with per-chunk histograms the selector can pick a
        // different workflow for each chunk.
        let mut data = vec![0.5f32; 131_072];
        for (i, x) in data[65_536..].iter_mut().enumerate() {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
            *x = (h & 0x3FF) as f32 / 1024.0 * 10.0;
        }
        let c = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(0.05),
            workflow: WorkflowMode::Auto,
            ..Config::default()
        });
        let arc = c
            .compress_chunked_with(&data, Dims::D1(131_072), 65_536, &WorkerPool::new(2))
            .unwrap();
        assert_eq!(arc.n_chunks(), 2);
        let tags: Vec<bool> = arc
            .chunks
            .iter()
            .map(|ch| matches!(ch.payload, crate::CodesPayload::Huffman(_)))
            .collect();
        assert_ne!(tags[0], tags[1], "chunks must select different workflows");
    }

    #[test]
    fn empty_field_chunked() {
        let c = Compressor::default();
        let arc = c.compress_chunked::<f32>(&[], Dims::D1(0)).unwrap();
        assert_eq!(arc.n_chunks(), 0);
        let parsed = ChunkedArchive::from_bytes(&arc.to_bytes()).unwrap();
        let (recon, dims) = parsed
            .decompress::<f32>(
                ReconstructEngine::FinePartialSum,
                &WorkerPool::with_default_workers(),
            )
            .unwrap();
        assert!(recon.is_empty());
        assert_eq!(dims, Dims::D1(0));
    }

    #[test]
    fn rejects_bad_inputs_and_corruption() {
        let c = Compressor::default();
        assert!(matches!(
            c.compress_chunked(&[1.0, 2.0], Dims::D1(3)),
            Err(CuszpError::DimsMismatch { .. })
        ));
        assert!(matches!(
            c.compress_chunked(&[1.0, f32::NAN, 0.0, 0.0], Dims::D1(4)),
            Err(CuszpError::NonFiniteInput)
        ));

        let data = field(10_000);
        let arc = c
            .compress_chunked_with(&data, Dims::D1(10_000), 2_500, &WorkerPool::new(2))
            .unwrap();
        let bytes = arc.to_bytes();
        assert!(ChunkedArchive::from_bytes(&bytes[..CHUNKED_HEADER_BYTES - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(ChunkedArchive::from_bytes(&bad).is_err(), "bad magic");
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x10; // payload flip inside the last chunk
        assert!(
            ChunkedArchive::from_bytes(&bad).is_err(),
            "chunk checksum must catch flips"
        );
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(ChunkedArchive::from_bytes(&bad).is_err(), "trailing bytes");
        // A flipped high extent byte claims ~2^54 chunks: a typed error,
        // not a plan-sized allocation.
        let mut bad = bytes.clone();
        bad[8 + 16 + 6] ^= 0x41;
        assert!(matches!(
            ChunkedArchive::from_bytes(&bad),
            Err(CuszpError::MalformedArchive(f)) if f.what == "chunk count disagrees with plan"
        ));
    }

    #[test]
    fn parity_archives_round_trip_and_extend_plain_bytes() {
        let data = field(50_000);
        let c = Compressor::default();
        let pool = WorkerPool::new(2);
        let plain = c
            .compress_chunked_with(&data, Dims::D1(50_000), 8_000, &pool)
            .unwrap();
        let cfg = crate::ParityConfig {
            data_shards: 4,
            parity_shards: 2,
        };
        let with_parity = c
            .compress_chunked_with_parity(&data, Dims::D1(50_000), 8_000, &pool, cfg)
            .unwrap();
        let sec = with_parity.parity.as_ref().expect("parity section present");
        assert!(sec.n_stripes >= 2, "fixture must span multiple stripes");

        // The parity section is strictly additive: the prefix is the
        // parity-less archive, byte for byte.
        let plain_bytes = plain.to_bytes();
        let parity_bytes = with_parity.to_bytes();
        assert_eq!(parity_bytes.len(), with_parity.serialized_bytes());
        assert_eq!(&parity_bytes[..plain_bytes.len()], &plain_bytes[..]);
        assert!(parity_bytes.len() > plain_bytes.len());

        // Round trip through the strict parser, then decompress.
        let parsed = ChunkedArchive::from_bytes(&parity_bytes).unwrap();
        assert_eq!(parsed, with_parity);
        let (recon, dims) = parsed
            .decompress::<f32>(ReconstructEngine::FinePartialSum, &pool)
            .unwrap();
        assert_eq!(dims, Dims::D1(50_000));
        for (o, r) in data.iter().zip(&recon) {
            let slack = with_parity.eb * (1.0 + 1e-6) + (o.abs() as f64) * f32::EPSILON as f64;
            assert!(((o - r).abs() as f64) <= slack, "{o} vs {r}");
        }

        // Deterministic at any pool width.
        for workers in [1, 8] {
            let other = c
                .compress_chunked_with_parity(
                    &data,
                    Dims::D1(50_000),
                    8_000,
                    &WorkerPool::new(workers),
                    cfg,
                )
                .unwrap();
            assert_eq!(other.to_bytes(), parity_bytes, "{workers} workers");
        }

        // A flipped parity byte is caught by the strict parser.
        let mut bad = parity_bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(ChunkedArchive::from_bytes(&bad).is_err());
        // Junk that is not a parity section stays a trailer error.
        let mut bad = plain_bytes.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(
            ChunkedArchive::from_bytes(&bad),
            Err(CuszpError::MalformedArchive(f)) if f.section == ArchiveSection::Trailer
        ));
    }

    #[test]
    fn top_level_decompress_sniffs_chunked_magic() {
        let data = field(20_000);
        let c = Compressor::default();
        let chunked = c
            .compress_chunked_with(&data, Dims::D1(20_000), 5_000, &WorkerPool::new(2))
            .unwrap();
        let (recon, dims) = crate::decompress(&chunked.to_bytes()).unwrap();
        assert_eq!(dims, Dims::D1(20_000));
        assert_eq!(recon.len(), data.len());
        // v1 single-chunk archives still decompress through the same door.
        let v1 = c.compress(&data, Dims::D1(20_000)).unwrap();
        let (recon1, _) = crate::decompress(&v1.to_bytes()).unwrap();
        assert_eq!(recon1.len(), data.len());
    }
}
