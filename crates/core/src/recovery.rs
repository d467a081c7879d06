//! Fault-isolated decompression and archive diagnosis.
//!
//! CSZ2 chunks are compressed independently — each carries its own
//! header, codebook, and FNV-1a checksum — so corruption in one chunk
//! says nothing about the others. This module exploits that: instead of
//! the all-or-nothing [`ChunkedArchive::from_bytes`](crate::ChunkedArchive)
//! path, [`Decode::resilient`](crate::Decode::resilient) validates and
//! decodes every chunk independently, reconstructs the undamaged slabs
//! bit-exactly, fills damaged slabs per a caller-chosen [`FillPolicy`],
//! and reports a [`ChunkReport`] per chunk. [`scan`] runs the same
//! diagnosis without producing output (the engine behind `cuszp fsck`).
//!
//! # The container header is the authority
//!
//! The chunk plan is a pure function of the container header's shape and
//! chunk target ([`cuszp_parallel::plan_chunks`]), so slab extents can be
//! recomputed even for chunks whose own headers are destroyed. Strict and
//! resilient decoding are two policies over one chunk walk
//! (`crate::walk`) and share its one check: a chunk whose embedded
//! dtype, dims or error bound disagree with the container's is reported
//! [`ChunkStatus::Malformed`] rather than trusted. When **no** chunk is
//! recoverable the container header itself is suspect (its dims would
//! mis-plan every chunk), and whole-field recovery fails hard instead of
//! fabricating a field — this is also what keeps a corrupted header from
//! driving a giant output allocation.
//!
//! A v1 archive is read the same way, as a container of one chunk (see
//! `crate::chunked`). With no container around that chunk there is
//! nothing to isolate a fault from: a damaged v1 archive fails a
//! resilient decode with the parser's own error, and `scan` reports a
//! fault in its header as the one chunk's.

use crate::chunked::{open, ChunkTable, Format};
use crate::element::{check_dtype, Element};
use crate::engine::PipelineEngine;
use crate::error::{ArchiveSection, CuszpError, ParseFault};
use crate::parity::{
    parse_parity_layout, ParityConfig, ParitySection, PARITY_HEADER_BYTES, PARITY_MAGIC,
};
use crate::range::{resolve, RangeSpec, ResolvedRange};
use crate::walk::PlanView;
use crate::{Archive, CodecPlan, Dims, Dtype, ReconstructEngine};
use cuszp_checksum::fnv1a;
use cuszp_ecc::ReedSolomon;
use cuszp_parallel::WorkerPool;
use cuszp_predictor::Scalar;
use std::borrow::Cow;
use std::ops::Range;

/// What to write into slabs whose chunk could not be recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPolicy {
    /// Fill with NaN — damage stays visible to downstream analysis
    /// (the default).
    #[default]
    Nan,
    /// Fill with zero — for consumers that cannot tolerate NaN.
    Zero,
}

impl FillPolicy {
    fn value<T: Scalar>(&self) -> T {
        match self {
            FillPolicy::Nan => T::from_f64(f64::NAN),
            FillPolicy::Zero => T::from_f64(0.0),
        }
    }

    /// Parses a CLI spelling ("nan" / "zero").
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "nan" => Some(FillPolicy::Nan),
            "zero" => Some(FillPolicy::Zero),
            _ => None,
        }
    }
}

/// Outcome of validating (and decoding) one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkStatus {
    /// Parsed, checksum verified, decoded.
    Ok,
    /// Damaged in storage but reconstructed bit-exactly from Reed–Solomon
    /// parity before decoding; lists the global data-shard indices that
    /// were healed within this chunk's byte range.
    Repaired {
        /// Global data-shard indices (region order) the repair rewrote.
        shards: Vec<usize>,
    },
    /// Stored checksum disagrees with the recomputed one: the chunk's
    /// bytes were altered in storage or transit.
    ChecksumMismatch {
        /// Checksum stored in the chunk header.
        expected: u64,
        /// Checksum recomputed over the chunk payload.
        actual: u64,
        /// Byte offset where the checksummed payload starts, in the
        /// outermost buffer's coordinates.
        offset: usize,
    },
    /// The container ends before this chunk's declared bytes (or before
    /// its length-table entry).
    Truncated,
    /// The chunk bytes are structurally invalid. The fields are a
    /// [`ParseFault`]'s, owned so the status survives a trip over the
    /// wire (the fault's chunk index is the report's `index`).
    Malformed {
        /// What the parser found wrong.
        what: Cow<'static, str>,
        /// Name of the layout section being parsed
        /// ([`ArchiveSection::name`]).
        section: Cow<'static, str>,
        /// Byte offset of the fault, in container coordinates.
        offset: usize,
    },
}

impl ChunkStatus {
    /// The one place a [`ParseFault`] becomes a report entry.
    fn malformed(what: &'static str, section: ArchiveSection, offset: usize) -> Self {
        ChunkStatus::Malformed {
            what: Cow::Borrowed(what),
            section: Cow::Borrowed(section.name()),
            offset,
        }
    }

    /// True for [`ChunkStatus::Ok`] — the chunk was intact as stored.
    pub fn is_ok(&self) -> bool {
        matches!(self, ChunkStatus::Ok)
    }

    /// True when the chunk's data is available bit-exactly: intact as
    /// stored ([`ChunkStatus::Ok`]) or healed from parity
    /// ([`ChunkStatus::Repaired`]).
    pub fn is_recovered(&self) -> bool {
        matches!(self, ChunkStatus::Ok | ChunkStatus::Repaired { .. })
    }

    /// Short display label ("ok" / "repaired" / "checksum" / "truncated"
    /// / "malformed").
    pub fn label(&self) -> &'static str {
        match self {
            ChunkStatus::Ok => "ok",
            ChunkStatus::Repaired { .. } => "repaired",
            ChunkStatus::ChecksumMismatch { .. } => "checksum",
            ChunkStatus::Truncated => "truncated",
            ChunkStatus::Malformed { .. } => "malformed",
        }
    }
}

impl std::fmt::Display for ChunkStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkStatus::Ok => write!(f, "ok"),
            ChunkStatus::Repaired { shards } => {
                write!(f, "repaired from parity (data shards {shards:?})")
            }
            ChunkStatus::ChecksumMismatch {
                expected,
                actual,
                offset,
            } => {
                write!(
                    f,
                    "checksum mismatch (stored {expected:#x}, computed {actual:#x}, payload @ byte {offset})"
                )
            }
            ChunkStatus::Truncated => write!(f, "truncated"),
            ChunkStatus::Malformed {
                what,
                section,
                offset,
            } => write!(f, "malformed: {what} [{section} @ byte {offset}]"),
        }
    }
}

/// Per-chunk diagnosis: status, where the chunk lives in the container,
/// and which slab of the field it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkReport {
    /// Chunk index in plan order.
    pub index: usize,
    /// Validation/decode outcome.
    pub status: ChunkStatus,
    /// Declared byte range of the chunk body inside the container, when
    /// the length table still locates it (the end may lie beyond a
    /// truncated buffer).
    pub byte_range: Option<Range<usize>>,
    /// Element range of the field this chunk's slab covers.
    pub elem_range: Range<usize>,
    /// The chunk's recorded codec plan, when its header parsed (present
    /// even for chunks whose payload later failed validation).
    pub plan: Option<CodecPlan>,
}

/// Health of one parity stripe, as classified (and where possible
/// healed) by the recovery pre-pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StripeStatus {
    /// Every data and parity shard matched its stored checksum.
    Intact,
    /// Damage within the erasure budget: the listed `data` shards were
    /// reconstructed bit-exactly; `parity` lists this stripe's damaged
    /// parity shards (stripe-local indices, `0..m`), which
    /// [`repair`] regenerates when rewriting the archive.
    Repaired {
        /// Global data-shard indices reconstructed from parity.
        data: Vec<usize>,
        /// Stripe-local indices of damaged parity shards.
        parity: Vec<usize>,
    },
    /// More damaged data shards than surviving parity shards:
    /// reconstruction is impossible and the affected chunks fall back to
    /// the [`FillPolicy`].
    Unrepairable {
        /// Global data-shard indices that failed their checksums.
        damaged_data: Vec<usize>,
        /// How many of the stripe's parity shards survived.
        intact_parity: usize,
    },
}

/// Stripe-level diagnosis of a container's parity section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityReport {
    /// Data shards per stripe (`k`).
    pub data_shards: u16,
    /// Parity shards per stripe (`m`).
    pub parity_shards: u16,
    /// Bytes per shard.
    pub shard_size: u32,
    /// Number of stripes guarding the chunk region.
    pub n_stripes: usize,
    /// One status per stripe, in region order.
    pub stripes: Vec<StripeStatus>,
}

impl ParityReport {
    /// Stripes healed by the pre-pass (includes parity-only damage).
    pub fn n_repaired(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| matches!(s, StripeStatus::Repaired { .. }))
            .count()
    }

    /// Stripes whose damage exceeded the erasure budget.
    pub fn n_unrepairable(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| matches!(s, StripeStatus::Unrepairable { .. }))
            .count()
    }

    /// True when every stripe (data *and* parity shards) verified.
    pub fn is_intact(&self) -> bool {
        self.stripes.iter().all(|s| *s == StripeStatus::Intact)
    }
}

/// The per-chunk diagnosis of an archive: what [`scan`] returns, what a
/// resilient decode reports ([`RecoveredField::into_report`]), and —
/// through `to_bytes` / `from_bytes` — what the CSRP `scan` and recover
/// answers carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Container format ("csz2" or "v1").
    pub format: Cow<'static, str>,
    /// Field dimensions from the container header, when parseable.
    pub dims: Option<Dims>,
    /// Element type from the container header, when parseable.
    pub dtype: Option<Dtype>,
    /// Chunk count the container header declares.
    pub declared_chunks: usize,
    /// One report per chunk in plan order, with two bounded exceptions
    /// that keep the list proportional to the *input*: planned chunks
    /// the buffer cannot even frame collapse into one trailing
    /// `Truncated` report, and declared chunks beyond the plan are
    /// appended only as far as the buffer holds table entries for them.
    pub reports: Vec<ChunkReport>,
    /// Stripe-level parity diagnosis, when the container carries a
    /// locatable parity section.
    pub parity: Option<ParityReport>,
}

/// Chunks whose data is lost (neither intact nor healed from parity).
fn count_damaged(reports: &[ChunkReport]) -> usize {
    reports.iter().filter(|r| !r.status.is_recovered()).count()
}

/// Chunks healed from parity.
fn count_repaired(reports: &[ChunkReport]) -> usize {
    reports
        .iter()
        .filter(|r| matches!(r.status, ChunkStatus::Repaired { .. }))
        .count()
}

impl ScanReport {
    /// Number of chunks whose data is lost (neither intact nor healed
    /// from parity).
    pub fn n_damaged(&self) -> usize {
        count_damaged(&self.reports)
    }

    /// Number of chunks healed from parity.
    pub fn n_repaired(&self) -> usize {
        count_repaired(&self.reports)
    }

    /// True when every chunk's data is available bit-exactly (intact or
    /// repaired).
    pub fn is_clean(&self) -> bool {
        self.n_damaged() == 0
    }
}

/// A field recovered by resilient decompression.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredField<T> {
    /// The reconstructed field; damaged slabs hold the fill value.
    pub data: Vec<T>,
    /// Field dimensions.
    pub dims: Dims,
    /// One report per chunk.
    pub reports: Vec<ChunkReport>,
    /// Stripe-level parity diagnosis, when the container carries a
    /// locatable parity section.
    pub parity: Option<ParityReport>,
}

impl<T> RecoveredField<T> {
    /// Number of chunks whose data is lost (neither intact nor healed
    /// from parity).
    pub fn n_damaged(&self) -> usize {
        count_damaged(&self.reports)
    }

    /// Number of chunks healed from parity.
    pub fn n_repaired(&self) -> usize {
        count_repaired(&self.reports)
    }

    /// True when every chunk's data is available bit-exactly (intact or
    /// repaired).
    pub fn is_clean(&self) -> bool {
        self.n_damaged() == 0
    }
}

impl<T: Element> RecoveredField<T> {
    /// Splits into the field and the report a resilient-decompression
    /// answer carries: the per-chunk and parity diagnosis move into a
    /// [`ScanReport`] whose dims are this (sub-)field's.
    pub fn into_report(self) -> (Vec<T>, ScanReport) {
        let report = ScanReport {
            format: Cow::Borrowed("csz2"),
            dims: Some(self.dims),
            dtype: Some(T::DTYPE),
            declared_chunks: self.reports.len(),
            reports: self.reports,
            parity: self.parity,
        };
        (self.data, report)
    }
}

/// Maps a chunk-local error to a [`ChunkStatus`], rebasing parse faults
/// to container coordinates.
fn status_from_error(e: CuszpError, chunk: usize, base: usize) -> ChunkStatus {
    match e.in_chunk(chunk, base) {
        CuszpError::ChecksumMismatch {
            expected,
            actual,
            offset,
            ..
        } => ChunkStatus::ChecksumMismatch {
            expected,
            actual,
            offset,
        },
        CuszpError::MalformedArchive(ParseFault {
            what,
            section,
            offset,
            ..
        }) => ChunkStatus::malformed(what, section, offset),
        CuszpError::UnsupportedVersion(_) => {
            ChunkStatus::malformed("unsupported chunk version", ArchiveSection::ChunkBody, base)
        }
        _ => ChunkStatus::malformed("invalid chunk", ArchiveSection::ChunkBody, base),
    }
}

/// Where chunk `i`'s bytes start in the container (0 when the table no
/// longer locates it).
fn chunk_base(table: &ChunkTable, i: usize) -> usize {
    table.range(i).map_or(0, |r| r.start)
}

/// Frames chunk `i`: parses its bytes and checks the result against the
/// container ([`PlanView::check`]). A chunk the buffer does not fully
/// hold — or the table does not locate — is `Truncated`.
fn frame_chunk(
    table: &ChunkTable,
    bytes: &[u8],
    i: usize,
    plan: &PlanView,
) -> Result<Archive, ChunkStatus> {
    let Some(body) = table.body(bytes, i) else {
        return Err(ChunkStatus::Truncated);
    };
    Archive::from_bytes(body)
        .and_then(|archive| plan.check(i, &archive).map(|()| archive))
        .map_err(|e| status_from_error(e, i, chunk_base(table, i)))
}

/// Runs `act` on a framed chunk and folds the result into the chunk's
/// report fields: its status, and its codec plan whenever its header
/// parsed (even if `act` then failed). `base` rebases `act`'s error.
fn evaluate_chunk(
    framed: Result<&Archive, ChunkStatus>,
    i: usize,
    base: usize,
    act: impl FnOnce(&Archive) -> Result<(), CuszpError>,
) -> (ChunkStatus, Option<CodecPlan>) {
    match framed {
        Err(status) => (status, None),
        Ok(archive) => {
            let status = match act(archive) {
                Ok(()) => ChunkStatus::Ok,
                Err(e) => status_from_error(e, i, base),
            };
            (status, Some(archive.plan()))
        }
    }
}

/// One [`ChunkReport`] per evaluated chunk of `span`.
fn chunk_reports(
    outcomes: Vec<(ChunkStatus, Option<CodecPlan>)>,
    span: Range<usize>,
    table: &ChunkTable,
    plan: &PlanView,
) -> Vec<ChunkReport> {
    outcomes
        .into_iter()
        .zip(span)
        .map(|((status, chunk_plan), i)| ChunkReport {
            index: i,
            status,
            byte_range: table.range(i),
            elem_range: plan.spec(i).elems,
            plan: chunk_plan,
        })
        .collect()
}

/// When the buffer cannot frame every planned chunk, the unframeable
/// tail collapses into one `Truncated` report spanning the rest of the
/// field, keeping the report list proportional to the input.
fn push_truncated_tail(
    reports: &mut Vec<ChunkReport>,
    plan: &PlanView,
    n_geo: usize,
    n_elems: usize,
) {
    if n_geo < plan.n {
        let start = plan.spec(n_geo).elems.start.min(n_elems);
        reports.push(ChunkReport {
            index: n_geo,
            status: ChunkStatus::Truncated,
            byte_range: None,
            elem_range: start..n_elems,
            plan: None,
        });
    }
}

/// Reports for declared chunks beyond the plan (an inflated `n_chunks`
/// or a corrupted chunk target): they cover no slab and are malformed by
/// definition. Only entries the buffer actually holds table bytes for
/// are enumerated — an inflated count must not inflate the report list
/// beyond what the input itself pays for (`declared_chunks` still
/// records the raw claim).
fn extra_chunk_reports(
    table_offset: usize,
    table: &ChunkTable,
    evaluated: usize,
    n_elems: usize,
) -> Vec<ChunkReport> {
    (table.ranges.iter().cloned().enumerate().skip(evaluated))
        .map(|(i, byte_range)| ChunkReport {
            index: i,
            status: ChunkStatus::malformed(
                "chunk beyond plan",
                ArchiveSection::LengthTable,
                table_offset + i * 8,
            ),
            byte_range,
            elem_range: n_elems..n_elems,
            plan: None,
        })
        .collect()
}

/// Global index and absolute byte range of each healed data shard.
type RepairedShards = Vec<(usize, Range<usize>)>;

/// Outcome of the parity pre-pass over a CSZ2 container.
struct ParityHeal {
    /// Stripe-level diagnosis.
    report: ParityReport,
    /// Absolute byte range of the chunk region in the container.
    region: Range<usize>,
    /// Container bytes with every repairable data shard healed in place
    /// (`None` when no data shard needed reconstruction).
    healed: Option<Vec<u8>>,
    /// What was healed, and where.
    repaired: RepairedShards,
}

fn section_u64(section: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(section[off..off + 8].try_into().unwrap())
}

/// Classifies every shard of the parity section against its stored
/// checksum and reconstructs repairable stripes. Returns `None` when the
/// container carries no parity section the scanner can trust enough to
/// use (absent, unlocatable, or a damaged header).
///
/// Truncation that cuts into the chunk region also cuts the section off
/// the tail, so truncated containers get no parity assist — parity
/// guards bit flips, not missing bytes.
fn parity_heal(bytes: &[u8], table: &ChunkTable) -> Option<ParityHeal> {
    let region_range = table.region(bytes.len())?;
    let section = &bytes[region_range.end..];
    if section.len() < PARITY_HEADER_BYTES
        || u32::from_le_bytes(section[..4].try_into().unwrap()) != PARITY_MAGIC
    {
        return None;
    }
    let geo = parse_parity_layout(section).ok()?;
    if geo.region_len != region_range.len() {
        return None;
    }
    let region = &bytes[region_range.clone()];

    // Shard classification: a data shard is intact iff its bytes hash to
    // the stored checksum; a parity shard additionally needs its length
    // entry to agree with the (header-checksummed) shard size.
    let data_ok: Vec<bool> = (0..geo.n_data)
        .map(|d| {
            section_u64(section, PARITY_HEADER_BYTES + d * 8)
                == fnv1a(&region[geo.data_shard_range(d)])
        })
        .collect();
    let parity_bytes_off = geo.parity_bytes_off();
    let parity_shard = |p: usize| {
        let start = parity_bytes_off + p * geo.shard_size;
        &section[start..start + geo.shard_size]
    };
    let parity_ok: Vec<bool> = (0..geo.n_parity())
        .map(|p| {
            let len_off = geo.parity_len_off() + p * 4;
            let len = u32::from_le_bytes(section[len_off..len_off + 4].try_into().unwrap());
            len as usize == geo.shard_size
                && section_u64(section, geo.parity_cksum_off() + p * 8) == fnv1a(parity_shard(p))
        })
        .collect();

    let rs = ReedSolomon::new(geo.k, geo.m).ok()?;
    let mut healed: Option<Vec<u8>> = None;
    let mut repaired: RepairedShards = Vec::new();
    let mut stripes = Vec::with_capacity(geo.n_stripes);
    for s in 0..geo.n_stripes {
        let data_range = geo.stripe_data_shards(s);
        let damaged_data: Vec<usize> = data_range.clone().filter(|&d| !data_ok[d]).collect();
        let damaged_parity: Vec<usize> =
            (0..geo.m).filter(|&p| !parity_ok[s * geo.m + p]).collect();
        if damaged_data.is_empty() && damaged_parity.is_empty() {
            stripes.push(StripeStatus::Intact);
            continue;
        }
        let intact_parity = geo.m - damaged_parity.len();
        if damaged_data.len() > intact_parity {
            stripes.push(StripeStatus::Unrepairable {
                damaged_data,
                intact_parity,
            });
            continue;
        }
        if !damaged_data.is_empty() {
            // Stripes are disjoint slices of the region, so survivors can
            // be read from the original buffer even after earlier stripes
            // were healed.
            let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(geo.k + geo.m);
            for d in data_range.start..data_range.start + geo.k {
                shards.push(if d >= geo.n_data {
                    // Virtual zero shard of the tail stripe: intact by
                    // definition, never costs erasure budget.
                    Some(vec![0u8; geo.shard_size])
                } else if data_ok[d] {
                    Some(region[geo.data_shard_range(d)].to_vec())
                } else {
                    None
                });
            }
            for p in 0..geo.m {
                let gp = s * geo.m + p;
                shards.push(parity_ok[gp].then(|| parity_shard(gp).to_vec()));
            }
            if rs.reconstruct(&mut shards, geo.shard_size).is_err() {
                stripes.push(StripeStatus::Unrepairable {
                    damaged_data,
                    intact_parity,
                });
                continue;
            }
            let buf = healed.get_or_insert_with(|| bytes.to_vec());
            for &d in &damaged_data {
                let r = geo.data_shard_range(d);
                let abs = region_range.start + r.start..region_range.start + r.end;
                let src = shards[d - data_range.start].as_ref().unwrap();
                buf[abs.clone()].copy_from_slice(&src[..r.len()]);
                repaired.push((d, abs));
            }
        }
        stripes.push(StripeStatus::Repaired {
            data: damaged_data,
            parity: damaged_parity,
        });
    }
    Some(ParityHeal {
        report: ParityReport {
            data_shards: geo.k as u16,
            parity_shards: geo.m as u16,
            shard_size: geo.shard_size as u32,
            n_stripes: geo.n_stripes,
            stripes,
        },
        region: region_range,
        healed,
        repaired,
    })
}

/// Upgrades chunks that validated cleanly only because the parity pass
/// healed bytes inside their range: `Ok` → `Repaired` with the shard
/// indices that were rewritten. Chunks that still fail keep their
/// failure status — their stripe was beyond budget.
fn apply_repairs(reports: &mut [ChunkReport], repaired: &[(usize, Range<usize>)]) {
    if repaired.is_empty() {
        return;
    }
    for rep in reports.iter_mut() {
        if !rep.status.is_ok() {
            continue;
        }
        let Some(br) = rep.byte_range.clone() else {
            continue;
        };
        let shards: Vec<usize> = repaired
            .iter()
            .filter(|(_, r)| r.start < br.end && br.start < r.end)
            .map(|(d, _)| *d)
            .collect();
        if !shards.is_empty() {
            rep.status = ChunkStatus::Repaired { shards };
        }
    }
}

/// Runs the parity pre-pass and hands back the buffer the chunk passes
/// should evaluate: the healed copy when shards were reconstructed, the
/// input otherwise.
fn pre_heal<'a>(
    bytes: &'a [u8],
    table: &ChunkTable,
) -> (Cow<'a, [u8]>, Option<ParityReport>, RepairedShards) {
    match parity_heal(bytes, table) {
        Some(h) => {
            let buf = match h.healed {
                Some(v) => Cow::Owned(v),
                None => Cow::Borrowed(bytes),
            };
            (buf, Some(h.report), h.repaired)
        }
        None => (Cow::Borrowed(bytes), None, Vec::new()),
    }
}

/// Diagnoses every chunk of a CSZ2 container (or a v1 archive, read as
/// its one chunk) without producing output. Chunks are parsed,
/// checksummed, **and decoded** in parallel; only a container whose
/// fixed header is unusable returns `Err` — a v1 archive never does.
pub fn scan(bytes: &[u8]) -> Result<ScanReport, CuszpError> {
    scan_with(bytes, &WorkerPool::with_default_workers())
}

/// [`scan`] with an explicit worker pool.
pub fn scan_with(bytes: &[u8], pool: &WorkerPool) -> Result<ScanReport, CuszpError> {
    let format = Format::of(bytes);
    let hdr = match format.header(bytes) {
        Ok(hdr) => hdr,
        Err(e) if format == Format::V1 => return Ok(unopened_v1(bytes, e)),
        Err(e) => return Err(e),
    };
    let table = ChunkTable::read(bytes, &hdr);
    // Repair before fill: damaged shards the parity section can
    // reconstruct are healed first, so the chunk passes below see the
    // repaired bytes. The header and length table sit outside the
    // striped region and are reused unchanged.
    let (healed, parity, repaired) = pre_heal(bytes, &table);
    let bytes = &healed[..];
    let plan = hdr.plan();
    let n_geo = table.evaluable(plan.n);
    // Each scan worker keeps one engine: the decode probe reuses the
    // engine's code arena across every chunk it checks.
    let outcomes = pool.run_with_state(n_geo, PipelineEngine::new, |i, eng| {
        let framed = frame_chunk(&table, bytes, i, &plan);
        evaluate_chunk(
            framed.as_ref().map_err(Clone::clone),
            i,
            chunk_base(&table, i),
            |archive| eng.validate_codes(archive),
        )
    });
    let mut reports = chunk_reports(outcomes, 0..n_geo, &table, &plan);
    push_truncated_tail(&mut reports, &plan, n_geo, hdr.dims.len());
    reports.extend(extra_chunk_reports(
        hdr.table_offset,
        &table,
        n_geo,
        hdr.dims.len(),
    ));
    apply_repairs(&mut reports, &repaired);
    Ok(ScanReport {
        format: Cow::Borrowed(hdr.format.name()),
        dims: Some(hdr.dims),
        dtype: Some(hdr.dtype),
        declared_chunks: hdr.n_chunks,
        reports,
        parity,
    })
}

/// The report on v1 bytes whose fixed header does not open. A v1
/// archive's header is its one chunk's, so the fault is that chunk's —
/// reported, with the field's shape unknown, not returned.
fn unopened_v1(bytes: &[u8], e: CuszpError) -> ScanReport {
    ScanReport {
        format: Cow::Borrowed(Format::V1.name()),
        dims: None,
        dtype: None,
        declared_chunks: 1,
        reports: vec![ChunkReport {
            index: 0,
            status: status_from_error(e, 0, 0),
            byte_range: Some(0..bytes.len()),
            elem_range: 0..0,
            plan: None,
        }],
        parity: None,
    }
}

/// Resilient decode (the engine behind
/// [`Decode::resilient`](crate::Decode::resilient)), the fill-and-report
/// policy over the chunk walk: undamaged chunks reconstruct
/// bit-identically to the strict path; the requested rows of damaged
/// slabs are filled per `fill` and reported.
///
/// A whole-field read (`range` is `None`) reports every chunk and fails
/// hard when the container header is unusable or **no** chunk is
/// recoverable. A range read decodes and reports only the chunks whose
/// slabs intersect `range` (global chunk indices, field-global element
/// ranges) — out-of-range chunks are neither decoded nor reported,
/// whatever their state — and an all-damaged range fills and reports
/// instead of failing.
pub(crate) fn recover<T: Element>(
    bytes: &[u8],
    range: Option<&RangeSpec>,
    fill: FillPolicy,
    engine: ReconstructEngine,
    pool: &WorkerPool,
) -> Result<RecoveredField<T>, CuszpError> {
    let hdr = open(bytes)?;
    check_dtype::<T>(hdr.dtype)?;
    // A spec is validated against the header's dims before anything is
    // allocated or decoded: a bad spec is a typed `InvalidRange`, and a
    // valid one bounds the output by what the *caller* asked for.
    let r = match range {
        Some(spec) => resolve(spec, hdr.dims)?,
        None => ResolvedRange::full(hdr.dims),
    };
    // Repair before fill: shards the parity section can reconstruct are
    // healed before any chunk is parsed, so slabs whose damage fits the
    // erasure budget decode bit-exactly instead of taking the fill value.
    // Parity stripes span the whole chunk region, so healing is global
    // even for a range read.
    let table = ChunkTable::read(bytes, &hdr);
    let (healed, parity, repaired) = pre_heal(bytes, &table);
    let bytes = &healed[..];
    let plan = hdr.plan();
    let n_geo = table.evaluable(plan.n);
    // A whole-field read walks every chunk the buffer can frame (the
    // rest is the truncated tail); a range read walks its span, and a
    // chunk of it the table does not locate is `Truncated`.
    let whole = range.is_none();
    let span = if whole { 0..n_geo } else { plan.span(&r) };

    // The whole field's size is the header's claim, not the caller's: if
    // nothing is recoverable the header's own dims are untrustworthy,
    // and allocating `dims.len()` elements from them would let a flipped
    // extent bit demand arbitrary memory. Find one good chunk first (and
    // keep it: the walk below does not parse it again).
    let frame = |i: usize| frame_chunk(&table, bytes, i, &plan);
    let first_good = match hdr.format {
        // A v1 archive's one chunk is the archive: there is no rest to
        // salvage, so damage fails the read, whole or range, with the
        // parser's own error.
        Format::V1 => Some((0, Archive::from_bytes(bytes)?)),
        Format::Csz2 => whole
            .then(|| span.clone().find_map(|i| Some((i, frame(i).ok()?))))
            .flatten(),
    };
    if whole && plan.n > 0 && first_good.is_none() {
        return Err(CuszpError::malformed(
            "no recoverable chunks in container",
            ArchiveSection::ChunkBody,
            hdr.body_offset().min(bytes.len()),
        ));
    }

    // Damaged segments (and any unframeable tail) keep the fill value
    // the buffer is initialized with. The allocation is a try_reserve:
    // graceful failure beats an abort if memory genuinely runs out.
    let fill_value: T = fill.value();
    let mut data: Vec<T> = Vec::new();
    data.try_reserve_exact(r.len()).map_err(|_| {
        CuszpError::malformed(
            if whole {
                "field too large for memory"
            } else {
                "range too large for memory"
            },
            ArchiveSection::ContainerHeader,
            8,
        )
    })?;
    data.resize(r.len(), fill_value);
    let outcomes = plan.walk(
        span.clone(),
        &r,
        &mut data,
        &mut PipelineEngine::per_worker(pool),
        |i, seg, eng, scratch| {
            let fresh;
            let framed = match &first_good {
                Some((good, archive)) if *good == i => Ok(archive),
                _ => {
                    fresh = frame(i);
                    fresh.as_ref().map_err(Clone::clone)
                }
            };
            evaluate_chunk(framed, i, chunk_base(&table, i), |archive| {
                plan.reconstruct(i, archive, &r, engine, eng, scratch, seg)
                    .map(drop)
                    // Reconstruction may have partially written the segment.
                    .inspect_err(|_| seg.fill(fill_value))
            })
        },
    );
    let mut reports = chunk_reports(outcomes, span, &table, &plan);
    if whole {
        push_truncated_tail(&mut reports, &plan, n_geo, r.len());
        reports.extend(extra_chunk_reports(
            hdr.table_offset,
            &table,
            n_geo,
            r.len(),
        ));
    }
    apply_repairs(&mut reports, &repaired);
    Ok(RecoveredField {
        data,
        dims: r.sub_dims(hdr.dims),
        reports,
        parity,
    })
}

/// Outcome of [`repair`]: the healed archive bytes plus the diagnosis of
/// the *input* (what was damaged and what parity reconstructed).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The full healed container: repaired chunk region plus a freshly
    /// regenerated parity section. Parity generation is deterministic,
    /// so an in-budget repair restores the pre-damage archive
    /// byte-identically. Equals the input when nothing was wrong — or
    /// when rewriting would be unsafe (data loss, see `modified`).
    pub bytes: Vec<u8>,
    /// Scan of the input, including `Repaired` chunk statuses and the
    /// stripe-level parity diagnosis.
    pub report: ScanReport,
    /// True when `bytes` differs from the input. Stays false on data
    /// loss: regenerating checksums over unrepairable bytes would freeze
    /// the damage in place, so the input is returned untouched.
    pub modified: bool,
}

/// Heals a CSZ2 archive in memory: reconstructs every repairable data
/// shard from parity and regenerates the parity section (restoring
/// damaged parity shards too). See [`RepairOutcome`] for the contract —
/// archives with unrepairable damage are diagnosed but never rewritten.
pub fn repair(bytes: &[u8]) -> Result<RepairOutcome, CuszpError> {
    repair_with(bytes, &WorkerPool::with_default_workers())
}

/// [`repair`] with an explicit worker pool.
pub fn repair_with(bytes: &[u8], pool: &WorkerPool) -> Result<RepairOutcome, CuszpError> {
    let report = scan_with(bytes, pool)?;
    let untouched = |report: ScanReport| RepairOutcome {
        bytes: bytes.to_vec(),
        report,
        modified: false,
    };
    // Bytes whose header does not open (`scan` reports those for v1)
    // have no parity to heal with, and neither has a v1 archive.
    let Ok(hdr) = open(bytes) else {
        return Ok(untouched(report));
    };
    let Some(heal) = parity_heal(bytes, &ChunkTable::read(bytes, &hdr)) else {
        return Ok(untouched(report));
    };
    if heal.report.n_unrepairable() > 0 || report.n_damaged() > 0 {
        return Ok(untouched(report));
    }
    let src = heal.healed.as_deref().unwrap_or(bytes);
    let cfg = ParityConfig {
        data_shards: heal.report.data_shards,
        parity_shards: heal.report.parity_shards,
    };
    let mut out = src[..heal.region.end].to_vec();
    if let Some(section) = ParitySection::build(&src[heal.region.clone()], &cfg, pool) {
        section.write_into(&mut out);
    }
    let modified = out != bytes;
    Ok(RepairOutcome {
        bytes: out,
        report,
        modified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::parse_chunked_header;
    use crate::{Compressor, Config, Decode, ErrorBound};

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.0017).sin() * 4.0 + (i as f32 * 0.00031).cos())
            .collect()
    }

    fn resilient(bytes: &[u8], fill: FillPolicy) -> Result<RecoveredField<f32>, CuszpError> {
        Decode::new(bytes).resilient(fill)
    }

    fn chunked_bytes(n: usize, target: usize) -> (Vec<f32>, Vec<u8>) {
        let data = field(n);
        let arc = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        })
        .compress_chunked_with(&data, Dims::D1(n), target, &WorkerPool::new(2))
        .unwrap();
        (data, arc.to_bytes())
    }

    #[test]
    fn clean_container_scans_clean_and_matches_strict_path() {
        let (_, bytes) = chunked_bytes(40_000, 8_000);
        let report = scan(&bytes).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.format, "csz2");
        assert_eq!(report.reports.len(), 5);
        let strict = crate::decompress(&bytes).unwrap().0;
        let recovered = resilient(&bytes, FillPolicy::Nan).unwrap();
        assert!(recovered.is_clean());
        assert_eq!(recovered.data, strict, "resilient path must be bit-exact");
    }

    #[test]
    fn one_corrupt_chunk_recovers_all_others_bit_exact() {
        let (_, bytes) = chunked_bytes(40_000, 8_000);
        let strict = crate::decompress(&bytes).unwrap().0;
        let report = scan(&bytes).unwrap();
        // Flip a byte inside chunk 2's body.
        let r = report.reports[2].byte_range.clone().unwrap();
        let mut bad = bytes.clone();
        bad[r.start + r.len() / 2] ^= 0x01;

        let rec = resilient(&bad, FillPolicy::Nan).unwrap();
        assert_eq!(rec.n_damaged(), 1);
        assert!(matches!(
            rec.reports[2].status,
            ChunkStatus::ChecksumMismatch { .. } | ChunkStatus::Malformed { .. }
        ));
        let er = rec.reports[2].elem_range.clone();
        for (i, (&got, &want)) in rec.data.iter().zip(&strict).enumerate() {
            if er.contains(&i) {
                assert!(got.is_nan(), "damaged slab must be NaN-filled at {i}");
            } else {
                assert!(got == want, "undamaged element {i} must be bit-exact");
            }
        }

        let rec0 = resilient(&bad, FillPolicy::Zero).unwrap();
        for i in er {
            assert_eq!(rec0.data[i], 0.0);
        }
    }

    #[test]
    fn truncation_reports_tail_chunks() {
        let (_, bytes) = chunked_bytes(40_000, 8_000);
        let report = scan(&bytes).unwrap();
        let cut = report.reports[3].byte_range.clone().unwrap().start + 5;
        let trunc = &bytes[..cut];
        let rec = resilient(trunc, FillPolicy::Nan).unwrap();
        assert_eq!(rec.n_damaged(), 2);
        assert_eq!(rec.reports[3].status, ChunkStatus::Truncated);
        assert_eq!(rec.reports[4].status, ChunkStatus::Truncated);
        for r in &rec.reports[..3] {
            assert!(r.status.is_ok());
        }
    }

    #[test]
    fn destroying_every_chunk_fails_hard() {
        let (_, bytes) = chunked_bytes(20_000, 5_000);
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        for b in bad[hdr.body_offset()..].iter_mut() {
            *b = 0xAA;
        }
        assert!(resilient(&bad, FillPolicy::Nan).is_err());
        // scan still works — it never allocates output.
        let report = scan(&bad).unwrap();
        assert_eq!(report.n_damaged(), report.reports.len());
    }

    #[test]
    fn inflated_n_chunks_reports_extras_without_overallocation() {
        let (_, bytes) = chunked_bytes(20_000, 5_000);
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        let n_off = hdr.table_offset - 4;
        bad[n_off..n_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Strict path rejects; scan survives and reports.
        assert!(crate::decompress(&bad).is_err());
        let report = scan(&bad).unwrap();
        assert_eq!(report.declared_chunks, u32::MAX as usize);
        assert!(!report.is_clean());
        // Reports stay bounded by plan + declared-but-absent entries...
        // absent entries have no table bytes, so the lenient table walk
        // bounds the work by the buffer, not by the declared count.
        assert!(report.reports.len() >= 4);
    }

    #[test]
    fn v1_archives_scan_as_single_chunk() {
        let data = field(5_000);
        let arc = Compressor::default()
            .compress(&data, Dims::D1(5_000))
            .unwrap();
        let bytes = arc.to_bytes();
        let report = scan(&bytes).unwrap();
        assert_eq!(report.format, "v1");
        assert!(report.is_clean());
        let rec = resilient(&bytes, FillPolicy::Nan).unwrap();
        assert!(rec.is_clean());
        // Damage anywhere fails hard — v1 has no chunk isolation.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x08;
        assert!(resilient(&bad, FillPolicy::Nan).is_err());
        let report = scan(&bad).unwrap();
        assert_eq!(report.n_damaged(), 1);
    }

    fn parity_bytes(n: usize, target: usize, m: u16, k: u16) -> (Vec<f32>, Vec<u8>) {
        let data = field(n);
        let arc = Compressor::new(Config {
            error_bound: ErrorBound::Absolute(1e-3),
            ..Config::default()
        })
        .compress_chunked_with_parity(
            &data,
            Dims::D1(n),
            target,
            &WorkerPool::new(2),
            ParityConfig {
                data_shards: k,
                parity_shards: m,
            },
        )
        .unwrap();
        (data, arc.to_bytes())
    }

    #[test]
    fn shard_damage_heals_bit_exactly_and_reports_repaired() {
        let (_, bytes) = parity_bytes(40_000, 8_000, 2, 4);
        let strict = crate::decompress(&bytes).unwrap().0;
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        bad[hdr.body_offset() + 10] ^= 0xFF;
        // The strict path refuses the damaged container; scan heals it.
        assert!(crate::decompress(&bad).is_err());
        let report = scan(&bad).unwrap();
        assert!(report.is_clean(), "in-budget damage must scan clean");
        // One 4 KiB shard can span several small chunks; every chunk the
        // healed shard touches reports Repaired.
        assert!(report.n_repaired() >= 1);
        assert!(matches!(
            report.reports[0].status,
            ChunkStatus::Repaired { .. }
        ));
        let parity = report.parity.expect("parity section must be diagnosed");
        assert_eq!(parity.n_repaired(), 1);
        assert_eq!(parity.n_unrepairable(), 0);
        let rec = resilient(&bad, FillPolicy::Nan).unwrap();
        assert_eq!(rec.n_damaged(), 0);
        assert!(rec.n_repaired() >= 1);
        assert_eq!(rec.data, strict, "healed decode must be bit-exact");
    }

    #[test]
    fn damage_beyond_parity_budget_falls_back_to_fill() {
        let (_, bytes) = parity_bytes(40_000, 8_000, 1, 4);
        let strict = crate::decompress(&bytes).unwrap().0;
        let clean = scan(&bytes).unwrap();
        assert!(clean.parity.as_ref().unwrap().is_intact());
        let shard = clean.parity.as_ref().unwrap().shard_size as usize;
        let hdr = parse_chunked_header(&bytes).unwrap();
        // Two damaged data shards in stripe 0 against one parity shard.
        let mut bad = bytes.clone();
        bad[hdr.body_offset() + 1] ^= 0x40;
        bad[hdr.body_offset() + shard + 1] ^= 0x40;
        let report = scan(&bad).unwrap();
        let parity = report.parity.clone().unwrap();
        assert_eq!(parity.n_unrepairable(), 1);
        assert!(!report.is_clean());
        let rec = resilient(&bad, FillPolicy::Nan).unwrap();
        assert!(rec.n_damaged() >= 1);
        // Unrecovered slabs are filled; everything else stays bit-exact.
        for r in &rec.reports {
            if r.status.is_recovered() {
                let er = r.elem_range.clone();
                assert_eq!(&rec.data[er.clone()], &strict[er]);
            } else {
                for i in r.elem_range.clone() {
                    assert!(rec.data[i].is_nan());
                }
            }
        }
    }

    #[test]
    fn repair_restores_pre_damage_bytes_exactly() {
        let (_, bytes) = parity_bytes(40_000, 8_000, 2, 4);
        let pool = WorkerPool::new(2);
        // Clean archive: repair is a byte-identical no-op.
        let clean = repair_with(&bytes, &pool).unwrap();
        assert!(!clean.modified);
        assert_eq!(clean.bytes, bytes);

        // In-budget damage (a data shard and a parity shard): the healed
        // region plus deterministic parity regeneration restores the
        // exact original archive.
        let hdr = parse_chunked_header(&bytes).unwrap();
        let mut bad = bytes.clone();
        bad[hdr.body_offset() + 3] ^= 0x11;
        let last = bad.len() - 1;
        bad[last] ^= 0x22;
        let healed = repair_with(&bad, &pool).unwrap();
        assert!(healed.modified);
        assert_eq!(healed.bytes, bytes, "repair must restore original bytes");
        assert!(healed.report.is_clean());
        assert!(healed.report.n_repaired() >= 1);

        // Beyond-budget damage: never rewritten — freezing damaged bytes
        // under fresh checksums would destroy the evidence.
        let shard = clean.report.parity.as_ref().unwrap().shard_size as usize;
        let mut lost = bytes.clone();
        for i in 0..3 {
            lost[hdr.body_offset() + i * shard + 7] ^= 0x01;
        }
        let out = repair_with(&lost, &pool).unwrap();
        assert!(!out.modified);
        assert_eq!(out.bytes, lost);
        assert!(out.report.n_damaged() >= 1);
    }

    #[test]
    fn v1_payload_damage_keeps_header_facts_and_offsets() {
        let data = field(5_000);
        let arc = Compressor::default()
            .compress(&data, Dims::D1(5_000))
            .unwrap();
        let bytes = arc.to_bytes();
        // Payload flip: checksum mismatch pinned to the payload offset,
        // dims/dtype still reported from the intact header.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x08;
        let report = scan(&bad).unwrap();
        assert_eq!(report.dims, Some(Dims::D1(5_000)));
        assert_eq!(report.dtype, Some(Dtype::F32));
        // 72 = v1 HEADER_BYTES, where the checksummed payload starts.
        assert!(matches!(
            report.reports[0].status,
            ChunkStatus::ChecksumMismatch { offset: 72, .. }
        ));
        // A cut-off payload is truncation, not a blanket malformed.
        let report = scan(&bytes[..bytes.len() - 9]).unwrap();
        assert_eq!(report.dims, Some(Dims::D1(5_000)));
        assert_eq!(report.reports[0].status, ChunkStatus::Truncated);
    }

    #[test]
    fn f64_recovery_round_trips() {
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.001).sin()).collect();
        let arc = Compressor::default()
            .compress_chunked_with(&data, Dims::D1(20_000), 5_000, &WorkerPool::new(2))
            .unwrap();
        let bytes = arc.to_bytes();
        let rec = Decode::new(&bytes)
            .resilient::<f64>(FillPolicy::Nan)
            .unwrap();
        assert!(rec.is_clean());
        // Wrong-dtype request is refused.
        assert!(matches!(
            resilient(&bytes, FillPolicy::Nan),
            Err(CuszpError::DtypeMismatch { .. })
        ));
    }
}
