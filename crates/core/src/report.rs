//! The two stable encodings of a diagnosis report.
//!
//! [`ScanReport`] — what `scan`, `fsck`, `decompress --recover` and every
//! resilient range read produce — is serialized here, and only here:
//!
//! * a **versioned binary** form ([`ScanReport::to_bytes`] /
//!   [`from_bytes`](ScanReport::from_bytes)) used by the CSRP protocol's
//!   `scan` and `decompress --recover` responses, parsed with the same
//!   allocation discipline as archive headers (`try_reserve`, counts
//!   bounded by bytes actually present, indices converted with
//!   `usize::try_from`);
//! * a **compact JSON** form ([`ScanReport::to_json_fields`]) with the
//!   field names `cuszp fsck --json` committed to in PR 4.
//!
//! `cuszp fsck --json` and `cuszp remote scan --json` both render
//! through this module, and a report that crossed a socket is the same
//! type as one made in-process, so the shell format and the wire format
//! cannot drift apart.

use crate::cursor::{put_str, ByteCursor, CursorError};
use crate::error::{ArchiveSection, CuszpError};
use crate::recovery::{ChunkReport, ChunkStatus, ParityReport, ScanReport, StripeStatus};
use crate::{CodecPlan, Dims, Dtype, LosslessStage, Predictor};
use cuszp_analysis::WorkflowChoice;

/// Version tag leading every serialized report blob. Version 2 added the
/// optional per-chunk codec plan; version-1 blobs still parse (their
/// chunks carry no plan).
pub const REPORT_VERSION: u16 = 2;

fn err(what: &'static str, offset: usize) -> CuszpError {
    // Report blobs travel inside wire frames; there is no richer section
    // taxonomy than "this blob", so faults reuse the trailer section.
    CuszpError::malformed(what, ArchiveSection::Trailer, offset)
}

/// The report blob is the one `CuszpError`-typed format read through a
/// [`ByteCursor`], so the conversion can name it.
impl From<CursorError> for CuszpError {
    fn from(e: CursorError) -> Self {
        match e {
            CursorError::Truncated { pos } => err("report blob truncated", pos),
            CursorError::NotUtf8 { pos } => err("report string not UTF-8", pos),
        }
    }
}

impl ScanReport {
    /// Plan mix across the archive's parseable chunks ([`CodecPlan::mix`]).
    pub fn plan_mix(&self) -> Vec<(String, usize)> {
        CodecPlan::mix(self.reports.iter().filter_map(|c| c.plan))
    }

    /// The fsck exit-code contract applied to this report: 0 clean,
    /// 1 damage fully covered by parity, 2 data loss.
    pub fn exit_code(&self) -> u8 {
        if self.n_damaged() > 0 {
            2
        } else if self.n_repaired() > 0 || self.parity.as_ref().is_some_and(|p| !p.is_intact()) {
            1
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------
// Versioned binary encoding.
// ---------------------------------------------------------------------

/// Every index, offset and count is a `u64` on the wire.
fn put_index(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn put_indices(out: &mut Vec<u8>, v: &[usize]) {
    out.extend_from_slice(&(v.len().min(u32::MAX as usize) as u32).to_le_bytes());
    for &x in v {
        put_index(out, x);
    }
}

/// Rank byte (0 = no dims), then the rank's extents, slowest first.
fn put_dims(out: &mut Vec<u8>, dims: Option<Dims>) {
    let rank = dims.map_or(0, |d| d.rank());
    out.push(rank as u8);
    for &n in &dims.map_or([0; 3], |d| d.extents())[3 - rank..] {
        put_index(out, n);
    }
}

/// Serializes an optional codec plan: tag byte then, when present, the
/// predictor/workflow/lossless bytes (same value space as the archive
/// header's plan descriptor).
fn put_plan(out: &mut Vec<u8>, plan: Option<CodecPlan>) {
    match plan {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            out.push(match p.predictor {
                Predictor::Lorenzo => 0,
                Predictor::Interpolation => 1,
            });
            out.push(match p.workflow {
                WorkflowChoice::Huffman => 0,
                WorkflowChoice::Rle => 1,
                WorkflowChoice::RleVle => 2,
            });
            out.push(match p.lossless {
                LosslessStage::None => 0,
                LosslessStage::BitshuffleLz77 => 1,
            });
        }
    }
}

/// A wire `u64` that indexes memory here. The writer's machine may have
/// had a wider `usize` than this one: that is a typed error, never a
/// silent truncation.
fn read_index(r: &mut ByteCursor<'_>) -> Result<usize, CuszpError> {
    usize::try_from(r.u64()?).map_err(|_| err("report index does not fit usize", r.pos()))
}

/// A count-prefixed index list. The count is validated against the
/// bytes actually present before any allocation.
fn read_indices(r: &mut ByteCursor<'_>) -> Result<Vec<usize>, CuszpError> {
    let n = r.u32()? as usize;
    // Each element takes 8 bytes: an inflated count cannot pass this
    // gate, so the reserve below is bounded by the blob size.
    if r.remaining() / 8 < n {
        return Err(err("report list count exceeds blob", r.pos()));
    }
    let mut v = Vec::new();
    v.try_reserve_exact(n)
        .map_err(|_| err("report list allocation failed", r.pos()))?;
    for _ in 0..n {
        v.push(read_index(r)?);
    }
    Ok(v)
}

fn read_plan(r: &mut ByteCursor<'_>) -> Result<Option<CodecPlan>, CuszpError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let predictor = match r.u8()? {
                0 => Predictor::Lorenzo,
                1 => Predictor::Interpolation,
                _ => return Err(err("bad plan predictor in report", r.pos())),
            };
            let workflow = match r.u8()? {
                0 => WorkflowChoice::Huffman,
                1 => WorkflowChoice::Rle,
                2 => WorkflowChoice::RleVle,
                _ => return Err(err("bad plan workflow in report", r.pos())),
            };
            let lossless = match r.u8()? {
                0 => LosslessStage::None,
                1 => LosslessStage::BitshuffleLz77,
                _ => return Err(err("bad plan lossless in report", r.pos())),
            };
            Ok(Some(CodecPlan {
                predictor,
                workflow,
                lossless,
            }))
        }
        _ => Err(err("bad plan tag in report", r.pos())),
    }
}

fn read_dims(r: &mut ByteCursor<'_>) -> Result<Option<Dims>, CuszpError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Dims::D1(read_index(r)?))),
        2 => Ok(Some(Dims::D2 {
            ny: read_index(r)?,
            nx: read_index(r)?,
        })),
        3 => Ok(Some(Dims::D3 {
            nz: read_index(r)?,
            ny: read_index(r)?,
            nx: read_index(r)?,
        })),
        _ => Err(err("bad dims rank in report", r.pos())),
    }
}

impl ScanReport {
    /// Serializes to the stable binary form (leading [`REPORT_VERSION`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.reports.len() * 48);
        out.extend_from_slice(&REPORT_VERSION.to_le_bytes());
        put_str(&mut out, &self.format);
        put_dims(&mut out, self.dims);
        out.push(match self.dtype {
            None => 0,
            Some(Dtype::F32) => 1,
            Some(Dtype::F64) => 2,
        });
        put_index(&mut out, self.declared_chunks);
        out.extend_from_slice(&(self.reports.len() as u32).to_le_bytes());
        for c in &self.reports {
            put_index(&mut out, c.index);
            match &c.byte_range {
                None => out.push(0),
                Some(r) => {
                    out.push(1);
                    put_index(&mut out, r.start);
                    put_index(&mut out, r.end);
                }
            }
            put_index(&mut out, c.elem_range.start);
            put_index(&mut out, c.elem_range.end);
            put_plan(&mut out, c.plan);
            match &c.status {
                ChunkStatus::Ok => out.push(0),
                ChunkStatus::Repaired { shards } => {
                    out.push(1);
                    put_indices(&mut out, shards);
                }
                ChunkStatus::ChecksumMismatch {
                    expected,
                    actual,
                    offset,
                } => {
                    out.push(2);
                    out.extend_from_slice(&expected.to_le_bytes());
                    out.extend_from_slice(&actual.to_le_bytes());
                    put_index(&mut out, *offset);
                }
                ChunkStatus::Truncated => out.push(3),
                ChunkStatus::Malformed {
                    what,
                    section,
                    offset,
                } => {
                    out.push(4);
                    put_str(&mut out, what);
                    put_str(&mut out, section);
                    put_index(&mut out, *offset);
                }
            }
        }
        match &self.parity {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.data_shards.to_le_bytes());
                out.extend_from_slice(&p.parity_shards.to_le_bytes());
                out.extend_from_slice(&p.shard_size.to_le_bytes());
                put_index(&mut out, p.n_stripes);
                out.extend_from_slice(&(p.stripes.len() as u32).to_le_bytes());
                for s in &p.stripes {
                    match s {
                        StripeStatus::Intact => out.push(0),
                        StripeStatus::Repaired { data, parity } => {
                            out.push(1);
                            put_indices(&mut out, data);
                            put_indices(&mut out, parity);
                        }
                        StripeStatus::Unrepairable {
                            damaged_data,
                            intact_parity,
                        } => {
                            out.push(2);
                            put_indices(&mut out, damaged_data);
                            put_index(&mut out, *intact_parity);
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses the binary form back. Untrusted input is safe: counts are
    /// bounded by the bytes present before any allocation, every read is
    /// range-checked, and an index this machine cannot hold is an error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CuszpError> {
        let mut r = ByteCursor::new(bytes);
        let version = r.u16()?;
        if !(1..=REPORT_VERSION).contains(&version) {
            return Err(CuszpError::UnsupportedVersion(version));
        }
        let format = r.str()?.into();
        let dims = read_dims(&mut r)?;
        let dtype = match r.u8()? {
            0 => None,
            1 => Some(Dtype::F32),
            2 => Some(Dtype::F64),
            _ => return Err(err("bad dtype tag in report", r.pos())),
        };
        let declared_chunks = read_index(&mut r)?;
        let n_chunks = r.u32()? as usize;
        // A chunk report is at least 26 bytes (index + 2 option tags +
        // elem range + status tag); cap the reserve by what could fit.
        if r.remaining() < n_chunks.saturating_mul(26) {
            return Err(err("report chunk count exceeds blob", r.pos()));
        }
        let mut reports = Vec::new();
        reports
            .try_reserve_exact(n_chunks)
            .map_err(|_| err("report chunk allocation failed", r.pos()))?;
        for _ in 0..n_chunks {
            let index = read_index(&mut r)?;
            let byte_range = match r.u8()? {
                0 => None,
                1 => Some(read_index(&mut r)?..read_index(&mut r)?),
                _ => return Err(err("bad byte-range tag in report", r.pos())),
            };
            let elem_range = read_index(&mut r)?..read_index(&mut r)?;
            // Version-1 chunk records carry no plan field.
            let plan = if version >= 2 {
                read_plan(&mut r)?
            } else {
                None
            };
            let status = match r.u8()? {
                0 => ChunkStatus::Ok,
                1 => ChunkStatus::Repaired {
                    shards: read_indices(&mut r)?,
                },
                2 => ChunkStatus::ChecksumMismatch {
                    expected: r.u64()?,
                    actual: r.u64()?,
                    offset: read_index(&mut r)?,
                },
                3 => ChunkStatus::Truncated,
                4 => ChunkStatus::Malformed {
                    what: r.str()?.into(),
                    section: r.str()?.into(),
                    offset: read_index(&mut r)?,
                },
                _ => return Err(err("bad chunk status tag in report", r.pos())),
            };
            reports.push(ChunkReport {
                index,
                status,
                byte_range,
                elem_range,
                plan,
            });
        }
        let parity = match r.u8()? {
            0 => None,
            1 => {
                let data_shards = r.u16()?;
                let parity_shards = r.u16()?;
                let shard_size = r.u32()?;
                let n_stripes = read_index(&mut r)?;
                let n = r.u32()? as usize;
                if r.remaining() < n {
                    return Err(err("report stripe count exceeds blob", r.pos()));
                }
                let mut stripes = Vec::new();
                stripes
                    .try_reserve_exact(n)
                    .map_err(|_| err("report stripe allocation failed", r.pos()))?;
                for _ in 0..n {
                    stripes.push(match r.u8()? {
                        0 => StripeStatus::Intact,
                        1 => StripeStatus::Repaired {
                            data: read_indices(&mut r)?,
                            parity: read_indices(&mut r)?,
                        },
                        2 => StripeStatus::Unrepairable {
                            damaged_data: read_indices(&mut r)?,
                            intact_parity: read_index(&mut r)?,
                        },
                        _ => return Err(err("bad stripe status tag in report", r.pos())),
                    });
                }
                Some(ParityReport {
                    data_shards,
                    parity_shards,
                    shard_size,
                    n_stripes,
                    stripes,
                })
            }
            _ => return Err(err("bad parity tag in report", r.pos())),
        };
        if r.remaining() != 0 {
            return Err(err("trailing bytes after report", r.pos()));
        }
        Ok(ScanReport {
            format,
            dims,
            dtype,
            declared_chunks,
            reports,
            parity,
        })
    }
}

// ---------------------------------------------------------------------
// Compact JSON — the field names `cuszp fsck --json` committed to.
// ---------------------------------------------------------------------

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_index_list(v: &[usize]) -> String {
    let items: Vec<String> = v.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_dims(d: Dims) -> String {
    json_index_list(&d.extents()[3 - d.rank()..])
}

fn json_chunk(c: &ChunkReport) -> String {
    let (bs, be) = match &c.byte_range {
        Some(br) => (br.start.to_string(), br.end.to_string()),
        None => ("null".to_string(), "null".to_string()),
    };
    let shards = match &c.status {
        ChunkStatus::Repaired { shards } => json_index_list(shards),
        _ => "[]".to_string(),
    };
    let plan = c
        .plan
        .map_or("null".to_string(), |p| format!("\"{}\"", p.label()));
    format!(
        "{{\"index\":{},\"status\":\"{}\",\"byte_start\":{bs},\"byte_end\":{be},\"elem_start\":{},\"elem_end\":{},\"plan\":{plan},\"repaired_shards\":{shards}}}",
        c.index,
        c.status.label(),
        c.elem_range.start,
        c.elem_range.end
    )
}

fn json_stripe(i: usize, s: &StripeStatus) -> String {
    match s {
        StripeStatus::Intact => format!("{{\"index\":{i},\"status\":\"intact\"}}"),
        StripeStatus::Repaired { data, parity } => format!(
            "{{\"index\":{i},\"status\":\"repaired\",\"data\":{},\"parity\":{}}}",
            json_index_list(data),
            json_index_list(parity)
        ),
        StripeStatus::Unrepairable {
            damaged_data,
            intact_parity,
        } => format!(
            "{{\"index\":{i},\"status\":\"unrepairable\",\"damaged_data\":{},\"intact_parity\":{intact_parity}}}",
            json_index_list(damaged_data)
        ),
    }
}

impl ScanReport {
    /// The report's JSON fields **without** surrounding braces —
    /// `"format":…,"dims":…,"dtype":…,"declared_chunks":…,"chunks":[…],"parity":…`
    /// — so callers (fsck, `remote scan`) can splice in their own outer
    /// fields (`archive`, `exit_code`, …) while the shared shape stays
    /// in one place.
    pub fn to_json_fields(&self) -> String {
        let chunks: Vec<String> = self.reports.iter().map(json_chunk).collect();
        let parity = match &self.parity {
            Some(p) => {
                let stripes: Vec<String> = p
                    .stripes
                    .iter()
                    .enumerate()
                    .map(|(i, s)| json_stripe(i, s))
                    .collect();
                format!(
                    "{{\"data_shards\":{},\"parity_shards\":{},\"shard_size\":{},\"n_stripes\":{},\"stripes\":[{}]}}",
                    p.data_shards,
                    p.parity_shards,
                    p.shard_size,
                    p.n_stripes,
                    stripes.join(",")
                )
            }
            None => "null".to_string(),
        };
        format!(
            "\"format\":\"{}\",\"dims\":{},\"dtype\":{},\"declared_chunks\":{},\"chunks\":[{}],\"parity\":{}",
            json_escape(&self.format),
            self.dims.map_or("null".to_string(), json_dims),
            self.dtype
                .map_or("null".to_string(), |t| format!("\"{}\"", t.name())),
            self.declared_chunks,
            chunks.join(","),
            parity
        )
    }

    /// The report as one self-contained JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.to_json_fields())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compressor, ParityConfig};
    use cuszp_parallel::WorkerPool;

    fn sample() -> ScanReport {
        ScanReport {
            format: "csz2".into(),
            dims: Some(Dims::D3 {
                nz: 4,
                ny: 8,
                nx: 16,
            }),
            dtype: Some(Dtype::F32),
            declared_chunks: 3,
            reports: vec![
                ChunkReport {
                    index: 0,
                    status: ChunkStatus::Ok,
                    byte_range: Some(48..1024),
                    elem_range: 0..171,
                    plan: Some(CodecPlan {
                        predictor: Predictor::Lorenzo,
                        workflow: WorkflowChoice::Huffman,
                        lossless: LosslessStage::None,
                    }),
                },
                ChunkReport {
                    index: 1,
                    status: ChunkStatus::Repaired { shards: vec![3, 4] },
                    byte_range: Some(1024..2000),
                    elem_range: 171..342,
                    plan: Some(CodecPlan {
                        predictor: Predictor::Interpolation,
                        workflow: WorkflowChoice::Rle,
                        lossless: LosslessStage::BitshuffleLz77,
                    }),
                },
                ChunkReport {
                    index: 2,
                    status: ChunkStatus::Malformed {
                        what: "truncated payload".into(),
                        section: "chunk body".into(),
                        offset: 2048,
                    },
                    byte_range: None,
                    elem_range: 342..512,
                    plan: None,
                },
            ],
            parity: Some(ParityReport {
                data_shards: 8,
                parity_shards: 2,
                shard_size: 4096,
                n_stripes: 2,
                stripes: vec![
                    StripeStatus::Intact,
                    StripeStatus::Unrepairable {
                        damaged_data: vec![9, 10, 11],
                        intact_parity: 1,
                    },
                ],
            }),
        }
    }

    /// A report as `scan` makes it — borrowed fault text and all: a
    /// four-chunk container under parity whose first stripe is lost (both
    /// data shards, inside chunk 0) and whose last chunk has one shard
    /// healed.
    fn scanned() -> ScanReport {
        let data: Vec<f32> = (0..8_000).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut bytes = Compressor::default()
            .compress_chunked_with_parity(
                &data,
                Dims::D1(8_000),
                2_000,
                &WorkerPool::new(1),
                ParityConfig {
                    data_shards: 2,
                    parity_shards: 1,
                },
            )
            .unwrap()
            .to_bytes();
        let clean = crate::scan(&bytes).unwrap();
        let region = clean.reports[0].byte_range.clone().unwrap().start;
        let shard = clean.parity.unwrap().shard_size as usize;
        bytes[region] ^= 0xFF;
        bytes[region + shard] ^= 0xFF;
        bytes[clean.reports[3].byte_range.clone().unwrap().start + 3] ^= 0x01;
        let report = crate::scan(&bytes).unwrap();
        assert!(report.n_repaired() > 0 && report.n_damaged() > 0);
        report
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        for r in [sample(), scanned()] {
            let bytes = r.to_bytes();
            let back = ScanReport::from_bytes(&bytes).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn binary_roundtrip_of_minimal_report() {
        let r = ScanReport {
            format: "v1".into(),
            dims: None,
            dtype: None,
            declared_chunks: 0,
            reports: Vec::new(),
            parity: None,
        };
        assert_eq!(ScanReport::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn truncation_and_mutation_never_panic() {
        for bytes in [sample().to_bytes(), scanned().to_bytes()] {
            for cut in 0..bytes.len() {
                assert!(ScanReport::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
            for i in 0..bytes.len() {
                let mut b = bytes.clone();
                b[i] ^= 0xFF;
                let _ = ScanReport::from_bytes(&b);
            }
            // Trailing garbage is rejected, not silently ignored.
            let mut b = bytes.clone();
            b.push(0);
            assert!(ScanReport::from_bytes(&b).is_err());
        }
    }

    /// Offset of the chunk-count `u32`: it sits after version + format
    /// + dims + dtype + declared_chunks.
    fn chunk_count_offset(r: &ScanReport) -> usize {
        let rank = match r.dims.unwrap() {
            Dims::D1(_) => 1,
            Dims::D2 { .. } => 2,
            Dims::D3 { .. } => 3,
        };
        2 + (2 + r.format.len()) + (1 + 8 * rank) + 1 + 8
    }

    #[test]
    fn inflated_counts_are_rejected_before_allocation() {
        for r in [sample(), scanned()] {
            let mut bytes = r.to_bytes();
            let off = chunk_count_offset(&r);
            bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let e = ScanReport::from_bytes(&bytes).unwrap_err();
            assert!(e.to_string().contains("count exceeds"), "{e}");
        }
    }

    #[test]
    fn an_index_wider_than_usize_is_a_typed_error() {
        // Chunk 0's `index` field follows the chunk count. `u64::MAX`
        // there either fits this machine's `usize` — and then survives
        // the round trip — or is refused; it is never truncated.
        let mut bytes = sample().to_bytes();
        let off = chunk_count_offset(&sample()) + 4;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match (usize::try_from(u64::MAX), ScanReport::from_bytes(&bytes)) {
            (Ok(max), Ok(r)) => {
                assert_eq!(r.reports[0].index, max);
                assert_eq!(r.to_bytes(), bytes);
            }
            (Err(_), Err(e)) => assert!(e.to_string().contains("does not fit usize"), "{e}"),
            (fits, parsed) => panic!("usize holds u64::MAX: {fits:?}, but parsed {parsed:?}"),
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        for r in [sample(), scanned()] {
            let mut bytes = r.to_bytes();
            bytes[0] = 0xEE;
            assert!(matches!(
                ScanReport::from_bytes(&bytes),
                Err(CuszpError::UnsupportedVersion(_))
            ));
        }
    }

    #[test]
    fn version1_blobs_still_parse_without_plans() {
        // Hand-encoded version-1 blob: one Ok chunk, no plan field in
        // the chunk record (the field did not exist before version 2).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        put_str(&mut bytes, "v1");
        bytes.push(1); // dims tag: D1
        bytes.extend_from_slice(&512u64.to_le_bytes());
        bytes.push(1); // dtype: f32
        bytes.extend_from_slice(&1u64.to_le_bytes()); // declared_chunks
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_chunks
        bytes.extend_from_slice(&0u64.to_le_bytes()); // index
        bytes.push(0); // no byte range
        bytes.extend_from_slice(&0u64.to_le_bytes()); // elem start
        bytes.extend_from_slice(&512u64.to_le_bytes()); // elem end
        bytes.push(0); // status: Ok
        bytes.push(0); // no parity
        let r = ScanReport::from_bytes(&bytes).unwrap();
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.reports[0].plan, None);
        assert_eq!(r.reports[0].status, ChunkStatus::Ok);
        assert!(r.plan_mix().is_empty());
    }

    #[test]
    fn plan_mix_aggregates_in_first_occurrence_order() {
        let r = sample();
        assert_eq!(
            r.plan_mix(),
            vec![
                ("lorenzo+huffman".to_string(), 1),
                ("interpolation+rle+lz77".to_string(), 1),
            ]
        );
    }

    #[test]
    fn json_field_names_are_stable() {
        let j = sample().to_json();
        for key in [
            "\"format\":\"csz2\"",
            "\"dims\":[4,8,16]",
            "\"dtype\":\"f32\"",
            "\"declared_chunks\":3",
            "\"status\":\"ok\"",
            "\"plan\":\"lorenzo+huffman\"",
            "\"plan\":\"interpolation+rle+lz77\"",
            "\"plan\":null",
            "\"status\":\"repaired\"",
            "\"repaired_shards\":[3,4]",
            "\"status\":\"malformed\"",
            "\"byte_start\":null",
            "\"elem_start\":342",
            "\"data_shards\":8",
            "\"status\":\"unrepairable\"",
            "\"damaged_data\":[9,10,11]",
            "\"intact_parity\":1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // The same object whether the report was made here or parsed.
        let r = scanned();
        let j = r.to_json();
        assert_eq!(ScanReport::from_bytes(&r.to_bytes()).unwrap().to_json(), j);
        for key in [
            "\"format\":\"csz2\"",
            "\"dims\":[8000]",
            "\"declared_chunks\":4",
            "\"status\":\"malformed\"",
            "\"status\":\"repaired\"",
            "\"data_shards\":2",
            "\"status\":\"unrepairable\"",
            "\"damaged_data\":[0,1]",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn exit_code_contract() {
        let mut r = sample();
        assert_eq!(r.exit_code(), 2, "malformed chunk = data loss");
        r.reports.pop();
        r.parity = None;
        assert_eq!(r.exit_code(), 1, "repaired chunk, no loss");
        r.reports.pop();
        assert_eq!(r.exit_code(), 0, "all ok");

        let mut r = scanned();
        assert_eq!(r.exit_code(), 2, "stripe beyond budget = data loss");
        r.reports.retain(|c| c.status.is_recovered());
        assert_eq!(r.exit_code(), 1, "what is left was healed");
        r.reports.retain(|c| c.status.is_ok());
        assert_eq!(r.exit_code(), 1, "chunks whole, parity still damaged");
        r.parity = None;
        assert_eq!(r.exit_code(), 0, "all ok");
    }
}
