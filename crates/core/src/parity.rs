//! The CSZ2 parity section: Reed–Solomon stripes over the chunk region.
//!
//! A CSZ2 container optionally ends with a **parity section** that makes
//! the archive self-healing. The chunk region — the concatenated chunk
//! bodies, `body_offset .. body_offset + Σ chunk_len` — is sliced into
//! fixed-size **data shards**; each run of `k` consecutive data shards
//! forms a **stripe**, and `m` Reed–Solomon parity shards are computed
//! per stripe ([`cuszp_ecc::ReedSolomon`]). The section stores, after a
//! checksummed fixed header:
//!
//! ```text
//! [magic "CSZP"][v u16][k u16][m u16][pad][shard_size u32]
//! [region_len u64][n_stripes u32][pad][header fnv1a u64]      40 bytes
//! [data shard checksums   n_data   × u64]
//! [parity length table    n_parity × u32]   (all == shard_size)
//! [parity shard checksums n_parity × u64]
//! [parity shard bytes     n_parity × shard_size]
//! ```
//!
//! Per-shard FNV-1a checksums (over the *actual* shard bytes — the
//! trailing data shard is not padded before hashing) let recovery
//! classify exactly which shards of which stripe are damaged; a stripe
//! with `d` damaged data shards heals iff `d` of its parity shards
//! survive. The last stripe may be short — its missing data shards are
//! *virtual* all-zero shards, always intact by definition, so they never
//! consume erasure budget.
//!
//! Parity-less archives carry no section and stay byte-identical to the
//! pre-parity format; the section is strictly additive and located by
//! its offset (end of the chunk region), not by a header field, so a
//! reader that parses the region can always find it.

use crate::error::{ArchiveSection, CuszpError};
use cuszp_checksum::fnv1a;
use cuszp_ecc::ReedSolomon;
use cuszp_parallel::WorkerPool;

/// Parity-section magic: "CSZP" little-endian.
pub(crate) const PARITY_MAGIC: u32 = 0x505A_5343;
const PARITY_VERSION: u16 = 1;
/// Fixed header size (through the trailing header checksum).
pub(crate) const PARITY_HEADER_BYTES: usize = 40;
/// Shards never exceed this, so small archives still get multi-shard
/// stripes and one flipped byte never condemns megabytes.
pub(crate) const MAX_SHARD_SIZE: usize = 4096;

/// Erasure-coding knobs for [`crate::Compressor::compress_chunked_with_parity`]:
/// `k` data shards + `m` parity shards per stripe. Any ≤ `m` damaged
/// shards per stripe repair bit-exactly; overhead ≈ `m / k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityConfig {
    /// Data shards per stripe (`k ≥ 1`).
    pub data_shards: u16,
    /// Parity shards per stripe (`m ≥ 1`); `k + m ≤ 255`.
    pub parity_shards: u16,
}

impl ParityConfig {
    /// Validates against the codec's limits.
    pub fn validate(&self) -> Result<(), CuszpError> {
        ReedSolomon::new(self.data_shards as usize, self.parity_shards as usize)
            .map(|_| ())
            .map_err(|e| CuszpError::InvalidParityConfig(e.to_string()))
    }

    /// Parses the CLI spelling `m/k` (parity first, like RAID notation:
    /// `2/8` = 2 parity shards guarding every 8 data shards).
    pub fn parse(s: &str) -> Result<Self, CuszpError> {
        let bad = || {
            CuszpError::InvalidParityConfig(format!(
                "expected m/k (e.g. 2/8, m parity per k data shards), got '{s}'"
            ))
        };
        let (m, k) = s.split_once('/').ok_or_else(bad)?;
        let cfg = ParityConfig {
            parity_shards: m.trim().parse().map_err(|_| bad())?,
            data_shards: k.trim().parse().map_err(|_| bad())?,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A parsed (and, on the strict path, fully verified) parity section.
#[derive(Debug, Clone, PartialEq)]
pub struct ParitySection {
    /// Data shards per stripe (`k`).
    pub data_shards: u16,
    /// Parity shards per stripe (`m`).
    pub parity_shards: u16,
    /// Bytes per shard.
    pub shard_size: u32,
    /// Length of the chunk region the parity covers.
    pub region_len: u64,
    /// Number of stripes.
    pub n_stripes: u32,
    /// FNV-1a per data shard (over actual, unpadded bytes), region order.
    pub data_checksums: Vec<u64>,
    /// FNV-1a per parity shard (always `shard_size` bytes).
    pub parity_checksums: Vec<u64>,
    /// Parity shard bytes, flat: stripe-major, `m × shard_size` each.
    pub parity: Vec<u8>,
}

/// Geometry derived from `(region_len, k, m)` — shared by encode, strict
/// parse, and the lenient recovery classifier so they can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ParityGeometry {
    pub k: usize,
    pub m: usize,
    pub shard_size: usize,
    pub region_len: usize,
    pub n_data: usize,
    pub n_stripes: usize,
}

impl ParityGeometry {
    /// Geometry for freshly encoding `region_len` bytes with `cfg`.
    pub fn plan(region_len: usize, cfg: &ParityConfig) -> Option<Self> {
        if region_len == 0 {
            return None;
        }
        let k = cfg.data_shards as usize;
        let shard_size = region_len.div_ceil(k).clamp(1, MAX_SHARD_SIZE);
        Some(Self::with_shard_size(
            region_len,
            k,
            cfg.parity_shards as usize,
            shard_size,
        ))
    }

    /// Geometry with every parameter given (the parse path, where
    /// `shard_size` comes from the section header, not the plan rule —
    /// future writers may pick differently and old readers must follow).
    pub fn with_shard_size(region_len: usize, k: usize, m: usize, shard_size: usize) -> Self {
        debug_assert!(shard_size >= 1);
        let n_data = region_len.div_ceil(shard_size);
        Self {
            k,
            m,
            shard_size,
            region_len,
            n_data,
            n_stripes: n_data.div_ceil(k),
        }
    }

    /// Total parity shards (`n_stripes × m`).
    pub fn n_parity(&self) -> usize {
        self.n_stripes * self.m
    }

    /// Byte range of data shard `d` within the region (the last shard
    /// may be short).
    pub fn data_shard_range(&self, d: usize) -> std::ops::Range<usize> {
        let start = d * self.shard_size;
        start..((d + 1) * self.shard_size).min(self.region_len)
    }

    /// Global data-shard indices of stripe `s` (< `k` for the tail
    /// stripe; the remainder are virtual zero shards).
    pub fn stripe_data_shards(&self, s: usize) -> std::ops::Range<usize> {
        let start = s * self.k;
        start..((s + 1) * self.k).min(self.n_data)
    }

    /// Serialized section size.
    pub fn section_bytes(&self) -> usize {
        PARITY_HEADER_BYTES
            + self.n_data * 8
            + self.n_parity() * 4
            + self.n_parity() * 8
            + self.n_parity() * self.shard_size
    }

    /// Offset of the parity length table within the section.
    pub fn parity_len_off(&self) -> usize {
        PARITY_HEADER_BYTES + self.n_data * 8
    }

    /// Offset of the parity checksum table within the section.
    pub fn parity_cksum_off(&self) -> usize {
        self.parity_len_off() + self.n_parity() * 4
    }

    /// Offset of the flat parity bytes within the section.
    pub fn parity_bytes_off(&self) -> usize {
        self.parity_cksum_off() + self.n_parity() * 8
    }
}

impl ParitySection {
    /// Derived geometry of this section.
    pub(crate) fn geometry(&self) -> ParityGeometry {
        ParityGeometry::with_shard_size(
            self.region_len as usize,
            self.data_shards as usize,
            self.parity_shards as usize,
            self.shard_size as usize,
        )
    }

    /// Serialized size in bytes.
    pub fn serialized_bytes(&self) -> usize {
        self.geometry().section_bytes()
    }

    /// Encodes parity over `region` (the concatenated chunk bodies),
    /// fanning stripes across `pool`. Returns `None` for an empty region
    /// — there is nothing to protect and the format omits the section.
    ///
    /// Deterministic at any pool width: stripe results are merged in
    /// stripe order and each stripe's bytes depend only on its slice of
    /// the region.
    pub fn build(region: &[u8], cfg: &ParityConfig, pool: &WorkerPool) -> Option<Self> {
        let geo = ParityGeometry::plan(region.len(), cfg)?;
        let rs = ReedSolomon::new(geo.k, geo.m).expect("ParityConfig validated at construction");
        // Per stripe: (data checksums, parity bytes, parity checksums).
        type StripeOut = (Vec<u64>, Vec<Vec<u8>>, Vec<u64>);
        let per_stripe: Vec<StripeOut> = pool.run(geo.n_stripes, |s| {
            let shards: Vec<&[u8]> = geo
                .stripe_data_shards(s)
                .map(|d| &region[geo.data_shard_range(d)])
                .collect();
            let data_cksums = shards.iter().map(|sh| fnv1a(sh)).collect();
            let parity = rs
                .encode(&shards, geo.shard_size)
                .expect("stripe shards are ≤ k and ≤ shard_size by construction");
            let parity_cksums = parity.iter().map(|p| fnv1a(p)).collect();
            (data_cksums, parity, parity_cksums)
        });
        let mut data_checksums = Vec::with_capacity(geo.n_data);
        let mut parity_checksums = Vec::with_capacity(geo.n_parity());
        let mut parity = Vec::with_capacity(geo.n_parity() * geo.shard_size);
        for (dc, pb, pc) in per_stripe {
            data_checksums.extend(dc);
            for shard in pb {
                parity.extend_from_slice(&shard);
            }
            parity_checksums.extend(pc);
        }
        Some(Self {
            data_shards: cfg.data_shards,
            parity_shards: cfg.parity_shards,
            shard_size: geo.shard_size as u32,
            region_len: geo.region_len as u64,
            n_stripes: geo.n_stripes as u32,
            data_checksums,
            parity_checksums,
            parity,
        })
    }

    /// Appends the serialized section to `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&PARITY_MAGIC.to_le_bytes());
        out.extend_from_slice(&PARITY_VERSION.to_le_bytes());
        out.extend_from_slice(&self.data_shards.to_le_bytes());
        out.extend_from_slice(&self.parity_shards.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.shard_size.to_le_bytes());
        out.extend_from_slice(&self.region_len.to_le_bytes());
        out.extend_from_slice(&self.n_stripes.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        let header_fnv = fnv1a(&out[start..start + 32]);
        out.extend_from_slice(&header_fnv.to_le_bytes());
        for c in &self.data_checksums {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for _ in 0..self.parity_checksums.len() {
            out.extend_from_slice(&self.shard_size.to_le_bytes());
        }
        for c in &self.parity_checksums {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.parity);
    }

    /// Serializes the section alone.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_bytes());
        self.write_into(&mut out);
        out
    }

    /// Strictly parses a section and verifies **everything** against the
    /// chunk region it claims to cover: header checksum, geometry,
    /// every data-shard checksum, every parity length and checksum.
    ///
    /// `offset` is the section's position in the container, used only
    /// for error reporting. The strict reader treats any mismatch as
    /// corruption — healing damaged sections is the recovery scanner's
    /// job, not the parser's.
    pub(crate) fn from_bytes(
        section: &[u8],
        region: &[u8],
        offset: usize,
    ) -> Result<Self, CuszpError> {
        let fail = |what: &'static str, at: usize| {
            CuszpError::malformed(what, ArchiveSection::ParitySection, offset + at)
        };
        let layout = parse_parity_layout(section).map_err(|(what, at)| fail(what, at))?;
        if layout.region_len != region.len() {
            return Err(fail("parity region length disagrees with chunk region", 16));
        }
        if layout.section_bytes() != section.len() {
            return Err(fail(
                "trailing bytes after parity section",
                layout.section_bytes(),
            ));
        }
        let mut data_checksums = Vec::with_capacity(layout.n_data);
        let mut pos = PARITY_HEADER_BYTES;
        for d in 0..layout.n_data {
            let stored = u64::from_le_bytes(section[pos..pos + 8].try_into().unwrap());
            let actual = fnv1a(&region[layout.data_shard_range(d)]);
            if stored != actual {
                return Err(fail("data shard checksum mismatch", pos));
            }
            data_checksums.push(stored);
            pos += 8;
        }
        for _ in 0..layout.n_parity() {
            let len = u32::from_le_bytes(section[pos..pos + 4].try_into().unwrap());
            if len as usize != layout.shard_size {
                return Err(fail("parity length entry disagrees with shard size", pos));
            }
            pos += 4;
        }
        let parity_bytes_off = layout.parity_bytes_off();
        let mut parity_checksums = Vec::with_capacity(layout.n_parity());
        for p in 0..layout.n_parity() {
            let stored = u64::from_le_bytes(section[pos..pos + 8].try_into().unwrap());
            let shard_start = parity_bytes_off + p * layout.shard_size;
            let actual = fnv1a(&section[shard_start..shard_start + layout.shard_size]);
            if stored != actual {
                return Err(fail("parity shard checksum mismatch", pos));
            }
            parity_checksums.push(stored);
            pos += 8;
        }
        Ok(Self {
            data_shards: layout.k as u16,
            parity_shards: layout.m as u16,
            shard_size: layout.shard_size as u32,
            region_len: layout.region_len as u64,
            n_stripes: layout.n_stripes as u32,
            data_checksums,
            parity_checksums,
            parity: section[parity_bytes_off..].to_vec(),
        })
    }
}

/// Parses the fixed parity header and validates its self-consistency
/// (magic, version, header checksum, shard geometry, section length) —
/// **without** touching the chunk region. Returns `(what, offset)` on
/// failure so strict and lenient callers can wrap it differently.
pub(crate) fn parse_parity_layout(section: &[u8]) -> Result<ParityGeometry, (&'static str, usize)> {
    if section.len() < PARITY_HEADER_BYTES {
        return Err(("parity header truncated", section.len()));
    }
    if u32::from_le_bytes(section[0..4].try_into().unwrap()) != PARITY_MAGIC {
        return Err(("bad parity magic", 0));
    }
    if u16::from_le_bytes(section[4..6].try_into().unwrap()) != PARITY_VERSION {
        return Err(("unsupported parity version", 4));
    }
    let stored_fnv = u64::from_le_bytes(section[32..40].try_into().unwrap());
    if fnv1a(&section[0..32]) != stored_fnv {
        return Err(("parity header checksum mismatch", 32));
    }
    let k = u16::from_le_bytes(section[6..8].try_into().unwrap()) as usize;
    let m = u16::from_le_bytes(section[8..10].try_into().unwrap()) as usize;
    if k == 0 || m == 0 || k + m > cuszp_ecc::MAX_TOTAL_SHARDS {
        return Err(("invalid parity shard counts", 6));
    }
    let shard_size = u32::from_le_bytes(section[12..16].try_into().unwrap()) as usize;
    if shard_size == 0 {
        return Err(("zero parity shard size", 12));
    }
    let region_len = u64::from_le_bytes(section[16..24].try_into().unwrap());
    let region_len =
        usize::try_from(region_len).map_err(|_| ("parity region length overflow", 16))?;
    if region_len == 0 {
        return Err(("parity section over empty region", 16));
    }
    let n_stripes = u32::from_le_bytes(section[24..28].try_into().unwrap()) as usize;
    let geo = ParityGeometry::with_shard_size(region_len, k, m, shard_size);
    if geo.n_stripes != n_stripes {
        return Err(("stripe count disagrees with geometry", 24));
    }
    // The header hash has already vouched for these fields; the length
    // check below guards the *tables*, which sit outside the hash.
    if section.len() < geo.section_bytes() {
        return Err(("parity tables truncated", section.len()));
    }
    Ok(geo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8).collect()
    }

    fn cfg(m: u16, k: u16) -> ParityConfig {
        ParityConfig {
            data_shards: k,
            parity_shards: m,
        }
    }

    #[test]
    fn parse_accepts_raid_notation() {
        let c = ParityConfig::parse("2/8").unwrap();
        assert_eq!(c.parity_shards, 2);
        assert_eq!(c.data_shards, 8);
        assert!(ParityConfig::parse("0/8").is_err());
        assert!(ParityConfig::parse("2/0").is_err());
        assert!(ParityConfig::parse("200/100").is_err());
        assert!(ParityConfig::parse("8").is_err());
        assert!(ParityConfig::parse("a/b").is_err());
    }

    #[test]
    fn geometry_plan_clamps_shard_size() {
        // Small region: shard_size = ceil(len / k), one stripe.
        let g = ParityGeometry::plan(1000, &cfg(2, 4)).unwrap();
        assert_eq!(g.shard_size, 250);
        assert_eq!(g.n_data, 4);
        assert_eq!(g.n_stripes, 1);
        // Large region: shard_size caps at MAX_SHARD_SIZE, many stripes.
        let g = ParityGeometry::plan(100_000, &cfg(2, 4)).unwrap();
        assert_eq!(g.shard_size, MAX_SHARD_SIZE);
        assert_eq!(g.n_data, 100_000usize.div_ceil(MAX_SHARD_SIZE));
        assert_eq!(g.n_stripes, g.n_data.div_ceil(4));
        // Tiny region: shard_size floors at 1.
        let g = ParityGeometry::plan(3, &cfg(1, 8)).unwrap();
        assert_eq!(g.shard_size, 1);
        assert_eq!(g.n_data, 3);
        assert!(ParityGeometry::plan(0, &cfg(2, 4)).is_none());
    }

    #[test]
    fn build_round_trips_through_strict_parse() {
        let r = region(10_000);
        let pool = WorkerPool::new(1);
        let sec = ParitySection::build(&r, &cfg(2, 3), &pool).unwrap();
        let bytes = sec.to_bytes();
        assert_eq!(bytes.len(), sec.serialized_bytes());
        let parsed = ParitySection::from_bytes(&bytes, &r, 0).unwrap();
        assert_eq!(parsed, sec);
    }

    #[test]
    fn build_is_deterministic_across_pool_widths() {
        let r = region(60_000);
        let c = cfg(2, 4);
        let one = ParitySection::build(&r, &c, &WorkerPool::new(1)).unwrap();
        let two = ParitySection::build(&r, &c, &WorkerPool::new(2)).unwrap();
        let eight = ParitySection::build(&r, &c, &WorkerPool::new(8)).unwrap();
        assert_eq!(one.to_bytes(), two.to_bytes());
        assert_eq!(one.to_bytes(), eight.to_bytes());
        assert!(one.n_stripes >= 2, "fixture must exercise multiple stripes");
    }

    #[test]
    fn empty_region_has_no_section() {
        assert!(ParitySection::build(&[], &cfg(2, 4), &WorkerPool::new(1)).is_none());
    }

    #[test]
    fn strict_parse_rejects_tampering() {
        let r = region(5_000);
        let sec = ParitySection::build(&r, &cfg(1, 4), &WorkerPool::new(1)).unwrap();
        let bytes = sec.to_bytes();

        // Header flip → header checksum mismatch.
        let mut bad = bytes.clone();
        bad[6] ^= 1;
        assert!(ParitySection::from_bytes(&bad, &r, 0).is_err());

        // Region flip → data shard checksum mismatch.
        let mut bad_region = r.clone();
        bad_region[123] ^= 0x80;
        assert!(ParitySection::from_bytes(&bytes, &bad_region, 0).is_err());

        // Parity shard flip → parity checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(ParitySection::from_bytes(&bad, &r, 0).is_err());

        // Length-entry flip → length disagreement.
        let geo = sec.geometry();
        let mut bad = bytes.clone();
        bad[geo.parity_len_off()] ^= 1;
        assert!(ParitySection::from_bytes(&bad, &r, 0).is_err());

        // Truncated tables.
        assert!(ParitySection::from_bytes(&bytes[..bytes.len() - 1], &r, 0).is_err());
        // Trailing junk.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(ParitySection::from_bytes(&bad, &r, 0).is_err());
        // Intact round trip still fine.
        assert!(ParitySection::from_bytes(&bytes, &r, 0).is_ok());
    }

    #[test]
    fn parity_actually_reconstructs_region_shards() {
        // End-to-end sanity at the module level: erase one data shard's
        // bytes, reconstruct it from the survivors + parity.
        let r = region(4_000);
        let c = cfg(2, 4);
        let sec = ParitySection::build(&r, &c, &WorkerPool::new(1)).unwrap();
        let geo = sec.geometry();
        assert_eq!(geo.n_stripes, 1);
        let rs = ReedSolomon::new(geo.k, geo.m).unwrap();
        let victim = 2usize;
        let mut shards: Vec<Option<Vec<u8>>> = (0..geo.k)
            .map(|d| {
                if d == victim {
                    None
                } else if d < geo.n_data {
                    Some(r[geo.data_shard_range(d)].to_vec())
                } else {
                    Some(vec![0u8; geo.shard_size])
                }
            })
            .collect();
        for p in 0..geo.m {
            let s = p * geo.shard_size;
            shards.push(Some(sec.parity[s..s + geo.shard_size].to_vec()));
        }
        rs.reconstruct(&mut shards, geo.shard_size).unwrap();
        assert_eq!(
            &shards[victim].as_ref().unwrap()[..geo.data_shard_range(victim).len()],
            &r[geo.data_shard_range(victim)]
        );
    }
}
