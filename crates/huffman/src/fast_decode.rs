//! Table-accelerated canonical decoding.
//!
//! The bit-by-bit canonical decoder costs O(code length) branches per
//! symbol. For the skewed codebooks Lorenzo quant-codes produce (the
//! dominant symbol is 1-2 bits, a stream averages 2-3 bits per symbol), a
//! lookup table indexed by the next `LUT_BITS` bits resolves *several*
//! symbols in one probe: each entry holds as many whole codes as fit the
//! window. The window comes out of a 64-bit bit buffer refilled with one
//! 8-byte load per several probes. Codes longer than the window fall back
//! to the canonical walk. This mirrors how production decoders (zlib,
//! Zstd) structure their first-level tables, and is the CPU counterpart
//! of the gap-array-style decoder the cuSZ line moved to after the paper
//! ("optimize the performance of decompression further", §VII).

use crate::codebook::CanonicalDecoder;
use crate::encode::HuffmanEncoded;

/// Table window in bits. 2^12 × 8 B = 32 KiB, of which a skewed stream
/// touches a few lines.
const LUT_BITS: usize = 12;

/// Most symbols one table entry resolves.
const MAX_RUN: usize = 3;

// Entry layout: three 16-bit symbol slots, then the fields below.
const COUNT_SHIFT: u32 = 48; // 2 bits: symbols in the entry, 0 = fall back
const FIRST_LEN_SHIFT: u32 = 50; // 4 bits: length of the first code
const TOTAL_LEN_SHIFT: u32 = 54; // 4 bits: length of all `count` codes

/// A decoder with a `2^LUT_BITS`-entry multi-symbol fast path.
#[derive(Debug, Clone)]
pub struct FastDecoder {
    /// `lut[window]`: the whole codes the window starts with — up to
    /// `MAX_RUN` symbols, their count, the first code's length and their
    /// total length. Count 0 = the first code is longer than the window
    /// (or matches nothing): fall back.
    lut: Vec<u64>,
    /// Fallback decoder for codes longer than `LUT_BITS`.
    slow: CanonicalDecoder,
}

impl FastDecoder {
    /// Builds the accelerated decoder from canonical lengths.
    pub fn from_lengths(lengths: &[u8]) -> Self {
        let slow = CanonicalDecoder::from_lengths(lengths);
        let mut lut = vec![0u64; 1 << LUT_BITS];
        // Enumerate canonical codes (same assignment as Codebook).
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        let mut bl_count = vec![0u64; max_len + 1];
        for &l in lengths {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = vec![0u64; max_len + 2];
        let mut code = 0u64;
        for l in 1..=max_len {
            code = (code + bl_count[l - 1]) << 1;
            next_code[l] = code;
        }
        // First every window's leading code on its own...
        for (sym, &l) in lengths.iter().enumerate() {
            let l = l as usize;
            if l == 0 || l > LUT_BITS {
                continue;
            }
            let c = next_code[l];
            next_code[l] += 1;
            // Fill every slot whose top `l` bits equal this code.
            let base = (c << (LUT_BITS - l)) as usize;
            let fill = 1usize << (LUT_BITS - l);
            let packed = sym as u16 as u64 | (l as u64) << FIRST_LEN_SHIFT;
            for slot in &mut lut[base..base + fill] {
                *slot = packed;
            }
        }
        // ...then the codes behind it, by probing the window shifted past
        // what is already resolved. The shift pulls in zeros, so a probe
        // counts only if its code ends inside the real bits. Only the
        // first-code fields of other entries are read, and those are final.
        for window in 0..lut.len() {
            let mut entry = lut[window];
            let mut total = (entry >> FIRST_LEN_SHIFT) as usize & 0xF;
            if total == 0 {
                continue;
            }
            let mut count = 1;
            while count < MAX_RUN {
                let next = lut[(window << total) & (lut.len() - 1)];
                let len = (next >> FIRST_LEN_SHIFT) as usize & 0xF;
                if len == 0 || total + len > LUT_BITS {
                    break;
                }
                entry |= (next & 0xFFFF) << (16 * count);
                count += 1;
                total += len;
            }
            lut[window] = entry | (count as u64) << COUNT_SHIFT | (total as u64) << TOTAL_LEN_SHIFT;
        }
        Self { lut, slow }
    }

    /// Panic-free construction from untrusted lengths: rejects lengths
    /// over 64 bits and length populations violating the Kraft
    /// inequality (either would make table construction unsound).
    pub fn from_lengths_checked(lengths: &[u8]) -> Option<Self> {
        if lengths.iter().any(|&l| l > 64) {
            return None;
        }
        let mut kraft = 0u128;
        for &l in lengths {
            if l > 0 {
                kraft += 1u128 << (64 - l as u32);
            }
        }
        if kraft > 1u128 << 64 {
            return None;
        }
        Some(Self::from_lengths(lengths))
    }

    /// Decodes `n` symbols from a byte-aligned chunk holding `nbits`
    /// valid bits into `out[..n]`. Returns `None` on corruption — a
    /// stream that runs dry or matches no code — and when the arguments
    /// cannot describe a chunk: more bits than `bytes` holds, or an `out`
    /// shorter than `n`.
    pub fn decode_chunk(
        &self,
        bytes: &[u8],
        nbits: usize,
        n: usize,
        out: &mut [u16],
    ) -> Option<()> {
        if nbits.div_ceil(8) > bytes.len() {
            return None;
        }
        let out = out.get_mut(..n)?;
        let mut bits = BitBuffer::at(bytes, 0);
        let mut bitpos = 0usize;
        let mut i = 0usize;
        while i < n {
            if bits.have < LUT_BITS {
                bits.refill();
            }
            let entry = self.lut[(bits.buf >> (64 - LUT_BITS)) as usize];
            // The buffer reads as zeros past the end of `bytes`, and the
            // encoder's alignment padding is zeros too, so the window is
            // well-defined near the end; `<= avail` keeps either from
            // being consumed as data.
            let avail = nbits - bitpos;
            let count = (entry >> COUNT_SHIFT) as usize & 3;
            let mut len = (entry >> TOTAL_LEN_SHIFT) as usize & 0xF;
            if count != 0 && len <= avail && n - i >= MAX_RUN {
                // Every slot is written, `count` of them are kept.
                out[i] = entry as u16;
                out[i + 1] = (entry >> 16) as u16;
                out[i + 2] = (entry >> 32) as u16;
                i += count;
            } else {
                // One symbol: at either end of the chunk, or a long code.
                len = (entry >> FIRST_LEN_SHIFT) as usize & 0xF;
                if len == 0 || len > avail {
                    let mut reader = || {
                        if bitpos >= nbits {
                            return None;
                        }
                        let bit = (bytes[bitpos / 8] >> (7 - (bitpos % 8))) & 1 == 1;
                        bitpos += 1;
                        Some(bit)
                    };
                    out[i] = self.slow.decode_symbol(&mut reader)?;
                    i += 1;
                    bits = BitBuffer::at(bytes, bitpos);
                    continue;
                }
                out[i] = entry as u16;
                i += 1;
            }
            bits.consume(len);
            bitpos += len;
        }
        Some(())
    }
}

/// The unread part of a chunk, MSB-aligned in a 64-bit buffer: `have`
/// bits loaded from `bytes[..next]`, and below them either bits the next
/// refill loads again or zeros past the end of `bytes`.
struct BitBuffer<'a> {
    bytes: &'a [u8],
    next: usize,
    buf: u64,
    have: usize,
}

impl<'a> BitBuffer<'a> {
    /// A buffer whose first bit is bit `bitpos ≤ 8·bytes.len()` of `bytes`.
    fn at(bytes: &'a [u8], bitpos: usize) -> Self {
        let mut bits = Self {
            bytes,
            next: bitpos / 8,
            buf: 0,
            have: 0,
        };
        bits.refill();
        // A position inside a byte means that byte exists and was loaded.
        bits.consume(bitpos % 8);
        bits
    }

    /// Tops the buffer up to at least 56 bits, or to the end of `bytes`:
    /// one 8-byte big-endian load, byte-wise only inside the last 8 bytes.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self.bytes[self.next..].first_chunk::<8>() {
            self.buf |= u64::from_be_bytes(*word) >> self.have;
            // Only whole bytes count as loaded; the rest of the word sits
            // below `have` and is loaded again by the next refill.
            let whole = (63 - self.have) / 8;
            self.next += whole;
            self.have += 8 * whole;
        } else {
            while self.have <= 56 && self.next < self.bytes.len() {
                self.buf |= (self.bytes[self.next] as u64) << (56 - self.have);
                self.next += 1;
                self.have += 8;
            }
        }
    }

    #[inline(always)]
    fn consume(&mut self, len: usize) {
        self.buf <<= len;
        self.have -= len;
    }
}

/// Decodes an encoded stream with the table-accelerated decoder;
/// chunk-parallel like [`decode`](crate::decode).
///
/// Panics on structurally inconsistent metadata — callers decoding
/// untrusted bytes should use [`decode_fast_checked`].
pub fn decode_fast(enc: &HuffmanEncoded) -> Vec<u16> {
    decode_fast_checked(enc).expect("corrupt Huffman stream")
}

/// Panic-free decoding of a possibly corrupted stream: structural
/// inconsistencies (chunk bit counts disagreeing with the payload, an
/// invalid codebook, a bitstream that runs dry) return `None` instead of
/// panicking, and no allocation exceeds what the metadata itself has
/// already been validated to describe.
pub fn decode_fast_checked(enc: &HuffmanEncoded) -> Option<Vec<u16>> {
    let mut out = Vec::new();
    decode_fast_checked_into(enc, &mut out)?;
    Some(out)
}

/// [`decode_fast_checked`] decoding into a caller-owned buffer (cleared
/// and resized to the symbol count). The pipeline engine's per-chunk
/// decode reuses one symbol arena across chunks through this entry point.
/// On `None` the buffer contents are unspecified.
pub fn decode_fast_checked_into(enc: &HuffmanEncoded, out: &mut Vec<u16>) -> Option<()> {
    enc.validate().ok()?;
    let n = enc.n_symbols as usize;
    out.clear();
    if n == 0 {
        return Some(());
    }
    let decoder = FastDecoder::from_lengths_checked(&enc.codebook_lengths)?;
    let chunk = enc.chunk_symbols as usize;
    let mut offsets = Vec::with_capacity(enc.chunk_bits.len());
    let mut cursor = 0usize;
    for &bits in &enc.chunk_bits {
        offsets.push(cursor);
        cursor += (bits as usize).div_ceil(8);
    }
    // validate() proved the chunk bit counts tile the payload.
    debug_assert_eq!(cursor, enc.payload.len());

    if out.capacity() < n {
        out.try_reserve_exact(n - out.len()).ok()?;
    }
    out.resize(n, 0u16);
    let corrupt = std::sync::atomic::AtomicBool::new(false);
    cuszp_parallel::par_chunks_mut(out, chunk, |ci, dst| {
        let start = offsets[ci];
        let nbits = enc.chunk_bits[ci] as usize;
        let bytes = &enc.payload[start..start + nbits.div_ceil(8)];
        let n_here = dst.len();
        if decoder.decode_chunk(bytes, nbits, n_here, dst).is_none() {
            corrupt.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    });
    if corrupt.into_inner() {
        None
    } else {
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_codebook, decode, encode, histogram, DEFAULT_ENCODE_CHUNK};

    fn round_trip_both(syms: &[u16], bins: usize, chunk: usize) {
        let hist = histogram(syms, bins);
        let book = build_codebook(&hist);
        let enc = encode(syms, &book, chunk);
        let slow = decode(&enc, &book);
        let fast = decode_fast(&enc);
        assert_eq!(slow, syms);
        assert_eq!(fast, syms, "fast decoder diverged");
    }

    #[test]
    fn agrees_with_canonical_on_skewed_streams() {
        let syms: Vec<u16> = (0..100_000)
            .map(|i| if i % 23 == 0 { 511u16 } else { 512 })
            .collect();
        round_trip_both(&syms, 1024, DEFAULT_ENCODE_CHUNK);
    }

    #[test]
    fn agrees_on_wide_alphabets() {
        // Many symbols → some codes exceed LUT_BITS → slow path exercised.
        let syms: Vec<u16> = (0..60_000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                // Zipf-ish: frequent small symbols, a long tail.
                ((h % 16) * (h % 97) % 4096) as u16
            })
            .collect();
        round_trip_both(&syms, 4096, 2048);
    }

    #[test]
    fn agrees_on_tiny_and_ragged_inputs() {
        round_trip_both(&[5u16], 16, 7);
        let syms: Vec<u16> = (0..777).map(|i| (i % 3) as u16).collect();
        round_trip_both(&syms, 4, 100);
    }

    #[test]
    fn lut_fallback_marker_is_unambiguous() {
        // A degenerate book with one 1-bit code (canonical code '0'):
        // exactly the half of the table whose leading bit is 0 resolves
        // in one probe; the rest stays on the fallback marker.
        let resolved =
            |d: &FastDecoder| d.lut.iter().filter(|&&e| e >> COUNT_SHIFT & 3 != 0).count();
        let d = FastDecoder::from_lengths(&[1, 0, 0]);
        assert_eq!(
            resolved(&d),
            1 << (LUT_BITS - 1),
            "prefix-0 half of the table"
        );
        // A complete book (two 1-bit codes) fills everything.
        let d = FastDecoder::from_lengths(&[1, 1]);
        assert_eq!(resolved(&d), 1 << LUT_BITS);
    }

    #[test]
    fn entries_hold_as_many_whole_codes_as_fit_the_window() {
        // Codes: sym 0 = '0', sym 1 = '10', sym 2 = '110', sym 3 = '111'.
        let d = FastDecoder::from_lengths(&[1, 2, 3, 3]);
        let fields = |window: usize| {
            let e = d.lut[window];
            let count = (e >> COUNT_SHIFT) as usize & 3;
            let syms: Vec<u16> = (0..count).map(|k| (e >> (16 * k)) as u16).collect();
            (
                syms,
                (e >> FIRST_LEN_SHIFT) as usize & 0xF,
                (e >> TOTAL_LEN_SHIFT) as usize & 0xF,
            )
        };
        // 0 | 10 | 110 | 111000 → three symbols, six bits.
        assert_eq!(fields(0b0101_1011_1000), (vec![0, 1, 2], 1, 6));
        // 111 | 111 | 111 | 111 → capped at three symbols.
        assert_eq!(fields(0b1111_1111_1111), (vec![3, 3, 3], 3, 9));
        // A book whose second code would run past the window: 11 bits of
        // code '1…10' then a lone real bit that cannot hold the 2-bit '10'.
        let mut lengths = vec![1u8];
        lengths.extend(2..=11);
        lengths.push(11);
        let d = FastDecoder::from_lengths(&lengths);
        let e = d.lut[0b1111_1111_1101];
        assert_eq!((e >> COUNT_SHIFT) & 3, 1, "zero fill is not stream data");
        assert_eq!((e >> TOTAL_LEN_SHIFT) & 0xF, 11);
        assert_eq!(e as u16, 10);
    }

    #[test]
    fn decode_chunk_refuses_arguments_that_describe_no_chunk() {
        let syms: Vec<u16> = (0..40).map(|i| (i % 5) as u16).collect();
        let book = build_codebook(&histogram(&syms, 8));
        let enc = encode(&syms, &book, 64);
        let d = FastDecoder::from_lengths(&enc.codebook_lengths);
        let nbits = enc.chunk_bits[0] as usize;
        let mut out = vec![0u16; syms.len()];
        assert_eq!(
            d.decode_chunk(&enc.payload, nbits, syms.len(), &mut out),
            Some(())
        );
        assert_eq!(out, syms);
        // More bits than the bytes hold — by a byte, and by the whole chunk.
        let short = &enc.payload[..enc.payload.len() - 1];
        assert_eq!(d.decode_chunk(short, nbits, syms.len(), &mut out), None);
        assert_eq!(d.decode_chunk(&[], nbits, syms.len(), &mut out), None);
        assert_eq!(
            d.decode_chunk(&enc.payload, usize::MAX, syms.len(), &mut out),
            None
        );
        // An output that cannot hold `n` symbols.
        let (small, _) = out.split_at_mut(syms.len() - 1);
        assert_eq!(d.decode_chunk(&enc.payload, nbits, syms.len(), small), None);
    }

    #[test]
    fn fast_equals_bit_by_bit_on_a_large_skewed_stream() {
        let syms: Vec<u16> = (0..400_000)
            .map(|i| if i % 31 == 0 { 510u16 } else { 512 })
            .collect();
        let hist = histogram(&syms, 1024);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, DEFAULT_ENCODE_CHUNK);
        assert_eq!(decode(&enc, &book), decode_fast(&enc));
    }
}
