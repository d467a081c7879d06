//! Chunked Huffman encoding and decoding (cuSZ+ Steps 7–8).
//!
//! The GPU encodes fixed-size chunks of quant-codes independently (one per
//! thread block) and then *deflates* — concatenates the variable-length
//! chunk bitstreams. We keep the same structure: each chunk's bitstream is
//! byte-aligned (≤ 7 wasted bits per 4096-symbol chunk, ≈ 0.02‰) and the
//! per-chunk bit counts are the deflate metadata. Decoding is then
//! chunk-parallel, exactly like the GPU's per-block Huffman decoder.
//!
//! The encoder queues bits in a 64-bit word and stores four bytes at a
//! time into one buffer per worker — the CPU rendition of the paper's
//! "DRAM store per output unit, not per symbol" optimization (§V-C.1).
//! Only a book with a code past 32 bits — the quant-code books are
//! capped at 16, and an uncapped one needs a Fibonacci-skewed histogram
//! of millions of symbols to get there — drains the queue a byte at a
//! time.

use crate::codebook::{CanonicalDecoder, Codebook};

/// Symbols per encoded chunk. Matches the granularity cuSZ uses for its
/// per-block metadata.
pub const DEFAULT_ENCODE_CHUNK: usize = 4096;

/// A Huffman-encoded symbol stream plus the metadata needed to decode it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanEncoded {
    /// Concatenated per-chunk bitstreams, each chunk byte-aligned.
    pub payload: Vec<u8>,
    /// Bits used by each chunk (so byte length = bits.div_ceil(8)).
    pub chunk_bits: Vec<u32>,
    /// Symbols per chunk (last chunk may be short).
    pub chunk_symbols: u32,
    /// Total number of symbols.
    pub n_symbols: u64,
    /// Serialized codebook: per-symbol canonical code lengths.
    pub codebook_lengths: Vec<u8>,
}

impl HuffmanEncoded {
    /// Total archive footprint: payload + per-chunk metadata + the
    /// zero-run-packed codebook.
    pub fn storage_bytes(&self) -> usize {
        self.payload.len()
            + self.chunk_bits.len() * 4
            + packed_lengths_len(&self.codebook_lengths)
            + 20
    }

    /// Exact byte length of [`Self::to_bytes`] / [`Self::write_into`],
    /// computed without serializing (a counting pass over the codebook
    /// lengths instead of packing them into a scratch vector).
    pub fn serialized_bytes(&self) -> usize {
        32 + packed_lengths_len(&self.codebook_lengths)
            + self.chunk_bits.len() * 4
            + self.payload.len()
    }

    /// Serializes to a self-describing little-endian byte layout:
    /// `[n_symbols u64][chunk_symbols u32][n_chunks u32][packed_book u32]
    ///  [book_len u32][payload_len u64][packed lengths][chunk_bits]
    ///  [payload]`.
    ///
    /// The codebook lengths are zero-run packed: quant-code histograms
    /// use a handful of the `cap` symbols, so the raw length array is
    /// almost all zeros; the packing (`0x00, run_len` for zero runs,
    /// raw bytes otherwise) shrinks a 1024-entry book to tens of bytes —
    /// visible in small-field compression ratios.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_bytes());
        self.write_into(&mut out);
        out
    }

    /// Appends the [`Self::to_bytes`] layout to `out` without intermediate
    /// buffers — containers pre-size one output vector from
    /// [`Self::serialized_bytes`] and serialize every section into it.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let packed_len = packed_lengths_len(&self.codebook_lengths);
        out.reserve(32 + packed_len + self.chunk_bits.len() * 4 + self.payload.len());
        out.extend_from_slice(&self.n_symbols.to_le_bytes());
        out.extend_from_slice(&self.chunk_symbols.to_le_bytes());
        out.extend_from_slice(&(self.chunk_bits.len() as u32).to_le_bytes());
        out.extend_from_slice(&(packed_len as u32).to_le_bytes());
        out.extend_from_slice(&(self.codebook_lengths.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        pack_lengths_into(&self.codebook_lengths, out);
        for &b in &self.chunk_bits {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
    }

    /// Parses the layout written by [`Self::to_bytes`]. Returns the value
    /// and the number of bytes consumed, or `None` on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Self, usize)> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let n_symbols = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let chunk_symbols = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let n_chunks = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let packed_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let book_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
        // Declared sizes are attacker-controlled: every count must fit in
        // the remaining input before any allocation sized by it (a
        // 20-byte stream must never reserve gigabytes).
        let remaining = bytes.len().saturating_sub(pos);
        if packed_len > remaining {
            return None;
        }
        // A packed byte expands to at most 255 length entries, and
        // symbols are u16 so no real book exceeds 65536 entries.
        if book_len > packed_len.checked_mul(255)? || book_len > 65536 {
            return None;
        }
        let codebook_lengths = unpack_lengths(take(&mut pos, packed_len)?, book_len)?;
        let remaining = bytes.len().saturating_sub(pos);
        if n_chunks.checked_mul(4)? > remaining || payload_len > remaining {
            return None;
        }
        let mut chunk_bits = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            chunk_bits.push(u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?));
        }
        let payload = take(&mut pos, payload_len)?.to_vec();
        Some((
            Self {
                payload,
                chunk_bits,
                chunk_symbols,
                n_symbols,
                codebook_lengths,
            },
            pos,
        ))
    }

    /// Structural consistency of the decode metadata: chunk bit counts
    /// must tile the payload exactly, the chunking must cover `n_symbols`,
    /// and the codebook lengths must form a valid prefix code. An encoded
    /// stream that passes decodes without panicking.
    pub fn validate(&self) -> Result<(), &'static str> {
        let mut payload_bytes = 0usize;
        for &bits in &self.chunk_bits {
            payload_bytes = payload_bytes
                .checked_add((bits as usize).div_ceil(8))
                .ok_or("chunk bit counts overflow")?;
        }
        if payload_bytes != self.payload.len() {
            return Err("chunk bits disagree with payload length");
        }
        let n = self.n_symbols as usize;
        if n == 0 {
            return Ok(());
        }
        if self.chunk_symbols == 0 {
            return Err("zero chunk_symbols with symbols present");
        }
        if self.chunk_bits.len() != n.div_ceil(self.chunk_symbols as usize) {
            return Err("chunk count disagrees with n_symbols");
        }
        if self.codebook_lengths.iter().any(|&l| l > 64) {
            return Err("codebook length exceeds 64 bits");
        }
        // Kraft inequality: lengths must describe a real prefix code.
        let mut kraft = 0u128;
        for &l in &self.codebook_lengths {
            if l > 0 {
                kraft += 1u128 << (64 - l as u32);
            }
        }
        if kraft > 1u128 << 64 {
            return Err("codebook violates Kraft inequality");
        }
        Ok(())
    }
}

/// Zero-run packing of a code-length array: a `0x00` byte followed by a
/// run count (1..=255) encodes that many zeros; other bytes pass through.
#[cfg(test)]
fn pack_lengths(lengths: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(lengths.len() / 4 + 8);
    pack_lengths_into(lengths, &mut out);
    out
}

/// [`pack_lengths`] appending to an existing buffer.
fn pack_lengths_into(lengths: &[u8], out: &mut Vec<u8>) {
    let mut i = 0usize;
    while i < lengths.len() {
        if lengths[i] == 0 {
            let mut run = 1usize;
            while i + run < lengths.len() && lengths[i + run] == 0 && run < 255 {
                run += 1;
            }
            out.push(0);
            out.push(run as u8);
            i += run;
        } else {
            out.push(lengths[i]);
            i += 1;
        }
    }
}

/// Byte length [`pack_lengths`] would produce, via a counting-only pass.
fn packed_lengths_len(lengths: &[u8]) -> usize {
    let mut len = 0usize;
    let mut i = 0usize;
    while i < lengths.len() {
        if lengths[i] == 0 {
            let mut run = 1usize;
            while i + run < lengths.len() && lengths[i + run] == 0 && run < 255 {
                run += 1;
            }
            len += 2;
            i += run;
        } else {
            len += 1;
            i += 1;
        }
    }
    len
}

/// Inverse of [`pack_lengths`]; `None` if the stream does not expand to
/// exactly `expected_len` entries.
fn unpack_lengths(packed: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < packed.len() {
        if packed[i] == 0 {
            let run = *packed.get(i + 1)? as usize;
            if run == 0 {
                return None;
            }
            out.resize(out.len() + run, 0);
            i += 2;
        } else {
            out.push(packed[i]);
            i += 1;
        }
    }
    if out.len() == expected_len {
        Some(out)
    } else {
        None
    }
}

/// Longest code the 64-bit bit queue takes: up to seven bits stay queued
/// between symbols when it drains by the byte.
const MAX_QUEUED_CODE: u8 = 56;

/// Longest code the word-at-a-time drain takes: up to 31 bits stay queued
/// between symbols, and 31 + 32 still fits the queue.
const MAX_WORD_CODE: u8 = 32;

/// Encodes a symbol stream with the given codebook.
///
/// Every chunk of `chunk` symbols is byte-aligned and chunks are
/// concatenated in order, so the bytes do not depend on how many workers
/// shared the stream: each takes one contiguous run of chunks and packs
/// it into one buffer.
///
/// Panics if a symbol has no code (zero length) — the histogram the book
/// was built from must cover the stream — or if the book holds a code
/// longer than 56 bits, which the bit queue cannot take.
pub fn encode(symbols: &[u16], book: &Codebook, chunk: usize) -> HuffmanEncoded {
    assert!(chunk > 0, "chunk must be positive");
    let longest = book.lengths().iter().copied().max().unwrap_or(0);
    assert!(
        longest <= MAX_QUEUED_CODE,
        "code length {longest} overflows the {MAX_QUEUED_CODE}-bit limit of the bit queue"
    );
    // One `code << 8 | len` word per symbol: a single load in the hot loop.
    let table: Vec<u64> = (0..book.n_symbols())
        .map(|s| {
            let (code, len) = book.code(s as u16);
            code << 8 | u64::from(len)
        })
        .collect();
    let pack: fn(&[u16], &[u64], &mut Vec<u8>) -> u32 = if longest <= MAX_WORD_CODE {
        pack_chunk::<4>
    } else {
        pack_chunk::<1>
    };

    let n_chunks = symbols.len().div_ceil(chunk);
    let workers = if cuszp_parallel::inner_parallelism_disabled() {
        1
    } else {
        cuszp_parallel::num_workers()
    };
    let run = n_chunks.div_ceil(workers).max(1) * chunk;
    let mut runs = cuszp_parallel::par_map_chunks(symbols, run, |_, syms| {
        // Half a byte per symbol is what the old per-chunk buffers started
        // at; a denser stream grows the one buffer a few times instead.
        let mut bytes = Vec::with_capacity(syms.len() / 2 + 8);
        let bits: Vec<u32> = syms
            .chunks(chunk)
            .map(|c| pack(c, &table, &mut bytes))
            .collect();
        (bytes, bits)
    });
    let (payload, chunk_bits) = if runs.len() == 1 {
        runs.pop().expect("one run")
    } else {
        let mut payload = Vec::with_capacity(runs.iter().map(|(b, _)| b.len()).sum());
        let mut chunk_bits = Vec::with_capacity(n_chunks);
        for (bytes, bits) in runs {
            payload.extend_from_slice(&bytes);
            chunk_bits.extend_from_slice(&bits);
        }
        (payload, chunk_bits)
    };
    HuffmanEncoded {
        payload,
        chunk_bits,
        chunk_symbols: chunk as u32,
        n_symbols: symbols.len() as u64,
        codebook_lengths: book.lengths().to_vec(),
    }
}

/// Appends one chunk's byte-aligned bitstream to `out`, returning its
/// bit count.
///
/// Bits queue in the low end of a `u64`, newest lowest, so a symbol costs
/// one shift-or that does not wait on the fill count; once `8·DRAIN` are
/// pending the oldest `DRAIN` bytes leave together, MSB first. Bits that
/// have left are not cleared — later shifts push them off the top.
/// `DRAIN = 4` needs every code within [`MAX_WORD_CODE`] bits, `DRAIN = 1`
/// within [`MAX_QUEUED_CODE`] — [`encode`] checks the book and picks.
fn pack_chunk<const DRAIN: usize>(syms: &[u16], table: &[u64], out: &mut Vec<u8>) -> u32 {
    let drain_bits = 8 * DRAIN as u32;
    let mut acc = 0u64;
    let mut filled = 0u32; // pending bits (< drain_bits between symbols)
    let mut total_bits = 0u32;
    let mut all_coded = true;
    for &s in syms {
        let entry = table[s as usize];
        let len = (entry & 0xFF) as u32;
        all_coded &= len != 0;
        total_bits += len;
        acc = acc << len | entry >> 8;
        filled += len;
        while filled >= drain_bits {
            filled -= drain_bits;
            out.extend_from_slice(&(acc >> filled).to_be_bytes()[8 - DRAIN..]);
        }
    }
    if !all_coded {
        let s = syms.iter().find(|&&s| table[s as usize] & 0xFF == 0);
        panic!(
            "symbol {} has no code",
            s.expect("a codeless symbol was seen")
        );
    }
    if filled > 0 {
        let tail = acc << (64 - filled);
        out.extend_from_slice(&tail.to_be_bytes()[..filled.div_ceil(8) as usize]);
    }
    total_bits
}

/// The byte-at-a-time packer [`pack_chunk`] replaced, kept as the
/// reference the differential tests compare it with.
#[cfg(test)]
fn encode_chunk_reference(syms: &[u16], book: &Codebook) -> (Vec<u8>, u32) {
    let mut out = Vec::with_capacity(syms.len() / 2);
    let mut acc = 0u64;
    let mut filled = 0u32;
    let mut total_bits = 0u32;
    for &s in syms {
        let (code, len) = book.code(s);
        assert!(len > 0, "symbol {s} has no code");
        let len = len as u32;
        total_bits += len;
        acc |= code << (64 - len - filled);
        filled += len;
        while filled >= 8 {
            out.push((acc >> 56) as u8);
            acc <<= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        out.push((acc >> 56) as u8);
    }
    (out, total_bits)
}

/// Decodes an encoded stream back to symbols using the book's lengths.
pub fn decode(enc: &HuffmanEncoded, book: &Codebook) -> Vec<u16> {
    decode_with_lengths(enc, book.lengths())
}

/// Decodes using an explicit length array (the archive-stored form).
pub fn decode_with_lengths(enc: &HuffmanEncoded, lengths: &[u8]) -> Vec<u16> {
    let decoder = CanonicalDecoder::from_lengths(lengths);
    let n = enc.n_symbols as usize;
    if n == 0 {
        return Vec::new();
    }
    let chunk = enc.chunk_symbols as usize;
    // Chunk byte offsets from the per-chunk bit counts.
    let mut offsets = Vec::with_capacity(enc.chunk_bits.len());
    let mut cursor = 0usize;
    for &bits in &enc.chunk_bits {
        offsets.push(cursor);
        cursor += (bits as usize).div_ceil(8);
    }
    assert_eq!(cursor, enc.payload.len(), "payload length mismatch");

    let mut out = vec![0u16; n];
    // Decode chunk-parallel: distribute output chunks over workers.
    cuszp_parallel::par_chunks_mut(&mut out, chunk, |ci, dst| {
        let start = offsets[ci];
        let nbits = enc.chunk_bits[ci] as usize;
        let bytes = &enc.payload[start..start + nbits.div_ceil(8)];
        let mut bitpos = 0usize;
        let mut reader = || {
            if bitpos >= nbits {
                return None;
            }
            let b = bytes[bitpos / 8];
            let bit = (b >> (7 - (bitpos % 8))) & 1 == 1;
            bitpos += 1;
            Some(bit)
        };
        for slot in dst.iter_mut() {
            *slot = decoder
                .decode_symbol(&mut reader)
                .expect("corrupt Huffman chunk: ran out of bits");
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_codebook, histogram};

    fn round_trip(syms: &[u16], n_bins: usize, chunk: usize) {
        let hist = histogram(syms, n_bins);
        let book = build_codebook(&hist);
        let enc = encode(syms, &book, chunk);
        let dec = decode(&enc, &book);
        assert_eq!(dec, syms);
    }

    #[test]
    fn round_trip_small() {
        round_trip(&[1, 2, 3, 1, 1, 2], 4, 4);
    }

    #[test]
    fn round_trip_single_symbol_stream() {
        round_trip(&vec![9u16; 5000], 16, 1024);
    }

    #[test]
    fn round_trip_ragged_last_chunk() {
        let syms: Vec<u16> = (0..10_001).map(|i| (i % 37) as u16).collect();
        round_trip(&syms, 64, 4096);
    }

    #[test]
    fn round_trip_empty() {
        let hist = histogram(&[], 4);
        let book = build_codebook(&hist);
        let enc = encode(&[], &book, 16);
        assert_eq!(enc.n_symbols, 0);
        assert!(decode(&enc, &book).is_empty());
    }

    #[test]
    fn skewed_stream_compresses_near_entropy() {
        // p1 = 0.95 → entropy ≈ 0.37 bits; Huffman needs ≥ 1 bit/symbol.
        let syms: Vec<u16> = (0..100_000)
            .map(|i| if i % 20 == 0 { 1u16 } else { 0 })
            .collect();
        let hist = histogram(&syms, 4);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, DEFAULT_ENCODE_CHUNK);
        let bits_per_sym = enc.payload.len() as f64 * 8.0 / syms.len() as f64;
        assert!(
            bits_per_sym >= 1.0 - 1e-9,
            "VLE floor is 1 bit: {bits_per_sym}"
        );
        assert!(
            bits_per_sym < 1.2,
            "should be close to 1 bit: {bits_per_sym}"
        );
        round_trip(&syms, 4, DEFAULT_ENCODE_CHUNK);
    }

    #[test]
    fn chunk_bits_account_for_payload() {
        let syms: Vec<u16> = (0..9_000).map(|i| (i % 11) as u16).collect();
        let hist = histogram(&syms, 16);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, 2048);
        let expected_bytes: usize = enc
            .chunk_bits
            .iter()
            .map(|&b| (b as usize).div_ceil(8))
            .sum();
        assert_eq!(enc.payload.len(), expected_bytes);
        assert_eq!(enc.chunk_bits.len(), 9_000usize.div_ceil(2048));
    }

    #[test]
    fn storage_bytes_includes_metadata() {
        let syms = vec![0u16; 100];
        let hist = histogram(&syms, 4);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, 50);
        assert!(enc.storage_bytes() > enc.payload.len());
    }

    #[test]
    fn length_packing_round_trips() {
        for lengths in [vec![], vec![0u8; 1024], vec![5u8; 300], {
            let mut v = vec![0u8; 1024];
            v[510] = 3;
            v[511] = 1;
            v[512] = 2;
            v
        }] {
            let packed = pack_lengths(&lengths);
            let back = unpack_lengths(&packed, lengths.len()).unwrap();
            assert_eq!(back, lengths);
        }
        // The sparse book must pack small.
        let mut sparse = vec![0u8; 1024];
        sparse[512] = 1;
        assert!(pack_lengths(&sparse).len() < 20);
        // Corruption is rejected.
        assert!(unpack_lengths(&[0, 0], 5).is_none());
        assert!(unpack_lengths(&[3, 3], 5).is_none());
    }

    #[test]
    #[should_panic(expected = "no code")]
    fn encoding_uncovered_symbol_panics() {
        let book = build_codebook(&[5, 5, 0, 0]);
        encode(&[3u16], &book, 16);
    }

    /// [`encode`] as it was: one [`encode_chunk_reference`] per chunk,
    /// concatenated.
    fn encode_reference(syms: &[u16], book: &Codebook, chunk: usize) -> (Vec<u8>, Vec<u32>) {
        let mut payload = Vec::new();
        let mut chunk_bits = Vec::new();
        for c in syms.chunks(chunk) {
            let (bytes, bits) = encode_chunk_reference(c, book);
            payload.extend_from_slice(&bytes);
            chunk_bits.push(bits);
        }
        (payload, chunk_bits)
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Draws `n` symbols with the histogram's own weights (so long codes
    /// are rare, as in a real stream) plus every used symbol once (so
    /// the longest code is always packed).
    fn stream(hist: &[u32], n: usize, next: &mut impl FnMut() -> u64) -> Vec<u16> {
        let total: u64 = hist.iter().map(|&c| c as u64).sum();
        let mut syms: Vec<u16> = (0..n)
            .map(|_| {
                let mut at = next() % total;
                hist.iter()
                    .position(|&c| {
                        let here = at < c as u64;
                        at = at.wrapping_sub(c as u64);
                        here
                    })
                    .expect("a draw below the total lands in a bin") as u16
            })
            .collect();
        syms.extend((0..hist.len()).filter(|&s| hist[s] > 0).map(|s| s as u16));
        syms
    }

    /// The packer against the byte-at-a-time reference: same payload and
    /// bit counts at every worker count, and the stream decodes.
    fn assert_packs_like_reference(book: &Codebook, syms: &[u16], chunks: &[usize]) {
        for &chunk in chunks {
            let (payload, chunk_bits) = encode_reference(syms, book, chunk);
            for workers in [1, 2, 8] {
                cuszp_parallel::set_workers(workers);
                let enc = encode(syms, book, chunk);
                assert_eq!(
                    enc.chunk_bits, chunk_bits,
                    "chunk {chunk}, {workers} workers"
                );
                assert_eq!(enc.payload, payload, "chunk {chunk}, {workers} workers");
            }
            cuszp_parallel::set_workers(0);
            let enc = encode(syms, book, chunk);
            assert_eq!(
                crate::decode_fast_checked(&enc).as_deref(),
                Some(syms),
                "chunk {chunk}"
            );
        }
    }

    /// One test, not one per kind of book: the worker count it steps
    /// through is process-wide.
    #[test]
    fn packer_equals_the_bytewise_reference() {
        let mut next = xorshift(0xC0DE_B00C);
        let every_chunk: Vec<usize> = (1..=64).chain([4096]).collect();
        for n_bins in [2usize, 5, 256, 1024] {
            // A few heavy symbols, a long light tail, some bins unused.
            let hist: Vec<u32> = (0..n_bins)
                .map(|_| match next() % 4 {
                    0 => 0,
                    _ => 1 + (next() % (1 << (next() % 20))) as u32,
                })
                .chain([1]) // never an empty histogram
                .collect();
            let book = build_codebook(&hist);
            let syms = stream(&hist, 3000, &mut next);
            assert_packs_like_reference(&book, &syms, &every_chunk);
            // Long enough for the parallel primitives to really fan out.
            let syms = stream(&hist, 40_000, &mut next);
            assert_packs_like_reference(&book, &syms, &[61, 4096]);
        }

        // Fibonacci weights give the deepest tree a histogram can: 40
        // symbols reach 39 bits, past what the word-at-a-time drain takes.
        let mut hist = vec![1u32, 1];
        while hist.len() < 40 {
            hist.push(hist[hist.len() - 1] + hist[hist.len() - 2]);
        }
        let book = build_codebook(&hist);
        assert_eq!(book.lengths().iter().max(), Some(&39));
        // Uniform draws: the long codes come up as often as the short.
        let syms: Vec<u16> = (0..5000).map(|_| (next() % 40) as u16).collect();
        assert_packs_like_reference(&book, &syms, &every_chunk);
    }

    /// Lengths 1, 2, …, `longest − 1`, `longest`, `longest`: a complete
    /// prefix code whose last two symbols carry the longest codes.
    fn staircase_book(longest: u8) -> Codebook {
        let lengths: Vec<u8> = (1..=longest).chain([longest]).collect();
        Codebook::from_lengths(&lengths)
    }

    #[test]
    fn a_56_bit_book_still_packs() {
        let book = staircase_book(56);
        let syms: Vec<u16> = (0..57).chain((0..57).rev()).collect();
        let (payload, chunk_bits) = encode_reference(&syms, &book, 7);
        let enc = encode(&syms, &book, 7);
        assert_eq!((&enc.payload, &enc.chunk_bits), (&payload, &chunk_bits));
        assert_eq!(decode(&enc, &book), syms);
    }

    /// In a release build the old `debug_assert!` let this through and
    /// the shift amount wrapped: a corrupt stream and no error.
    #[test]
    #[should_panic(expected = "overflows the 56-bit limit")]
    fn a_57_bit_book_is_refused_before_packing() {
        encode(&[0u16, 56, 57], &staircase_book(57), 16);
    }
}
