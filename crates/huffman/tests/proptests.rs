//! Property tests: round-trips for arbitrary streams, canonical-code
//! invariants, and the redundancy bracket.

use cuszp_huffman::{build_codebook, decode, decode_with_lengths, encode, histogram, stats};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_arbitrary_streams(
        syms in prop::collection::vec(0u16..128, 0..6000),
        chunk in prop::sample::select(vec![7usize, 64, 1024, 4096]),
    ) {
        let hist = histogram(&syms, 128);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, chunk);
        prop_assert_eq!(decode(&enc, &book), syms);
    }

    #[test]
    fn decode_from_serialized_lengths_only(
        syms in prop::collection::vec(0u16..32, 1..3000),
    ) {
        // Decoder must work from the archive-stored lengths alone.
        let hist = histogram(&syms, 32);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, 512);
        let lengths = enc.codebook_lengths.clone();
        prop_assert_eq!(decode_with_lengths(&enc, &lengths), syms);
    }

    #[test]
    fn kraft_equality_holds(hist in prop::collection::vec(0u32..10_000, 2..256)) {
        let lengths = cuszp_huffman::code_lengths(&hist);
        let used = lengths.iter().filter(|&&l| l > 0).count();
        if used >= 2 {
            let kraft: f64 = lengths.iter().filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32))).sum();
            prop_assert!((kraft - 1.0).abs() < 1e-9, "kraft = {}", kraft);
        }
    }

    #[test]
    fn avg_bitlen_within_bracket(hist in prop::collection::vec(1u32..100_000, 2..64)) {
        let book = build_codebook(&hist);
        let b = stats::avg_bit_length(&hist, &book);
        let (lo, hi) = stats::avg_bit_length_bounds(&hist);
        prop_assert!(b >= lo - 1e-9, "⟨b⟩={} below lower bound {}", b, lo);
        prop_assert!(b <= hi + 1e-9, "⟨b⟩={} above upper bound {}", b, hi);
        // And the textbook bracket: H ≤ ⟨b⟩ < H + 1 (with the 1-bit floor).
        let h = stats::entropy(&hist);
        prop_assert!(b + 1e-9 >= h.max(1.0));
        prop_assert!(b <= h.max(1.0) + 1.0 + 1e-9);
    }

    #[test]
    fn payload_matches_chunk_bit_accounting(
        syms in prop::collection::vec(0u16..16, 1..5000),
        chunk in 1usize..2000,
    ) {
        let hist = histogram(&syms, 16);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, chunk);
        let bytes: usize = enc.chunk_bits.iter().map(|&b| (b as usize).div_ceil(8)).sum();
        prop_assert_eq!(enc.payload.len(), bytes);
        prop_assert_eq!(enc.chunk_bits.len(), syms.len().div_ceil(chunk));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_decoder_agrees_with_canonical(
        syms in prop::collection::vec(0u16..512, 0..5000),
        chunk in prop::sample::select(vec![64usize, 1024, 4096]),
    ) {
        let hist = histogram(&syms, 512);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, chunk);
        prop_assert_eq!(cuszp_huffman::decode_fast(&enc), decode(&enc, &book));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn length_limited_codes_are_valid_and_near_optimal(
        hist in prop::collection::vec(0u32..50_000, 2..200),
        limit in 9u8..20,
    ) {
        let used = hist.iter().filter(|&&c| c > 0).count();
        prop_assume!(used as u64 <= 1u64 << limit);
        let limited = cuszp_huffman::code_lengths_limited(&hist, limit);
        prop_assert!(limited.iter().all(|&l| l <= limit));
        // Kraft equality when ≥2 symbols are used.
        if used >= 2 {
            let kraft: f64 = limited.iter().filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32))).sum();
            prop_assert!((kraft - 1.0).abs() < 1e-9, "kraft {}", kraft);
        }
        // Within 8% of unconstrained Huffman cost at these limits.
        let plain = cuszp_huffman::code_lengths(&hist);
        let cost = |ls: &[u8]| -> u64 {
            hist.iter().zip(ls).map(|(&c, &l)| c as u64 * l as u64).sum()
        };
        let (cp, cl) = (cost(&plain), cost(&limited));
        prop_assert!(cl >= cp, "limited can never beat optimal");
        prop_assert!((cl as f64) <= cp as f64 * 1.08 + 64.0, "{} vs {}", cl, cp);
    }
}

// ---- the table decoder against the bit-at-a-time one -------------------

/// A histogram drawn two ways: random counts (codes mostly within the
/// decoder's 12-bit table), or Fibonacci-weighted counts over `n` symbols,
/// whose code lengths run 1, 2, …, n − 1 — past the table at n ≥ 14 and
/// past 32 bits at n ≥ 34 — rotated so the long codes move around.
fn book_hist() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        prop::collection::vec(0u32..10_000, 2..300),
        (14usize..=40, 0usize..40).prop_map(|(n, rot)| {
            let mut hist = vec![1u32; n];
            for i in 2..n {
                hist[i] = hist[i - 1] + hist[i - 2];
            }
            hist.rotate_left(rot % n);
            hist
        }),
    ]
}

/// Maps raw draws onto the book's used symbols: three in four go to the
/// three most frequent symbols (short codes, several per table probe), the
/// rest anywhere — so long-code symbols land in the middle of a run of
/// short ones.
fn stream_over(hist: &[u32], raws: &[u32]) -> Vec<u16> {
    let mut used: Vec<u16> = (0..hist.len() as u16)
        .filter(|&s| hist[s as usize] > 0)
        .collect();
    used.sort_by_key(|&s| std::cmp::Reverse(hist[s as usize]));
    if used.is_empty() {
        return Vec::new();
    }
    raws.iter()
        .map(|&r| {
            let pick = (r / 4) as usize;
            if r % 4 != 0 {
                used[pick % used.len().min(3)]
            } else {
                used[pick % used.len()]
            }
        })
        .collect()
}

const CANARY: u16 = 0xBEEF;
const TAIL: usize = 4;

/// Byte offset of every chunk in the payload.
fn chunk_offsets(enc: &cuszp_huffman::HuffmanEncoded) -> Vec<usize> {
    let mut cursor = 0usize;
    enc.chunk_bits
        .iter()
        .map(|&bits| {
            let start = cursor;
            cursor += (bits as usize).div_ceil(8);
            start
        })
        .collect()
}

/// `decode_chunk` into a buffer with a canary tail: the result, the `n`
/// decoded slots, and whether the tail survived.
fn decode_chunk_guarded(
    decoder: &cuszp_huffman::FastDecoder,
    bytes: &[u8],
    nbits: usize,
    n: usize,
) -> (Option<()>, Vec<u16>, bool) {
    let mut buf = vec![CANARY; n + TAIL];
    let got = decoder.decode_chunk(bytes, nbits, n, &mut buf);
    let intact = buf[n..].iter().all(|&s| s == CANARY);
    buf.truncate(n);
    (got, buf, intact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_decoder_equals_bit_at_a_time_on_long_code_books(
        hist in book_hist(),
        raws in prop::collection::vec(any::<u32>(), 0..1500),
        chunk in 1usize..=64,
    ) {
        let syms = stream_over(&hist, &raws);
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, chunk);
        let reference = decode(&enc, &book);
        prop_assert_eq!(&reference, &syms);
        prop_assert_eq!(cuszp_huffman::decode_fast_checked(&enc), Some(reference));

        // Chunk by chunk, into a buffer longer than the chunk.
        let decoder = cuszp_huffman::FastDecoder::from_lengths(&enc.codebook_lengths);
        let offsets = chunk_offsets(&enc);
        for (ci, want) in syms.chunks(chunk).enumerate() {
            let nbits = enc.chunk_bits[ci] as usize;
            let bytes = &enc.payload[offsets[ci]..offsets[ci] + nbits.div_ceil(8)];
            let (got, out, intact) = decode_chunk_guarded(&decoder, bytes, nbits, want.len());
            prop_assert_eq!(got, Some(()));
            prop_assert_eq!(&out[..], want);
            prop_assert!(intact, "chunk {} wrote past its {} symbols", ci, want.len());
        }
    }

    #[test]
    fn damaged_streams_fail_closed_without_overrunning(
        hist in book_hist(),
        raws in prop::collection::vec(any::<u32>(), 1..600),
        chunk in 1usize..=64,
        picks in prop::collection::vec(any::<usize>(), 6),
    ) {
        let syms = stream_over(&hist, &raws);
        prop_assume!(!syms.is_empty());
        let book = build_codebook(&hist);
        let enc = encode(&syms, &book, chunk);

        // Every truncation of the payload, and every single byte cut out
        // of it, is refused.
        for cut in 0..enc.payload.len() {
            let mut short = enc.clone();
            short.payload.truncate(cut);
            prop_assert_eq!(cuszp_huffman::decode_fast_checked(&short), None);
            let mut holed = enc.clone();
            holed.payload.remove(cut);
            prop_assert_eq!(cuszp_huffman::decode_fast_checked(&holed), None);
        }

        // Per chunk, straight at `decode_chunk` (no `validate` in front).
        let decoder = cuszp_huffman::FastDecoder::from_lengths(&enc.codebook_lengths);
        let offsets = chunk_offsets(&enc);
        for (ci, want) in syms.chunks(chunk).enumerate() {
            let nbits = enc.chunk_bits[ci] as usize;
            let bytes = &enc.payload[offsets[ci]..offsets[ci] + nbits.div_ceil(8)];
            let n = want.len();
            // A chunk missing its last byte claims more bits than it holds.
            let (got, _, intact) = decode_chunk_guarded(&decoder, &bytes[..bytes.len() - 1], nbits, n);
            prop_assert_eq!(got, None);
            prop_assert!(intact);
            // One bit fewer: the last code is cut short, and a prefix of a
            // code is not a code.
            let (got, _, intact) = decode_chunk_guarded(&decoder, bytes, nbits - 1, n);
            prop_assert_eq!(got, None);
            prop_assert!(intact);
            // One bit more: the same symbols when the bit exists (it is
            // padding), refused when it does not.
            let (got, out, intact) = decode_chunk_guarded(&decoder, bytes, nbits + 1, n);
            prop_assert!(intact);
            if nbits.is_multiple_of(8) {
                prop_assert_eq!(got, None);
            } else {
                prop_assert_eq!(got, Some(()));
                prop_assert_eq!(&out[..], want);
            }
            // A short output buffer is refused, not overrun.
            let mut small = vec![CANARY; n - 1];
            prop_assert_eq!(decoder.decode_chunk(bytes, nbits, n, &mut small), None);
        }

        // The same two edits through the whole-stream entry point.
        for pick in picks {
            let ci = pick % enc.chunk_bits.len();
            let mut lowered = enc.clone();
            lowered.chunk_bits[ci] -= 1;
            prop_assert_eq!(cuszp_huffman::decode_fast_checked(&lowered), None);
            let mut raised = enc.clone();
            raised.chunk_bits[ci] += 1;
            let got = cuszp_huffman::decode_fast_checked(&raised);
            prop_assert!(got.is_none() || got.as_ref() == Some(&syms));
        }
    }
}
