//! The workspace's two checksums, each defined exactly once.
//!
//! * [`fnv1a`] — exact 64-bit FNV-1a. The v1/CSZ2 archive and parity
//!   checksums (the goldens) and the rendezvous hash of keys in the
//!   placement ring are pinned to it byte for byte; so are v1 store
//!   record trailers and the `archive_sum` of a stripe put before v2
//!   store records, which are only ever verified. It is a
//!   one-byte-per-step xor→multiply chain (~0.7 GB/s): put it on no new
//!   path.
//! * [`wordsum64`] — the CSRP frame trailer, the server's hot-slab
//!   cache key, and everything the store and the cluster write: the v2
//!   record trailer, the per-shard `payload_sum`/`checksum` and the
//!   stripe `archive_sum`. Four independent multiply-xor lanes over
//!   little-endian `u64` loads (DESIGN.md "Framing" carries the same
//!   definition).
//!
//! Safe Rust, no dependencies, no arch intrinsics.

/// Exact 64-bit FNV-1a: offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`, one xor→multiply per byte.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The odd multiplier of every [`wordsum64`] step.
const MUL: u64 = 0x9E37_79B1_85EB_CA87;
/// Lane seeds: the first 256 fractional bits of π.
const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One absorb step. For a fixed `v` it is a bijection of `h` (xor,
/// rotate and multiply by an odd constant all are); for a fixed `h` it
/// is injective in `v`. The detection guarantee below rests on exactly
/// those two facts.
#[inline(always)]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).rotate_left(29).wrapping_mul(MUL)
}

#[inline(always)]
fn le64(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"))
}

/// Word-parallel 64-bit checksum of `bytes`.
///
/// ```text
/// lanes = LANE_SEEDS
/// for each whole 32-byte block B, in order:
///     lanes[i] = mix(lanes[i], le64(B[8i .. 8i+8]))        i = 0..4
/// acc = len(bytes)
/// acc = mix(acc, lanes[i])                                 i = 0..4, in order
/// for each whole 8-byte word W left after the blocks:  acc = mix(acc, le64(W))
/// for each byte b left after the words:                acc = mix(acc, b)
/// acc ^= acc >> 32;  acc *= MUL;  acc ^= acc >> 29
///
/// mix(h, v) = rotl64(h ^ v, 29) * MUL          (all arithmetic mod 2^64)
/// ```
///
/// **Detection guarantee.** Two inputs of equal length that differ
/// inside exactly one aligned 8-byte word (or one tail byte) — which
/// covers every single-bit flip and every single-byte overwrite — never
/// collide: the differing word enters one `mix` as `v` (injective), and
/// every later step, the final avalanche included, is a bijection of
/// the state that carries the difference. Anything wider is caught with
/// the usual 2⁻⁶⁴ odds of a 64-bit hash.
///
/// Only little-endian loads and wrapping integer ops, so the value is
/// the same on every target.
pub fn wordsum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le64(word));
        }
    }
    let mut acc = bytes.len() as u64;
    for lane in lanes {
        acc = mix(acc, lane);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        acc = mix(acc, le64(word));
    }
    for &b in words.remainder() {
        acc = mix(acc, b as u64);
    }
    acc ^= acc >> 32;
    acc = acc.wrapping_mul(MUL);
    acc ^ (acc >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition restated with byte indexing only — no slices of
    /// words, no iterator adaptors, no shared helpers — so an
    /// off-by-one in the fast path's chunking cannot hide in both.
    fn wordsum64_reference(bytes: &[u8]) -> u64 {
        let n = bytes.len();
        let word_at = |p: usize| {
            let mut w = 0u64;
            for j in 0..8 {
                w |= (bytes[p + j] as u64) << (8 * j);
            }
            w
        };
        let step = |h: u64, v: u64| (h ^ v).rotate_left(29).wrapping_mul(0x9E37_79B1_85EB_CA87);
        let mut lanes = [
            0x243F_6A88_85A3_08D3u64,
            0x1319_8A2E_0370_7344,
            0xA409_3822_299F_31D0,
            0x082E_FA98_EC4E_6C89,
        ];
        let mut p = 0;
        while n - p >= 32 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = step(*lane, word_at(p + 8 * i));
            }
            p += 32;
        }
        let mut acc = n as u64;
        for lane in lanes {
            acc = step(acc, lane);
        }
        while n - p >= 8 {
            acc = step(acc, word_at(p));
            p += 8;
        }
        while p < n {
            acc = step(acc, bytes[p] as u64);
            p += 1;
        }
        acc ^= acc >> 32;
        acc = acc.wrapping_mul(0x9E37_79B1_85EB_CA87);
        acc ^ (acc >> 29)
    }

    /// Deterministic non-repeating filler.
    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn pinned_fnv1a_is_the_standard_64_bit_variant() {
        // Archives, parity, ring placement and every store record or
        // stripe written before v2 are pinned to these bytes.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn wordsum64_pinned_vectors() {
        // Cross-checked against a Python transcription of the doc
        // comment's definition; a drifted constant trips these.
        let counter: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        assert_eq!(wordsum64(b""), 0x398e_728e_1709_c6fc);
        assert_eq!(wordsum64(b"a"), 0x1087_be61_7015_36d9);
        assert_eq!(wordsum64(&counter), 0x6e80_c0b2_5e63_edf0);
    }

    #[test]
    fn matches_the_reference_at_every_small_length() {
        let bytes = pattern(257, 0x5EED);
        for len in 0..=257 {
            assert_eq!(
                wordsum64(&bytes[..len]),
                wordsum64_reference(&bytes[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        // 0..=72 covers empty lanes, one and two whole blocks, every
        // tail-word count and every tail-byte count.
        for len in 0..=72 {
            let mut bytes = pattern(len, 7 + len as u64);
            let clean = wordsum64(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(wordsum64(&bytes), clean, "length {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn every_single_aligned_word_overwrite_changes_the_sum() {
        for len in [8, 24, 32, 40, 71, 96, 257, 4096] {
            let mut bytes = pattern(len, 11 + len as u64);
            let clean = wordsum64(&bytes);
            for w in 0..len / 8 {
                let at = w * 8..w * 8 + 8;
                let old: [u8; 8] = bytes[at.clone()].try_into().unwrap();
                for new in [
                    0u64,
                    u64::MAX,
                    le64(&old) ^ (1 << 63),
                    le64(&old).wrapping_add(1),
                ] {
                    if new == le64(&old) {
                        continue;
                    }
                    bytes[at.clone()].copy_from_slice(&new.to_le_bytes());
                    assert_ne!(wordsum64(&bytes), clean, "length {len}, word {w}");
                }
                bytes[at].copy_from_slice(&old);
            }
        }
    }

    #[test]
    fn appending_zero_bytes_changes_the_sum() {
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 1000] {
            let mut bytes = pattern(len, 3 + len as u64);
            let mut seen = vec![wordsum64(&bytes)];
            for _ in 0..40 {
                bytes.push(0);
                let sum = wordsum64(&bytes);
                assert!(!seen.contains(&sum), "length {len} + zeros collided");
                seen.push(sum);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_the_reference_at_random_lengths(
            len in 0usize..(1 << 20) + 1,
            seed in any::<u64>(),
        ) {
            let bytes = pattern(len, seed);
            prop_assert_eq!(wordsum64(&bytes), wordsum64_reference(&bytes));
        }
    }
}
