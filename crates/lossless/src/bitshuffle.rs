//! Bit-plane transposition (bitshuffle), the standard pre-filter in
//! front of byte-oriented lossless coders (Blosc/HDF5 style).
//!
//! Entropy-coded payloads of smooth chunks waste most of each byte:
//! Huffman bitstreams of near-constant symbols and RLE run words share
//! their high bits across neighbors. Transposing each block so that bit
//! plane 0 of every byte comes first, then plane 1, and so on, turns
//! that cross-byte redundancy into long same-byte runs — exactly what
//! the LZ77 window finds. The transform is a fixed permutation of bits:
//! exactly invertible, size-preserving, and block-local (so it keeps
//! per-chunk determinism at any worker count).
//!
//! Layout per full [`BITSHUFFLE_BLOCK`]-byte block: output byte `j`
//! packs input bits `plane = j / (BLOCK/8)` of the eight input bytes
//! `8·(j % (BLOCK/8)) ..+ 8`, LSB-first. A trailing partial block is
//! copied verbatim — too short to matter for ratio, and keeping it
//! untransformed means any input length round-trips.

/// Block size of the transposition, in bytes. Must stay a multiple of 8.
pub const BITSHUFFLE_BLOCK: usize = 4096;

const PLANE: usize = BITSHUFFLE_BLOCK / 8;

/// Transposes the 8 × 8 bit matrix held in a `u64` (row `i` = byte `i`,
/// column `j` = bit `j`): bit `8i + j` trades places with bit `8j + i`.
/// Three masked shift-xor steps swap 1×1, 2×2 and 4×4 off-diagonal
/// blocks (Hacker's Delight §7-3); the map is its own inverse.
#[inline(always)]
fn transpose8x8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Applies the bit-plane transposition. Output length equals input
/// length for every input, and — blocks being independent — the output
/// of a whole number of blocks is a prefix of the output of any longer
/// input that starts with them.
pub fn bitshuffle(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    let mut blocks = data.chunks_exact(BITSHUFFLE_BLOCK);
    for (block, dst) in (&mut blocks).zip(out.chunks_exact_mut(BITSHUFFLE_BLOCK)) {
        // Eight input bytes become one byte of each of the eight planes.
        for (group, bytes) in block.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(bytes.try_into().expect("chunks of 8"));
            let planes = transpose8x8(word).to_le_bytes();
            for (plane, &byte) in planes.iter().enumerate() {
                dst[plane * PLANE + group] = byte;
            }
        }
    }
    let tail = blocks.remainder();
    out[data.len() - tail.len()..].copy_from_slice(tail);
    out
}

/// Exact inverse of [`bitshuffle`].
pub fn unbitshuffle(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    let mut blocks = data.chunks_exact(BITSHUFFLE_BLOCK);
    for (block, dst) in (&mut blocks).zip(out.chunks_exact_mut(BITSHUFFLE_BLOCK)) {
        for (group, bytes) in dst.chunks_exact_mut(8).enumerate() {
            let mut planes = [0u8; 8];
            for (plane, byte) in planes.iter_mut().enumerate() {
                *byte = block[plane * PLANE + group];
            }
            let word = transpose8x8(u64::from_le_bytes(planes));
            bytes.copy_from_slice(&word.to_le_bytes());
        }
    }
    let tail = blocks.remainder();
    out[data.len() - tail.len()..].copy_from_slice(tail);
    out
}

/// The bit-at-a-time loops the word transposes replaced, kept as the
/// references the differential tests compare them with.
#[cfg(test)]
mod reference {
    use super::{BITSHUFFLE_BLOCK, PLANE};

    pub fn bitshuffle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut blocks = data.chunks_exact(BITSHUFFLE_BLOCK);
        for block in &mut blocks {
            for plane in 0..8u32 {
                for group in 0..PLANE {
                    let mut byte = 0u8;
                    for (bit, &b) in block[group * 8..group * 8 + 8].iter().enumerate() {
                        byte |= ((b >> plane) & 1) << bit;
                    }
                    out.push(byte);
                }
            }
        }
        out.extend_from_slice(blocks.remainder());
        out
    }

    pub fn unbitshuffle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut blocks = data.chunks_exact(BITSHUFFLE_BLOCK);
        for block in &mut blocks {
            let start = out.len();
            out.resize(start + BITSHUFFLE_BLOCK, 0);
            for plane in 0..8u32 {
                for group in 0..PLANE {
                    let byte = block[plane as usize * PLANE + group];
                    for bit in 0..8 {
                        out[start + group * 8 + bit] |= ((byte >> bit) & 1) << plane;
                    }
                }
            }
        }
        out.extend_from_slice(blocks.remainder());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn round_trips_every_length_class() {
        for n in [
            0,
            1,
            7,
            8,
            BITSHUFFLE_BLOCK - 1,
            BITSHUFFLE_BLOCK,
            BITSHUFFLE_BLOCK + 1,
            3 * BITSHUFFLE_BLOCK + 517,
        ] {
            let data = noise(n);
            let shuffled = bitshuffle(&data);
            assert_eq!(shuffled.len(), data.len());
            assert_eq!(unbitshuffle(&shuffled), data, "n={n}");
        }
    }

    #[test]
    fn word_transposes_equal_the_bit_at_a_time_reference() {
        const PROBE: usize = 4 * BITSHUFFLE_BLOCK; // the engine's probe prefix
        for n in [
            0,
            1,
            7,
            8,
            BITSHUFFLE_BLOCK - 1,
            BITSHUFFLE_BLOCK,
            BITSHUFFLE_BLOCK + 1,
            3 * BITSHUFFLE_BLOCK + 517,
            PROBE - 1,
            PROBE,
            PROBE + 1,
        ] {
            let data = noise(n);
            let shuffled = bitshuffle(&data);
            assert_eq!(shuffled, reference::bitshuffle(&data), "n={n}");
            assert_eq!(
                unbitshuffle(&data),
                reference::unbitshuffle(&data),
                "inverse on arbitrary bytes, n={n}"
            );
            assert_eq!(unbitshuffle(&shuffled), data, "n={n}");
        }
    }

    #[test]
    fn whole_blocks_transpose_to_a_prefix_of_the_whole() {
        // What lets the engine transpose its probe prefix first and the
        // rest only when the probe says the wrap pays.
        let data = noise(5 * BITSHUFFLE_BLOCK + 99);
        let whole = bitshuffle(&data);
        for blocks in 0..=5 {
            let cut = blocks * BITSHUFFLE_BLOCK;
            assert_eq!(bitshuffle(&data[..cut]), whole[..cut], "{blocks} blocks");
            assert_eq!(
                bitshuffle(&data[cut..]),
                whole[cut..],
                "after {blocks} blocks"
            );
        }
    }

    #[test]
    fn transposition_concentrates_low_entropy_bits() {
        // Bytes whose upper 7 bits are constant: after the shuffle,
        // planes 1..8 become all-zero / all-one runs.
        let data: Vec<u8> = (0..BITSHUFFLE_BLOCK)
            .map(|i| 0x40 | (i as u8 & 1))
            .collect();
        let shuffled = bitshuffle(&data);
        // Plane 0 alternates 0/1 per input byte → 0xAA groups; planes 1–5
        // and 7 are all zeros, plane 6 all ones.
        assert!(shuffled[..PLANE].iter().all(|&b| b == 0xAA));
        assert!(shuffled[PLANE..6 * PLANE].iter().all(|&b| b == 0));
        assert!(shuffled[6 * PLANE..7 * PLANE].iter().all(|&b| b == 0xFF));
        assert!(shuffled[7 * PLANE..].iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_tail_is_verbatim() {
        let data = noise(BITSHUFFLE_BLOCK + 100);
        let shuffled = bitshuffle(&data);
        assert_eq!(&shuffled[BITSHUFFLE_BLOCK..], &data[BITSHUFFLE_BLOCK..]);
    }
}
