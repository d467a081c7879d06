//! Property-based fuzzing of the CSRP frame reader: arbitrary 20-byte
//! headers and payload prefixes through `read_frame` must never panic,
//! and every input must classify as *exactly one* `WireError` (or parse
//! into a frame). The oracle below re-states the reader's documented
//! precedence — magic → version window → length cap → truncation →
//! checksum — so the test pins the classification order, not just
//! panic-freedom.

use cuszp_server::wire::{
    read_frame, wordsum64, write_frame, Frame, WireError, FRAME_HEADER_BYTES, WIRE_MAGIC,
};
use proptest::prelude::*;

/// A small payload cap so `FrameTooLarge` is reachable with modest
/// declared lengths and no test allocates more than 64 KiB.
const CAP: usize = 64 << 10;

/// The reader's contract, restated independently: what `read_frame`
/// must return for `bytes`, in documented precedence order.
fn oracle(bytes: &[u8], cap: usize) -> Result<Frame, WireError> {
    if bytes.is_empty() {
        return Err(WireError::Closed);
    }
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    // CSRP v6 is the only version on the wire: a v1–v3 frame (FNV
    // trailer), a v4 or a v5 one is refused here, whatever its trailer
    // holds.
    if version != 6 {
        return Err(WireError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    if len > cap {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: cap as u64,
        });
    }
    let rest = &bytes[FRAME_HEADER_BYTES..];
    if rest.len() < len + 8 {
        return Err(WireError::Truncated);
    }
    let payload = &rest[..len];
    let expected = u64::from_le_bytes(rest[len..len + 8].try_into().unwrap());
    let actual = wordsum64(payload);
    if expected != actual {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(Frame {
        op: bytes[6],
        flags: bytes[7],
        req_id: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        payload: payload.to_vec(),
    })
}

fn assert_matches_oracle(bytes: &[u8]) -> Result<(), TestCaseError> {
    let got = read_frame(&mut &bytes[..], CAP);
    prop_assert_eq!(got, oracle(bytes, CAP));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fully arbitrary bytes: almost always dies at the magic check,
    /// but whatever happens must match the oracle bit for bit.
    #[test]
    fn arbitrary_bytes_classify_exactly(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        assert_matches_oracle(&bytes)?;
    }

    /// Real magic with arbitrary header fields: exercises the version
    /// window, the length cap, and truncation far more often than
    /// random magic can.
    #[test]
    fn structured_headers_classify_exactly(
        version in 0u16..8,
        op in any::<u8>(),
        flags in any::<u8>(),
        req_id in any::<u64>(),
        len in 0u32..200_000,
        rest in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + rest.len());
        bytes.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.push(op);
        bytes.push(flags);
        bytes.extend_from_slice(&req_id.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&rest);
        assert_matches_oracle(&bytes)?;
    }

    /// Valid frames, then one byte of damage and/or a truncation:
    /// flipped op/flags/id bytes still parse (the checksum covers only
    /// the payload), while payload or trailer damage must surface as
    /// exactly the checksum/truncation error the oracle predicts.
    #[test]
    fn damaged_valid_frames_classify_exactly(
        op in any::<u8>(),
        flags in any::<u8>(),
        req_id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
        hit in any::<u64>(),
        xor in any::<u8>(),
        cut in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, op, flags, req_id, &payload).unwrap();
        let hit = (hit % bytes.len() as u64) as usize;
        bytes[hit] ^= xor;
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        bytes.truncate(cut);
        assert_matches_oracle(&bytes)?;
    }
}

/// The `get_shard` window (CSRP v6): a window whose end fits in a
/// `u64` round-trips, any other is the typed overflow error, and a
/// damaged or cut request never panics.
mod shard_windows {
    use super::*;
    use cuszp_server::wire::GetShardRequest;

    fn request(window: Option<(u64, u64)>) -> GetShardRequest {
        GetShardRequest {
            key: "nyx/baryon_density".into(),
            shard_idx: 1,
            ring_epoch: 3,
            window,
        }
    }

    fn expect(offset: u64, len: u64) -> Result<GetShardRequest, WireError> {
        match offset.checked_add(len) {
            Some(_) => Ok(request(Some((offset, len)))),
            None => Err(WireError::BadPayload("shard window overflows u64")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary `(offset, len)`: about half of these overflow.
        #[test]
        fn arbitrary_windows_round_trip_or_refuse_typed(
            offset in any::<u64>(),
            len in any::<u64>(),
        ) {
            let back = GetShardRequest::decode(&request(Some((offset, len))).encode());
            prop_assert_eq!(back, expect(offset, len));
        }

        /// Windows ending at or just past `u64::MAX`, zero length
        /// included.
        #[test]
        fn windows_at_the_top_of_u64_split_exactly(
            below_max in 0u64..4,
            len in 0u64..8,
        ) {
            let offset = u64::MAX - below_max;
            let back = GetShardRequest::decode(&request(Some((offset, len))).encode());
            prop_assert_eq!(back, expect(offset, len));
        }

        /// One byte of damage and/or a cut on a windowed or whole-shard
        /// request: never a panic, and an undamaged one round-trips.
        #[test]
        fn damaged_get_requests_never_panic(
            windowed in any::<bool>(),
            offset in 0u64..1 << 20,
            len in 0u64..1 << 20,
            hit in any::<u64>(),
            xor in any::<u8>(),
            cut in any::<u64>(),
        ) {
            let req = request(windowed.then_some((offset, len)));
            let mut bytes = req.encode();
            let hit = (hit % bytes.len() as u64) as usize;
            bytes[hit] ^= xor;
            let cut = (cut % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(cut);
            let back = GetShardRequest::decode(&bytes);
            if xor == 0 && cut == req.encode().len() {
                prop_assert_eq!(back, Ok(req));
            }
        }
    }
}

/// The version-3 additive tails on error responses, fuzzed against
/// their documented precedence: after `code + message`, a retry hint
/// is read iff ≥ 4 bytes remain, and a redirect tail after it iff
/// ≥ 18 more remain — version ≤ 2 payloads therefore parse with both
/// tails `None`, and no tail bytes can panic the decoder.
mod error_tails {
    use super::*;
    use cuszp_server::wire::{ErrorCode, ErrorResponse};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Valid prefix + arbitrary tail bytes: decode never panics,
        /// and when it succeeds the tails obey the length precedence
        /// bit for bit.
        #[test]
        fn tail_precedence_matches_the_documented_windows(
            code_raw in 0u16..16,
            msg in prop::collection::vec(any::<u8>(), 0..40),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let Some(code) = ErrorCode::from_u16(code_raw) else {
                return Ok(());
            };
            let msg: String = msg.iter().map(|b| char::from(b'a' + b % 26)).collect();
            let mut payload = Vec::new();
            payload.extend_from_slice(&code_raw.to_le_bytes());
            payload.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            payload.extend_from_slice(msg.as_bytes());
            payload.extend_from_slice(&tail);
            match ErrorResponse::decode(&payload) {
                Ok(resp) => {
                    prop_assert_eq!(resp.code, code);
                    prop_assert_eq!(&resp.message, &msg);
                    if tail.len() >= 4 {
                        let hint = u32::from_le_bytes(tail[0..4].try_into().unwrap());
                        prop_assert_eq!(resp.retry_after_ms, Some(hint));
                    } else {
                        prop_assert_eq!(resp.retry_after_ms, None);
                        prop_assert_eq!(&resp.redirect, &None);
                    }
                    if tail.len() < 4 + 18 {
                        prop_assert_eq!(&resp.redirect, &None);
                    }
                    if let Some(r) = &resp.redirect {
                        prop_assert_eq!(
                            r.epoch,
                            u64::from_le_bytes(tail[4..12].try_into().unwrap())
                        );
                        prop_assert_eq!(
                            r.owner_id,
                            u64::from_le_bytes(tail[12..20].try_into().unwrap())
                        );
                    }
                }
                // A lying address length inside the redirect tail is
                // the only legal failure past a valid prefix.
                Err(e) => prop_assert!(tail.len() >= 4 + 18, "spurious error: {:?}", e),
            }
        }

        /// Constructed responses round-trip exactly, with the
        /// `with_redirect` invariant: a redirect forces the retry hint
        /// present so the two tails can never alias.
        #[test]
        fn constructed_error_responses_roundtrip(
            code_raw in 0u16..16,
            hint in any::<u32>(),
            has_hint in any::<bool>(),
            has_redirect in any::<bool>(),
            epoch in any::<u64>(),
            owner_id in any::<u64>(),
            addr_salt in any::<u16>(),
        ) {
            let Some(code) = ErrorCode::from_u16(code_raw) else {
                return Ok(());
            };
            let mut resp = ErrorResponse::new(code, "fuzzed");
            if has_hint {
                resp = resp.with_retry_after(std::time::Duration::from_millis(hint as u64));
            }
            if has_redirect {
                resp = resp.with_redirect(epoch, owner_id, format!("10.0.0.1:{addr_salt}"));
            }
            let decoded = ErrorResponse::decode(&resp.encode()).expect("own encoding");
            prop_assert_eq!(decoded, resp);
        }
    }
}

/// [`Ring::decode`] is fed straight off the wire by `refresh_ring`, so
/// it must be total: arbitrary bytes never panic, every `Ok` ring
/// upholds the construction invariants, and single-byte damage to a
/// valid encoding stays classified (parses or errors, never panics).
mod ring_frames {
    use super::*;
    use cuszp_server::{NodeInfo, Ring};

    fn valid_ring(node_count: u64, k: u16, m: u16, epoch: u64) -> Ring {
        let nodes: Vec<NodeInfo> = (0..node_count)
            .map(|i| NodeInfo {
                id: i * 7 + 1,
                addr: format!("10.1.0.{}:9000", i + 1),
            })
            .collect();
        Ring::new(epoch, k, m, nodes).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fully arbitrary payloads: total, and every accepted ring is
        /// internally valid (nonzero shard counts, enough distinct
        /// nodes, sorted member table).
        #[test]
        fn arbitrary_ring_payloads_are_total(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            if let Ok(ring) = Ring::decode(&bytes) {
                prop_assert!(ring.data_shards >= 1);
                prop_assert!(ring.parity_shards >= 1);
                prop_assert!(ring.total_shards() <= ring.nodes().len());
                let ids: Vec<u64> = ring.nodes().iter().map(|n| n.id).collect();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(ids, sorted, "member table must be sorted and distinct");
            }
        }

        /// One byte of damage and/or truncation on a valid encoding:
        /// never a panic, and an unchanged payload still round-trips.
        #[test]
        fn damaged_ring_encodings_never_panic(
            node_count in 3u64..9,
            k in 1u16..4,
            m in 1u16..3,
            epoch in any::<u64>(),
            hit in any::<u64>(),
            xor in any::<u8>(),
            cut in any::<u64>(),
        ) {
            prop_assume!((k + m) as u64 <= node_count);
            let ring = valid_ring(node_count, k, m, epoch);
            let mut bytes = ring.encode();
            let hit = (hit % bytes.len() as u64) as usize;
            bytes[hit] ^= xor;
            let cut = (cut % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(cut);
            let _ = Ring::decode(&bytes);
            if xor == 0 && cut == ring.encode().len() {
                prop_assert_eq!(Ring::decode(&bytes).unwrap(), ring);
            }
        }
    }
}
