//! The placement ring: rendezvous (highest-random-weight) hashing from
//! archive keys to `k + m` node placements.
//!
//! Every node scores every `(key, node)` pair independently
//! ([`Ring::score`]), and a key's placement is the `k + m` highest
//! scorers — so placement is a pure function of `(key, node set)`, and
//! a single join or leave perturbs only the keys whose top-`k+m` set
//! the changed node enters or exits: for each key, the new placement is
//! the old one with the node inserted at its score rank (join) or
//! removed and the next-ranked node promoted (leave). No token ranges,
//! no rebalancing state, no coordination.
//!
//! Stripe-slot convention: placement index `0..k` holds the key's data
//! shards in order, `k..k+m` the parity shards. The shard at slot `i`
//! lives on `placement(key)[i]` — one shard per node, since rendezvous
//! ranking never repeats a node.

use crate::wire::{fnv1a, WireError};
use cuszp_core::{put_str, ByteCursor};

/// One cluster member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Stable node id (unique within a ring).
    pub id: u64,
    /// The node's listen address (`host:port`).
    pub addr: String,
}

/// Everything ring construction can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// `k` or `m` is zero, or `k + m` exceeds the GF(2^8) shard cap.
    BadShardCounts {
        /// Data shards requested.
        data: u16,
        /// Parity shards requested.
        parity: u16,
    },
    /// Fewer nodes than `k + m` placements.
    TooFewNodes {
        /// Nodes given.
        nodes: usize,
        /// Placements needed.
        needed: usize,
    },
    /// Two nodes share an id.
    DuplicateNode(u64),
    /// A textual ring spec failed to parse.
    BadSpec(String),
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::BadShardCounts { data, parity } => write!(
                f,
                "bad shard counts k={data} m={parity} (need ≥1 each, k+m ≤ 255)"
            ),
            RingError::TooFewNodes { nodes, needed } => {
                write!(f, "{nodes} node(s) cannot hold {needed} placements")
            }
            RingError::DuplicateNode(id) => write!(f, "duplicate node id {id}"),
            RingError::BadSpec(s) => write!(f, "bad ring spec: {s}"),
        }
    }
}

impl std::error::Error for RingError {}

/// The cluster topology: an epoch, the erasure-coding shape, and the
/// member nodes. Placement derives from this and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// Topology version: bumped whenever membership changes. Requests
    /// carry the epoch they routed under; a mismatch answers `Redirect`.
    pub epoch: u64,
    /// Data shards per archive (`k`).
    pub data_shards: u16,
    /// Parity shards per archive (`m`).
    pub parity_shards: u16,
    /// Members, kept sorted by id.
    nodes: Vec<NodeInfo>,
}

/// splitmix64 finalizer: a full-avalanche 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

impl Ring {
    /// Builds a validated ring. Nodes are sorted by id; ids must be
    /// unique, `k, m ≥ 1`, `k + m ≤ 255` (the GF(2^8) stripe cap), and
    /// there must be at least `k + m` nodes.
    pub fn new(
        epoch: u64,
        data_shards: u16,
        parity_shards: u16,
        mut nodes: Vec<NodeInfo>,
    ) -> Result<Ring, RingError> {
        if data_shards == 0
            || parity_shards == 0
            || data_shards as usize + parity_shards as usize > cuszp_ecc::MAX_TOTAL_SHARDS
        {
            return Err(RingError::BadShardCounts {
                data: data_shards,
                parity: parity_shards,
            });
        }
        let needed = data_shards as usize + parity_shards as usize;
        if nodes.len() < needed {
            return Err(RingError::TooFewNodes {
                nodes: nodes.len(),
                needed,
            });
        }
        nodes.sort_by_key(|n| n.id);
        for pair in nodes.windows(2) {
            if pair[0].id == pair[1].id {
                return Err(RingError::DuplicateNode(pair[0].id));
            }
        }
        Ok(Ring {
            epoch,
            data_shards,
            parity_shards,
            nodes,
        })
    }

    /// Parses a `"id=host:port,id=host:port,…"` membership spec.
    pub fn parse_spec(
        spec: &str,
        epoch: u64,
        data_shards: u16,
        parity_shards: u16,
    ) -> Result<Ring, RingError> {
        let mut nodes = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (id, addr) = part
                .split_once('=')
                .ok_or_else(|| RingError::BadSpec(format!("'{part}' is not id=addr")))?;
            let id: u64 = id
                .trim()
                .parse()
                .map_err(|_| RingError::BadSpec(format!("'{id}' is not a node id")))?;
            let addr = addr.trim();
            if addr.is_empty() {
                return Err(RingError::BadSpec(format!(
                    "node {id} has an empty address"
                )));
            }
            nodes.push(NodeInfo {
                id,
                addr: addr.to_string(),
            });
        }
        Ring::new(epoch, data_shards, parity_shards, nodes)
    }

    /// The members, sorted by id.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Looks a member up by id.
    pub fn node(&self, id: u64) -> Option<&NodeInfo> {
        self.nodes
            .binary_search_by_key(&id, |n| n.id)
            .ok()
            .map(|i| &self.nodes[i])
    }

    /// Placements per key (`k + m`).
    pub fn total_shards(&self) -> usize {
        self.data_shards as usize + self.parity_shards as usize
    }

    /// The rendezvous score of `(key, node)`: FNV-1a of the key mixed
    /// with the node id through splitmix64. Pure, coordination-free,
    /// and independent per node — the property the remap bound rests on.
    pub fn score(key: &str, node_id: u64) -> u64 {
        mix64(fnv1a(key.as_bytes()) ^ mix64(node_id ^ 0x9E37_79B9_7F4A_7C15))
    }

    /// The key's `k + m` placements: the highest-scoring nodes, ranked
    /// by `(score desc, id asc)`. Slot `i` holds shard `i` of the
    /// stripe (`0..k` data, `k..k+m` parity). Always distinct nodes.
    pub fn placement(&self, key: &str) -> Vec<&NodeInfo> {
        let mut ranked: Vec<(u64, &NodeInfo)> = self
            .nodes
            .iter()
            .map(|n| (Ring::score(key, n.id), n))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.id.cmp(&b.1.id)));
        ranked
            .into_iter()
            .take(self.total_shards())
            .map(|(_, n)| n)
            .collect()
    }

    /// The node owning stripe slot `shard_idx` of `key`, if the slot is
    /// in range.
    pub fn shard_owner(&self, key: &str, shard_idx: u16) -> Option<&NodeInfo> {
        self.placement(key).get(shard_idx as usize).copied()
    }

    /// Serializes for the `ring` op.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.nodes.len() * 32);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.data_shards.to_le_bytes());
        out.extend_from_slice(&self.parity_shards.to_le_bytes());
        out.extend_from_slice(&(self.nodes.len().min(u32::MAX as usize) as u32).to_le_bytes());
        for n in &self.nodes {
            out.extend_from_slice(&n.id.to_le_bytes());
            put_str(&mut out, &n.addr);
        }
        out
    }

    /// Parses a `ring` response payload, re-validating the topology —
    /// a hostile or damaged ring is a typed error, never a bad router.
    pub fn decode(payload: &[u8]) -> Result<Ring, WireError> {
        let mut c = ByteCursor::new(payload);
        let epoch = c.u64()?;
        let data_shards = c.u16()?;
        let parity_shards = c.u16()?;
        let n = c.u32()? as usize;
        // Each node record is at least 10 bytes (id + empty addr).
        if n.saturating_mul(10) > c.remaining() {
            return Err(WireError::BadPayload("ring node count exceeds payload"));
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let id = c.u64()?;
            let addr = c.str()?;
            nodes.push(NodeInfo { id, addr });
        }
        Ring::new(epoch, data_shards, parity_shards, nodes)
            .map_err(|_| WireError::BadPayload("invalid ring topology"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, k: u16, m: u16) -> Ring {
        let nodes = (0..n as u64)
            .map(|id| NodeInfo {
                id: id + 1,
                addr: format!("127.0.0.1:{}", 7117 + id),
            })
            .collect();
        Ring::new(1, k, m, nodes).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Ring::new(1, 0, 1, vec![]),
            Err(RingError::BadShardCounts { .. })
        ));
        assert!(matches!(
            Ring::new(1, 2, 1, vec![]),
            Err(RingError::TooFewNodes { needed: 3, .. })
        ));
        let dup = vec![
            NodeInfo {
                id: 1,
                addr: "a:1".into(),
            },
            NodeInfo {
                id: 1,
                addr: "b:2".into(),
            },
            NodeInfo {
                id: 2,
                addr: "c:3".into(),
            },
        ];
        assert_eq!(Ring::new(1, 2, 1, dup), Err(RingError::DuplicateNode(1)));
    }

    #[test]
    fn spec_parses_and_rejects() {
        let r = Ring::parse_spec(
            "1=127.0.0.1:7117, 2=127.0.0.1:7118,3=127.0.0.1:7119",
            4,
            2,
            1,
        )
        .unwrap();
        assert_eq!(r.epoch, 4);
        assert_eq!(r.nodes().len(), 3);
        assert_eq!(r.node(2).unwrap().addr, "127.0.0.1:7118");
        assert!(Ring::parse_spec("1:127.0.0.1:7117", 1, 2, 1).is_err());
        assert!(Ring::parse_spec("x=127.0.0.1:7117,2=a:1,3=b:2", 1, 2, 1).is_err());
        assert!(Ring::parse_spec("1=,2=a:1,3=b:2", 1, 2, 1).is_err());
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let r = ring(8, 3, 2);
        for key in ["a", "climate/tmax", "x/y/z", ""] {
            let p1: Vec<u64> = r.placement(key).iter().map(|n| n.id).collect();
            let p2: Vec<u64> = r.placement(key).iter().map(|n| n.id).collect();
            assert_eq!(p1, p2);
            assert_eq!(p1.len(), 5);
            let mut uniq = p1.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), p1.len(), "placements must be distinct");
        }
    }

    #[test]
    fn leave_only_touches_keys_that_placed_on_the_leaver() {
        let full = ring(8, 2, 1);
        let leaver = 5u64;
        let reduced = Ring::new(
            2,
            2,
            1,
            full.nodes()
                .iter()
                .filter(|n| n.id != leaver)
                .cloned()
                .collect(),
        )
        .unwrap();
        let mut touched = 0usize;
        let total = 500usize;
        for i in 0..total {
            let key = format!("key-{i}");
            let before: Vec<u64> = full.placement(&key).iter().map(|n| n.id).collect();
            let after: Vec<u64> = reduced.placement(&key).iter().map(|n| n.id).collect();
            if before.contains(&leaver) {
                touched += 1;
                // The survivors keep their relative order; only the
                // leaver is dropped and one new node promoted.
                let kept: Vec<u64> = before.iter().copied().filter(|&id| id != leaver).collect();
                assert_eq!(&after[..kept.len()], &kept[..], "key {key}");
            } else {
                assert_eq!(before, after, "untouched key {key} must not remap");
            }
        }
        // Expected fraction ≈ (k+m)/n = 3/8; a generous statistical
        // bound still proves the remap is bounded, not total.
        assert!(touched < total * 6 / 10, "{touched}/{total} keys touched");
        assert!(touched > 0);
    }

    #[test]
    fn ring_roundtrips_through_the_wire_form() {
        let r = ring(5, 2, 1);
        let bytes = r.encode();
        assert_eq!(Ring::decode(&bytes).unwrap(), r);
        // A lying node count is rejected before allocation.
        let mut lying = bytes.clone();
        lying[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Ring::decode(&lying).is_err());
        // Truncations are typed, never panics.
        for cut in 0..bytes.len() {
            assert!(Ring::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
