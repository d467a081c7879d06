#!/usr/bin/env bash
# The full CI gate: formatting, lints, release build, and every test.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> API-surface guard (the element type is a type parameter, not a name suffix)"
if grep -rnE "pub fn \w+_f64" crates/core/src crates/server/src ||
    grep -rn "T::BYTES == 4" crates ||
    grep -rnE "DtypeMismatch \{ \.\. \}\) =>" crates/server/src src/bin; then
    echo "error: an _f64 twin, a size-heuristic dtype or a try-f32-then-f64 retry arm grew back" >&2
    exit 1
fi

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> corruption campaign (seeded fault injection)"
scripts/corruption_campaign.sh

echo "==> golden compatibility (parity-less bytes pinned, parity strictly additive)"
cargo test -q -p cuszp-core --test golden

echo "==> range battery (ranges bit-equal full-decompress slices at any worker count)"
cargo test -q -p cuszp-core --test range

echo "==> ratio regression (auto codec plan vs forced lorenzo+huffman)"
cargo test -q --test ratio_regression

echo "==> lossless stage property tests (LZ77 + bitshuffle round-trip, bounded decode)"
cargo test -q -p cuszp-lossless --test lz77_props --test proptests

echo "==> hot-slab cache behavior (hits, eviction, invalidation, concurrency)"
cargo test -q -p cuszp-server --test cache

echo "==> targeted fault injection through get-range (heal/report/ignore)"
cargo test -q -p cuszp-server --test range_damage

echo "==> wire-header fuzzing (arbitrary frames classify as exactly one WireError)"
cargo test -q -p cuszp-server --test wire_fuzz

echo "==> chaos soak battery (proxied faults: retries, deadlines, load shedding)"
cargo test -q -p cuszp-server --test chaos

echo "==> retry deadline clamps (reconnect churn bounded by the per-call deadline)"
cargo test -q -p cuszp-server --test retry_deadline

echo "==> placement ring properties (purity, distinctness, bounded remap)"
cargo test -q -p cuszp-server --test ring_props

echo "==> durable store engine (codec props, model tests, crash-point campaign)"
cargo test -q -p cuszp-store

echo "==> cluster tier (failover, degraded reads, redirects, anti-entropy repair)"
cargo test -q -p cuszp-server --test cluster

echo "==> durable cluster (full restart from disk, damaged-segment scrub heal)"
cargo test -q -p cuszp-server --test durable_cluster

echo "==> node-death campaign (64 seeded kills, bit-identity under every one)"
cargo test -q -p cuszp-server --test cluster_death

echo "==> server smoke (ephemeral port, remote round trip, graceful shutdown)"
scripts/server_smoke.sh

echo "==> chaos smoke (remote round trip through a seeded fault-injection proxy)"
scripts/chaos_smoke.sh

echo "==> cluster smoke (kill -9 a node: memory heals by scrub, durable by its data dir)"
scripts/cluster_smoke.sh

echo "==> benchmark smoke (every correctness gate of benchmark/ at Scale::Tiny + its arithmetic self-test)"
benchmark/run.sh --smoke

echo "CI green."
