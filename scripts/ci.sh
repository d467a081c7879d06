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

echo "==> API-surface guard (one chunk walk on one kind of lanes: crates/core/src/walk.rs carves, reconstructs and checks every CSZ2 chunk)"
if grep -rn "decompress_into(" crates/core/src --include='*.rs' | grep -v "^crates/core/src/\(engine\|walk\)\.rs:" ||
    grep -rn "\.carve(" crates/core/src --include='*.rs' | grep -v "^crates/core/src/walk\.rs:" ||
    grep -rnE "fn (validate_chunk_geometry|recover_field|recover_range)\b" crates/core/src ||
    grep -rnE --include='*.rs' "enum Lanes\b|decompress_range_with_fetch" crates src tests examples; then
    echo "error: a second chunk decoder, chunk walk, kind of lanes or chunk-vs-container check grew back beside the walk" >&2
    exit 1
fi

echo "==> API-surface guard (one format dispatch: crates/core/src/chunked.rs opens v1 bytes as a one-chunk container)"
if grep -rn --include='*.rs' "is_chunked_archive" crates src tests examples |
    grep -vE "^crates/core/src/chunked\.rs:|^(crates/core/)?src/lib\.rs:" ||
    grep -rnE "fn (scan_v1|recover_v1|peek_v1_header)\b" crates src; then
    echo "error: a second v1-or-CSZ2 decision or a v1-only reader grew back beside the open step" >&2
    exit 1
fi

echo "==> checksum guard (store records and cluster stripes are wordsum64; FNV-1a only verifies what was written before)"
if grep -rn "fnv1a(" crates/store/src crates/server/src/cluster.rs crates/server/src/store.rs |
    grep -vE "^crates/store/src/record\.rs:[0-9]+: +SumKind::Fnv1a => cuszp_checksum::fnv1a\(bytes\),$"; then
    echo "error: FNV-1a is computed outside SumKind::sum, the store's legacy-verify helper" >&2
    exit 1
fi

echo "==> API-surface guard (one report hierarchy across the socket, one bounded byte cursor)"
if grep -rn "Portable" crates src tests examples ||
    grep -rn "fn fsck_exit_code" crates src tests examples ||
    grep -n "fn take(&mut self, n: usize)" crates/core/src/report.rs crates/server/src/wire.rs; then
    echo "error: a mirror of the scan report, a second exit-code rule or a second byte cursor grew back" >&2
    exit 1
fi

echo "==> API-surface guard (one benchmark harness: benchmark/ + BENCHMARK.json)"
if grep -rnE --include=Cargo.toml --exclude-dir=target --exclude-dir=benchmark --exclude-dir=.git \
    'criterion|^\[\[bench\]\]' . ||
    find crates -type d -name benches | grep .; then
    echo "error: a second benchmark harness grew back beside benchmark/" >&2
    exit 1
fi

echo "==> API-surface guard (one CLI intake: one option declaration, one typed option read)"
if grep -nE 'format!\("bad --?[a-z]' src/bin/cuszp.rs ||
    grep -n "takes_positional" src/bin/cuszp.rs; then
    echo "error: a per-option parse error or a positional patch list grew back in the CLI" >&2
    exit 1
fi

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

# One run of every test binary in the workspace. What it covers, by the
# names the suites used to be re-run under:
#   golden compatibility    -p cuszp-core --test golden (parity-less bytes pinned, parity strictly additive)
#   range battery           -p cuszp-core --test range (ranges bit-equal full-decompress slices at any worker count)
#   ratio regression        --test ratio_regression (auto codec plan vs forced lorenzo+huffman)
#   lossless stage props    -p cuszp-lossless --test lz77_props --test proptests (round-trip, bounded decode)
#   served lanes            -p cuszp-server --test loopback (served bytes = local at any worker count; concurrent clients contending for helper lanes)
#   hot-slab cache          -p cuszp-server --test cache (hits, eviction, invalidation, concurrency)
#   targeted range damage   -p cuszp-server --test range_damage (heal/report/ignore through get-range)
#   wire-header fuzzing     -p cuszp-server --test wire_fuzz (arbitrary frames classify as exactly one WireError)
#   chaos soak battery      -p cuszp-server --test chaos (proxied faults: retries, deadlines, load shedding)
#   retry deadline clamps   -p cuszp-server --test retry_deadline (reconnect churn bounded by the per-call deadline)
#   placement ring props    -p cuszp-server --test ring_props (purity, distinctness, bounded remap)
#   durable store engine    -p cuszp-store (codec props, model tests, crash-point campaign)
#   cluster tier            -p cuszp-server --test cluster (failover, degraded reads, redirects, anti-entropy repair)
#   durable cluster         -p cuszp-server --test durable_cluster (full restart from disk, damaged-segment scrub heal, stale owner outvoted and re-put, split put a typed conflict, a restarted node's pooled connection retried once)
#   node-death campaign     -p cuszp-server --test cluster_death (64 seeded kills, bit-identity under every one)
echo "==> cargo test (every suite above, once)"
cargo test --workspace

# The encode kernels lean on wrapping integer arithmetic and a saturating
# float->int cast, which the debug profile's overflow checks treat
# differently from the profile the benchmark measures: their differential
# suites run in both.
echo "==> cargo test --release (predictor, huffman, lossless: the kernel suites in the measured profile)"
cargo test --release -p cuszp-predictor -p cuszp-huffman -p cuszp-lossless

echo "==> corruption campaign (seeded fault injection)"
scripts/corruption_campaign.sh

echo "==> server smoke (ephemeral port, remote round trip, graceful shutdown)"
scripts/server_smoke.sh

echo "==> chaos smoke (remote round trip through a seeded fault-injection proxy)"
scripts/chaos_smoke.sh

echo "==> cluster smoke (kill -9 a node: memory heals by scrub, durable by its data dir)"
scripts/cluster_smoke.sh

echo "==> benchmark smoke (every correctness gate of benchmark/ at Scale::Tiny + its arithmetic self-test)"
benchmark/run.sh --smoke

echo "CI green."
