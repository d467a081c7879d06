#!/usr/bin/env bash
# The repo's benchmark in one command: release build, each workload in a
# fresh process first untraced (end-to-end metrics) then traced (per-layer
# metrics + span files), correctness gates on, every metric printed with
# its unit. See benchmark/README.md.
#
#   benchmark/run.sh                 one full set -> benchmark/out/set-1.json
#   benchmark/run.sh --smoke         the same at Scale::Tiny, two calls per
#                                    phase, plus the arithmetic self-test (< 30 s)
#   benchmark/run.sh --repeat 2      two full sets of the same code, per-metric
#                                    difference against each bound; fails outside
#   benchmark/run.sh --spread 10     ten seeds per workload, untraced: quartile
#                                    spread of every end-to-end metric vs its bound
#   options: --seed N (default 1)  --seconds S (default: run_seconds)
#
# A single run, as BENCHMARK.json's command makes it:
#   cargo run --release --manifest-path benchmark/Cargo.toml -- \
#       --workload serve_nyx3d --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(codec_cesm2d codec_hacc1d serve_nyx3d cluster_durable)
SEED=1
SECONDS_ARG=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
SMOKE=()
REPEAT=1
SPREAD=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --smoke) SMOKE=(--smoke); shift ;;
        --repeat) REPEAT="$2"; shift 2 ;;
        --spread) SPREAD="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --seconds) SECONDS_ARG="$2"; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

echo "==> building (release)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/cuszp-benchmark"
OUT=benchmark/out
mkdir -p "$OUT"

# one_run <dir> <workload> <trace> <seed>: a fresh process, output kept.
one_run() {
    local file="$1/$2.$3.$4.out"
    echo "==> $2 trace=$3 seed=$4"
    "$BIN" --workload "$2" --seed "$4" --seconds "$SECONDS_ARG" --trace "$3" "${SMOKE[@]}" \
        > "$file" || { tail -n 20 "$file"; echo "run failed: $file" >&2; exit 1; }
}

if [[ "$SPREAD" -gt 0 ]]; then
    DIR="$OUT/spread"
    rm -rf "$DIR" && mkdir -p "$DIR"
    for w in "${WORKLOADS[@]}"; do
        for ((s = 1; s <= SPREAD; s++)); do one_run "$DIR" "$w" 0 "$s"; done
    done
    python3 benchmark/report.py spread "$DIR"
    exit $?
fi

for ((set = 1; set <= REPEAT; set++)); do
    DIR="$OUT/set-$set"
    rm -rf "$DIR" && mkdir -p "$DIR"
    for w in "${WORKLOADS[@]}"; do one_run "$DIR" "$w" 0 "$SEED"; done
    for w in "${WORKLOADS[@]}"; do one_run "$DIR" "$w" 1 "$SEED"; done
    python3 benchmark/report.py merge "$OUT/set-$set.json" "$DIR"/*.out
    python3 benchmark/report.py show "$OUT/set-$set.json"
done
if [[ "$REPEAT" -ge 2 ]]; then
    echo "==> set 1 against set 2"
    python3 benchmark/report.py compare "$OUT/set-1.json" "$OUT/set-2.json"
fi
