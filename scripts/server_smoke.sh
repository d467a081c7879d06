#!/usr/bin/env bash
# Server smoke test: boot `cuszp serve` on an ephemeral port, drive a
# remote compress -> decompress -> scan round trip plus stats, then
# shut down gracefully and require a clean exit. Designed to stay fast
# on a 1-CPU container (tiny field, release binary reused from the CI
# build).
set -euo pipefail
cd "$(dirname "$0")/.."

CUSZP=target/release/cuszp
if [[ ! -x "$CUSZP" ]]; then
    echo "==> building release cuszp binary"
    cargo build --release --bin cuszp
fi

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> generating a small field"
"$CUSZP" gen -o "$WORK/field.f32" --dataset cesm --field FSDSC --scale tiny 2> "$WORK/gen.log"
DIMS=$(sed -n 's/.*-d \([0-9x]*\)$/\1/p' "$WORK/gen.log")
[[ -n "$DIMS" ]] || { echo "FAIL: could not discover field dims"; cat "$WORK/gen.log"; exit 1; }

echo "==> booting cuszp serve on an ephemeral port"
"$CUSZP" serve -a 127.0.0.1:0 --workers 2 --cache-bytes 8388608 > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^cuszp-server listening on //p' "$WORK/serve.out")
    [[ -n "$ADDR" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died at boot"; cat "$WORK/serve.err"; exit 1; }
    sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "FAIL: server never reported its address"; exit 1; }
echo "    server at $ADDR (pid $SERVER_PID)"

echo "==> remote ping"
"$CUSZP" remote ping -s "$ADDR" > /dev/null

echo "==> remote compress ($DIMS, parity 2/8)"
"$CUSZP" remote compress -s "$ADDR" -i "$WORK/field.f32" -o "$WORK/field.csz" \
    -d "$DIMS" -e 1e-3 --parity 2/8 2> /dev/null

echo "==> served bytes match the local chunked compressor"
"$CUSZP" compress -i "$WORK/field.f32" -o "$WORK/local.csz" -d "$DIMS" -e 1e-3 \
    --threads 2 --parity 2/8 2> /dev/null
cmp "$WORK/field.csz" "$WORK/local.csz" \
    || { echo "FAIL: served archive differs from local bytes"; exit 1; }

echo "==> two concurrent remote compresses of a 3-chunk field match local bytes"
# Both requests fan their chunks out over lanes: each worker's own engine
# plus whatever helper engine is idle, so they contend for the helpers.
"$CUSZP" gen -o "$WORK/hacc.f32" --dataset hacc --field x 2> /dev/null
cat "$WORK/hacc.f32" "$WORK/hacc.f32" "$WORK/hacc.f32" > "$WORK/hacc3.f32"
"$CUSZP" compress -i "$WORK/hacc3.f32" -o "$WORK/hacc3_local.csz" -d 6291456 -e 1e-3 \
    --threads 2 2> /dev/null
PIDS=()
for n in 1 2; do
    "$CUSZP" remote compress -s "$ADDR" -i "$WORK/hacc3.f32" -o "$WORK/hacc3_$n.csz" \
        -d 6291456 -e 1e-3 2> /dev/null &
    PIDS+=($!)
done
for pid in "${PIDS[@]}"; do
    wait "$pid" || { echo "FAIL: a concurrent remote compress failed"; exit 1; }
done
for n in 1 2; do
    cmp "$WORK/hacc3_$n.csz" "$WORK/hacc3_local.csz" \
        || { echo "FAIL: concurrent served archive $n differs from local bytes"; exit 1; }
done
rm -f "$WORK"/hacc*.f32

echo "==> remote decompress + local verification"
"$CUSZP" remote decompress "$WORK/field.csz" -s "$ADDR" -o "$WORK/recon.f32" 2> /dev/null
"$CUSZP" decompress -i "$WORK/field.csz" -o /dev/null --verify "$WORK/field.f32" 2> /dev/null

echo "==> remote scan (clean archive must exit 0)"
"$CUSZP" remote scan "$WORK/field.csz" -s "$ADDR" --json > "$WORK/scan.json"
grep -q '"exit_code":0' "$WORK/scan.json" || { echo "FAIL: scan not clean"; cat "$WORK/scan.json"; exit 1; }

echo "==> fsck and remote scan print one report (healed shard: exit 1; stripe beyond parity: exit 2), fsck --repair heals"
"$CUSZP" remote compress -s "$ADDR" -i "$WORK/field.f32" -o "$WORK/par.csz" \
    -d "$DIMS" -e 1e-3 --parity 1/2 --chunk 20000 2> /dev/null
"$CUSZP" fsck -i "$WORK/par.csz" --json > "$WORK/par.json"
# damage <dst> <chunk>...: par.csz with one byte flipped in the middle of each named chunk.
damage() {
    python3 - "$WORK/par.json" "$WORK/par.csz" "$@" << 'PY'
import json, sys
report, src, dst, *chunks = sys.argv[1:]
layout = json.load(open(report))["chunks"]
data = bytearray(open(src, "rb").read())
for c in map(int, chunks):
    data[(layout[c]["byte_start"] + layout[c]["byte_end"]) // 2] ^= 0x01
open(dst, "wb").write(data)
PY
}
# same_report <archive> <exit code>: both commands exit with the code and
# agree on every line from "  dims:" down (the first line names who scanned).
same_report() {
    local fsck_status=0 scan_status=0
    "$CUSZP" fsck -i "$1" > "$WORK/fsck.txt" || fsck_status=$?
    "$CUSZP" remote scan "$1" -s "$ADDR" > "$WORK/rscan.txt" || scan_status=$?
    [[ "$fsck_status $scan_status" == "$2 $2" ]] \
        || { echo "FAIL: $1: fsck exited $fsck_status, remote scan $scan_status, expected $2"; exit 1; }
    grep -q '^  parity: ' "$WORK/fsck.txt" || { echo "FAIL: fsck printed no parity line"; cat "$WORK/fsck.txt"; exit 1; }
    diff <(sed -n '/^  dims:/,$p' "$WORK/fsck.txt") <(sed -n '/^  dims:/,$p' "$WORK/rscan.txt") \
        || { echo "FAIL: $1: remote scan and fsck print different reports"; exit 1; }
}
# 1/2 parity: a stripe is two 4 KiB data shards. Chunk 3 sits in one shard
# of its stripe; chunks 0 and 1 take both data shards of stripe 0.
damage "$WORK/healed.csz" 3
same_report "$WORK/healed.csz" 1
damage "$WORK/lost.csz" 0 1
same_report "$WORK/lost.csz" 2
# fsck --repair rewrites the healed archive to its original bytes (exit 0)
# and leaves one with data loss as it was (exit 2).
cp "$WORK/healed.csz" "$WORK/repaired.csz"
"$CUSZP" fsck -i "$WORK/repaired.csz" --repair > /dev/null \
    && cmp -s "$WORK/repaired.csz" "$WORK/par.csz" \
    || { echo "FAIL: fsck --repair did not restore the one-shard damage"; exit 1; }
cp "$WORK/lost.csz" "$WORK/unrepaired.csz"
repair_status=0
"$CUSZP" fsck -i "$WORK/unrepaired.csz" --repair > /dev/null || repair_status=$?
[[ $repair_status == 2 ]] && cmp -s "$WORK/unrepaired.csz" "$WORK/lost.csz" \
    || { echo "FAIL: fsck --repair on data loss exited $repair_status or rewrote the file"; exit 1; }

echo "==> remote get-range round trip (twice: cold, then from the slab cache)"
NY=${DIMS%x*}
NX=${DIMS#*x}
RANGE="1:$((NY / 2))x2:$((NX - 3))"
"$CUSZP" extract -i "$WORK/field.csz" -o "$WORK/ref_slice.raw" --range "$RANGE" 2> /dev/null
"$CUSZP" remote get-range "$WORK/field.csz" -s "$ADDR" -o "$WORK/slice_cold.raw" --range "$RANGE" 2> /dev/null
"$CUSZP" remote get-range "$WORK/field.csz" -s "$ADDR" -o "$WORK/slice_hot.raw" --range "$RANGE" 2> /dev/null
cmp "$WORK/ref_slice.raw" "$WORK/slice_cold.raw" \
    || { echo "FAIL: served range differs from local extract"; exit 1; }
cmp "$WORK/ref_slice.raw" "$WORK/slice_hot.raw" \
    || { echo "FAIL: cached range read differs from local extract"; exit 1; }

echo "==> a warmed archive's damaged copy still fails a strict get-range"
# field.csz is a single chunk, so this runs on par.csz: a range inside its
# chunk 0, and one byte flipped mid-way through its last chunk, which the
# range does not touch. The copy keeps the length, so only the bytes tell
# it from the warmed original.
PAR_RANGE="0:4x0:$NX"
LAST=$(python3 -c 'import json, sys; print(len(json.load(open(sys.argv[1]))["chunks"]) - 1)' "$WORK/par.json")
[[ "$LAST" -ge 1 ]] || { echo "FAIL: par.csz has a single chunk"; exit 1; }
"$CUSZP" extract -i "$WORK/par.csz" -o "$WORK/par_ref.raw" --range "$PAR_RANGE" 2> /dev/null
for pass in cold hot; do
    "$CUSZP" remote get-range "$WORK/par.csz" -s "$ADDR" -o "$WORK/par_$pass.raw" --range "$PAR_RANGE" 2> /dev/null
    cmp "$WORK/par_ref.raw" "$WORK/par_$pass.raw" \
        || { echo "FAIL: $pass range of par.csz differs from local extract"; exit 1; }
done
damage "$WORK/far.csz" "$LAST"
[[ $(stat -c %s "$WORK/far.csz") == $(stat -c %s "$WORK/par.csz") ]] \
    || { echo "FAIL: the damaged copy changed length"; exit 1; }
cmp -s "$WORK/far.csz" "$WORK/par.csz" && { echo "FAIL: the damaged copy is identical"; exit 1; }
far_status=0
"$CUSZP" remote get-range "$WORK/far.csz" -s "$ADDR" -o "$WORK/far.raw" --range "$PAR_RANGE" 2> /dev/null \
    || far_status=$?
[[ $far_status != 0 ]] || { echo "FAIL: strict get-range served a damaged copy of a warmed archive"; exit 1; }
"$CUSZP" remote get-range "$WORK/par.csz" -s "$ADDR" -o "$WORK/par_again.raw" --range "$PAR_RANGE" 2> /dev/null
cmp "$WORK/par_ref.raw" "$WORK/par_again.raw" \
    || { echo "FAIL: the pristine archive no longer reads bit-identically"; exit 1; }

echo "==> remote stats shows the traffic"
"$CUSZP" remote stats -s "$ADDR" > "$WORK/stats.out"
grep -q '^compress ' "$WORK/stats.out" || { echo "FAIL: no compress stats"; cat "$WORK/stats.out"; exit 1; }
grep -q '^decompress ' "$WORK/stats.out" || { echo "FAIL: no decompress stats"; cat "$WORK/stats.out"; exit 1; }
grep -q '^get_range ' "$WORK/stats.out" || { echo "FAIL: no get_range stats"; cat "$WORK/stats.out"; exit 1; }
grep -q '^slab cache: [1-9]' "$WORK/stats.out" \
    || { echo "FAIL: second get-range did not hit the slab cache"; cat "$WORK/stats.out"; exit 1; }

echo "==> graceful shutdown exits 0"
"$CUSZP" remote shutdown -s "$ADDR" > /dev/null
SERVE_STATUS=0
wait "$SERVER_PID" || SERVE_STATUS=$?
SERVER_PID=""
[[ "$SERVE_STATUS" -eq 0 ]] || { echo "FAIL: serve exited $SERVE_STATUS"; cat "$WORK/serve.err"; exit 1; }

echo "server smoke green."
