#!/usr/bin/env bash
# Cluster smoke test, two phases over real `cuszp serve` processes
# (3-node ring, k=2 data + m=1 parity):
#
#  memory phase — store archives, kill -9 one node mid-workload, read
#  everything back cmp-equal (live failover + degraded reconstruction),
#  restart the dead node EMPTY, heal it with `cuszp cluster-scrub`, and
#  kill a different node to prove the repair took.
#
#  durable phase — the same ring with `--data-dir --fsync always`:
#  kill -9 a node, restart it WITH its data directory, and require
#  cmp-equal reads with NO scrub at all — the log-structured store's
#  recovery serves every fsynced shard from disk (scrub then confirms
#  zero repairs). Then a stale owner: put a key again while a node is
#  dead, restart it holding the old shard, and require the new bytes,
#  one scrub repair, and the new bytes again with another node dead.
#  `cuszp store-fsck` reports every directory clean.
#
# Stays fast on a 1-CPU container.
set -euo pipefail
cd "$(dirname "$0")/.."

CUSZP=target/release/cuszp
if [[ ! -x "$CUSZP" ]]; then
    echo "==> building release cuszp binary"
    cargo build --release --bin cuszp
fi

WORK=$(mktemp -d)
declare -a PIDS=("" "" "")
cleanup() {
    for pid in "${PIDS[@]}"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

draw_port() {
    echo $((20000 + RANDOM % 40000))
}

# Starts cluster node $1 (1-based) on its ring port; writes the PID
# into PIDS[$1-1]. When DATA_BASE is set the node gets a durable store
# under $DATA_BASE/node$1 with --fsync always. Returns nonzero if the
# node never reports listening.
start_node() {
    local id=$1
    local port=${PORTS[$((id - 1))]}
    local extra=()
    if [[ -n "${DATA_BASE:-}" ]]; then
        extra=(--data-dir "$DATA_BASE/node$id" --fsync always)
    fi
    "$CUSZP" serve -a "127.0.0.1:$port" --workers 2 \
        --node-id "$id" --ring "$RING" --ring-epoch 1 --ring-parity 1/2 \
        "${extra[@]+"${extra[@]}"}" \
        > "$WORK/node$id.out" 2> "$WORK/node$id.err" &
    PIDS[$((id - 1))]=$!
    local up=""
    for _ in $(seq 1 50); do
        up=$(sed -n 's/^cuszp-server listening on //p' "$WORK/node$id.out")
        [[ -n "$up" ]] && return 0
        kill -0 "${PIDS[$((id - 1))]}" 2>/dev/null || return 1
        sleep 0.1
    done
    return 1
}

# Draws three distinct free ports and boots the ring on them, retrying
# on collisions. Sets PORTS, RING, SEEDS.
boot_ring() {
    local booted=0
    for attempt in $(seq 1 5); do
        PORTS=("$(draw_port)" "$(draw_port)" "$(draw_port)")
        [[ "${PORTS[0]}" != "${PORTS[1]}" && "${PORTS[1]}" != "${PORTS[2]}" \
            && "${PORTS[0]}" != "${PORTS[2]}" ]] || continue
        RING="1=127.0.0.1:${PORTS[0]},2=127.0.0.1:${PORTS[1]},3=127.0.0.1:${PORTS[2]}"
        local ok=1
        for id in 1 2 3; do
            start_node "$id" || { ok=0; break; }
        done
        if [[ "$ok" -eq 1 ]]; then
            booted=1
            break
        fi
        echo "    attempt $attempt: a drawn port was taken; redrawing"
        for i in 0 1 2; do
            [[ -n "${PIDS[$i]}" ]] && kill -9 "${PIDS[$i]}" 2>/dev/null || true
            PIDS[$i]=""
        done
    done
    [[ "$booted" -eq 1 ]] || { echo "FAIL: could not boot the ring"; cat "$WORK"/node*.err; exit 1; }
    SEEDS="127.0.0.1:${PORTS[0]},127.0.0.1:${PORTS[1]},127.0.0.1:${PORTS[2]}"
    echo "    ring up: $RING"
}

# Gracefully stops every live node.
stop_ring() {
    for n in 0 1 2; do
        if [[ -n "${PIDS[$n]}" ]]; then
            "$CUSZP" remote shutdown -s "127.0.0.1:${PORTS[$n]}" > /dev/null 2>&1 || true
        fi
    done
    for n in 0 1 2; do
        if [[ -n "${PIDS[$n]}" ]]; then
            wait "${PIDS[$n]}" || true
            PIDS[$n]=""
        fi
    done
}

echo "==> booting the 3-node ring (k=2, m=1, in-memory stores)"
boot_ring

echo "==> the ring op answers from any member"
"$CUSZP" cluster ring --seeds "$SEEDS" > "$WORK/ring.out"
grep -q '^epoch 1: 2 data + 1 parity' "$WORK/ring.out" \
    || { echo "FAIL: unexpected ring"; cat "$WORK/ring.out"; exit 1; }

echo "==> generating and compressing three small archives"
for i in 1 2 3; do
    "$CUSZP" gen -o "$WORK/field$i.f32" --dataset cesm --field FSDSC --scale tiny 2> "$WORK/gen$i.log"
    DIMS=$(sed -n 's/.*-d \([0-9x]*\)$/\1/p' "$WORK/gen$i.log")
    "$CUSZP" compress -i "$WORK/field$i.f32" -o "$WORK/arch$i.csz" -d "$DIMS" \
        -e "1e-$((i + 2))" --threads 2 2> /dev/null
done

echo "==> cluster put (erasure-coded placement across the ring)"
for i in 1 2 3; do
    "$CUSZP" cluster put "arch-$i" -i "$WORK/arch$i.csz" --seeds "$SEEDS" 2> /dev/null
done

echo "==> healthy reads are cmp-equal"
for i in 1 2 3; do
    "$CUSZP" cluster get "arch-$i" -o "$WORK/back$i.csz" --seeds "$SEEDS" 2> /dev/null
    cmp "$WORK/arch$i.csz" "$WORK/back$i.csz" \
        || { echo "FAIL: healthy read of arch-$i differs"; exit 1; }
done

echo "==> kill -9 node 2 mid-workload"
(
    for _ in $(seq 1 20); do
        "$CUSZP" cluster get "arch-1" -o /dev/null --seeds "$SEEDS" 2> /dev/null || true
    done
) &
READER=$!
sleep 0.2
kill -9 "${PIDS[1]}"
PIDS[1]=""
wait "$READER" || true

echo "==> every archive still reads cmp-equal with node 2 dead"
for i in 1 2 3; do
    "$CUSZP" cluster get "arch-$i" -o "$WORK/deg$i.csz" --seeds "$SEEDS" 2> "$WORK/deg$i.err"
    cmp "$WORK/arch$i.csz" "$WORK/deg$i.csz" \
        || { echo "FAIL: degraded read of arch-$i differs"; cat "$WORK/deg$i.err"; exit 1; }
done

echo "==> restart node 2 empty and heal it with cluster-scrub"
start_node 2 || { echo "FAIL: node 2 did not restart"; cat "$WORK/node2.err"; exit 1; }
"$CUSZP" cluster-scrub --seeds "$SEEDS" > "$WORK/scrub.out" 2> /dev/null
grep -q ' 0 unrepairable, 0 unreachable' "$WORK/scrub.out" \
    || { echo "FAIL: scrub left damage"; cat "$WORK/scrub.out"; exit 1; }
grep -qE 'scrubbed 3 key\(s\): [1-9][0-9]* shard\(s\) re-replicated' "$WORK/scrub.out" \
    || { echo "FAIL: scrub repaired nothing"; cat "$WORK/scrub.out"; exit 1; }

echo "==> kill -9 node 3; the healed node 2 must carry its share"
kill -9 "${PIDS[2]}"
PIDS[2]=""
for i in 1 2 3; do
    "$CUSZP" cluster get "arch-$i" -o "$WORK/deg2_$i.csz" --seeds "$SEEDS" 2> /dev/null
    cmp "$WORK/arch$i.csz" "$WORK/deg2_$i.csz" \
        || { echo "FAIL: post-repair read of arch-$i differs"; exit 1; }
done

echo "==> graceful shutdown of the survivors"
stop_ring

# ---------------------------------------------------------------------
# Durable phase: the same workload against log-structured data dirs.
# ---------------------------------------------------------------------
DATA_BASE="$WORK/data"
echo "==> booting a fresh ring with durable stores (--data-dir, --fsync always)"
boot_ring
grep -q 'durable shard store' "$WORK/node1.err" \
    || { echo "FAIL: node 1 did not report a durable store"; cat "$WORK/node1.err"; exit 1; }

echo "==> cluster put onto the durable ring"
for i in 1 2 3; do
    "$CUSZP" cluster put "arch-$i" -i "$WORK/arch$i.csz" --seeds "$SEEDS" 2> /dev/null
done

echo "==> kill -9 node 2, restart it WITH its data directory"
kill -9 "${PIDS[1]}"
PIDS[1]=""
start_node 2 || { echo "FAIL: node 2 did not restart durably"; cat "$WORK/node2.err"; exit 1; }
grep -q 'recovery: clean' "$WORK/node2.err" \
    || { echo "FAIL: node 2 recovery not clean"; cat "$WORK/node2.err"; exit 1; }

echo "==> every archive reads cmp-equal WITHOUT any scrub"
for i in 1 2 3; do
    "$CUSZP" cluster get "arch-$i" -o "$WORK/dur$i.csz" --seeds "$SEEDS" 2> "$WORK/dur$i.err"
    cmp "$WORK/arch$i.csz" "$WORK/dur$i.csz" \
        || { echo "FAIL: post-restart read of arch-$i differs"; cat "$WORK/dur$i.err"; exit 1; }
done

echo "==> scrub confirms the restart needed zero repairs"
"$CUSZP" cluster-scrub --seeds "$SEEDS" > "$WORK/scrub2.out" 2> /dev/null
grep -q 'scrubbed 3 key(s): 0 shard(s) re-replicated, 0 unrepairable, 0 unreachable' \
    "$WORK/scrub2.out" \
    || { echo "FAIL: durable restart required repairs"; cat "$WORK/scrub2.out"; exit 1; }

echo "==> kill -9 node 2, put arch-1 again with other bytes, restart node 2 with its old shard"
kill -9 "${PIDS[1]}"
PIDS[1]=""
"$CUSZP" cluster put "arch-1" -i "$WORK/arch2.csz" --seeds "$SEEDS" 2> /dev/null
start_node 2 || { echo "FAIL: node 2 did not restart durably"; cat "$WORK/node2.err"; exit 1; }
"$CUSZP" cluster get "arch-1" -o "$WORK/stale.csz" --seeds "$SEEDS" 2> "$WORK/stale.err"
cmp "$WORK/arch2.csz" "$WORK/stale.csz" \
    || { echo "FAIL: the stale shard hid the new arch-1"; cat "$WORK/stale.err"; exit 1; }

echo "==> scrub re-puts exactly the stale shard"
"$CUSZP" cluster-scrub --seeds "$SEEDS" > "$WORK/scrub3.out" 2> /dev/null
grep -q 'scrubbed 3 key(s): 1 shard(s) re-replicated, 0 unrepairable, 0 unreachable' \
    "$WORK/scrub3.out" \
    || { echo "FAIL: scrub did not re-put the stale shard"; cat "$WORK/scrub3.out"; exit 1; }

echo "==> kill -9 node 3; the new arch-1 reads through node 2's re-put shard"
kill -9 "${PIDS[2]}"
PIDS[2]=""
"$CUSZP" cluster get "arch-1" -o "$WORK/stale2.csz" --seeds "$SEEDS" 2> /dev/null
cmp "$WORK/arch2.csz" "$WORK/stale2.csz" \
    || { echo "FAIL: post-repair read of the new arch-1 differs"; exit 1; }

echo "==> graceful shutdown; store-fsck reports every data dir clean"
stop_ring
for id in 1 2 3; do
    "$CUSZP" store-fsck "$DATA_BASE/node$id" > "$WORK/fsck$id.out" \
        || { echo "FAIL: store-fsck flagged node $id"; cat "$WORK/fsck$id.out"; exit 1; }
    grep -q 'clean' "$WORK/fsck$id.out" \
        || { echo "FAIL: fsck output for node $id"; cat "$WORK/fsck$id.out"; exit 1; }
done

echo "cluster smoke green."
