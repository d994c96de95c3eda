#!/bin/sh
# Serving smoke test: compile a tiny decision-table artifact, boot
# collseld on it, and assert that the served answer (a) comes from the
# table, (b) matches the recommendation a direct selection run computes
# for the same spec, (c) survives a /reload, (d) under deliberate
# overload (one worker, no wait queue) still answers every uncovered query
# from the model while the excess background refinements are shed, (e)
# with the feedback loop enabled, a batch of drifted arrival-pattern
# observations posted to /observe triggers a background recompile that
# hot-swaps a tuned table in while /select keeps answering, (f) an
# uncovered query is answered instantly from the analytical model and the
# background refinement promotes the simulated cell into the hot table,
# and (g) `selector -save` writes cells into the same artifact format:
# re-saving a compiled cell leaves the checksum unchanged, a freshly
# saved cell is served as an exact table hit, and with -no-cold nothing is
# ever simulated.
# SimCluster is noiseless with perfect clocks, so one repetition is fully
# deterministic and the two paths must agree exactly.
set -eux

addr=127.0.0.1:18177
addr2=127.0.0.1:18178
addr3=127.0.0.1:18179
addr4=127.0.0.1:18180
tmp=$(mktemp -d)
pid=
pid2=
pid3=
pid4=
trap 'for p in "$pid" "$pid2" "$pid3" "$pid4"; do test -n "$p" && kill "$p" 2>/dev/null; done; rm -rf "$tmp"' EXIT

# `make serve-smoke` builds every tool once (shared with the other CI
# jobs) and points BIN_DIR here; standalone runs build into the temp dir.
if [ -n "${BIN_DIR:-}" ]; then
    bindir=$BIN_DIR
else
    bindir=$tmp
    go build -o "$bindir" ./cmd/compilestore ./cmd/collseld ./cmd/selector
fi

"$bindir/compilestore" -machine SimCluster -colls alltoall -procs 8 \
    -sizes 1024,32768 -o "$tmp/table.json"

"$bindir/collseld" -store "$tmp/table.json" -addr "$addr" &
pid=$!

for _ in $(seq 1 50); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -sf "http://$addr/healthz" | grep -q '"status":"healthy"'

served=$(curl -sf "http://$addr/select?collective=alltoall&msg_bytes=1024&procs=8")
echo "$served" | grep -q '"source":"table"'
echo "$served" | grep -q '"exact":true'
served_alg=$(echo "$served" | sed -n 's/.*"algorithm":{"id":[0-9]*,"name":"\([^"]*\)".*/\1/p')
test -n "$served_alg"

# The same selection computed directly (selector shares the compiler's
# code path; -reps 1 matches the compile default on a noiseless machine).
direct_alg=$("$bindir/selector" -machine SimCluster -coll alltoall -procs 8 \
    -size 1024 -reps 1 | sed -n 's/^recommended (pattern-robust): *//p')
test "$served_alg" = "$direct_alg"

# selector -save installs its cell into the same artifact format. At a
# point the compiler already compiled the cell is identical (-reps 0
# matches the compile defaults), so the checksum does not move.
checksum() { sed -n 's/.*"checksum":"\([^"]*\)".*/\1/p' "$1"; }
cp "$tmp/table.json" "$tmp/copy.json"
"$bindir/selector" -machine SimCluster -coll alltoall -procs 8 \
    -size 1024 -reps 0 -save "$tmp/copy.json" >/dev/null
test -n "$(checksum "$tmp/table.json")"
test "$(checksum "$tmp/copy.json")" = "$(checksum "$tmp/table.json")"

# A cell the table does not hold, saved into a fresh artifact, is served
# by collseld from the table. With -no-cold an uncovered query is still
# answered from the model, but never refined: it stays a model answer and
# no live selection runs.
"$bindir/selector" -machine SimCluster -coll alltoall -procs 8 \
    -size 4096 -reps 0 -save "$tmp/saved.json" >/dev/null
"$bindir/collseld" -store "$tmp/saved.json" -addr "$addr4" -no-cold &
pid4=$!
for _ in $(seq 1 50); do
    curl -sf "http://$addr4/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
saved=$(curl -sf "http://$addr4/select?collective=alltoall&msg_bytes=4096&procs=8")
echo "$saved" | grep -q '"source":"table"'
echo "$saved" | grep -q '"exact":true'
curl -sf "http://$addr4/select?collective=alltoall&msg_bytes=128&procs=8" \
    | grep -q '"source":"model"'
sleep 1
curl -sf "http://$addr4/select?collective=alltoall&msg_bytes=128&procs=8" \
    | grep -q '"source":"model"'
curl -sf "http://$addr4/metrics" | grep -q '^collseld_cold_computes_total 0$'
kill "$pid4"
pid4=

# Hot reload keeps serving the same content-addressed version.
curl -sf -X POST "http://$addr/reload" | grep -q '"new_version"'
curl -sf "http://$addr/select?collective=alltoall&msg_bytes=1024&procs=8" \
    | grep -q "\"algorithm\":{\"id\":[0-9]*,\"name\":\"$served_alg\""

# Model rung: a size below the table's range misses and is answered
# instantly from the analytical cost model; the background
# refinement then simulates the cell and promotes it, so the same query
# turns into an exact table hit.
modeled=$(curl -sf "http://$addr/select?collective=alltoall&msg_bytes=128&procs=8")
echo "$modeled" | grep -q '"source":"model"'
echo "$modeled" | grep -q '"exact":false'
promoted=0
for _ in $(seq 1 100); do
    if curl -sf "http://$addr/select?collective=alltoall&msg_bytes=128&procs=8" \
        | grep -q '"source":"table"'; then
        promoted=1
        break
    fi
    sleep 0.2
done
test "$promoted" = "1"
curl -sf "http://$addr/select?collective=alltoall&msg_bytes=128&procs=8" \
    | grep -q '"exact":true'
curl -sf "http://$addr/metrics" | grep -q 'collseld_select_source_total{source="model"} [1-9]'
curl -sf "http://$addr/metrics" | grep -q 'collseld_model_promotions_total [1-9]'
curl -sf "http://$addr/healthz" | grep -q '"coverage"'

# Shed mode: one cold worker and no wait queue. A holder query for a slow
# cell the table does not cover (256 ranks, about 2.5 s on a 2-vCPU box)
# is answered from the model at once, and its background refinement
# occupies the only worker. Once /metrics shows it executing, a burst of
# seven concurrent queries, each in a different uncovered procs section
# (so no promotion can cover another), must every one be answered 200
# from the model too, while each of their refinements is shed. The
# holder's refinement then lands in the table.
"$bindir/collseld" -store "$tmp/table.json" -addr "$addr2" \
    -cold-workers 1 -cold-queue -1 &
pid2=$!
for _ in $(seq 1 50); do
    curl -sf "http://$addr2/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done

hold="http://$addr2/select?collective=alltoall&msg_bytes=1048576&procs=256"
curl -s -D "$tmp/hdr_hold" -o "$tmp/body_hold" "$hold"
holding=0
for _ in $(seq 1 100); do
    if curl -sf "http://$addr2/metrics" | grep -q '^collseld_inflight_cold 1$'; then
        holding=1
        break
    fi
    sleep 0.05
done
test "$holding" = "1"

burst="16 24 32 40 48 56 64"
curl_pids=
for p in $burst; do
    curl -s -D "$tmp/hdr$p" -o "$tmp/body$p" \
        "http://$addr2/select?collective=alltoall&msg_bytes=1024&procs=$p" &
    curl_pids="$curl_pids $!"
done
wait $curl_pids

answered=0
for p in _hold $burst; do
    head -1 "$tmp/hdr$p" | grep -q ' 200'
    grep -q '"source":"model"' "$tmp/body$p"
    answered=$((answered + 1))
done
test "$answered" -eq 8
shed=0
for _ in $(seq 1 100); do
    shed=$(curl -sf "http://$addr2/metrics" | sed -n 's/^collseld_shed_total \([0-9]*\)$/\1/p')
    test "$shed" -ge 7 && break
    sleep 0.05
done
test "$shed" -ge 7

refined=0
for _ in $(seq 1 300); do
    if curl -sf "$hold" | grep -q '"source":"table"'; then
        refined=1
        break
    fi
    sleep 0.2
done
test "$refined" = "1"

# Without -observe-wal the feedback loop is off: /observe answers 404.
observe_off=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -d '{"observations":[{"collective":"alltoall","procs":8,"msg_bytes":2000,"imbalance":2.0}]}' \
    "http://$addr/observe")
test "$observe_off" = "404"

# Feedback stage: boot a third daemon with the closed loop enabled and
# post observations whose empirical skew (2.0) drifts far past the
# recompile threshold for the 1024-byte cell. The background recompiler
# must re-simulate that cell and hot-swap the tuned table in.
"$bindir/collseld" -store "$tmp/table.json" -addr "$addr3" \
    -observe-wal "$tmp/wal" -recompile-threshold 0.25 &
pid3=$!
for _ in $(seq 1 50); do
    curl -sf "http://$addr3/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done

accepted=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"observations":[{"collective":"alltoall","procs":8,"msg_bytes":2000,"imbalance":2.0,"count":16}]}' \
    "http://$addr3/observe")
echo "$accepted" | grep -q '"accepted":1'

# Wait for the promotion: the feedback swap counter ticks and the served
# table advances to a new generation.
swapped=0
for _ in $(seq 1 100); do
    if curl -sf "http://$addr3/metrics" | grep -q 'collseld_feedback_swaps_total [1-9]'; then
        swapped=1
        break
    fi
    sleep 0.2
done
test "$swapped" = "1"

# /select keeps answering across the hot swap, from the tuned table.
tuned=$(curl -sf "http://$addr3/select?collective=alltoall&msg_bytes=1024&procs=8")
echo "$tuned" | grep -q '"source":"table"'
echo "$tuned" | grep -q '"exact":true'
curl -sf "http://$addr3/metrics" | grep -q 'collseld_feedback_recompile_successes_total [1-9]'
test -s "$tmp/wal/autotuned.json"

echo "serve smoke OK: $served_alg (model answer promoted, 8/8 answered and $shed refinements shed under overload, feedback recompile swapped)"
