#!/bin/sh
# Cluster failover smoke test: boot three collseld replicas as a peer
# ring over one compiled artifact, drive mixed load (covered table hits
# plus uncovered cold cells that forward to their ring owner), then
# SIGKILL one replica and assert the client-visible contract: every
# answer from the survivors stays HTTP 200 (replica death must never
# surface as a 5xx), the survivors answer the corpse's cells locally
# (each one a failed forward or a short-circuit on the demoted owner),
# and they demote the corpse to dead in /healthz.
#
# The check is deterministic: ring ownership is a fixed function of the
# fixed ports and the swept procs, so some swept cells are always owned
# by the corpse, and whether a survivor's heartbeat has demoted it yet
# only decides which of the two counters records the local answer.
set -eux

u1=http://127.0.0.1:18281
u2=http://127.0.0.1:18282
u3=http://127.0.0.1:18283
peers="$u1,$u2,$u3"
tmp=$(mktemp -d)
pid1=
pid2=
pid3=
trap 'test -n "$pid1" && kill "$pid1" 2>/dev/null; test -n "$pid2" && kill "$pid2" 2>/dev/null; test -n "$pid3" && kill "$pid3" 2>/dev/null; rm -rf "$tmp"' EXIT

# `make cluster-smoke` builds every tool once (shared with the other CI
# jobs) and points BIN_DIR here; standalone runs build into the temp dir.
if [ -n "${BIN_DIR:-}" ]; then
    bindir=$BIN_DIR
else
    bindir=$tmp
    go build -o "$bindir" ./cmd/compilestore ./cmd/collseld
fi

"$bindir/compilestore" -machine SimCluster -colls alltoall -procs 8 \
    -sizes 1024,32768 -o "$tmp/table.json"

# $1: address, $2: self URL. Echoes the daemon's pid. Both stdio streams
# go to the log file: the daemon must not inherit the caller's stdout, or
# the $(start_replica ...) command substitution would wait on it forever.
start_replica() {
    "$bindir/collseld" -store "$tmp/table.json" -addr "$1" \
        -peers "$peers" -self "$2" \
        -heartbeat 500ms -peer-timeout 2s \
        >>"$tmp/log.$1" 2>&1 &
    echo $!
}

wait_healthy() {
    for _ in $(seq 1 50); do
        curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    curl -sf "$1/healthz" >/dev/null
}

# Scrapes one counter value from /metrics (0 when absent).
metric() {
    curl -sf "$1/metrics" | sed -n "s/^$2 //p" | head -1 | grep . || echo 0
}

pid1=$(start_replica 127.0.0.1:18281 "$u1")
pid2=$(start_replica 127.0.0.1:18282 "$u2")
pid3=$(start_replica 127.0.0.1:18283 "$u3")
wait_healthy "$u1"
wait_healthy "$u2"
wait_healthy "$u3"

# Healthy ring: a covered query is a plain table hit, an uncovered one
# answers 200 through the peer/model miss path, and replica 1 sees both
# peers alive in its health view.
curl -sf "$u1/select?collective=alltoall&msg_bytes=1024&procs=8" \
    | grep -q '"source":"table"'
for p in 30 31 32; do
    curl -sf "$u2/select?collective=alltoall&msg_bytes=16&procs=$p" >/dev/null
done
alive_peers() {
    curl -sf "$1/healthz" | grep -o '"state":"alive"' | wc -l
}
for _ in $(seq 1 50); do
    test "$(alive_peers "$u1")" = 2 && break
    sleep 0.2
done
test "$(alive_peers "$u1")" = 2

# Kill replica 3 and hammer the survivors with mixed load. Distinct
# procs make every uncovered query a fresh cell that no earlier
# promotion covers, so roughly a third route to the dead owner and must
# be answered locally — never error.
kill -9 "$pid3" 2>/dev/null || true
wait "$pid3" 2>/dev/null || true
pid3=
for i in $(seq 0 23); do
    if [ $((i % 2)) -eq 0 ]; then target=$u1; else target=$u2; fi
    if [ $((i % 4)) -eq 3 ]; then
        url="$target/select?collective=alltoall&msg_bytes=1024&procs=8"
    else
        url="$target/select?collective=alltoall&msg_bytes=16&procs=$((100 + i))"
    fi
    code=$(curl -s -o "$tmp/resp" -w '%{http_code}' "$url")
    if [ "$code" != 200 ]; then
        echo "FAIL: $url answered HTTP $code after replica kill:" >&2
        cat "$tmp/resp" >&2
        exit 1
    fi
done
local_answers=0
for u in "$u1" "$u2"; do
    fe=$(metric "$u" collseld_cluster_forward_errors_total)
    ou=$(metric "$u" collseld_cluster_owner_unavailable_total)
    local_answers=$((local_answers + fe + ou))
done
test "$local_answers" -ge 1

# The survivors must demote the corpse: heartbeat probes keep failing,
# so /healthz converges on dead and later forwards short-circuit.
for _ in $(seq 1 50); do
    curl -sf "$u1/healthz" | grep -q "\"peer\":\"$u3\",\"state\":\"dead\"" && break
    sleep 0.2
done
curl -sf "$u1/healthz" | grep -q "\"peer\":\"$u3\",\"state\":\"dead\""

# And the ring actually carried traffic: forwards happened, the peer
# answer source is visible, and nothing ever errored server-side.
fw=$(metric "$u1" collseld_cluster_forwards_total)
test "$fw" -ge 1
curl -sf "$u1/metrics" | grep -q 'collseld_cluster_peer_state{peer='

echo "cluster smoke OK: local answers for the dead owner=$local_answers forwards(u1)=$fw, zero client-visible errors"
