#!/bin/sh
# Cluster failover smoke test: boot three collseld replicas as a peer
# ring over one compiled artifact, drive mixed load (covered table hits
# plus uncovered cold cells that forward to their ring owner), then
# SIGKILL one replica mid-stream and assert the client-visible contract:
# every answer from the survivors stays HTTP 200 (replica death must
# never surface as a 5xx), at least one hedged forward wins against the
# dead owner, and the survivors demote the corpse to dead in /healthz so
# later forwards short-circuit to the local miss path.
#
# The hedge-win window is the gap between the kill and the survivors'
# next failed heartbeat probe (which demotes the owner and closes the
# forward path). Probe phase is unsynchronized, so one burst can miss
# the window; the script then restarts the victim, waits for the ring to
# heal, and kills it again — a handful of attempts makes a miss
# vanishingly unlikely while doubling as a repeated-failover demo.
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
        -hedge-delay 20ms -heartbeat 500ms -peer-timeout 2s \
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
# either hedge to the other survivor or fall back to local simulation —
# never error.
wins=0
attempt=0
procbase=100
while [ "$wins" -eq 0 ] && [ "$attempt" -lt 5 ]; do
    kill -9 "$pid3" 2>/dev/null || true
    wait "$pid3" 2>/dev/null || true
    pid3=
    for i in $(seq 0 23); do
        if [ $((i % 2)) -eq 0 ]; then target=$u1; else target=$u2; fi
        if [ $((i % 4)) -eq 3 ]; then
            url="$target/select?collective=alltoall&msg_bytes=1024&procs=8"
        else
            url="$target/select?collective=alltoall&msg_bytes=16&procs=$((procbase + i))"
        fi
        code=$(curl -s -o "$tmp/resp" -w '%{http_code}' "$url")
        if [ "$code" != 200 ]; then
            echo "FAIL: $url answered HTTP $code after replica kill:" >&2
            cat "$tmp/resp" >&2
            exit 1
        fi
    done
    procbase=$((procbase + 24))
    w1=$(metric "$u1" collseld_cluster_hedge_wins_total)
    w2=$(metric "$u2" collseld_cluster_hedge_wins_total)
    wins=$((w1 + w2))
    attempt=$((attempt + 1))
    if [ "$wins" -eq 0 ]; then
        # The probe beat the burst to the corpse; heal the ring and retry.
        pid3=$(start_replica 127.0.0.1:18283 "$u3")
        wait_healthy "$u3"
        for _ in $(seq 1 50); do
            curl -sf "$u1/healthz" | grep -q "\"peer\":\"$u3\",\"state\":\"alive\"" &&
                curl -sf "$u2/healthz" | grep -q "\"peer\":\"$u3\",\"state\":\"alive\"" && break
            sleep 0.2
        done
    fi
done
test "$wins" -ge 1

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

echo "cluster smoke OK: failover attempts=$attempt hedge_wins=$wins forwards(u1)=$fw, zero client-visible errors"
