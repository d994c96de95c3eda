package serve

// Cluster chaos: the replication layer's failure modes — a killed
// replica, a hung owner, a partition that heals, every peer dead at once —
// injected against real HTTP replicas, asserting the client-visible
// contract: zero 5xx (the local miss path always answers), a forward that
// costs at most its deadline and makes exactly one attempt, and no leaked
// goroutines. Run via `make chaos` (also part of the ordinary suite).

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"collsel/internal/cluster"
	"collsel/internal/coll"
)

// TestChaosClusterKillReplica kills one of three replicas and drives
// mixed load (covered + uncovered cells) through the survivors: every
// response must stay 200, every uncovered cell the corpse owns must be
// answered locally (its forward fails fast, the model answers), and the
// dead peer must be marked down so later forwards short-circuit to the
// local miss path.
func TestChaosClusterKillReplica(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	reps := newServeCluster(t, 3, false, func(i int, cfg *Config) {
		cfg.Cold = stubCold(tb)
	}, nil)
	procs, msg := uncoveredOwnedBy(t, reps, 0)

	// Baseline: the forward path works while everyone is up.
	if resp, code := postSelect(t, reps[1].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs}); code != http.StatusOK || resp.Source != "peer" {
		t.Fatalf("pre-kill forward: HTTP %d source %q", code, resp.Source)
	}

	// Kill the owner.
	reps[0].ts.Close()

	// Mixed load against the survivors: covered table hits plus uncovered
	// cells owned across the (now partly dead) ring. Distinct procs make
	// every uncovered query a fresh cell that no earlier promotion covers.
	local := 0
	for i := 0; i < 20; i++ {
		target := reps[1+i%2]
		var req SelectRequest
		if i%4 == 0 {
			req = SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8} // covered
		} else {
			req = SelectRequest{Collective: "alltoall", MsgBytes: 16, Procs: 8 + i}
		}
		resp, code := postSelect(t, target.ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("request %d after kill: HTTP %d (source %q) — replica death must never surface as an error", i, code, resp.Source)
		}
		key := cluster.CellKey("alltoall", req.Procs, req.MsgBytes, tb.Factor)
		if owner, _ := target.cl.Route(key); owner == reps[0].ts.URL && resp.Source != "table" {
			if resp.Source != "model" {
				t.Fatalf("request %d owned by the corpse: source %q, want a local model answer", i, resp.Source)
			}
			local++
		}
	}
	if local == 0 {
		t.Fatal("no uncovered query routed to the killed owner; widen the sweep")
	}

	// The killed peer's failures are evidence: drive each survivor with
	// fresh cells (about a third are owned by the corpse, and one failed
	// forward is enough to demote it) until it has seen one, then assert
	// the demotion. Disjoint procs ranges keep the survivors' cells
	// independent. Every answer along the way must still be a 200.
	for ri, r := range reps[1:] {
		h := r.cl.HealthTracker()
		for p := 100 + 200*ri; p < 300+200*ri && h.State(reps[0].ts.URL) == cluster.StateAlive; p++ {
			resp, code := postSelect(t, r.ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 16, Procs: p})
			if code != http.StatusOK {
				t.Fatalf("evidence query procs=%d: HTTP %d (source %q)", p, code, resp.Source)
			}
		}
		if st := h.State(reps[0].ts.URL); st == cluster.StateAlive {
			t.Fatalf("replica %s still considers the killed peer alive after 200 fresh cells", r.ts.URL)
		}
	}
}

// TestChaosClusterHungOwner: an owner that accepts forwards but never
// answers them, while still passing its heartbeats, costs a /select at
// most the forward deadline (50ms in internal/cluster) plus slack — both
// in a 2-replica ring and in a 3-replica ring with another live peer. The
// answer is the local model estimate, the owner is demoted to suspect,
// and the next heartbeat restores it.
func TestChaosClusterHungOwner(t *testing.T) {
	const bound = 50*time.Millisecond + 450*time.Millisecond // forward deadline plus slack, far below the 2s transport timeout
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d-replicas", n), func(t *testing.T) {
			leakCheck(t)
			tb := compileTiny(t, 1)
			reps := newServeCluster(t, n, false, func(i int, cfg *Config) {
				cfg.Cold = stubCold(tb)
			}, nil)
			procs, msg := uncoveredOwnedBy(t, reps, 0)

			// Runs before the servers close (cleanups are LIFO), so no
			// hung handler outlives the test.
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			reps[0].ts.Config.Handler.(*swapHandler).set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/select" {
					select {
					case <-r.Context().Done():
					case <-release:
					}
					return
				}
				w.WriteHeader(http.StatusOK) // /healthz: alive to the heartbeat
			}))

			start := time.Now()
			resp, code := postSelect(t, reps[1].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs})
			if elapsed := time.Since(start); elapsed > bound {
				t.Fatalf("select behind a hung owner took %v, want at most %v", elapsed, bound)
			}
			if code != http.StatusOK || resp.Source != "model" {
				t.Fatalf("select behind a hung owner: HTTP %d source %q, want a local model answer", code, resp.Source)
			}
			h := reps[1].cl.HealthTracker()
			if st := h.State(reps[0].ts.URL); st != cluster.StateSuspect {
				t.Fatalf("hung owner state %v after a timed-out forward, want suspect", st)
			}
			h.ProbeOnce(t.Context())
			if st := h.State(reps[0].ts.URL); st != cluster.StateAlive {
				t.Fatalf("hung owner state %v after a good heartbeat, want alive", st)
			}
		})
	}
}

// TestChaosClusterPartitionHeal drives a partition through the health
// machine deterministically: while the owner is marked dead the querying
// replica answers locally (owner_unavailable short-circuit, still 200);
// after a successful probe heals the view, the same replica forwards
// again.
func TestChaosClusterPartitionHeal(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	reps := newServeCluster(t, 3, false, func(i int, cfg *Config) {
		cfg.Cold = stubCold(tb)
	}, nil)
	procs, msg := uncoveredOwnedBy(t, reps, 0)
	h := reps[1].cl.HealthTracker()

	// Partition: rep1 loses sight of the owner.
	for i := 0; i < 5; i++ {
		h.MarkFailure(reps[0].ts.URL)
	}
	if st := h.State(reps[0].ts.URL); st != cluster.StateDead {
		t.Fatalf("owner state after 5 failures: %v, want dead", st)
	}
	resp, code := postSelect(t, reps[1].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs})
	if code != http.StatusOK || resp.Source != "model" {
		t.Fatalf("partitioned select: HTTP %d source %q, want a local model answer", code, resp.Source)
	}
	if st := reps[1].cl.Stats(); st.OwnerUnavailable < 1 {
		t.Fatalf("partitioned forward did not short-circuit: %+v", st)
	}

	// Heal: one real probe round sees the owner answering again.
	h.ProbeOnce(t.Context())
	if st := h.State(reps[0].ts.URL); st != cluster.StateAlive {
		t.Fatalf("owner state after heal probe: %v, want alive", st)
	}
	// A fresh cell (different procs → different key, same owner check not
	// needed: any forwardable key proves the path reopened). Probe until
	// one routes to the healed owner.
	for p := 9; p < 40; p++ {
		if p == procs {
			continue // already refined and promoted after the partitioned query
		}
		key := cluster.CellKey("alltoall", p, 16, tb.Factor)
		if owner, self := reps[1].cl.Route(key); self || owner != reps[0].ts.URL {
			continue
		}
		resp, code = postSelect(t, reps[1].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 16, Procs: p})
		if code != http.StatusOK || resp.Source != "peer" {
			t.Fatalf("post-heal select: HTTP %d source %q, want forwarded answer", code, resp.Source)
		}
		return
	}
	t.Fatal("no key owned by the healed replica found")
}

// countingTransport counts forward attempts on top of a real transport.
type countingTransport struct {
	cluster.Transport
	selects atomic.Int64
}

func (c *countingTransport) Select(ctx context.Context, peer, collective string, procs, msgBytes int) (int, []byte, error) {
	c.selects.Add(1)
	return c.Transport.Select(ctx, peer, collective, procs, msgBytes)
}

// TestChaosHedgeBudgetCap pins the attempt bound with every peer dead but
// still believed alive (the worst case: no forward is short-circuited).
// Each forward makes exactly one transport attempt — no hedge, no retry —
// so attempts, forwards and forward errors are equal, and every client
// still gets a 200 model answer from the local miss path.
func TestChaosHedgeBudgetCap(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	var tr *countingTransport
	reps := newServeCluster(t, 3, false, func(i int, cfg *Config) {
		cfg.Cold = stubCold(tb)
	}, func(i int, ccfg *cluster.Config) {
		// Peers never get demoted: every forward is attempted.
		ccfg.Health = cluster.HealthConfig{Interval: 3600e9, SuspectAfter: 1 << 30, DeadAfter: 1<<30 + 1}
		if i == 0 {
			tr = &countingTransport{Transport: ccfg.Transport}
			ccfg.Transport = tr
		}
	})

	// Kill both peers of rep0; their health state stays alive.
	reps[1].ts.Close()
	reps[2].ts.Close()

	const n = 60
	// Sanity: the swept cells must be uncovered (each is promoted once
	// computed, so this is checked before the sweep).
	for p := 0; p < n; p++ {
		if _, ok := reps[0].s.TableSnapshot().Get(coll.Alltoall, 8+p, 16); ok {
			t.Fatalf("sanity: the swept cell at %d procs must be uncovered", 8+p)
		}
	}
	for p := 0; p < n; p++ {
		resp, code := postSelect(t, reps[0].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 16, Procs: 8 + p})
		if code != http.StatusOK {
			t.Fatalf("query %d with all peers dead: HTTP %d — must fall back locally", p, code)
		}
		if resp.Source != "model" {
			t.Fatalf("query %d with all peers dead: source %q, want a local model answer", p, resp.Source)
		}
	}

	st := reps[0].cl.Stats()
	if st.Forwards == 0 {
		t.Fatal("no query routed to a peer-owned cell; widen the key sweep")
	}
	if got := tr.selects.Load(); got != st.Forwards || st.ForwardErrors != st.Forwards {
		t.Fatalf("%d transport attempts for %d forwards with %d errors, want all three equal", got, st.Forwards, st.ForwardErrors)
	}
	// The same counts, via the operator-visible metrics.
	forwards := metricValue(t, reps[0].ts.URL, "collseld_cluster_forwards_total")
	errs := metricValue(t, reps[0].ts.URL, "collseld_cluster_forward_errors_total")
	if int64(forwards) != st.Forwards || int64(errs) != st.ForwardErrors {
		t.Fatalf("metrics disagree with stats: forwards %g/%d errors %g/%d", forwards, st.Forwards, errs, st.ForwardErrors)
	}
}
