package serve

// Cluster chaos: the replication layer's failure modes — a killed
// replica, a partition that heals, every peer dead at once — injected
// against real HTTP replicas, asserting the client-visible contract:
// zero 5xx (the local miss path always answers), hedges that actually win,
// a retry budget that holds even when every attempt fails, and no leaked
// goroutines. Run via `make chaos` (also part of the ordinary suite).

import (
	"net/http"
	"testing"

	"collsel/internal/cluster"
	"collsel/internal/coll"
)

// TestChaosClusterKillReplica kills one of three replicas and drives
// mixed load (covered + uncovered cells) through the survivors: every
// response must stay 200, at least one hedge must win (the killed owner
// fails fast, the budgeted retry answers), and the dead peer must be
// marked down so later forwards short-circuit to the local miss path.
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
	wins := metricValue(t, reps[1].ts.URL, "collseld_cluster_hedge_wins_total") +
		metricValue(t, reps[2].ts.URL, "collseld_cluster_hedge_wins_total")
	if wins < 1 {
		t.Fatalf("no hedge ever won after the kill (wins=%g)", wins)
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

// TestChaosHedgeBudgetCap pins the retry-storm bound with every peer
// dead but still believed alive (the worst case: each forward burns its
// full attempt sequence). The number of hedges launched must never
// exceed the budget — one banked token plus one tenth of the forwards —
// no matter how many requests fail, and every client still gets a 200
// from the local miss path.
func TestChaosHedgeBudgetCap(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	reps := newServeCluster(t, 3, false, func(i int, cfg *Config) {
		cfg.Cold = stubCold(tb)
	}, func(i int, ccfg *cluster.Config) {
		// Peers never get demoted: every forward runs its full course.
		ccfg.Health = cluster.HealthConfig{Interval: 3600e9, SuspectAfter: 1 << 30, DeadAfter: 1<<30 + 1}
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
	// Budget invariant: granted hedges ≤ initial token + ratio per forward.
	maxHedges := int64(1 + float64(st.Forwards)*cluster.DefaultRetryBudget)
	if st.Hedges > maxHedges {
		t.Fatalf("hedges %d exceed the budget cap %d over %d forwards", st.Hedges, maxHedges, st.Forwards)
	}
	if st.Budget.Denied == 0 {
		t.Fatalf("budget never denied a hedge under total peer death: %+v", st)
	}
	if st.ForwardErrors != st.Forwards {
		t.Fatalf("every forward should have failed: %+v", st)
	}
	// The same bound, via the operator-visible metrics.
	hedges := metricValue(t, reps[0].ts.URL, "collseld_cluster_hedges_total")
	denied := metricValue(t, reps[0].ts.URL, "collseld_cluster_budget_denied_total")
	if int64(hedges) != st.Hedges || int64(denied) != st.Budget.Denied {
		t.Fatalf("metrics disagree with stats: hedges %g/%d denied %g/%d", hedges, st.Hedges, denied, st.Budget.Denied)
	}
}
