package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"collsel/internal/cluster"
	"collsel/internal/coll"
	"collsel/internal/store"
)

// swapHandler lets the httptest servers exist (so their URLs are known)
// before the replicas that need those URLs in their peer lists.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not wired", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// replica is one member of a test cluster.
type replica struct {
	s  *Server
	ts *httptest.Server
	cl *cluster.Cluster
}

// newServeCluster boots n replicas over the same compiled table, wired to
// each other with the real HTTP transport. The clusters' background loops
// are NOT started — tests drive health and shares explicitly so every
// state transition is deterministic; pass start to launch them.
func newServeCluster(t testing.TB, n int, start bool, mut func(i int, cfg *Config), cmut func(i int, ccfg *cluster.Config)) []*replica {
	t.Helper()
	tb := compileTiny(t, 1)
	reps := make([]*replica, n)
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range reps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		reps[i] = &replica{ts: ts}
		urls[i] = ts.URL
	}
	for i := range reps {
		ccfg := cluster.Config{
			Self:       urls[i],
			Peers:      append([]string(nil), urls...),
			HedgeDelay: 20 * time.Millisecond,
			Transport:  cluster.NewHTTPTransport(2 * time.Second),
			// Heartbeats are driven explicitly (ProbeOnce) in these tests.
			Health: cluster.HealthConfig{Interval: time.Hour},
		}
		if cmut != nil {
			cmut(i, &ccfg)
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		cfg := Config{Handle: store.NewHandle(tb), Cluster: cl}
		if mut != nil {
			mut(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		swaps[i].set(s.Handler())
		reps[i].s = s
		reps[i].cl = cl
		if start {
			cl.Start()
		}
	}
	return reps
}

// uncoveredOwnedBy finds a msg_bytes value whose cell (a) the compiled
// table does not cover at procs 8 and (b) is owned by reps[owner] on
// the ring. The tiny table covers procs 8 at 512 and 8192 B; sizes
// below 512 and in distinct power-of-two bins stay uncovered and
// spread across owners — and if an unlucky ring layout keeps every
// size bin off the wanted replica's arcs, the probe ladder also walks
// procs counts away from 8 (an uncovered procs is uncovered at any
// size).
func uncoveredOwnedBy(t testing.TB, reps []*replica, owner int) (procs, msg int) {
	t.Helper()
	tb := reps[0].s.TableSnapshot()
	want := reps[owner].ts.URL
	// Below the smallest compiled bin (512) and above the largest bin's
	// 10x reach (81920): one candidate per power-of-two bin.
	sizes := []int{16, 32, 64, 128, 256}
	for m := 128 * 1024; m <= 1<<30; m *= 2 {
		sizes = append(sizes, m)
	}
	for _, p := range []int{8, 9, 10, 11, 12, 13, 14, 15} {
		for _, m := range sizes {
			if _, ok := tb.Get(coll.Alltoall, p, m); ok {
				continue
			}
			key := cluster.CellKey("alltoall", p, m, tb.Factor)
			if o, _ := reps[0].cl.Route(key); o == want {
				return p, m
			}
		}
	}
	t.Fatalf("no uncovered cell owned by replica %d (%s)", owner, want)
	return 0, 0
}

// stubCold is an instant SelectFunc for tests that need the cold path's
// routing behavior without paying for real simulations.
func stubCold(tb *store.Table) SelectFunc {
	return func(ctx context.Context, t *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, error) {
		return store.Cell{
			MsgBytes:     msgBytes,
			Winner:       store.AlgoRef{ID: 2, Name: "pairwise"},
			Score:        1.0,
			Conventional: store.AlgoRef{ID: 1, Name: "basic_linear"},
		}, nil
	}
}

// TestPeerForwardAnswers walks the peer rung end to end: a cold query
// whose cell another replica owns is forwarded there, answered with
// source "peer" naming the owner, and promoted into the local table so
// the repeat query is a table hit and is not forwarded again.
func TestPeerForwardAnswers(t *testing.T) {
	tb := compileTiny(t, 1)
	reps := newServeCluster(t, 3, false, func(i int, cfg *Config) {
		cfg.Cold = stubCold(tb)
	}, nil)
	procs, msg := uncoveredOwnedBy(t, reps, 0)

	// Query a NON-owner: the answer must come from the owner, relabeled.
	resp, code := postSelect(t, reps[1].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs})
	if code != http.StatusOK {
		t.Fatalf("forwarded select: HTTP %d", code)
	}
	if resp.Source != "peer" || resp.Peer != reps[0].ts.URL {
		t.Fatalf("forwarded select: source %q peer %q, want peer answer from %s", resp.Source, resp.Peer, reps[0].ts.URL)
	}
	if resp.Algorithm.Name != "pairwise" {
		t.Fatalf("forwarded select returned %q", resp.Algorithm.Name)
	}
	st := reps[1].cl.Stats()
	if st.Forwards != 1 || st.Hedges != 0 {
		t.Fatalf("stats after one clean forward: %+v", st)
	}

	// The owner computed it locally (the forwarded request must not bounce).
	if got := reps[0].cl.Stats().Forwards; got != 0 {
		t.Fatalf("owner forwarded a forwarded request: %d forwards", got)
	}

	// Repeat on the same non-owner: an exact hit on its own table now.
	resp, code = postSelect(t, reps[1].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs})
	if code != http.StatusOK || resp.Source != "table" || !resp.Exact || resp.Algorithm.Name != "pairwise" {
		t.Fatalf("repeat after forward: HTTP %d source %q exact %v alg %q, want exact table hit on pairwise",
			code, resp.Source, resp.Exact, resp.Algorithm.Name)
	}
	if got := reps[1].cl.Stats().Forwards; got != 1 {
		t.Fatalf("repeat after forward left the process: %d forwards, want 1", got)
	}

	// Query the OWNER: self-owned keys never forward.
	resp, code = postSelect(t, reps[0].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs})
	if code != http.StatusOK || resp.Source == "peer" {
		t.Fatalf("self-owned select: HTTP %d source %q", code, resp.Source)
	}
}

// TestPeerCellEndpoint pins the /peer/cell contract: validation failures
// are 4xx, provenance mismatches are 409, a fresh cell is promoted into
// the serving table (the next query is a table hit), and an identical
// re-share is ignored without churning the table version.
func TestPeerCellEndpoint(t *testing.T) {
	reps := newServeCluster(t, 1, false, nil, nil)
	url := reps[0].ts.URL
	s := reps[0].s
	tb := s.TableSnapshot()

	post := func(body []byte) (int, []byte) {
		resp, err := http.Post(url+"/peer/cell", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	goodMsg := func() PeerCellMsg {
		return PeerCellMsg{
			Machine:             tb.Machine,
			PlatformFingerprint: tb.PlatformFingerprint,
			Collective:          "alltoall",
			Procs:               8,
			Cell: store.Cell{
				MsgBytes:     2048,
				Winner:       store.AlgoRef{ID: 2, Name: "pairwise"},
				Score:        1.05,
				Conventional: store.AlgoRef{ID: 1, Name: "basic_linear"},
			},
		}
	}
	marshal := func(m PeerCellMsg) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if code, _ := post([]byte("{broken")); code != http.StatusBadRequest {
		t.Fatalf("garbage JSON: HTTP %d, want 400", code)
	}
	m := goodMsg()
	m.Collective = "no-such-collective"
	if code, _ := post(marshal(m)); code != http.StatusBadRequest {
		t.Fatalf("unknown collective: HTTP %d, want 400", code)
	}
	m = goodMsg()
	m.Cell.Score = -1
	if code, _ := post(marshal(m)); code != http.StatusBadRequest {
		t.Fatalf("negative score: HTTP %d, want 400", code)
	}
	m = goodMsg()
	m.Cell.Winner.Name = "no-such-algorithm"
	if code, _ := post(marshal(m)); code != http.StatusBadRequest {
		t.Fatalf("unresolvable winner: HTTP %d, want 400", code)
	}
	m = goodMsg()
	m.PlatformFingerprint = "fp-of-another-machine"
	if code, _ := post(marshal(m)); code != http.StatusConflict {
		t.Fatalf("fingerprint mismatch: HTTP %d, want 409", code)
	}
	m = goodMsg()
	m.Machine = strings.Repeat("a", maxPeerCellBody) // payload itself exceeds the cap
	if code, _ := post(marshal(m)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", code)
	}
	if resp, err := http.Get(url + "/peer/cell"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /peer/cell: HTTP %d, want 405", resp.StatusCode)
		}
	}

	// A valid fresh cell is promoted: the serving table gains it.
	code, body := post(marshal(goodMsg()))
	if code != http.StatusOK {
		t.Fatalf("valid peer cell: HTTP %d (%s)", code, body)
	}
	var pr PeerCellResponse
	if err := json.Unmarshal(body, &pr); err != nil || pr.Status != "promoted" {
		t.Fatalf("valid peer cell: %s (%v)", body, err)
	}
	resp, scode := postSelect(t, url, SelectRequest{Collective: "alltoall", MsgBytes: 2048, Procs: 8})
	if scode != http.StatusOK || resp.Source != "table" || !resp.Exact {
		t.Fatalf("select after promotion: HTTP %d source %q exact %v, want exact table hit", scode, resp.Source, resp.Exact)
	}
	promotedVersion := s.TableSnapshot().Version

	// Re-sharing the identical cell (partition heal) is a no-op.
	code, body = post(marshal(goodMsg()))
	if code != http.StatusOK {
		t.Fatalf("identical re-share: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Status != "ignored" {
		t.Fatalf("identical re-share: %s (%v)", body, err)
	}
	if got := s.TableSnapshot().Version; got != promotedVersion {
		t.Fatalf("identical re-share churned the table: %s -> %s", promotedVersion, got)
	}
}

// TestPeerCellDisabled pins that a non-clustered server refuses the
// endpoint outright.
func TestPeerCellDisabled(t *testing.T) {
	tb := compileTiny(t, 1)
	_, ts := newTestServer(t, Config{Handle: store.NewHandle(tb)})
	resp, err := http.Post(ts.URL+"/peer/cell", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer/cell without a cluster: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestPeerShareGossip starts the share loops and checks the forward
// direction of gossip: a cell computed on one replica appears in every
// other replica's serving table without any of them simulating it.
func TestPeerShareGossip(t *testing.T) {
	tb := compileTiny(t, 1)
	reps := newServeCluster(t, 3, true, func(i int, cfg *Config) {
		cfg.Cold = stubCold(tb)
	}, nil)
	procs, msg := uncoveredOwnedBy(t, reps, 0)

	// Ask the owner directly: it computes locally and gossips the result.
	if resp, code := postSelect(t, reps[0].ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs}); code != http.StatusOK || resp.Source != "computed" {
		t.Fatalf("owner compute: HTTP %d source %q", code, resp.Source)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range reps[1:] {
		for {
			if _, ok := r.s.TableSnapshot().Get(coll.Alltoall, procs, msg); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never received the gossiped cell", r.ts.URL)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if resp, code := postSelect(t, r.ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msg, Procs: procs}); code != http.StatusOK || resp.Source != "table" {
			t.Fatalf("gossiped cell on %s: HTTP %d source %q, want table hit", r.ts.URL, code, resp.Source)
		}
	}
}

// metricValue scrapes one un-labeled counter/gauge from /metrics.
func metricValue(t testing.TB, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not exposed by %s", name, url)
	return 0
}
