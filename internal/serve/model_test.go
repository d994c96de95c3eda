package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"collsel/internal/coll"
	"collsel/internal/feedback"
	"collsel/internal/store"
)

// TestModelTierLadder walks the model rung of the miss path: a query the
// table does not cover is answered instantly from the analytical model
// (source "model"), a background simulation refines the cell, and the
// refined cell is promoted into the hot table — so the same query asked
// again is a plain table hit, bit-identical to what the compiler would
// have produced for that grid point.
func TestModelTierLadder(t *testing.T) {
	tb := compileTiny(t, 1) // alltoall, 8 procs, sizes 512 and 8192
	h := store.NewHandle(tb)
	s, ts := newTestServer(t, Config{Handle: h})

	// 64 B is below the smallest compiled size: a guaranteed table miss.
	req := SelectRequest{Collective: "alltoall", MsgBytes: 64, Procs: 8}
	resp, code := postSelect(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("model-tier select: HTTP %d", code)
	}
	if resp.Source != "model" {
		t.Fatalf("source %q, want model", resp.Source)
	}
	if resp.Exact {
		t.Fatal("model answers are estimates; Exact must be false")
	}
	if resp.Algorithm.Name == "" || resp.Conventional.Name == "" {
		t.Fatalf("incomplete model answer: %+v", resp)
	}
	if resp.TableVersion != tb.Version {
		t.Fatalf("model answer under table %s, want %s", resp.TableVersion, tb.Version)
	}

	// The background refinement promotes the simulated cell into the table.
	s.WaitBackground()
	nt := h.Table()
	if nt.Version == tb.Version {
		t.Fatal("refinement did not promote a new table")
	}
	lk, ok := nt.Get(coll.Alltoall, 8, 64)
	if !ok || !lk.Exact {
		t.Fatalf("promoted table does not cover the refined cell (ok=%v exact=%v)", ok, lk.Exact)
	}
	want, err := Fallback(context.Background(), tb, coll.Alltoall, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lk.Cell.Winner != want.Winner || lk.Cell.Score != want.Score {
		t.Fatalf("promoted cell %+v differs from the provenance-matched selection %+v", lk.Cell, want)
	}
	// The original cells must have survived the promotion untouched.
	for _, size := range []int{512, 8192} {
		if _, ok := nt.Get(coll.Alltoall, 8, size); !ok {
			t.Fatalf("promotion lost the compiled %d B cell", size)
		}
	}

	// Second ask: now a plain table hit.
	resp2, code := postSelect(t, ts.URL, req)
	if code != http.StatusOK || resp2.Source != "table" {
		t.Fatalf("after promotion: HTTP %d source %q, want 200/table", code, resp2.Source)
	}
	if resp2.Algorithm.Name != want.Winner.Name {
		t.Fatalf("table answer %v, want the refined winner %v", resp2.Algorithm, want.Winner)
	}

	// Metrics: one model answer, one promotion, one table source.
	body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`collseld_select_source_total{source="model"} 1`,
		`collseld_select_source_total{source="table"} 1`,
		"collseld_model_promotions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestModelTierColdDisabled pairs the model rung with simulation turned
// off: misses are still answered, from the model or the nearest cell, but
// nothing simulates, refines or promotes — the table must stay untouched.
func TestModelTierColdDisabled(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	s, ts := newTestServer(t, Config{Handle: h, ColdDisabled: true})

	resp, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 64, Procs: 8})
	if code != http.StatusOK || resp.Source != "model" {
		t.Fatalf("HTTP %d source %q, want 200/model", code, resp.Source)
	}
	s.WaitBackground()
	if h.Table().Version != tb.Version {
		t.Fatal("cold-disabled model tier must not promote")
	}

	// Queries the model cannot serve (procs beyond the machine) get the
	// nearest compiled cell.
	resp, code = postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 64, Procs: 2048})
	if code != http.StatusOK || resp.Source != "nearest" || resp.AnsweredProcs != 8 || resp.AnsweredMsgBytes != 512 {
		t.Fatalf("oversized procs with cold disabled: HTTP %d %+v, want 200 nearest from 8 procs 512 B", code, resp)
	}
	if n := s.metrics.coldComputes.Load(); n != 0 {
		t.Fatalf("%d live selections with simulation disabled", n)
	}
}

// TestUnrefinableMissAnswersNearest covers the misses the model cannot
// answer and no simulation could refine: a table whose machine drifted
// from its compiled fingerprint, and a query for more procs than the
// machine has. Every such query, from the first, is a 200 from the
// nearest compiled cell, and none starts a live selection.
func TestUnrefinableMissAnswersNearest(t *testing.T) {
	tb := compileTiny(t, 1)
	drifted := *tb
	drifted.PlatformFingerprint = "fp-of-an-edited-preset"
	if err := drifted.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		table *store.Table
		req   SelectRequest
	}{
		{"drifted fingerprint", &drifted, SelectRequest{Collective: "alltoall", MsgBytes: 64, Procs: 8}},
		{"oversized procs", tb, SelectRequest{Collective: "alltoall", MsgBytes: 64, Procs: 4096}},
	} {
		s, ts := newTestServer(t, Config{Handle: store.NewHandle(tc.table)})
		for i := 0; i < 8; i++ {
			resp, code := postSelect(t, ts.URL, tc.req)
			if code != http.StatusOK || resp.Source != "nearest" || resp.Exact ||
				resp.AnsweredProcs != 8 || resp.AnsweredMsgBytes != 512 {
				t.Fatalf("%s, try %d: HTTP %d %+v, want 200 nearest from 8 procs 512 B", tc.name, i, code, resp)
			}
		}
		s.WaitBackground()
		if n := s.metrics.coldComputes.Load(); n != 0 {
			t.Fatalf("%s: %d live selections for a miss no simulation can refine", tc.name, n)
		}
	}
}

// TestModelTierRefineDedup hammers one uncovered cell concurrently; the
// dedup map must keep background refinements from piling up (at most a
// handful run — one per completed wave), and every response must be
// model- or table-sourced, never an error.
func TestModelTierRefineDedup(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	s, ts := newTestServer(t, Config{Handle: h})

	done := make(chan string, 32)
	for i := 0; i < 32; i++ {
		go func() {
			resp, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 64, Procs: 8})
			if code != http.StatusOK {
				done <- fmt.Sprintf("HTTP %d", code)
				return
			}
			done <- resp.Source
		}()
	}
	for i := 0; i < 32; i++ {
		src := <-done
		if src != "model" && src != "table" {
			t.Fatalf("response %d: source %q", i, src)
		}
	}
	s.WaitBackground()
	if _, ok := h.Table().Get(coll.Alltoall, 8, 64); !ok {
		t.Fatal("no refinement promoted the hammered cell")
	}
	if got := s.metrics.coldComputes.Load(); got > 4 {
		t.Fatalf("%d cold computes for one cell; dedup failed", got)
	}
}

// TestConcurrentDistinctPromotionsAllLand refines 16 distinct uncovered
// cells at once, two simulations at a time. Every refinement computes its
// cell once and every promotion lands: after WaitBackground each cell is
// an exact table hit.
func TestConcurrentDistinctPromotionsAllLand(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Handle:      h,
		ColdWorkers: 2,
		ColdQueue:   16, // every refinement waits for a worker; none is shed
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, msgBytes int) (store.Cell, error) {
			<-gate // hold the first refinements until every cell has missed
			return store.Cell{MsgBytes: msgBytes, Winner: store.AlgoRef{ID: 3, Name: "bruck"}, Score: 1}, nil
		},
	})
	const cells = 16
	size := func(i int) int { return 100 + 10*i } // all below the compiled 512 B
	for i := 0; i < cells; i++ {
		resp, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: size(i), Procs: 8})
		if code != http.StatusOK || resp.Source != "model" {
			t.Fatalf("cell %d: HTTP %d source %q, want a model answer", i, code, resp.Source)
		}
	}
	close(gate)
	s.WaitBackground()
	for i := 0; i < cells; i++ {
		resp, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: size(i), Procs: 8})
		if code != http.StatusOK || resp.Source != "table" || !resp.Exact || resp.Algorithm.Name != "bruck" {
			t.Fatalf("cell %d after refinement: HTTP %d source %q exact %v alg %q, want an exact table hit",
				i, code, resp.Source, resp.Exact, resp.Algorithm.Name)
		}
	}
	if got := s.metrics.coldComputes.Load(); got != cells {
		t.Fatalf("%d cold computes, want %d", got, cells)
	}
	if got := s.metrics.modelPromotions.Load(); got != cells {
		t.Fatalf("%d model promotions, want %d", got, cells)
	}
	if got := h.Swaps(); got != 1+cells {
		t.Fatalf("swaps %d, want %d (initial install + one per cell)", got, 1+cells)
	}
}

// TestModelTierPromotionLosesRace pins the reload-vs-promotion contract:
// a table swapped in while a refinement is in flight wins, and the
// promotion is dropped rather than clobbering it.
func TestModelTierPromotionLosesRace(t *testing.T) {
	tb := compileTiny(t, 1)
	other := compileTiny(t, 99)
	h := store.NewHandle(tb)

	gate := make(chan struct{})
	s, err := New(Config{
		Handle: h,
		Cold: func(ctx context.Context, base *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, error) {
			<-gate // hold the refinement until the reload has swapped
			return Fallback(ctx, base, c, procs, msgBytes)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cell, ok := s.modelAnswer(tb, coll.Alltoall, 8, 64); !ok || cell.Winner.Name == "" {
		t.Fatal("model answer unavailable")
	}
	s.refineAsync(tb, coll.Alltoall, 8, 64)
	h.Swap(other) // a reload lands first
	close(gate)
	s.WaitBackground()
	if h.Table().Version != other.Version {
		t.Fatalf("promotion clobbered the reloaded table: serving %s", h.Table().Version)
	}
	if got := s.metrics.modelPromotions.Load(); got != 0 {
		t.Fatalf("%d promotions recorded for a lost race", got)
	}
}

// TestObserveRetryAfterFlag checks the /observe backpressure hint: shed
// batches carry the configured ObserveRetryAfter, jittered.
func TestObserveRetryAfterFlag(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{Buffer: 1})
	// Pipeline deliberately not started: the buffer never drains, so the
	// second batch must shed.
	_, ts := newTestServer(t, Config{
		Handle:            h,
		Feedback:          p,
		ObserveRetryAfter: 7 * time.Second,
	})

	if code, _ := postObserve(t, ts.URL, driftObs(1.5, 1)); code != http.StatusAccepted {
		t.Fatalf("first batch: HTTP %d, want 202", code)
	}
	shed := false
	for i := 0; i < 8; i++ {
		code, hdr := postObserve(t, ts.URL, driftObs(1.5, 1))
		if code == http.StatusTooManyRequests {
			// Jittered over [7, 14] from the 7s observe-specific base.
			secs, err := strconv.Atoi(hdr.Get("Retry-After"))
			if err != nil || secs < 7 || secs > 14 {
				t.Fatalf("shed /observe Retry-After %q, want [7,14] (the jittered observe-specific hint)", hdr.Get("Retry-After"))
			}
			shed = true
			break
		}
	}
	if !shed {
		t.Fatal("buffer of 1 never shed")
	}
}

// TestObserveRetryAfterDefaults pins the config defaulting: an unset
// ObserveRetryAfter is 1s.
func TestObserveRetryAfterDefaults(t *testing.T) {
	s, err := New(Config{Handle: store.NewHandle(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.ObserveRetryAfter != time.Second {
		t.Fatalf("ObserveRetryAfter defaulted to %s, want 1s", s.cfg.ObserveRetryAfter)
	}
}

func getBody(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
