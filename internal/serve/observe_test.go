package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"collsel/internal/feedback"
	"collsel/internal/store"
)

// newFeedbackPipeline builds a real pipeline over a temp WAL dir, wired to
// the given handle, closed on test cleanup. Start is left to the caller so
// backpressure tests can flood an undrained buffer deterministically.
func newFeedbackPipeline(t testing.TB, h *store.Handle, cfg feedback.Config) *feedback.Pipeline {
	t.Helper()
	if cfg.WALDir == "" {
		cfg.WALDir = t.TempDir()
	}
	cfg.Handle = h
	p, err := feedback.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func postObserve(t testing.TB, url string, req ObserveRequest) (int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// driftObs returns a batch that, once aggregated past MinObs, plans a
// recompile of the 512-byte alltoall cell at skew factor f.
func driftObs(f float64, n int64) ObserveRequest {
	return ObserveRequest{Observations: []Observation{
		{Collective: "alltoall", Procs: 8, MsgBytes: 600, Imbalance: f, Count: n},
	}}
}

func TestObserveDisabledAndMalformed(t *testing.T) {
	tb := compileTiny(t, 1)

	t.Run("no pipeline means 404", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Handle: store.NewHandle(tb)})
		code, _ := postObserve(t, ts.URL, driftObs(2.0, 1))
		if code != http.StatusNotFound {
			t.Fatalf("observe without a pipeline: HTTP %d, want 404", code)
		}
	})

	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{})
	_, ts := newTestServer(t, Config{Handle: h, Feedback: p})

	t.Run("GET is rejected", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/observe")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /observe: HTTP %d, want 405", resp.StatusCode)
		}
	})

	bad := []struct {
		name string
		req  ObserveRequest
	}{
		{"empty batch", ObserveRequest{}},
		{"unknown collective", ObserveRequest{Observations: []Observation{{Collective: "bcast2", Procs: 8, MsgBytes: 512, Imbalance: 1}}}},
		{"bad procs", ObserveRequest{Observations: []Observation{{Collective: "alltoall", Procs: 0, MsgBytes: 512, Imbalance: 1}}}},
		{"bad msg_bytes", ObserveRequest{Observations: []Observation{{Collective: "alltoall", Procs: 8, MsgBytes: -1, Imbalance: 1}}}},
		{"negative imbalance", ObserveRequest{Observations: []Observation{{Collective: "alltoall", Procs: 8, MsgBytes: 512, Imbalance: -0.5}}}},
		{"absurd imbalance", ObserveRequest{Observations: []Observation{{Collective: "alltoall", Procs: 8, MsgBytes: 512, Imbalance: 1e9}}}},
		{"negative count", ObserveRequest{Observations: []Observation{{Collective: "alltoall", Procs: 8, MsgBytes: 512, Imbalance: 1, Count: -2}}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := postObserve(t, ts.URL, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", code)
			}
		})
	}

	t.Run("oversized batch is rejected", func(t *testing.T) {
		req := ObserveRequest{Observations: make([]Observation, maxObserveBatch+1)}
		for i := range req.Observations {
			req.Observations[i] = Observation{Collective: "alltoall", Procs: 8, MsgBytes: 512, Imbalance: 1}
		}
		code, _ := postObserve(t, ts.URL, req)
		if code != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400", code)
		}
	})

	t.Run("valid batch is accepted", func(t *testing.T) {
		body, _ := json.Marshal(driftObs(1.5, 3))
		resp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out ObserveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || out.Accepted != 1 {
			t.Fatalf("HTTP %d accepted=%d, want 202/1", resp.StatusCode, out.Accepted)
		}
	})
}

// TestObserveRetryAfterFlag checks the /observe backpressure hint with no
// setting at all: the hint has no flag or config field, so a shed batch
// on a default-configured server carries the fixed 1-2 s Retry-After.
func TestObserveRetryAfterFlag(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{Buffer: 1})
	// Pipeline deliberately not started: the buffer never drains, so the
	// second batch must shed.
	_, ts := newTestServer(t, Config{Handle: h, Feedback: p})

	if code, _ := postObserve(t, ts.URL, driftObs(1.5, 1)); code != http.StatusAccepted {
		t.Fatalf("first batch: HTTP %d, want 202", code)
	}
	code, hdr := postObserve(t, ts.URL, driftObs(1.5, 1))
	if code != http.StatusTooManyRequests {
		t.Fatalf("second batch on a buffer of 1: HTTP %d, want 429", code)
	}
	secs, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 2 {
		t.Fatalf("shed /observe Retry-After %q, want whole seconds in [1,2]", hdr.Get("Retry-After"))
	}
}

// TestRetryJitterRange pins the /observe backpressure hint: every shed
// batch carries a Retry-After of 1 or 2 seconds, and both occur, so
// producers shed by one overload do not re-offer in the same second.
func TestRetryJitterRange(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{Buffer: 1})
	// Pipeline deliberately not started: the buffer never drains, so every
	// batch after the first sheds.
	_, ts := newTestServer(t, Config{Handle: h, Feedback: p})

	if code, _ := postObserve(t, ts.URL, driftObs(1.5, 1)); code != http.StatusAccepted {
		t.Fatalf("first batch: HTTP %d, want 202", code)
	}
	seen := map[string]int{}
	for i := 0; i < 32; i++ {
		code, hdr := postObserve(t, ts.URL, driftObs(1.5, 1))
		if code != http.StatusTooManyRequests {
			t.Fatalf("batch %d on a full buffer: HTTP %d, want 429", i, code)
		}
		ra := hdr.Get("Retry-After")
		if ra != "1" && ra != "2" {
			t.Fatalf("shed /observe Retry-After %q, want 1 or 2", ra)
		}
		seen[ra]++
	}
	if len(seen) != 2 {
		t.Fatalf("32 shed batches never varied their Retry-After: %v", seen)
	}
}

// TestChaosObserveStorm floods /observe far past the ingest buffer. The
// contract: accepted + shed == offered (no torn or lost batches), every
// shed batch is a 429 with a Retry-After hint, memory stays bounded by the
// buffer, and the /select hot path keeps answering throughout — ingestion
// pressure must never degrade serving.
func TestChaosObserveStorm(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{Buffer: 4})
	_, ts := newTestServer(t, Config{Handle: h, Feedback: p})

	// Phase 1 — deterministic backpressure: the pipeline is not started, so
	// nothing drains the buffer. Exactly Buffer batches fit; every one after
	// that must shed with 429 + Retry-After.
	accepted, shed := 0, 0
	for i := 0; i < 12; i++ {
		code, hdr := postObserve(t, ts.URL, driftObs(2.0, 1))
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if hdr.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After")
			}
		default:
			t.Fatalf("observe %d: HTTP %d", i, code)
		}
	}
	if accepted != 4 || shed != 8 {
		t.Fatalf("accepted %d / shed %d, want 4 / 8 (buffer bound)", accepted, shed)
	}

	// Phase 2 — concurrent storm against the running pipeline, with /select
	// traffic interleaved. Totals must conserve and every select answer.
	p.Start()
	const stormers, perStormer = 8, 20
	var okBatches, shedBatches int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < stormers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStormer; i++ {
				code, _ := postObserve(t, ts.URL, driftObs(2.0, 1))
				mu.Lock()
				switch code {
				case http.StatusAccepted:
					okBatches++
				case http.StatusTooManyRequests:
					shedBatches++
				default:
					mu.Unlock()
					t.Errorf("storm observe: HTTP %d", code)
					return
				}
				mu.Unlock()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perStormer; i++ {
				if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusOK {
					t.Errorf("select during observe storm: HTTP %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if okBatches+shedBatches != stormers*perStormer {
		t.Fatalf("storm lost batches: %d accepted + %d shed != %d offered", okBatches, shedBatches, stormers*perStormer)
	}

	// Everything accepted must eventually be ingested (WAL + aggregate).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.BatchesIngested != int64(accepted)+okBatches {
		t.Fatalf("ingested %d batches, want %d", st.BatchesIngested, int64(accepted)+okBatches)
	}
	if st.WAL.Records != st.RecordsIngested {
		t.Fatalf("WAL holds %d records, ingested %d", st.WAL.Records, st.RecordsIngested)
	}
}

// TestChaosObserveRecompileDuringReload interleaves the background
// recompiler with an operator /reload storm over the same handle. The
// promotion is CAS-based: a promotion racing a reload either wins cleanly
// or is dropped and re-planned (never a torn table), and once the operator
// stops, the loop converges — the serving table carries the empirical
// profile and /select answers from it.
func TestChaosObserveRecompileDuringReload(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	dir := t.TempDir()
	storePath := dir + "/table.json"
	if err := tb.Save(storePath); err != nil {
		t.Fatal(err)
	}
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{
		WALDir: dir + "/wal",
		Plan:   feedback.PlanConfig{Threshold: 0.25, MinObs: 8},
	})
	_, ts := newTestServer(t, Config{Handle: h, StorePath: storePath, Feedback: p})
	p.Start()

	// Drift far past the threshold so a recompile is planned immediately.
	if code, _ := postObserve(t, ts.URL, driftObs(2.0, 16)); code != http.StatusAccepted {
		t.Fatalf("drift batch: HTTP %d", code)
	}

	// Operator reload storm: every reload reinstalls the base artifact,
	// repeatedly yanking the recompiler's base table out from under it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
				if err != nil {
					t.Errorf("reload: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reload: HTTP %d", resp.StatusCode)
					return
				}
				// Every answer mid-race must be whole: 200, from some table.
				if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusOK {
					t.Errorf("select during reload/recompile race: HTTP %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()

	// With the operator quiet, the loop must converge: the recompiler
	// re-plans against whatever the last reload installed and promotes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := h.Table()
		if cur != nil && cur.ProfileDigest != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recompiler never promoted after the reload storm: stats %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8})
	if code != http.StatusOK || got.Source != "table" {
		t.Fatalf("post-promotion select: HTTP %d source %q", code, got.Source)
	}
	st := p.Stats()
	if st.RecompileSuccesses < 1 {
		t.Fatalf("no successful recompilation: %+v", st)
	}
	// Lost swap races are re-planned, not failed; the failure counter stays
	// clean unless something genuinely broke.
	if st.RecompileFailures != 0 {
		t.Fatalf("unexpected recompile failures during reload race: %+v", st)
	}
}

// TestChaosObserveDrainNoLeak shuts the pipeline down under live /observe
// traffic: Close drains accepted batches to the WAL, both background
// goroutines exit (leakCheck), and the endpoint degrades to 503 — not a
// hang, not a panic.
func TestChaosObserveDrainNoLeak(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	walDir := t.TempDir()
	p := newFeedbackPipeline(t, h, feedback.Config{WALDir: walDir})
	_, ts := newTestServer(t, Config{Handle: h, Feedback: p})
	p.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := postObserve(t, ts.URL, driftObs(1.2, 1))
				switch code {
				case http.StatusAccepted, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("observe during drain: HTTP %d", code)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if code, _ := postObserve(t, ts.URL, driftObs(1.2, 1)); code != http.StatusServiceUnavailable {
		t.Fatalf("observe after drain: HTTP %d, want 503", code)
	}
	// Accepted means durable: everything that got a 202 is in the WAL,
	// folded by the ingester or drained by Close (each test batch is one
	// record), and nothing is left pending.
	st := p.Stats()
	if st.PendingBatches != 0 {
		t.Fatalf("%d batches pending after Close", st.PendingBatches)
	}
	if st.WAL.Records != st.RecordsIngested+st.Drained {
		t.Fatalf("drain lost records: WAL %d, ingested %d + drained %d",
			st.WAL.Records, st.RecordsIngested, st.Drained)
	}
}

// TestObserveMetricsExposition pins the feedback /metrics section: series
// appear once a pipeline is configured and track the observe counters.
func TestObserveMetricsExposition(t *testing.T) {
	tb := compileTiny(t, 1)
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(t, h, feedback.Config{})
	_, ts := newTestServer(t, Config{Handle: h, Feedback: p})
	p.Start()

	if code, _ := postObserve(t, ts.URL, driftObs(1.5, 2)); code != http.StatusAccepted {
		t.Fatalf("observe: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"collseld_observe_batches_total 1",
		"collseld_observe_records_total 1",
		"collseld_feedback_records_ingested_total 1",
		"collseld_feedback_wal_records_total 1",
		"collseld_feedback_swaps_total 0",
		"collseld_feedback_parked 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// A server without a pipeline must not expose the feedback section.
	_, bare := newTestServer(t, Config{Handle: store.NewHandle(tb)})
	resp, err = http.Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "collseld_feedback_") {
		t.Fatalf("feedback series leaked into a pipeline-less server:\n%s", body)
	}
}

// BenchmarkObserveIngest measures the full /observe ingestion path —
// handler validation, quantization, buffered hand-off, WAL append and
// aggregate fold — in records per operation (16-record batches).
func BenchmarkObserveIngest(b *testing.B) {
	tb := compileTiny(b, 1)
	h := store.NewHandle(tb)
	p := newFeedbackPipeline(b, h, feedback.Config{
		Buffer: 1024,
		// A sky-high threshold keeps the recompiler idle: this measures
		// ingestion, not simulation.
		Plan: feedback.PlanConfig{Threshold: 500, MinObs: 1},
	})
	s, err := New(Config{Handle: h, Feedback: p})
	if err != nil {
		b.Fatal(err)
	}
	p.Start()
	handler := s.Handler()

	const batch = 16
	req := ObserveRequest{}
	for i := 0; i < batch; i++ {
		req.Observations = append(req.Observations, Observation{
			Collective: "alltoall", Procs: 8, MsgBytes: 512 + i, Imbalance: 1.0 + float64(i)/16, Count: 1,
		})
	}
	body, _ := json.Marshal(req)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			r := httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body))
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, r)
			if w.Code == http.StatusAccepted {
				break
			}
			if w.Code != http.StatusTooManyRequests {
				b.Fatalf("HTTP %d: %s", w.Code, w.Body.String())
			}
			// Buffer full: wait for the ingester to drain, then re-offer.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := p.Quiesce(ctx); err != nil {
				cancel()
				b.Fatal(err)
			}
			cancel()
		}
	}
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Quiesce(ctx); err != nil {
		b.Fatal(err)
	}
	st := p.Stats()
	if st.RecordsIngested != int64(b.N)*batch {
		b.Fatalf("ingested %d records, want %d", st.RecordsIngested, int64(b.N)*batch)
	}
	b.ReportMetric(float64(batch), "records/op")
}
