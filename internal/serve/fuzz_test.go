package serve

// Fuzzers for every externally reachable JSON surface: /select, /observe
// and /peer/cell. The property under test is uniform: arbitrary bytes —
// malformed JSON, oversized bodies, NaN/Inf/negative numerics — must
// never panic the server and must come back as a well-formed status from
// the endpoint's documented set, with a JSON error body on 4xx. Run via
// `make fuzz`; the corpora double as regression tests under plain
// `go test`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"collsel/internal/feedback"
	"collsel/internal/store"
)

// fuzzPost posts raw bytes and asserts the uniform fuzz contract:
// allowed status, JSON error body on 4xx.
func fuzzPost(t *testing.T, url string, body []byte, allowed ...int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("transport error (server crashed?): %v", err)
	}
	defer resp.Body.Close()
	ok := false
	for _, a := range allowed {
		if resp.StatusCode == a {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("input %q: HTTP %d, allowed %v", body, resp.StatusCode, allowed)
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		var parsed map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil || parsed["error"] == "" {
			t.Fatalf("input %q: %d without a well-formed JSON error body (%v)", body, resp.StatusCode, err)
		}
	}
}

func FuzzSelectRequest(f *testing.F) {
	tb := compileTiny(f, 1)
	s, err := New(Config{Handle: store.NewHandle(tb), ColdDisabled: true})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)

	f.Add([]byte(`{"collective":"alltoall","msg_bytes":512,"procs":8}`))
	f.Add([]byte(`{"collective":"alltoall","msg_bytes":-1,"procs":8}`))
	f.Add([]byte(`{"collective":"","msg_bytes":512,"procs":0}`))
	f.Add([]byte(`{"collective":"alltoall","msg_bytes":1e999,"procs":8}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"collective":"alltoall","msg_bytes":null,"procs":null}`))
	f.Add(bytes.Repeat([]byte(`{"collective":"alltoall",`), 2048))
	f.Fuzz(func(t *testing.T, body []byte) {
		// Well-formed queries answer 200 (table, model or nearest cell);
		// everything else is a 400 (malformed) or a 404 (a collective the
		// table holds no cell for, beyond the model's reach). The
		// contract's 503 means no table is loaded, which never holds here:
		// never a 5xx, never a panic.
		fuzzPost(t, ts.URL+"/select", body, http.StatusOK, http.StatusBadRequest, http.StatusNotFound)
	})
}

func FuzzObserveBatch(f *testing.F) {
	tb := compileTiny(f, 1)
	h := store.NewHandle(tb)
	// Not started: the ingest buffer backpressures deterministically, so
	// the fuzzer also exercises the 429 shed path once the buffer fills.
	pipe := newFeedbackPipeline(f, h, feedback.Config{WALDir: filepath.Join(f.TempDir(), "wal")})
	s, err := New(Config{Handle: h, ColdDisabled: true, Feedback: pipe})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)

	f.Add([]byte(`{"observations":[{"collective":"alltoall","procs":8,"msg_bytes":512,"imbalance":1.5}]}`))
	f.Add([]byte(`{"observations":[{"collective":"alltoall","procs":8,"msg_bytes":512,"imbalance":-3}]}`))
	f.Add([]byte(`{"observations":[{"collective":"alltoall","procs":8,"msg_bytes":512,"imbalance":1e999}]}`))
	f.Add([]byte(`{"observations":[{"collective":"x","procs":-8,"msg_bytes":0,"count":-1}]}`))
	f.Add([]byte(`{"observations":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(fmt.Sprintf(`{"observations":[%s{}]}`, strings.Repeat(`{},`, 5000))))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, ts.URL+"/observe", body,
			http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests)
	})
}

func FuzzPeerCell(f *testing.F) {
	reps := newServeCluster(f, 1, false, nil, nil)
	url := reps[0].ts.URL
	tb := reps[0].s.TableSnapshot()

	good, _ := json.Marshal(PeerCellMsg{
		Machine:             tb.Machine,
		PlatformFingerprint: tb.PlatformFingerprint,
		Collective:          "alltoall",
		Procs:               8,
		Cell:                store.Cell{MsgBytes: 4096, Winner: store.AlgoRef{ID: 2, Name: "pairwise"}, Score: 1, Conventional: store.AlgoRef{ID: 1, Name: "basic_linear"}},
	})
	f.Add(good)
	f.Add([]byte(`{"machine":"SimCluster","collective":"alltoall","procs":-1,"cell":{"msg_bytes":64}}`))
	f.Add([]byte(`{"cell":{"msg_bytes":64,"winner":{"name":"pairwise"},"score":-1}}`))
	f.Add([]byte(`{"cell":{"score":1e999}}`))
	f.Add([]byte(`]]]`))
	f.Add(bytes.Repeat([]byte(`{"machine":"aaaaaaaa",`), 8192))
	f.Fuzz(func(t *testing.T, body []byte) {
		// 200 promoted/ignored, 400 malformed, 409 provenance
		// mismatch, 413 oversized — never a panic, never a 5xx.
		fuzzPost(t, url+"/peer/cell", body,
			http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge)
	})
}
