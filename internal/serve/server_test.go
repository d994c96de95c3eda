package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"collsel"
	"collsel/internal/coll"
	"collsel/internal/netmodel"
	"collsel/internal/store"
)

// compileTiny compiles the test table: Alltoall on SimCluster, 8 procs,
// two message sizes. SimCluster is noiseless, so every selection is fully
// deterministic with one repetition.
func compileTiny(t testing.TB, seed int64) *store.Table {
	t.Helper()
	tb, err := store.Compile(context.Background(), store.CompileConfig{
		Platform:    netmodel.SimCluster(),
		Collectives: []coll.Collective{coll.Alltoall},
		ProcsList:   []int{8},
		Sizes:       []int{512, 8192},
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSelect(t testing.TB, url string, req SelectRequest) (SelectResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/select", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SelectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return out, resp.StatusCode
}

// TestSelectGoldenAgainstSelectCtx is the golden equivalence test: answers
// for cells present in the artifact — and for cells the background
// refinement promoted into it — must be bit-identical to a direct
// collsel.SelectCtx with the table's seed/factor/faults.
func TestSelectGoldenAgainstSelectCtx(t *testing.T) {
	tb := compileTiny(t, 1)
	s, ts := newTestServer(t, Config{Handle: store.NewHandle(tb)})

	direct := func(msgBytes int) *collsel.Selection {
		sel, err := collsel.SelectCtx(context.Background(), collsel.SelectConfig{
			Machine:    collsel.SimCluster(),
			Collective: collsel.Alltoall,
			MsgBytes:   msgBytes,
			Procs:      8,
			Seed:       tb.Seed,
			Factor:     tb.Factor,
			Faults:     tb.Faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}

	// Compiled cell: answered from the table.
	got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8})
	if code != http.StatusOK {
		t.Fatalf("compiled cell: HTTP %d", code)
	}
	want := direct(512)
	if got.Source != "table" || !got.Exact {
		t.Fatalf("compiled cell served as %s/exact=%v", got.Source, got.Exact)
	}
	if got.Algorithm.Name != want.Recommended.Name || got.Algorithm.ID != want.Recommended.ID {
		t.Fatalf("table answer %+v, direct SelectCtx %s", got.Algorithm, want.Recommended.Name)
	}
	if got.Score != want.Ranking[0].Score {
		t.Fatalf("table score %v, direct %v", got.Score, want.Ranking[0].Score)
	}
	if got.Conventional.Name != want.ConventionalChoice.Name {
		t.Fatalf("table conventional %s, direct %s", got.Conventional.Name, want.ConventionalChoice.Name)
	}
	if got.TableVersion != tb.Version {
		t.Fatalf("answered by table %s, want %s", got.TableVersion, tb.Version)
	}

	// Binned query: same cell, marked inexact.
	binned, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 600, Procs: 8})
	if code != http.StatusOK || binned.Exact || binned.Algorithm != got.Algorithm {
		t.Fatalf("binned query: code=%d exact=%v alg=%+v", code, binned.Exact, binned.Algorithm)
	}

	// Cold cell (below the table's size range): answered by the model at
	// once, then refined in the background into the table, where it is
	// bit-identical to direct selection.
	cold, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 128, Procs: 8})
	if code != http.StatusOK || cold.Source != "model" || cold.Exact {
		t.Fatalf("cold cell: HTTP %d served as %s/exact=%v, want 200 model", code, cold.Source, cold.Exact)
	}
	s.WaitBackground()
	wantCold := direct(128)
	cached, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 128, Procs: 8})
	if code != http.StatusOK || cached.Source != "table" || !cached.Exact {
		t.Fatalf("cold repeat: code=%d source=%s exact=%v", code, cached.Source, cached.Exact)
	}
	if cached.Algorithm.Name != wantCold.Recommended.Name || cached.Score != wantCold.Ranking[0].Score {
		t.Fatalf("refined answer %+v score %v, direct %s score %v",
			cached.Algorithm, cached.Score, wantCold.Recommended.Name, wantCold.Ranking[0].Score)
	}
}

func TestSelectValidationAndNoTable(t *testing.T) {
	_, ts := newTestServer(t, Config{Handle: store.NewHandle(nil)})
	if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusServiceUnavailable {
		t.Fatalf("no table: HTTP %d, want 503", code)
	}

	tb := compileTiny(t, 1)
	_, ts2 := newTestServer(t, Config{Handle: store.NewHandle(tb), ColdDisabled: true})
	for _, bad := range []SelectRequest{
		{Collective: "", MsgBytes: 512, Procs: 8},
		{Collective: "alltoall", MsgBytes: 0, Procs: 8},
		{Collective: "alltoall", MsgBytes: 512, Procs: -1},
		{Collective: "nope", MsgBytes: 512, Procs: 8},
	} {
		if _, code := postSelect(t, ts2.URL, bad); code != http.StatusBadRequest {
			t.Errorf("bad request %+v: HTTP %d, want 400", bad, code)
		}
	}
	// A collective the table holds no cell for, at a size the model
	// cannot answer (more procs than the machine has): 404, not 500.
	if _, code := postSelect(t, ts2.URL, SelectRequest{Collective: "bcast", MsgBytes: 128, Procs: 2048}); code != http.StatusNotFound {
		t.Fatalf("nothing to answer from: HTTP %d, want 404", code)
	}
	// GET with query parameters works too.
	resp, err := http.Get(ts2.URL + "/select?collective=alltoall&msg_bytes=512&procs=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET select: HTTP %d", resp.StatusCode)
	}
}

// TestColdCoalescing fires a burst of identical cold queries while the
// first one's refinement is held open, and asserts every query got the
// same model answer at once, the live selection ran once, and its cell
// then answers from the table.
func TestColdCoalescing(t *testing.T) {
	tb := compileTiny(t, 1)
	var computes atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, t *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, error) {
			computes.Add(1)
			<-release // hold the flight open until the whole burst queued up
			return store.Cell{MsgBytes: msgBytes, Winner: store.AlgoRef{ID: 3, Name: "bruck"}, Score: 1}, nil
		},
	})

	const burst = 8
	var wg sync.WaitGroup
	answers := make([]SelectResponse, burst)
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], codes[i] = postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 100, Procs: 8})
		}(i)
	}
	// Every answer arrives while the refinement is still held open.
	wg.Wait()
	for i := range answers {
		if codes[i] != http.StatusOK || answers[i].Source != "model" || answers[i].Algorithm != answers[0].Algorithm {
			t.Fatalf("request %d: code=%d source=%s answer=%+v", i, codes[i], answers[i].Source, answers[i].Algorithm)
		}
	}
	close(release)
	s.WaitBackground()

	if n := computes.Load(); n != 1 {
		t.Fatalf("cold selection ran %d times for one key", n)
	}
	got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 100, Procs: 8})
	if code != http.StatusOK || got.Source != "table" || got.Algorithm.Name != "bruck" {
		t.Fatalf("after the refinement: code=%d source=%s answer=%+v, want the refined table cell", code, got.Source, got.Algorithm)
	}
}

// TestReloadHotSwapUnderLoad hammers /select while the artifact on disk is
// swapped and /reload fires; every response must be HTTP 200 and
// internally consistent with exactly one of the two table versions.
func TestReloadHotSwapUnderLoad(t *testing.T) {
	tbA := compileTiny(t, 1)
	tbB := compileTiny(t, 99) // different seed -> different content/version
	if tbA.Version == tbB.Version {
		t.Fatal("test tables have identical versions")
	}
	winners := map[string]store.AlgoRef{}
	for _, tb := range []*store.Table{tbA, tbB} {
		lk, ok := tb.Get(coll.Alltoall, 8, 512)
		if !ok {
			t.Fatal("compiled cell missing")
		}
		winners[tb.Version] = lk.Cell.Winner
	}

	path := filepath.Join(t.TempDir(), "table.json")
	if err := tbA.Save(path); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Handle: store.NewHandle(tbA), StorePath: path})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8})
				if code != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("HTTP %d during reload", code):
					default:
					}
					return
				}
				want, ok := winners[got.TableVersion]
				if !ok {
					select {
					case errs <- fmt.Sprintf("torn response: unknown table version %q", got.TableVersion):
					default:
					}
					return
				}
				if got.Algorithm != want {
					select {
					case errs <- fmt.Sprintf("torn response: version %s answered %+v, want %+v", got.TableVersion, got.Algorithm, want):
					default:
					}
					return
				}
			}
		}()
	}

	// Alternate the artifact on disk and reload, under load.
	for i := 0; i < 10; i++ {
		tb := tbB
		if i%2 == 1 {
			tb = tbA
		}
		if err := tb.Save(path); err != nil {
			t.Fatal(err)
		}
		rr, err := s.Reload()
		if err != nil {
			t.Fatal(err)
		}
		if rr.NewVersion != tb.Version {
			t.Fatalf("reload installed %s, want %s", rr.NewVersion, tb.Version)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if s.handle.Swaps() != 11 { // initial install + 10 reloads
		t.Fatalf("swaps %d, want 11", s.handle.Swaps())
	}

	// A broken artifact does not displace the live table: the reload
	// recovers the retained last-known-good copy (the previous save).
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	rr, err := s.Reload()
	if err != nil {
		t.Fatalf("reload with corrupt primary and good backup: %v", err)
	}
	if !rr.UsedBackup || rr.NewVersion != tbB.Version {
		t.Fatalf("corrupt-primary reload: used_backup=%v version=%s, want backup %s", rr.UsedBackup, rr.NewVersion, tbB.Version)
	}
	if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusOK {
		t.Fatalf("service down after fallback reload: HTTP %d", code)
	}

	// With the backup gone too, the reload fails and the live table stays.
	if err := os.Remove(store.BackupPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload accepted a corrupt artifact with no backup")
	}
	if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusOK {
		t.Fatalf("service down after failed reload: HTTP %d", code)
	}
}

func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("{broken"), 0o644)
}

func TestHealthzAndMetrics(t *testing.T) {
	tb := compileTiny(t, 1)
	_, ts := newTestServer(t, Config{Handle: store.NewHandle(tb)})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != HealthHealthy {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
	if health.TableVersion != tb.Version || health.TableCells != tb.Cells() || health.Machine != "SimCluster" {
		t.Fatalf("healthz table info: %+v", health)
	}

	// Generate one hit, then scrape.
	if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusOK {
		t.Fatalf("select: HTTP %d", code)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"collseld_table_hits_total 1",
		"collseld_requests_total{endpoint=\"select\",code=\"200\"} 1",
		"collseld_select_latency_seconds_count 1",
		fmt.Sprintf("collseld_table_info{version=%q} 1", tb.Version),
		"collseld_table_cells 2",
		"collseld_table_swaps_total 1",
		"collseld_shed_total 0",
		"collseld_cold_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestHotColdSpeedup is the acceptance check behind the serving design: a
// hot table lookup must be at least 100x faster than the cold selection it
// replaces. The real gap is many orders of magnitude (a map/binary-search
// read vs. a full simulation grid), so the threshold is conservative.
func TestHotColdSpeedup(t *testing.T) {
	tb := compileTiny(t, 1)

	coldStart := time.Now()
	if _, err := Fallback(context.Background(), tb, coll.Alltoall, 8, 700); err != nil {
		t.Fatal(err)
	}
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	const hotIters = 10000
	hotStart := time.Now()
	for i := 0; i < hotIters; i++ {
		if _, ok := tb.Get(coll.Alltoall, 8, 512); !ok {
			t.Fatal("hot lookup missed")
		}
	}
	hotNs := float64(time.Since(hotStart).Nanoseconds()) / hotIters

	if coldNs < 100*hotNs {
		t.Fatalf("hot lookup only %.0fx faster than cold selection (hot %.0f ns, cold %.0f ns)",
			coldNs/hotNs, hotNs, coldNs)
	}
	t.Logf("hot %.0f ns vs cold %.0f ns: %.0fx", hotNs, coldNs, coldNs/hotNs)
}
