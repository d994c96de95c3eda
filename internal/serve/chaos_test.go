package serve

// The deterministic chaos harness: every failure mode the overload design
// claims to survive is injected here — hanging selections, failing
// selections, shed bursts, breaker trips and reload storms — and the
// harness asserts the externally visible contract: every query answered
// at once, zero torn responses, correct breaker transitions, refinements
// gated (never answers) and no leaked goroutines. Chaos is injected through the SelectFunc seam and a
// fake clock, never through wall-clock sleeps standing in for events, so
// the tests pass identically under -race and on slow machines.
//
// Run via `make chaos` (also part of the ordinary test suite).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"collsel/internal/coll"
	"collsel/internal/sim"
	"collsel/internal/store"
)

// leakCheck is the hand-rolled goroutine-leak detector: it snapshots the
// goroutine count before the test builds any servers and, after every
// cleanup (including httptest shutdown) has run, polls until the count
// returns to baseline or a grace period expires. Call it FIRST in the test
// so its cleanup runs LAST.
func leakCheck(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			http.DefaultClient.CloseIdleConnections()
			// Parked coroutines recycled by the simulation kernel are
			// pooled by design, not leaked; release them before counting.
			sim.DrainIdleCoros()
			if runtime.NumGoroutine() <= baseline+2 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d goroutines, baseline %d\n%s",
					runtime.NumGoroutine(), baseline, buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// fakeClock drives the breaker's open→half-open transition without real
// waiting.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// rawSelect posts a select request and returns the raw status, headers and
// body without t.Fatal-ing from a non-test goroutine.
func rawSelect(url string, req SelectRequest) (code int, header http.Header, body []byte, err error) {
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/select", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// TestChaosHangingSelectBoundedLatency injects a SelectFunc that never
// returns on its own — the worst live selection there is — and asserts
// that no answer waits on it: a burst of distinct misses much larger than
// workers+queue is answered at once from the model, every refinement
// beyond the pool and the queue is shed, the admitted ones end at the
// deadline, and no goroutine outlives the burst.
func TestChaosHangingSelectBoundedLatency(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	const deadline = time.Second
	var timedOut atomic.Int64
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, _ int) (store.Cell, error) {
			<-ctx.Done() // hang until the refinement's deadline fires
			timedOut.Add(1)
			return store.Cell{}, ctx.Err()
		},
		ColdWorkers:   2,
		ColdQueue:     4,
		SelectTimeout: deadline,
		// A hanging live selection trips the breaker by design; disarm it
		// here so this test sees pure deadline/shed behavior (breaker
		// lifecycle has its own test below).
		Breaker: BreakerConfig{Failures: 1 << 20},
	})

	const burst = 16
	type outcome struct {
		code    int
		source  string
		elapsed time.Duration
		err     error
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			// Distinct msg sizes below the table's range: every request is
			// its own cold cell, no coalescing softens the burst.
			code, _, body, err := rawSelect(ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: i + 2, Procs: 8})
			o := outcome{code: code, elapsed: time.Since(t0), err: err}
			if err == nil {
				var resp SelectResponse
				if jsonErr := json.Unmarshal(body, &resp); jsonErr != nil {
					o.err = fmt.Errorf("torn body %q: %v", body, jsonErr)
				}
				o.source = resp.Source
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.code != http.StatusOK || o.source != "model" {
			t.Fatalf("request %d: HTTP %d source %q, want 200 model", i, o.code, o.source)
		}
		// No answer waits for a hung selection's deadline.
		if o.elapsed >= deadline {
			t.Fatalf("request %d: took %v, the answer must not wait on the %v refinement deadline", i, o.elapsed, deadline)
		}
	}
	// Every refinement ends by its deadline: nothing serialized behind the
	// hung workers.
	s.WaitBackground()
	if total := time.Since(start); total > deadline+3*time.Second {
		t.Fatalf("refinements took %v in total, want ~%v", total, deadline)
	}
	if got, want := s.metrics.shed.Load(), int64(burst-2-4); got != want {
		t.Fatalf("shed %d refinements, want %d (burst beyond 2 workers and 4 queue slots)", got, want)
	}
	if timedOut.Load() == 0 {
		t.Fatal("no admitted refinement ran into its deadline")
	}
}

// TestChaosSheddingBurst pins the shed contract precisely: with one worker
// (occupied by a held refinement) and no wait queue, every further
// distinct miss is still answered at once from the model while its
// refinement is shed and counted, and the held refinement lands
// afterwards, untouched by the shedding.
func TestChaosSheddingBurst(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, msgBytes int) (store.Cell, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-gate
			return store.Cell{MsgBytes: msgBytes, Winner: store.AlgoRef{ID: 3, Name: "bruck"}, Score: 1}, nil
		},
		ColdWorkers: 1,
		ColdQueue:   -1, // no waiting at all: shed the moment the worker is busy
	})

	// Occupy the only worker with the first miss's refinement.
	if got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 2, Procs: 8}); code != http.StatusOK || got.Source != "model" {
		t.Fatalf("occupying miss: HTTP %d source %q, want 200 model", code, got.Source)
	}
	<-entered

	// Every further distinct miss is answered; its refinement is shed.
	const extra = 5
	for i := 0; i < extra; i++ {
		got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 10 + i, Procs: 8})
		if code != http.StatusOK || got.Source != "model" {
			t.Fatalf("miss %d: HTTP %d source %q, want 200 model", i, code, got.Source)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.metrics.shed.Load() < extra && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := s.metrics.shed.Load(); got != extra {
		t.Fatalf("shed counter %d, want %d", got, extra)
	}

	// Release the worker; its refinement lands untouched by the shedding.
	close(gate)
	s.WaitBackground()
	if n := s.metrics.coldComputes.Load(); n != 1 {
		t.Fatalf("%d live selections, want only the occupying one", n)
	}
	got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 2, Procs: 8})
	if code != http.StatusOK || got.Source != "table" || got.Algorithm.Name != "bruck" {
		t.Fatalf("occupying cell after release: HTTP %d source %q alg %q, want the refined table cell", code, got.Source, got.Algorithm.Name)
	}
}

// TestChaosBreakerLifecycle walks the full breaker state machine on a fake
// clock: consecutive refinement failures trip it open (/healthz reports
// degraded, and every miss is still answered — from the model, or from the
// nearest compiled cell where the model cannot answer — while no
// refinement runs), the cooldown admits exactly one half-open probe, a
// failed probe re-opens, and a successful probe closes the breaker,
// restores healthy and lands its cell.
func TestChaosBreakerLifecycle(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	var fail atomic.Bool
	var calls atomic.Int64
	fail.Store(true)
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, msgBytes int) (store.Cell, error) {
			calls.Add(1)
			if fail.Load() {
				return store.Cell{}, fmt.Errorf("injected cold failure")
			}
			return store.Cell{MsgBytes: msgBytes, Winner: store.AlgoRef{ID: 7, Name: "probe-ok"}, Score: 1}, nil
		},
		Breaker:         BreakerConfig{Failures: 3, OpenFor: 10 * time.Second},
		NegativeRetries: -1, // isolate the breaker from negative caching
	})
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.breaker = newBreaker(s.cfg.Breaker, clk.now)

	healthz := func() HealthResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// miss asks for an uncovered cell, which must be answered at once,
	// then waits for the refinement it may have started.
	miss := func(msgBytes, procs int, source string) SelectResponse {
		t.Helper()
		got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: msgBytes, Procs: procs})
		if code != http.StatusOK || got.Source != source || got.Exact {
			t.Fatalf("miss %d B %d procs: HTTP %d source %q exact %v, want 200 %s", msgBytes, procs, code, got.Source, got.Exact, source)
		}
		s.WaitBackground()
		return got
	}

	// Three consecutive failed refinements (distinct cells) trip the
	// breaker; each query is answered from the model all the same.
	for i := 0; i < 3; i++ {
		miss(2+i, 8, "model")
	}
	if st, opens := s.breaker.snapshot(); st != breakerOpen || opens != 1 {
		t.Fatalf("after 3 failures: state=%s opens=%d", breakerStateName(st), opens)
	}
	if h := healthz(); h.Status != HealthDegraded || h.Breaker != "open" {
		t.Fatalf("healthz while open: %+v", h)
	}

	// Open breaker: misses are still answered, and no refinement runs.
	miss(5, 8, "model")
	got := miss(5, 2048, "nearest") // more procs than the machine: the model refuses
	if got.AnsweredProcs != 8 || got.AnsweredMsgBytes != 512 {
		t.Fatalf("nearest answer coordinates: %+v", got)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d live selections, want 3: an open breaker must refuse refinements", n)
	}

	// Cooldown elapses; the next refinement is the half-open probe, and it
	// fails, so the breaker re-opens.
	clk.advance(11 * time.Second)
	miss(6, 8, "model")
	if st, opens := s.breaker.snapshot(); st != breakerOpen || opens != 2 {
		t.Fatalf("after failed probe: state=%s opens=%d", breakerStateName(st), opens)
	}

	// Second cooldown; the live selection has recovered, the probe
	// succeeds, the breaker closes and the probe's cell lands.
	fail.Store(false)
	clk.advance(11 * time.Second)
	miss(7, 8, "model")
	if st, _ := s.breaker.snapshot(); st != breakerClosed {
		t.Fatalf("after successful probe: state=%s", breakerStateName(st))
	}
	if h := healthz(); h.Status != HealthHealthy || h.Breaker != "closed" {
		t.Fatalf("healthz after recovery: %+v", h)
	}
	got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 7, Procs: 8})
	if code != http.StatusOK || got.Source != "table" || got.Algorithm.Name != "probe-ok" {
		t.Fatalf("probe cell: code=%d %+v", code, got)
	}
}

// TestBreakerSingleProbe pins the half-open contract at the unit level:
// while one probe is in flight every other caller is refused, only the
// probe's outcome moves the state machine, and refusing agrees with allow
// without granting the probe itself.
func TestBreakerSingleProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Failures: 1, OpenFor: time.Second}, clk.now)
	b.record(0, fmt.Errorf("boom")) // trips immediately (Failures: 1)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state %s, want open", breakerStateName(st))
	}
	if !b.refusing() || b.allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	clk.advance(2 * time.Second)
	if b.refusing() {
		t.Fatal("cooled-down breaker reports refusing before its probe")
	}
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	for i := 0; i < 3; i++ {
		if !b.refusing() || b.allow() {
			t.Fatal("second caller admitted while probe in flight")
		}
	}
	b.record(0, nil) // probe succeeds
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after probe success: %s", breakerStateName(st))
	}
	if b.refusing() || !b.allow() {
		t.Fatal("closed breaker refused a call")
	}
}

// TestChaosSlowCallTripsBreaker verifies the slow-call policy: selections
// that succeed but blow the latency budget count as failures.
func TestChaosSlowCallTripsBreaker(t *testing.T) {
	b := newBreaker(BreakerConfig{Failures: 2, OpenFor: time.Second, SlowCall: 100 * time.Millisecond}, (&fakeClock{}).now)
	b.record(200*time.Millisecond, nil) // slow success
	b.record(150*time.Millisecond, nil) // slow success
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("two slow calls left the breaker %s, want open", breakerStateName(st))
	}
}

// TestNegativeColdCaching pins the negative-cache contract: a cell whose
// refinement keeps failing is refined NegativeRetries more times, then its
// remembered failure suppresses the refinement — but never the answer:
// every query is a 200 from the model. A retry that succeeds forgets the
// failure and promotes the refined cell into the table.
func TestNegativeColdCaching(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	var computes atomic.Int64
	var fail atomic.Bool
	fail.Store(true)
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, msgBytes int) (store.Cell, error) {
			computes.Add(1)
			if fail.Load() {
				return store.Cell{}, fmt.Errorf("structurally unservable")
			}
			return store.Cell{MsgBytes: msgBytes, Winner: store.AlgoRef{ID: 5, Name: "recovered"}, Score: 1}, nil
		},
		NegativeRetries: 2,
		// Keep the breaker out of the way: this test is about the cache.
		Breaker: BreakerConfig{Failures: 1 << 20},
	})
	miss := func(req SelectRequest) {
		t.Helper()
		if got, code := postSelect(t, ts.URL, req); code != http.StatusOK || got.Source != "model" {
			t.Fatalf("miss %+v: HTTP %d source %q, want 200 model", req, code, got.Source)
		}
		s.WaitBackground()
	}

	req := SelectRequest{Collective: "alltoall", MsgBytes: 2, Procs: 8}
	// The first failure is remembered; the retry budget (2) grants two
	// more refinements; after that the remembered failure suppresses them.
	for i := 0; i < 3; i++ {
		miss(req)
	}
	if n := computes.Load(); n != 3 {
		t.Fatalf("computes %d, want 3 (initial + 2 retries)", n)
	}
	for i := 0; i < 4; i++ {
		miss(req)
	}
	if n := computes.Load(); n != 3 {
		t.Fatalf("remembered failures refined again: %d computes, want 3", n)
	}
	if s.metrics.negativeHits.Load() != 4 {
		t.Fatalf("negativeHits %d, want 4", s.metrics.negativeHits.Load())
	}

	// A fresh cell whose retry succeeds: the refined cell replaces the
	// remembered failure and later requests are exact table hits.
	req2 := SelectRequest{Collective: "alltoall", MsgBytes: 3, Procs: 8}
	miss(req2)
	fail.Store(false)
	miss(req2)
	got, code := postSelect(t, ts.URL, req2)
	if code != http.StatusOK || got.Source != "table" || !got.Exact || got.Algorithm.Name != "recovered" {
		t.Fatalf("post-recovery table hit: code=%d %+v", code, got)
	}
}

// TestChaosReloadStormWithColdChurn hammers hot and cold queries while the
// artifact on disk is alternated and reloaded, and refined cold cells are
// promoted into whichever table is serving. The invariants: every query
// is a 200, no response is torn (each names one table the run can install
// — a base artifact plus some of the promoted cells — and answers exactly
// as that table or the model under its provenance does), and the swap
// counter accounts for every install: the reloads plus the promotions.
func TestChaosReloadStormWithColdChurn(t *testing.T) {
	leakCheck(t)
	tbA := compileTiny(t, 1)
	tbB := compileTiny(t, 99)
	if tbA.Version == tbB.Version {
		t.Fatal("test tables have identical versions")
	}
	coldCell := func(msgBytes int) store.Cell {
		return store.Cell{MsgBytes: msgBytes, Winner: store.AlgoRef{ID: 3, Name: "bruck"}, Score: 1}
	}
	// Every table the run can install: either artifact plus any subset of
	// the seven cold cells, by version.
	installable := map[string]*store.Table{}
	for _, base := range []*store.Table{tbA, tbB} {
		reach := []*store.Table{base}
		for size := 2; size <= 8; size++ {
			for _, tb := range reach {
				nt, err := store.WithCell(tb, coll.Alltoall, 8, coldCell(size))
				if err != nil {
					t.Fatal(err)
				}
				reach = append(reach, nt)
			}
		}
		for _, tb := range reach {
			installable[tb.Version] = tb
		}
	}
	if len(installable) != 2<<7 {
		t.Fatalf("%d installable tables, want %d", len(installable), 2<<7)
	}

	path := filepath.Join(t.TempDir(), "table.json")
	if err := tbA.Save(path); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Handle:    store.NewHandle(tbA),
		StorePath: path,
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, msgBytes int) (store.Cell, error) {
			return coldCell(msgBytes), nil
		},
		ColdWorkers:   2,
		ColdQueue:     8,
		SelectTimeout: time.Second,
	})

	stop := make(chan struct{})
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mix hot table hits with a rotating set of cold cells.
				req := SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}
				if i%3 == 0 {
					req.MsgBytes = 2 + (i/3)%7
				}
				code, _, body, err := rawSelect(ts.URL, req)
				if err != nil {
					report("reader %d: %v", r, err)
					return
				}
				if code != http.StatusOK {
					report("reader %d: HTTP %d", r, code)
					return
				}
				var resp SelectResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					report("reader %d: torn 200 body %q: %v", r, body, err)
					return
				}
				tb, ok := installable[resp.TableVersion]
				if !ok {
					report("reader %d: unknown table version %q", r, resp.TableVersion)
					return
				}
				var want store.Cell
				exact := false
				switch resp.Source {
				case "table":
					lk, ok := tb.Get(coll.Alltoall, 8, req.MsgBytes)
					if !ok {
						report("reader %d: table %s answered %d B, which it does not cover", r, resp.TableVersion, req.MsgBytes)
						return
					}
					want, exact = lk.Cell, lk.Exact
				case "model":
					want, _ = s.modelAnswer(tb, coll.Alltoall, 8, req.MsgBytes)
				default:
					report("reader %d: source %q", r, resp.Source)
					return
				}
				if resp.Algorithm != want.Winner || resp.Exact != exact {
					report("reader %d: torn response: version %s %s answered %+v exact=%v, want %+v exact=%v",
						r, resp.TableVersion, resp.Source, resp.Algorithm, resp.Exact, want.Winner, exact)
					return
				}
			}
		}(r)
	}

	for i := 0; i < 10; i++ {
		tb := tbB
		if i%2 == 1 {
			tb = tbA
		}
		if err := tb.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reload(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s.WaitBackground()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	promotions := s.metrics.promotions.Load()
	if promotions == 0 {
		t.Fatal("no cold cell was promoted during the storm")
	}
	if got := s.handle.Swaps(); got != 11+promotions {
		t.Fatalf("swaps %d, want 11 (initial install and reloads) + %d promotions", got, promotions)
	}
	if _, ok := installable[s.handle.Table().Version]; !ok {
		t.Fatalf("final table %s is not installable", s.handle.Table().Version)
	}
}

// TestDrainStateMachine pins the draining leg of the health machine:
// StartDrain latches, /healthz flips to 503/draining so balancers stop
// routing here, while /select keeps answering stragglers.
func TestDrainStateMachine(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	s, ts := newTestServer(t, Config{Handle: store.NewHandle(tb)})

	s.StartDrain()
	s.StartDrain() // idempotent
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != HealthDraining || !h.Draining {
		t.Fatalf("healthz while draining: %d %+v", resp.StatusCode, h)
	}
	// Stragglers are still answered during the drain window.
	if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}); code != http.StatusOK {
		t.Fatalf("select while draining: HTTP %d, want 200", code)
	}
}
