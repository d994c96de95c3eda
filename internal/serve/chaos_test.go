package serve

// The deterministic chaos harness: every failure mode the overload design
// claims to survive is injected here — hanging selections, failing
// selections, shed bursts, breaker trips and reload storms — and the
// harness asserts the externally visible contract: bounded latency, zero
// torn responses, correct status codes, correct breaker transitions and no
// leaked goroutines. Chaos is injected through the SelectFunc seam and a
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
// returns on its own — the worst cold path there is — and asserts the
// deadline and the shed queue together keep every response bounded: a
// burst much larger than workers+queue must fully resolve in roughly one
// deadline (the p99 bound), every answer must be a well-formed 503
// (deadline) or 429 (shed) carrying Retry-After, and no goroutine may
// outlive the burst.
func TestChaosHangingSelectBoundedLatency(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	const deadline = 150 * time.Millisecond
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, _ int) (store.Cell, error) {
			<-ctx.Done() // hang until the per-request deadline fires
			return store.Cell{}, ctx.Err()
		},
		ColdWorkers:   2,
		ColdQueue:     4,
		SelectTimeout: deadline,
		// A hanging cold path trips the breaker by design; disarm it here so
		// this test sees pure deadline/shed behavior (breaker lifecycle has
		// its own test below).
		Breaker: BreakerConfig{Failures: 1 << 20},
	})

	const burst = 16
	type outcome struct {
		code       int
		retryAfter string
		elapsed    time.Duration
		err        error
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
			code, hdr, body, err := rawSelect(ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: i + 2, Procs: 8})
			o := outcome{code: code, elapsed: time.Since(t0), err: err}
			if err == nil {
				o.retryAfter = hdr.Get("Retry-After")
				var parsed map[string]string
				if jsonErr := json.Unmarshal(body, &parsed); jsonErr != nil || parsed["error"] == "" {
					o.err = fmt.Errorf("torn error body %q: %v", body, jsonErr)
				}
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()
	total := time.Since(start)

	var shed, timedOut int
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		switch o.code {
		case http.StatusServiceUnavailable:
			timedOut++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d: HTTP %d, want 503 or 429", i, o.code)
		}
		if o.retryAfter == "" {
			t.Fatalf("request %d: %d response without Retry-After", i, o.code)
		}
		// Per-request bound: deadline plus generous scheduling slack. The
		// hanging selection itself would block forever without it.
		if o.elapsed > deadline+2*time.Second {
			t.Fatalf("request %d: took %v, deadline is %v", i, o.elapsed, deadline)
		}
	}
	if shed == 0 || timedOut == 0 {
		t.Fatalf("burst saw %d shed / %d timed out; want both behaviors", shed, timedOut)
	}
	// The whole burst resolves in ~one deadline: nothing serialized behind
	// the hung workers.
	if total > deadline+3*time.Second {
		t.Fatalf("burst took %v total, want ~%v", total, deadline)
	}
	if s.metrics.shed.Load() == 0 || s.metrics.deadlineExceeded.Load() == 0 {
		t.Fatalf("metrics: shed=%d deadline=%d, want both nonzero",
			s.metrics.shed.Load(), s.metrics.deadlineExceeded.Load())
	}
}

// TestChaosSheddingBurst pins the shed contract precisely: with one worker
// (occupied) and no wait queue, every further cold request is refused
// immediately with a well-formed 429 + Retry-After, and the occupied
// worker's request still completes normally afterwards.
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

	// Occupy the only worker.
	firstDone := make(chan outcomePair, 1)
	go func() {
		code, _, body, err := rawSelect(ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 2, Procs: 8})
		firstDone <- outcomePair{code, body, err}
	}()
	<-entered

	// Every further distinct cold query must shed, well-formed.
	for i := 0; i < 5; i++ {
		code, hdr, body, err := rawSelect(ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 10 + i, Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("shed request %d: HTTP %d, want 429", i, code)
		}
		// The hint is jittered over [base, 2*base] with base = 1s.
		if ra := hdr.Get("Retry-After"); ra != "1" && ra != "2" {
			t.Fatalf("shed request %d: Retry-After %q, want 1 or 2 (jittered)", i, ra)
		}
		var parsed map[string]string
		if err := json.Unmarshal(body, &parsed); err != nil || parsed["error"] == "" {
			t.Fatalf("shed request %d: malformed 429 body %q: %v", i, body, err)
		}
	}
	if got := s.metrics.shed.Load(); got != 5 {
		t.Fatalf("shed counter %d, want 5", got)
	}

	// Release the worker; its request completes untouched by the shedding.
	close(gate)
	first := <-firstDone
	if first.err != nil || first.code != http.StatusOK {
		t.Fatalf("occupying request: code=%d err=%v", first.code, first.err)
	}
	var resp SelectResponse
	if err := json.Unmarshal(first.body, &resp); err != nil || resp.Algorithm.Name != "bruck" {
		t.Fatalf("occupying request answer: %q (%v)", first.body, err)
	}
}

type outcomePair struct {
	code int
	body []byte
	err  error
}

// TestChaosBreakerLifecycle walks the full breaker state machine on a fake
// clock: consecutive failures trip it open (requests then get the nearest
// covered cell, marked "nearest-degraded", and /healthz reports degraded),
// the cooldown admits exactly one half-open probe, a failed probe re-opens,
// and a successful probe closes the breaker and restores healthy.
func TestChaosBreakerLifecycle(t *testing.T) {
	leakCheck(t)
	tb := compileTiny(t, 1)
	var fail atomic.Bool
	fail.Store(true)
	s, ts := newTestServer(t, Config{
		Handle: store.NewHandle(tb),
		Cold: func(ctx context.Context, _ *store.Table, _ coll.Collective, _, msgBytes int) (store.Cell, error) {
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

	// Three consecutive failures (distinct cold cells) trip the breaker.
	for i := 0; i < 3; i++ {
		if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 2 + i, Procs: 8}); code != http.StatusInternalServerError {
			t.Fatalf("failure %d: HTTP %d, want 500", i, code)
		}
	}
	if st, opens := s.breaker.snapshot(); st != breakerOpen || opens != 1 {
		t.Fatalf("after 3 failures: state=%s opens=%d", breakerStateName(st), opens)
	}
	if h := healthz(); h.Status != HealthDegraded || h.Breaker != "open" {
		t.Fatalf("healthz while open: %+v", h)
	}

	// Open breaker: live selection refused, nearest covered cell answers.
	got, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 5, Procs: 8})
	if code != http.StatusOK || got.Source != "nearest-degraded" {
		t.Fatalf("degraded answer: code=%d source=%s", code, got.Source)
	}
	if got.AnsweredProcs != 8 || got.AnsweredMsgBytes != 512 || got.Exact {
		t.Fatalf("degraded answer coordinates: %+v", got)
	}
	if s.metrics.degradedAnswers.Load() != 1 {
		t.Fatalf("degradedAnswers %d, want 1", s.metrics.degradedAnswers.Load())
	}

	// Cooldown elapses; the half-open probe runs — and fails — so the
	// breaker re-opens.
	clk.advance(11 * time.Second)
	if _, code := postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 6, Procs: 8}); code != http.StatusInternalServerError {
		t.Fatalf("failed probe: HTTP %d, want 500", code)
	}
	if st, opens := s.breaker.snapshot(); st != breakerOpen || opens != 2 {
		t.Fatalf("after failed probe: state=%s opens=%d", breakerStateName(st), opens)
	}

	// Second cooldown; the cold path has recovered, the probe succeeds and
	// the breaker closes.
	fail.Store(false)
	clk.advance(11 * time.Second)
	got, code = postSelect(t, ts.URL, SelectRequest{Collective: "alltoall", MsgBytes: 7, Procs: 8})
	if code != http.StatusOK || got.Source != "computed" || got.Algorithm.Name != "probe-ok" {
		t.Fatalf("successful probe: code=%d %+v", code, got)
	}
	if st, _ := s.breaker.snapshot(); st != breakerClosed {
		t.Fatalf("after successful probe: state=%s", breakerStateName(st))
	}
	if h := healthz(); h.Status != HealthHealthy || h.Breaker != "closed" {
		t.Fatalf("healthz after recovery: %+v", h)
	}
}

// TestBreakerSingleProbe pins the half-open contract at the unit level:
// while one probe is in flight every other caller is refused, and only the
// probe's outcome moves the state machine.
func TestBreakerSingleProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Failures: 1, OpenFor: time.Second}, clk.now)
	b.record(0, fmt.Errorf("boom")) // trips immediately (Failures: 1)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state %s, want open", breakerStateName(st))
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	for i := 0; i < 3; i++ {
		if b.allow() {
			t.Fatal("second caller admitted while probe in flight")
		}
	}
	b.record(0, nil) // probe succeeds
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after probe success: %s", breakerStateName(st))
	}
	if !b.allow() {
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

// TestNegativeColdCaching pins the negative-cache contract: a failing cold
// cell is recomputed NegativeRetries times, then its failure is served from
// cache without occupying a worker; a retry that succeeds forgets the
// failure and promotes the computed cell into the table.
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

	req := SelectRequest{Collective: "alltoall", MsgBytes: 2, Procs: 8}
	// First failure computes and is cached; the retry budget (2) grants two
	// more computes; after that the cached failure answers directly.
	for i := 0; i < 3; i++ {
		if _, code := postSelect(t, ts.URL, req); code != http.StatusInternalServerError {
			t.Fatalf("attempt %d: HTTP %d, want 500", i, code)
		}
	}
	if n := computes.Load(); n != 3 {
		t.Fatalf("computes %d, want 3 (initial + 2 retries)", n)
	}
	for i := 0; i < 4; i++ {
		if _, code := postSelect(t, ts.URL, req); code != http.StatusInternalServerError {
			t.Fatalf("cached attempt %d: HTTP %d, want 500", i, code)
		}
	}
	if n := computes.Load(); n != 3 {
		t.Fatalf("cached failures recomputed: %d computes, want 3", n)
	}
	if s.metrics.negativeHits.Load() != 4 {
		t.Fatalf("negativeHits %d, want 4", s.metrics.negativeHits.Load())
	}

	// A fresh cell whose retry succeeds: the computed cell replaces the
	// cached failure and later requests are exact table hits.
	fail.Store(true)
	req2 := SelectRequest{Collective: "alltoall", MsgBytes: 3, Procs: 8}
	if _, code := postSelect(t, ts.URL, req2); code != http.StatusInternalServerError {
		t.Fatalf("seed failure: HTTP %d, want 500", code)
	}
	fail.Store(false)
	got, code := postSelect(t, ts.URL, req2)
	if code != http.StatusOK || got.Source != "computed" || got.Algorithm.Name != "recovered" {
		t.Fatalf("recovery retry: code=%d %+v", code, got)
	}
	got, code = postSelect(t, ts.URL, req2)
	if code != http.StatusOK || got.Source != "table" || !got.Exact || got.Algorithm.Name != "recovered" {
		t.Fatalf("post-recovery table hit: code=%d %+v", code, got)
	}
}

// TestChaosReloadStormWithColdChurn hammers hot and cold queries while the
// artifact on disk is alternated and reloaded, and computed cold cells are
// promoted into whichever table is serving. The invariants: no torn
// response (every 200 names one table the run can install — a base
// artifact plus some of the promoted cells — and answers exactly as that
// table does), no 5xx other than deliberate deadline hits, and the swap
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
				switch code {
				case http.StatusOK:
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
					want, exact := coldCell(req.MsgBytes).Winner, true
					if resp.Source == "table" {
						lk, ok := tb.Get(coll.Alltoall, 8, req.MsgBytes)
						if !ok {
							report("reader %d: table %s answered %d B, which it does not cover", r, resp.TableVersion, req.MsgBytes)
							return
						}
						want, exact = lk.Cell.Winner, lk.Exact
					}
					if resp.Algorithm != want || resp.Exact != exact {
						report("reader %d: torn response: version %s %s answered %+v exact=%v, want %+v exact=%v",
							r, resp.TableVersion, resp.Source, resp.Algorithm, resp.Exact, want, exact)
						return
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Shed or deadline under churn: legitimate overload
					// answers, already covered by the dedicated tests.
				default:
					report("reader %d: HTTP %d", r, code)
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
