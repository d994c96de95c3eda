package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"collsel/internal/coll"
	"collsel/internal/microbench"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
)

// testCells builds n distinct, fast cells (distinct seeds).
func testCells(t testing.TB, n int) []Cell {
	t.Helper()
	al, ok := coll.ByID(coll.Allreduce, 3)
	if !ok {
		t.Fatal("no allreduce algorithm 3")
	}
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Label: fmt.Sprintf("cell-%d", i),
			Config: microbench.Config{
				Platform:      netmodel.SimCluster(),
				Procs:         8,
				Seed:          int64(i),
				Algorithm:     al,
				Count:         16,
				Reps:          1,
				PerfectClocks: true,
				NoNoise:       true,
			},
		}
	}
	return cells
}

func TestMapResultsIndependentOfWorkerCount(t *testing.T) {
	cells := testCells(t, 12)
	var ref []microbench.Result
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		eng := New(WithWorkers(workers), WithCache(nil)) // no cache: every run simulates
		got, err := eng.Map(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i].LastDelay != ref[i].LastDelay || got[i].TotalDelay != ref[i].TotalDelay {
				t.Errorf("workers=%d cell %d: result differs from workers=1", workers, i)
			}
		}
	}
}

func TestMapCoalescesIdenticalCells(t *testing.T) {
	base := testCells(t, 1)[0]
	cells := make([]Cell, 6)
	for i := range cells {
		cells[i] = base // six identical cells in one batch
	}
	eng := New(WithWorkers(4))
	res, err := eng.Map(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Cache().Stats(); s.Misses != 1 || s.Hits != 5 {
		t.Errorf("stats = %+v, want 1 miss, 5 hits", s)
	}
	for i := 1; i < len(res); i++ {
		if res[i].LastDelay != res[0].LastDelay {
			t.Errorf("cell %d result differs from coalesced cell 0", i)
		}
	}
	// Cached results must be detached copies.
	if len(res[0].Reps) > 0 {
		res[0].Reps[0].LastDelayNs = -1
		if res[1].Reps[0].LastDelayNs == -1 {
			t.Error("cache handed out a shared Reps slice")
		}
	}
}

func TestCacheAcrossMapCalls(t *testing.T) {
	cells := testCells(t, 5)
	eng := New(WithWorkers(2))
	first, err := eng.Map(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := eng.Cache().Stats().Misses
	second, err := eng.Map(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Cache().Stats().Misses; m != missesAfterFirst {
		t.Errorf("second identical Map simulated %d cells, want 0", m-missesAfterFirst)
	}
	for i := range second {
		if second[i].LastDelay != first[i].LastDelay {
			t.Errorf("cached cell %d differs from first run", i)
		}
	}
}

func TestMapReportsSmallestIndexError(t *testing.T) {
	cells := testCells(t, 8)
	cells[3].Config.Count = 0 // invalid: microbench rejects it
	cells[6].Config.Count = 0
	for _, workers := range []int{1, 4} {
		eng := New(WithWorkers(workers), WithCache(nil))
		_, err := eng.Map(context.Background(), cells)
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: got %v, want *CellError", workers, err)
		}
		if ce.Index != 3 || ce.Label != "cell-3" {
			t.Errorf("workers=%d: failed cell %d (%s), want 3 (cell-3)", workers, ce.Index, ce.Label)
		}
	}
}

func TestMapHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(WithWorkers(2))
	if _, err := eng.Map(ctx, testCells(t, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapProgress(t *testing.T) {
	cells := testCells(t, 7)
	var events []Progress
	eng := New(WithWorkers(3), WithProgress(func(p Progress) { events = append(events, p) }))
	if _, err := eng.Map(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cells) {
		t.Fatalf("%d progress events, want %d", len(events), len(cells))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != len(cells) {
			t.Errorf("event %d = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(cells))
		}
	}
}

func TestCellKeyDistinguishesInputs(t *testing.T) {
	base := testCells(t, 1)[0].Config
	key := CellKey(base)

	procsChanged := base
	procsChanged.Procs = 16
	seedChanged := base
	seedChanged.Seed = 99
	patChanged := base
	patChanged.Pattern = pattern.Generate(pattern.Ascending, 8, 1000, 1)
	platChanged := base
	hydra := netmodel.Hydra()
	platChanged.Platform = hydra
	for name, cfg := range map[string]microbench.Config{
		"procs": procsChanged, "seed": seedChanged, "pattern": patChanged, "platform": platChanged,
	} {
		if CellKey(cfg) == key {
			t.Errorf("changing %s did not change the cell key", name)
		}
	}

	// Equal content on a distinct *Platform instance must share a key.
	fresh := base
	fresh.Platform = netmodel.SimCluster()
	if CellKey(fresh) != key {
		t.Error("fresh identical platform instance changed the cell key")
	}

	// Same pattern name, different delays must not collide.
	a, b := base, base
	a.Pattern = pattern.FromDelays("traced", []int64{1, 2, 3, 4, 5, 6, 7, 8})
	b.Pattern = pattern.FromDelays("traced", []int64{1, 2, 3, 4, 5, 6, 7, 9})
	if CellKey(a) == CellKey(b) {
		t.Error("patterns with equal names but different delays share a key")
	}
}

func TestSeedDerivationMatchesLegacySerialScheme(t *testing.T) {
	// The historical serial BuildMatrix used base for the no-delay pass,
	// base+row*100+col for pattern cells and base+shapeIdx for pattern
	// generation. These exact values are what keeps new matrices
	// bit-identical to previously published runs.
	if got := NoDelaySeed(42); got != 42 {
		t.Errorf("NoDelaySeed(42) = %d, want 42", got)
	}
	if got := CellSeed(42, 3, 7); got != 42+307 {
		t.Errorf("CellSeed(42,3,7) = %d, want %d", got, 42+307)
	}
	if got := PatternSeed(42, 5); got != 47 {
		t.Errorf("PatternSeed(42,5) = %d, want 47", got)
	}
}

func TestMapAllRecordsEveryFailure(t *testing.T) {
	cells := testCells(t, 6)
	// Break cells 1 and 4 (nil platform fails fast in microbench.Run).
	cells[1].Config.Platform = nil
	cells[4].Config.Platform = nil
	eng := New(WithWorkers(3))
	results, cellErrs, err := eng.MapAll(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	if len(cellErrs) != 2 || cellErrs[0].Index != 1 || cellErrs[1].Index != 4 {
		t.Fatalf("cell errors %v, want indices 1 and 4", cellErrs)
	}
	for _, i := range []int{0, 2, 3, 5} {
		if results[i].Procs != 8 {
			t.Errorf("surviving cell %d has empty result", i)
		}
	}
	for _, i := range []int{1, 4} {
		if results[i].Procs != 0 {
			t.Errorf("failed cell %d has non-zero result", i)
		}
	}
}

func TestCacheLRUEvicts(t *testing.T) {
	cells := testCells(t, 8)
	c := NewCacheLRU(3)
	eng := New(WithWorkers(1), WithCache(c))
	if _, err := eng.Map(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got > 3 {
		t.Errorf("cache holds %d entries, cap is 3", got)
	}
	st := c.Stats()
	if st.Evictions != 5 {
		t.Errorf("evictions = %d, want 5", st.Evictions)
	}
	if st.Misses != 8 || st.Hits != 0 {
		t.Errorf("stats %+v, want 8 misses, 0 hits", st)
	}
	// The three most recent cells are retained: re-running them is all hits.
	if _, err := eng.Map(context.Background(), cells[5:]); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Hits != 3 {
		t.Errorf("hits = %d, want 3 (retained tail)", st.Hits)
	}
	// An evicted cell re-simulates (and evicts the now-oldest entry).
	if _, err := eng.Map(context.Background(), cells[:1]); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Misses != 9 || st.Evictions != 6 {
		t.Errorf("stats %+v, want 9 misses and 6 evictions", st)
	}
}

func TestCacheLRUUnboundedWhenCapZero(t *testing.T) {
	c := NewCacheLRU(0)
	eng := New(WithWorkers(2), WithCache(c))
	if _, err := eng.Map(context.Background(), testCells(t, 5)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 || c.Stats().Evictions != 0 {
		t.Errorf("len=%d evictions=%d, want 5 and 0", c.Len(), c.Stats().Evictions)
	}
}

// TestMapCancelStopsRunningCell: cancellation must reach *inside* a running
// simulation (cooperative kernel checks), not just skip unstarted cells.
// The cell's algorithm exchanges messages around a ring 1<<30 times — hours
// of simulation at any plausible simulator speed — and signals once a rank
// has entered it; the test cancels only then, so the cell has provably
// started and cannot have finished. Map must return promptly.
func TestMapCancelStopsRunningCell(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	endless := coll.Algorithm{
		Coll: coll.Alltoall,
		Name: "endless-ring",
		Run: func(a *coll.Args) ([]float64, error) {
			once.Do(func() { close(started) })
			p, me := a.R.Size(), a.R.ID()
			for i := 0; i < 1<<30; i++ {
				a.R.Sendrecv((me+1)%p, a.Tag, nil, 8, (me+p-1)%p, a.Tag)
			}
			return nil, nil
		},
	}
	cell := Cell{
		Label: "endless",
		Config: microbench.Config{
			Platform:      netmodel.SimCluster(),
			Procs:         8,
			Seed:          1,
			Algorithm:     endless,
			Count:         16,
			Reps:          1,
			PerfectClocks: true,
			NoNoise:       true,
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(WithWorkers(1))
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.Map(ctx, []Cell{cell})
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("Map returned %v before the cell started", err)
	case <-time.After(10 * time.Second):
		t.Fatal("cell did not start")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Map returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	t.Logf("canceled after %v", time.Since(start))

	// The engine stays usable after a cancellation: a fresh (tiny) cell on a
	// live context computes cleanly. (Key-level non-poisoning is covered by
	// TestCacheDropsCanceledEntries.)
	al, ok := coll.ByID(coll.Alltoall, 3) // bruck
	if !ok {
		t.Fatal("no alltoall algorithm 3")
	}
	cell.Config.Algorithm = al
	if _, err := eng.Map(context.Background(), []Cell{cell}); err != nil {
		t.Fatalf("Map after cancellation: %v", err)
	}
}

// TestCacheDropsCanceledEntries: a canceled leader's error is not memoized;
// the next requester of the same key recomputes and succeeds.
func TestCacheDropsCanceledEntries(t *testing.T) {
	c := NewCache()
	key := "k"
	if _, err, _ := c.do(key, func() (microbench.Result, error) {
		return microbench.Result{}, fmt.Errorf("wrapped: %w", context.Canceled)
	}); !errors.Is(err, context.Canceled) {
		t.Fatal("canceled run did not report cancellation")
	}
	if c.Len() != 0 {
		t.Fatalf("canceled entry memoized (len %d)", c.Len())
	}
	res, err, hit := c.do(key, func() (microbench.Result, error) {
		return microbench.Result{Procs: 7}, nil
	})
	if err != nil || hit || res.Procs != 7 {
		t.Fatalf("recompute after canceled entry: res=%+v err=%v hit=%v", res, err, hit)
	}
}
