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
		eng := New(WithWorkers(workers))
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

func TestMapReportsSmallestIndexError(t *testing.T) {
	cells := testCells(t, 8)
	cells[3].Config.Count = 0 // invalid: microbench rejects it
	cells[6].Config.Count = 0
	for _, workers := range []int{1, 4} {
		eng := New(WithWorkers(workers))
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
	// live context computes cleanly, since the engine keeps nothing from the
	// canceled call.
	al, ok := coll.ByID(coll.Alltoall, 3) // bruck
	if !ok {
		t.Fatal("no alltoall algorithm 3")
	}
	cell.Config.Algorithm = al
	if _, err := eng.Map(context.Background(), []Cell{cell}); err != nil {
		t.Fatalf("Map after cancellation: %v", err)
	}
}
