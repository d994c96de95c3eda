package expt

// Determinism guarantees of the parallel grid engine: BuildMatrix must
// produce bit-identical matrices at any worker count, and the parallel
// path must match a hand-rolled serial evaluation using the legacy seed
// scheme.

import (
	"runtime"
	"sync"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/microbench"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/runner"
	"collsel/internal/stats"
)

var eighthAlltoall sync.Once

// hydraAlltoallGrid is the reference 9x8 grid: 8 artificial pattern rows
// plus no_delay, 8 Alltoall algorithms, on the noisy Hydra model with
// HCA-synchronized clocks. The built-in catalogue has 7 Alltoall
// algorithms; an eighth (a ring clone under a test name) is registered to
// exercise the full grid width.
func hydraAlltoallGrid(t testing.TB) GridConfig {
	t.Helper()
	eighthAlltoall.Do(func() {
		ring, ok := coll.ByName(coll.Alltoall, "ring")
		if !ok {
			t.Fatal("ring alltoall missing")
		}
		if err := coll.Register(coll.Algorithm{
			Coll: coll.Alltoall, Name: "ring_testdup", Abbrev: "RingT", Run: ring.Run,
		}); err != nil {
			t.Fatal(err)
		}
	})
	algs := coll.Algorithms(coll.Alltoall)
	if len(algs) < 8 {
		t.Fatalf("only %d Alltoall algorithms registered, need 8", len(algs))
	}
	return GridConfig{
		Platform:   netmodel.Hydra(),
		Procs:      16,
		Seed:       7,
		Algorithms: algs[:8],
		Shapes:     pattern.ArtificialShapes(),
		MsgBytes:   1024,
		Policy:     SkewAvgRuntime,
		Reps:       2,
		Warmup:     0,
	}
}

// buildMatrixSerialReference replicates the historical serial BuildMatrix
// loop (pre-runner) cell by cell, including its exact seed assignments. It
// is the ground truth the parallel engine must match bit for bit.
func buildMatrixSerialReference(t testing.TB, g GridConfig) *core.Matrix {
	t.Helper()
	if err := g.fill(); err != nil {
		t.Fatal(err)
	}
	bench := func(al coll.Algorithm, pat pattern.Pattern, seedShift int64) float64 {
		cfg := g.cellConfig(al, pat, g.Seed+seedShift)
		res, err := microbench.Run(cfg, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", pat.Name, al.Name, err)
		}
		return res.LastDelay.Mean
	}
	noDelay := make([]float64, len(g.Algorithms))
	for j, al := range g.Algorithms {
		noDelay[j] = bench(al, pattern.Pattern{}, 0)
	}
	avgRuntime := stats.Mean(noDelay)
	rows := []string{pattern.NoDelay.String()}
	for _, sh := range g.Shapes {
		rows = append(rows, sh.String())
	}
	m := core.NewMatrix(g.Algorithms[0].Coll, rows, g.Algorithms)
	for j := range g.Algorithms {
		m.Set(0, j, noDelay[j])
	}
	for si, sh := range g.Shapes {
		row := si + 1
		for j, al := range g.Algorithms {
			pat := pattern.Generate(sh, g.Procs, int64(g.Factor*avgRuntime), g.Seed+int64(si))
			m.Set(row, j, bench(al, pat, int64(row*100+j)))
		}
	}
	return m
}

func matricesEqual(t *testing.T, label string, got, want *core.Matrix) {
	t.Helper()
	if len(got.ValueNs) != len(want.ValueNs) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.ValueNs), len(want.ValueNs))
	}
	for i := range want.ValueNs {
		for j := range want.ValueNs[i] {
			if got.ValueNs[i][j] != want.ValueNs[i][j] {
				t.Errorf("%s: cell (%s, %s) = %v, want %v (must be bit-identical)",
					label, want.Patterns[i], want.Algorithms[j].Name,
					got.ValueNs[i][j], want.ValueNs[i][j])
			}
		}
	}
}

func TestBuildMatrixBitIdenticalAcrossWorkers(t *testing.T) {
	g := hydraAlltoallGrid(t)
	want := buildMatrixSerialReference(t, g)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		gg := g
		gg.Runner = runner.New(runner.WithWorkers(workers))
		m, noDelay, err := BuildMatrixCtx(t.Context(), gg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		matricesEqual(t, "workers="+itoa(workers), m, want)
		for j := range noDelay {
			if noDelay[j] != want.ValueNs[0][j] {
				t.Errorf("workers=%d: noDelay[%d] = %v, want %v", workers, j, noDelay[j], want.ValueNs[0][j])
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

func TestBuildMatrixProgressCoversBothPasses(t *testing.T) {
	g := hydraAlltoallGrid(t)
	g.Algorithms = g.Algorithms[:2]
	g.Shapes = g.Shapes[:3]
	var dones []int
	lastTotal := 0
	g.Progress = func(done, total int) { dones = append(dones, done); lastTotal = total }
	if _, _, err := BuildMatrixCtx(t.Context(), g); err != nil {
		t.Fatal(err)
	}
	cells := len(g.Algorithms) * (1 + len(g.Shapes))
	if lastTotal != cells {
		t.Errorf("progress total = %d, want %d", lastTotal, cells)
	}
	if len(dones) != cells || dones[len(dones)-1] != cells {
		t.Errorf("progress reported %d events ending at %v, want %d ending at %d",
			len(dones), dones[len(dones)-1:], cells, cells)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress not monotonic: event %d reported done=%d", i, d)
		}
	}
}
