package collsel_test

// Tests of the context-aware selection API: functional options, the
// Factor/Warmup plumbing into the measurement grid, parallelism
// determinism and cancellation.

import (
	"context"
	"errors"
	"testing"

	"collsel"
)

// fastSelect is a small deterministic selection config (noiseless
// SimCluster, perfect clocks) used by the API tests.
func fastSelect() collsel.SelectConfig {
	return collsel.SelectConfig{
		Machine:    collsel.SimCluster(),
		Collective: collsel.Alltoall,
		MsgBytes:   1024,
		Procs:      16,
		Seed:       3,
	}
}

func TestSelectCtxMatchesSelect(t *testing.T) {
	a, err := collsel.Select(fastSelect())
	if err != nil {
		t.Fatal(err)
	}
	b, err := collsel.SelectCtx(context.Background(), fastSelect())
	if err != nil {
		t.Fatal(err)
	}
	if a.Recommended.Name != b.Recommended.Name {
		t.Errorf("SelectCtx picked %s, Select picked %s", b.Recommended.Name, a.Recommended.Name)
	}
	for i := range a.Matrix.ValueNs {
		for j := range a.Matrix.ValueNs[i] {
			if a.Matrix.ValueNs[i][j] != b.Matrix.ValueNs[i][j] {
				t.Fatalf("matrix cell (%d,%d) differs between Select and SelectCtx", i, j)
			}
		}
	}
}

func TestSelectCtxOptionsOverrideConfig(t *testing.T) {
	cfg := fastSelect()
	cfg.Seed = 1
	cfg.Reps = 1
	var got collsel.SelectConfig = cfg
	for _, o := range []collsel.Option{
		collsel.WithReps(4),
		collsel.WithWarmup(2),
		collsel.WithSeed(9),
		collsel.WithFactor(1.5),
		collsel.WithParallelism(3),
	} {
		o(&got)
	}
	if got.Reps != 4 || got.Warmup != 2 || got.Seed != 9 || got.Factor != 1.5 || got.Workers != 3 {
		t.Errorf("options not applied: %+v", got)
	}
}

// The paper's skew factors (0.5/1.0/1.5) must actually reach the grid:
// different factors change the generated patterns and therefore the
// measured matrix. Before the Factor plumbing fix, both calls produced
// identical matrices.
func TestSelectCtxFactorReachesGrid(t *testing.T) {
	small, err := collsel.SelectCtx(context.Background(), fastSelect(), collsel.WithFactor(0.5))
	if err != nil {
		t.Fatal(err)
	}
	large, err := collsel.SelectCtx(context.Background(), fastSelect(), collsel.WithFactor(1.5))
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range small.Matrix.ValueNs {
		for j := range small.Matrix.ValueNs[i] {
			if small.Matrix.ValueNs[i][j] != large.Matrix.ValueNs[i][j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("factor 0.5 and 1.5 produced identical matrices; Factor is not plumbed through")
	}
	// The no-delay row is factor-independent by construction.
	for j := range small.Matrix.ValueNs[0] {
		if small.Matrix.ValueNs[0][j] != large.Matrix.ValueNs[0][j] {
			t.Error("no-delay row changed with the skew factor")
		}
	}
}

func TestSelectCtxParallelismBitIdentical(t *testing.T) {
	serial, err := collsel.SelectCtx(context.Background(), fastSelect(), collsel.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := collsel.SelectCtx(context.Background(), fastSelect(), collsel.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Matrix.ValueNs {
		for j := range serial.Matrix.ValueNs[i] {
			if serial.Matrix.ValueNs[i][j] != parallel.Matrix.ValueNs[i][j] {
				t.Fatalf("cell (%d,%d) differs between parallelism 1 and 4", i, j)
			}
		}
	}
}

func TestSelectCtxProgress(t *testing.T) {
	calls, lastDone, lastTotal := 0, 0, 0
	_, err := collsel.SelectCtx(context.Background(), fastSelect(),
		collsel.WithProgress(func(done, total int) { calls++; lastDone, lastTotal = done, total }))
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if lastDone != lastTotal || lastTotal == 0 {
		t.Errorf("final progress %d/%d, want done == total > 0", lastDone, lastTotal)
	}
}

func TestSelectCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := fastSelect()
	if _, err := collsel.SelectCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSelectWarmupReachesGrid(t *testing.T) {
	// On a noisy machine, warmup repetitions shift which repetitions enter
	// the statistics, so Warmup must change the result.
	cfg := collsel.SelectConfig{
		Machine:    collsel.Hydra(),
		Collective: collsel.Alltoall,
		MsgBytes:   1024,
		Procs:      8,
		Seed:       5,
		Reps:       2,
	}
	plain, err := collsel.SelectCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := collsel.SelectCtx(context.Background(), cfg, collsel.WithWarmup(2))
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range plain.Matrix.ValueNs {
		for j := range plain.Matrix.ValueNs[i] {
			if plain.Matrix.ValueNs[i][j] != warmed.Matrix.ValueNs[i][j] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("Warmup had no effect on a noisy machine; Warmup is not plumbed through")
	}
}
