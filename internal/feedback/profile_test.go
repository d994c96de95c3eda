package feedback

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/netmodel"
	"collsel/internal/store"
)

func compileBase(t testing.TB, seed int64) *store.Table {
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

func TestSizeBin(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 512: 512, 513: 512, 1023: 512, 1024: 1024, 0: 1}
	for in, want := range cases {
		if got := SizeBin(in); got != want {
			t.Errorf("SizeBin(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestAggregatorShuffleInvariance pins the determinism contract: the same
// multiset of records, folded in any order and any batching, produces the
// same digest and the same plan.
func TestAggregatorShuffleInvariance(t *testing.T) {
	tb := compileBase(t, 3)
	var recs []Record
	for i := 0; i < 200; i++ {
		recs = append(recs, Record{
			Collective: "alltoall", Procs: 8, MsgBytes: 400 + i*50,
			ImbMicro: int64(1_500_000 + (i%7)*250_000), SpreadNs: int64(1000 + i), Count: int64(1 + i%3),
		})
	}
	var digests []string
	var plans []string
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]Record(nil), recs...)
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		agg := NewAggregator()
		// Vary the batching too.
		step := 1 + trial*7
		for i := 0; i < len(shuffled); i += step {
			end := i + step
			if end > len(shuffled) {
				end = len(shuffled)
			}
			agg.Fold(shuffled[i:end])
		}
		patches, digest := agg.Plan(tb, PlanConfig{Threshold: 0.2, MinObs: 4})
		digests = append(digests, digest)
		plans = append(plans, fmt.Sprintf("%+v", patches))
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("digest differs across ingest orders:\n%s\n%s", digests[0], digests[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("plan differs across ingest orders:\n%s\n%s", plans[0], plans[i])
		}
	}
}

func TestPlanDriftDetection(t *testing.T) {
	tb := compileBase(t, 3)
	obs := func(msgBytes int, factor float64, n int64) Record {
		return Record{Collective: "alltoall", Procs: 8, MsgBytes: msgBytes,
			ImbMicro: int64(factor * 1e6), Count: n}
	}

	t.Run("no drift below threshold", func(t *testing.T) {
		agg := NewAggregator()
		// Table factor defaults to 1.0; 1.1 is inside a 0.25 threshold.
		agg.Fold([]Record{obs(600, 1.1, 50)})
		patches, _ := agg.Plan(tb, PlanConfig{Threshold: 0.25, MinObs: 8})
		if len(patches) != 0 {
			t.Fatalf("unexpected patches: %+v", patches)
		}
	})

	t.Run("drift past threshold patches the covering cell", func(t *testing.T) {
		agg := NewAggregator()
		agg.Fold([]Record{obs(600, 2.0, 50)})
		patches, _ := agg.Plan(tb, PlanConfig{Threshold: 0.25, MinObs: 8})
		if len(patches) != 1 {
			t.Fatalf("got %d patches, want 1", len(patches))
		}
		p := patches[0]
		if p.MsgBytes != 512 || p.Procs != 8 || p.Factor != 2.0 {
			t.Fatalf("patch %+v, want cell 512 at factor 2.0", p)
		}
	})

	t.Run("too few observations are not trusted", func(t *testing.T) {
		agg := NewAggregator()
		agg.Fold([]Record{obs(600, 3.0, 3)})
		patches, _ := agg.Plan(tb, PlanConfig{Threshold: 0.25, MinObs: 8})
		if len(patches) != 0 {
			t.Fatalf("unexpected patches from %d observations: %+v", 3, patches)
		}
	})

	t.Run("uncovered profiles are skipped", func(t *testing.T) {
		agg := NewAggregator()
		agg.Fold([]Record{
			obs(100, 3.0, 50), // below the table's smallest size
			{Collective: "allreduce", Procs: 8, MsgBytes: 600, ImbMicro: 3e6, Count: 50}, // collective not compiled
			{Collective: "alltoall", Procs: 4, MsgBytes: 600, ImbMicro: 3e6, Count: 50},  // procs not compiled
		})
		patches, _ := agg.Plan(tb, PlanConfig{Threshold: 0.25, MinObs: 8})
		if len(patches) != 0 {
			t.Fatalf("unexpected patches: %+v", patches)
		}
	})

	t.Run("multiple bins merge into one cell count-weighted", func(t *testing.T) {
		agg := NewAggregator()
		// Bins 1024, 2048, 4096 all fall into the 512-cell's half-open range.
		agg.Fold([]Record{obs(1030, 2.0, 10), obs(2050, 2.0, 10), obs(4100, 2.6, 20)})
		patches, _ := agg.Plan(tb, PlanConfig{Threshold: 0.25, MinObs: 8})
		if len(patches) != 1 {
			t.Fatalf("got %d patches, want 1 merged", len(patches))
		}
		// Weighted mean: (2.0*20 + 2.6*20)/40 = 2.3.
		if patches[0].Factor != 2.3 {
			t.Fatalf("merged factor %g, want 2.3", patches[0].Factor)
		}
	})

	t.Run("recompiled cell stops drifting at its own factor", func(t *testing.T) {
		agg := NewAggregator()
		agg.Fold([]Record{obs(600, 2.0, 50)})
		patches, digest := agg.Plan(tb, PlanConfig{Threshold: 0.25, MinObs: 8})
		nt, err := store.RecompileCells(context.Background(), tb, patches, store.RecompileConfig{ProfileDigest: digest})
		if err != nil {
			t.Fatal(err)
		}
		// Against the recompiled table the same aggregate plans nothing.
		again, _ := agg.Plan(nt, PlanConfig{Threshold: 0.25, MinObs: 8})
		if len(again) != 0 {
			t.Fatalf("plan did not converge: %+v", again)
		}
	})
}

func TestQuantizeFactor(t *testing.T) {
	cases := map[int64]float64{
		1_500_000: 1.5, 1_504_999: 1.5, 1_505_000: 1.51, 999_999: 1.0, 10_000: 0.01, 4_999: 0.0,
	}
	for in, want := range cases {
		if got := quantizeFactor(in); got != want {
			t.Errorf("quantizeFactor(%d) = %g, want %g", in, got, want)
		}
	}
}
