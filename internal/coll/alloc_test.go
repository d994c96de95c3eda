package coll

import (
	"runtime"
	"runtime/debug"
	"testing"

	"collsel/internal/mpi"
	"collsel/internal/netmodel"
)

// warmAlltoallMallocs runs the alltoall algorithm name on a p-rank
// timing-mode world twice and returns the allocations and bytes of the
// second, warm run. GC is off so the first run's pooled simulator storage
// survives into the measured one, and one P runs both: a sync.Pool keeps
// an entry private to the P that put it, out of another P's reach.
func warmAlltoallMallocs(t *testing.T, name string, p int) (mallocs, bytes uint64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	al, ok := ByName(Alltoall, name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	run := func() {
		w, err := mpi.NewWorld(mpi.Config{Platform: netmodel.SimCluster(), Size: p, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *mpi.Rank) {
			if _, err := al.Run(&Args{R: r, Count: 4, ElemSize: 8, Tag: NextTag(r)}); err != nil {
				r.Abort("%v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Release()
	}
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestLinearSyncAllocationIsInFlightBounded: linear_sync keeps its window
// of outstanding send/receive pairs in a fixed ring, so a warm 256-rank
// timing-mode world makes O(p) allocations, not one per step per rank
// (p² = 65536).
func TestLinearSyncAllocationIsInFlightBounded(t *testing.T) {
	const p = 256
	mallocs, bytes := warmAlltoallMallocs(t, "linear_sync", p)
	if limit := uint64(32 * p); mallocs > limit {
		t.Errorf("warm run made %d allocations, want <= %d (O(p))", mallocs, limit)
	}
	t.Logf("warm run made %d allocations (%d B)", mallocs, bytes)
}

// raceEnabled reports whether the test binary was built with -race. The
// race detector makes sync.Pool drop entries at random, so a warm run may
// regrow pooled storage and a tight allocation bound cannot hold there.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestBruckTimingAllocationIsInFlightBounded: in timing mode the modified
// Bruck algorithm keeps no block bookkeeping — no per-rank block table, no
// index list per round — so a warm 256-rank world makes O(p) allocations,
// not O(p log p) per rank.
func TestBruckTimingAllocationIsInFlightBounded(t *testing.T) {
	const p = 256
	mallocs, bytes := warmAlltoallMallocs(t, "bruck", p)
	t.Logf("warm run made %d allocations (%d B)", mallocs, bytes)
	if limit := uint64(16 * p); mallocs > limit && !raceEnabled() {
		t.Errorf("warm run made %d allocations, want <= %d (O(p))", mallocs, limit)
	}
}

// TestBasicLinearAllocationIsInFlightBounded: basic_linear posts all
// 2(p-1) requests of a rank at once, so its posted and unexpected lists
// grow to p entries per rank; the world's pooled store keeps them, and a
// warm 256-rank world makes O(p) allocations instead of regrowing p lists.
func TestBasicLinearAllocationIsInFlightBounded(t *testing.T) {
	const p = 256
	mallocs, bytes := warmAlltoallMallocs(t, "basic_linear", p)
	t.Logf("warm run made %d allocations (%d B)", mallocs, bytes)
	if limit := uint64(16 * p); mallocs > limit && !raceEnabled() {
		t.Errorf("warm run made %d allocations, want <= %d (O(p))", mallocs, limit)
	}
}
