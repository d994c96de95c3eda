package coll

import (
	"runtime"
	"runtime/debug"
	"testing"

	"collsel/internal/mpi"
	"collsel/internal/netmodel"
)

// TestLinearSyncAllocationIsInFlightBounded: linear_sync keeps its window
// of outstanding send/receive pairs in a fixed ring, so a warm 256-rank
// timing-mode world makes O(p) allocations, not one per step per rank
// (p² = 65536). GC is off so the first run's pooled simulator storage
// survives into the measured one.
func TestLinearSyncAllocationIsInFlightBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p = 256
	al, ok := ByName(Alltoall, "linear_sync")
	if !ok {
		t.Fatal("linear_sync not registered")
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
	mallocs := after.Mallocs - before.Mallocs
	if limit := uint64(32 * p); mallocs > limit {
		t.Errorf("warm run made %d allocations, want <= %d (O(p))", mallocs, limit)
	}
	t.Logf("warm run made %d allocations (%d B)", mallocs, after.TotalAlloc-before.TotalAlloc)
}
