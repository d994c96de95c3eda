package microbench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/netmodel"
	_ "collsel/internal/papaware" // registers the PAP-aware algorithms too
	"collsel/internal/pattern"
)

// allCollectives lists every collective, in the golden corpus's order.
var allCollectives = []coll.Collective{
	coll.Reduce, coll.Allreduce, coll.Alltoall, coll.Bcast,
	coll.Allgather, coll.Gather, coll.Scatter, coll.Barrier,
	coll.ReduceScatter, coll.Alltoallv,
}

// TestTimingModeMatchesDataMode runs every registered algorithm of every
// collective twice — in data mode (Validate, real payloads, checked
// results) and in timing mode (nil payloads) — and requires the two runs
// to be indistinguishable: bit-equal repetition metrics, equal fault
// traffic, equal world message and byte counts and equal simulator event
// counts. Timing mode is what
// selection runs, so any schedule that silently depends on a payload shows
// up here.
//
// The cross covers 1 to 16 ranks (powers of two and not), a count below
// the rank count (the fallback paths) and one large enough at 64 B per
// element to split every segmented algorithm into several segments, and a
// random arrival pattern. SimCluster runs with 4 cores per node so the
// hierarchical algorithms' inter-node phases run; Hydra adds noise and
// imperfect, HCA-synchronized clocks.
func TestTimingModeMatchesDataMode(t *testing.T) {
	sim := netmodel.SimCluster()
	sim.Nodes, sim.CoresPerNode = 256, 4
	platforms := []*netmodel.Platform{sim, netmodel.Hydra()}
	procsCross := []int{1, 2, 5, 8, 13, 16}
	counts := []int{3, 4500}
	if testing.Short() {
		procsCross = []int{5, 16}
	}
	for _, plat := range platforms {
		for _, c := range allCollectives {
			for _, al := range coll.Algorithms(c) {
				for _, procs := range procsCross {
					for _, count := range counts {
						key := fmt.Sprintf("%s/%s/%s/p%d/c%d", plat.Name, c, al.Name, procs, count)
						cfg := Config{
							Platform:  plat,
							Procs:     procs,
							Seed:      goldenSeed(key),
							Algorithm: al,
							Root:      procs / 2,
							Count:     count,
							ElemSize:  64,
							Pattern:   pattern.Generate(pattern.Random, procs, 30_000, goldenSeed(key)),
							Reps:      2,
							Warmup:    1,
						}
						assertModesAgree(t, key, cfg)
					}
				}
			}
		}
	}
}

// assertModesAgree runs cfg in data mode and in timing mode and fails t
// unless everything the two runs measure is identical.
func assertModesAgree(t *testing.T, key string, cfg Config) {
	t.Helper()
	cfg.Validate = true
	data, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("%s data mode: %v", key, err)
	}
	cfg.Validate = false
	timing, err := Run(cfg, nil)
	if err != nil {
		t.Fatalf("%s timing mode: %v", key, err)
	}
	if len(data.Reps) != len(timing.Reps) {
		t.Fatalf("%s: %d reps in data mode, %d in timing mode", key, len(data.Reps), len(timing.Reps))
	}
	for i := range data.Reps {
		if data.Reps[i] != timing.Reps[i] {
			t.Errorf("%s rep %d: data mode %+v, timing mode %+v", key, i, data.Reps[i], timing.Reps[i])
		}
	}
	if data.Retransmits != timing.Retransmits || data.Drops != timing.Drops {
		t.Errorf("%s: retransmits/drops %d/%d in data mode, %d/%d in timing mode",
			key, data.Retransmits, data.Drops, timing.Retransmits, timing.Drops)
	}
	if data.WireMessages != timing.WireMessages || data.WireBytes != timing.WireBytes {
		t.Errorf("%s: %d messages/%d bytes in data mode, %d/%d in timing mode",
			key, data.WireMessages, data.WireBytes, timing.WireMessages, timing.WireBytes)
	}
	if data.Events != timing.Events {
		t.Errorf("%s: %d simulator events in data mode, %d in timing mode", key, data.Events, timing.Events)
	}
}

// TestTimingModeAllocationIndependentOfSize pins that timing mode never
// allocates a payload-sized buffer: every 32-rank alltoall must allocate
// the same heap bytes, up to a fixed slack, at 128 and at 4096 elements
// per pair. At 64 B per element both sizes (8 KiB and 256 KiB) use the
// rendezvous protocol on SimCluster, so the two runs have the same event
// structure and allocate the same bytes. The 1 MiB slack covers the tens
// of KiB that sync.Pool's random drops under the race detector add; one
// payload-sized buffer per rank would add 32 × 248 KiB. GC is off while
// measuring so that it cannot empty the simulator's pools between runs.
func TestTimingModeAllocationIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(al coll.Algorithm, count int) uint64 {
		cfg := Config{
			Platform:      netmodel.SimCluster(),
			Procs:         32,
			Algorithm:     al,
			Count:         count,
			ElemSize:      64,
			Reps:          2,
			Warmup:        0,
			PerfectClocks: true,
			NoNoise:       true,
		}
		// The first run fills the simulator's pools; the minimum of the
		// following runs discards allocations from pool misses.
		if _, err := Run(cfg, nil); err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(cfg, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const slack = 1 << 20
	for _, al := range coll.Algorithms(coll.Alltoall) {
		small, large := allocated(al, 128), allocated(al, 4096)
		t.Logf("%s: %d B allocated per run at 8 KiB, %d B at 256 KiB per pair", al.Name, small, large)
		if large > small+slack || small > large+slack {
			t.Errorf("%s: timing-mode allocation depends on message size: %d B at 8 KiB, %d B at 256 KiB per pair (slack %d B)",
				al.Name, small, large, slack)
		}
	}
}
