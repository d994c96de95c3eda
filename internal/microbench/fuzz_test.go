package microbench

import (
	"testing"

	"collsel/internal/coll"
	"collsel/internal/netmodel"
)

// FuzzCollectiveCorrectness drives randomized (collective, algorithm,
// process count, message size, seed) combinations through a full simulated
// run with payload validation on: every rank's result is cross-checked
// against a direct computation of the collective's semantics, so any
// algorithm or transport bug that corrupts payloads (including under the
// reorder-prone parallel paths) surfaces as a failure.
func FuzzCollectiveCorrectness(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint16(8), int64(1))
	f.Add(uint8(1), uint8(16), uint16(128), int64(42))
	f.Add(uint8(2), uint8(7), uint16(33), int64(-9))
	f.Add(uint8(255), uint8(0), uint16(0), int64(0))
	f.Fuzz(func(t *testing.T, collPick, procsRaw uint8, countRaw uint16, seed int64) {
		colls := []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall}
		c := colls[int(collPick)%len(colls)]
		algs := coll.TableII(c)
		if len(algs) == 0 {
			t.Skip("no Table II algorithms")
		}
		al := algs[int(uint64(seed)%uint64(len(algs)))]
		cfg := Config{
			Platform:      netmodel.SimCluster(),
			Procs:         2 + int(procsRaw)%15,  // 2..16
			Count:         1 + int(countRaw)%128, // 1..128
			Seed:          seed,
			Algorithm:     al,
			Reps:          1,
			Validate:      true,
			PerfectClocks: true,
			NoNoise:       true,
		}
		res, err := Run(cfg, nil)
		if err != nil {
			t.Fatalf("%v/%s procs=%d count=%d seed=%d: %v",
				c, al.Name, cfg.Procs, cfg.Count, seed, err)
		}
		if res.LastDelay.Mean <= 0 {
			t.Fatalf("%v/%s procs=%d count=%d seed=%d: non-positive runtime %v",
				c, al.Name, cfg.Procs, cfg.Count, seed, res.LastDelay.Mean)
		}
	})
}
