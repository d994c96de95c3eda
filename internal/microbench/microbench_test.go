package microbench

import (
	"math"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/mpi"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
)

func alg(t *testing.T, c coll.Collective, id int) coll.Algorithm {
	t.Helper()
	al, ok := coll.ByID(c, id)
	if !ok {
		t.Fatalf("no algorithm %v/%d", c, id)
	}
	return al
}

func TestRunValidatesConfig(t *testing.T) {
	base := Config{Platform: netmodel.SimCluster(), Procs: 4, Count: 1, Algorithm: alg(t, coll.Reduce, 5)}
	bad := []Config{
		{},
		{Platform: netmodel.SimCluster()},
		{Platform: netmodel.SimCluster(), Algorithm: base.Algorithm},
		{Platform: netmodel.SimCluster(), Algorithm: base.Algorithm, Count: 1, Procs: 4,
			Pattern: pattern.Generate(pattern.Ascending, 5, 100, 0)}, // size mismatch
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := Run(base, nil); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNoDelayMetricsEqual(t *testing.T) {
	// With perfect clocks and no pattern, all ranks arrive simultaneously,
	// so d* == d̂ on every repetition.
	cfg := Config{
		Platform:  netmodel.SimCluster(),
		Procs:     16,
		Count:     16,
		Algorithm: alg(t, coll.Allreduce, 3),
		Reps:      5, Warmup: 1,
		Validate: true,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reps) != 5 {
		t.Fatalf("reps %d", len(res.Reps))
	}
	for i, m := range res.Reps {
		if math.Abs(m.TotalDelayNs-m.LastDelayNs) > 1 {
			t.Errorf("rep %d: d*=%g d̂=%g differ in No-delay", i, m.TotalDelayNs, m.LastDelayNs)
		}
		if m.LastDelayNs <= 0 {
			t.Errorf("rep %d: non-positive runtime %g", i, m.LastDelayNs)
		}
	}
	if res.Pattern != "no_delay" {
		t.Errorf("pattern name %q", res.Pattern)
	}
}

func TestSkewShowsUpInTotalDelay(t *testing.T) {
	// With a last-delayed pattern, d* must include the skew while d̂ must
	// stay well below d* (the skew is subtracted).
	const skew = 2_000_000
	pat := pattern.Generate(pattern.LastDelayed, 16, skew, 0)
	cfg := Config{
		Platform:  netmodel.SimCluster(),
		Procs:     16,
		Count:     16,
		Algorithm: alg(t, coll.Allreduce, 3),
		Pattern:   pat,
		Reps:      3, Warmup: 1,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDelay.Mean < skew {
		t.Errorf("d* %.0f does not include skew %d", res.TotalDelay.Mean, skew)
	}
	if res.LastDelay.Mean > res.TotalDelay.Mean-float64(skew)/2 {
		t.Errorf("d̂ %.0f too close to d* %.0f", res.LastDelay.Mean, res.TotalDelay.Mean)
	}
	if res.MaxSkewNs != skew {
		t.Errorf("recorded max skew %d", res.MaxSkewNs)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := Config{
		Platform:  netmodel.Hydra(),
		Procs:     32,
		Count:     128,
		Seed:      11,
		Algorithm: alg(t, coll.Alltoall, 2),
		Pattern:   pattern.Generate(pattern.Random, 32, 500_000, 11),
		Reps:      3, Warmup: 0,
	}
	a, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Reps {
		if a.Reps[i] != b.Reps[i] {
			t.Fatalf("rep %d differs: %+v vs %+v", i, a.Reps[i], b.Reps[i])
		}
	}
}

func TestValidateCatchesAllCollectives(t *testing.T) {
	// Validation must pass for every Table II algorithm on a small world.
	for _, c := range []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall} {
		for _, al := range coll.TableII(c) {
			cfg := Config{
				Platform:  netmodel.SimCluster(),
				Procs:     8,
				Count:     32,
				Algorithm: al,
				Pattern:   pattern.Generate(pattern.Ascending, 8, 100_000, 0),
				Reps:      2, Warmup: 0,
				Validate: true,
			}
			if _, err := Run(cfg, nil); err != nil {
				t.Errorf("%v: %v", al, err)
			}
		}
	}
}

func TestImperfectClocksStillMeasurable(t *testing.T) {
	// On Hydra (drifting clocks + noise) the HCA-synchronized measurements
	// must produce plausible positive runtimes of the right magnitude.
	cfg := Config{
		Platform:  netmodel.Hydra(),
		Procs:     16,
		Count:     128,
		Seed:      3,
		Algorithm: alg(t, coll.Allreduce, 4),
		Reps:      4, Warmup: 1,
	}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastDelay.Mean <= 0 || res.LastDelay.Mean > 1e9 {
		t.Fatalf("implausible d̂: %.0f ns", res.LastDelay.Mean)
	}
}

func TestAllreduceMaxScalar(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8, 16, 21} {
		w, err := mpi.NewWorld(mpi.Config{Platform: netmodel.SimCluster(), Size: p})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, p)
		err = w.Run(func(r *mpi.Rank) {
			got[r.ID()] = allreduceMaxScalar(r, float64((r.ID()*7)%13), 100)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		want := 0.0
		for i := 0; i < p; i++ {
			want = math.Max(want, float64((i*7)%13))
		}
		for rk := 0; rk < p; rk++ {
			if got[rk] != want {
				t.Fatalf("p=%d rank %d: max %g want %g", p, rk, got[rk], want)
			}
		}
	}
}

func TestBarrierBenchmark(t *testing.T) {
	al, _ := coll.ByID(coll.Barrier, 1)
	cfg := Config{Platform: netmodel.SimCluster(), Procs: 8, Count: 1, Algorithm: al, Reps: 2, Warmup: 0}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastDelay.Mean <= 0 {
		t.Fatal("barrier runtime not positive")
	}
}
