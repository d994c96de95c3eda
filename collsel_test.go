package collsel_test

import (
	"testing"

	"collsel"
	"collsel/internal/store"
)

func TestMachinePresets(t *testing.T) {
	for _, name := range []string{"SimCluster", "Hydra", "Galileo100", "Discoverer"} {
		pl := collsel.MachineByName(name)
		if pl == nil {
			t.Fatalf("machine %s missing", name)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(collsel.Machines()) != 4 {
		t.Error("expected 4 presets")
	}
	if collsel.MachineByName("bogus") != nil {
		t.Error("bogus machine resolved")
	}
}

func TestTableIIExposed(t *testing.T) {
	if n := len(collsel.TableII(collsel.Reduce)); n != 7 {
		t.Errorf("reduce Table II: %d algorithms, want 7", n)
	}
	if n := len(collsel.TableII(collsel.Allreduce)); n != 6 {
		t.Errorf("allreduce Table II: %d algorithms, want 6", n)
	}
	if n := len(collsel.TableII(collsel.Alltoall)); n != 4 {
		t.Errorf("alltoall Table II: %d algorithms, want 4", n)
	}
}

func TestPatternGeneration(t *testing.T) {
	pat := collsel.GeneratePattern(collsel.Ascending, 16, 1000, 0)
	if pat.Size() != 16 || pat.MaxSkewNs() != 1000 {
		t.Fatalf("pattern %+v", pat)
	}
	if len(collsel.ArtificialShapes()) != 8 {
		t.Error("expected 8 artificial shapes")
	}
}

func TestRunBenchmarkViaFacade(t *testing.T) {
	al, ok := collsel.AlgorithmByID(collsel.Allreduce, 3)
	if !ok {
		t.Fatal("rdb allreduce missing")
	}
	res, err := collsel.RunBenchmark(collsel.BenchConfig{
		Platform:  collsel.SimCluster(),
		Procs:     16,
		Algorithm: al,
		Count:     8,
		Reps:      2,
		Validate:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastDelay.Mean <= 0 {
		t.Fatal("no runtime measured")
	}
}

func TestSelectEndToEnd(t *testing.T) {
	sel, err := collsel.Select(collsel.SelectConfig{
		Machine:    collsel.SimCluster(),
		Collective: collsel.Reduce,
		MsgBytes:   1024,
		Procs:      32,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Recommended.Run == nil {
		t.Fatal("no recommendation")
	}
	if len(sel.Ranking) != 7 {
		t.Fatalf("ranking has %d entries", len(sel.Ranking))
	}
	for i := 1; i < len(sel.Ranking); i++ {
		if sel.Ranking[i].Score < sel.Ranking[i-1].Score {
			t.Fatal("ranking not sorted by score")
		}
	}
	if sel.Matrix == nil || sel.Matrix.PatternIndex("no_delay") < 0 {
		t.Fatal("matrix missing no_delay row")
	}
}

func TestSelectRejectsBadConfig(t *testing.T) {
	if _, err := collsel.Select(collsel.SelectConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := collsel.Select(collsel.SelectConfig{Machine: collsel.SimCluster(), Collective: collsel.Reduce}); err == nil {
		t.Fatal("missing message size accepted")
	}
}

func TestRunFTViaFacade(t *testing.T) {
	al, _ := collsel.AlgorithmByID(collsel.Alltoall, 3)
	res, err := collsel.RunFT(collsel.FTConfig{
		Platform:    collsel.SimCluster(),
		Procs:       16,
		Class:       collsel.FTClass{Name: "t", NX: 64, NY: 64, NZ: 16, Iterations: 2},
		AlltoallAlg: al,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSec <= 0 || res.NumAlltoalls != 3 {
		t.Fatalf("%+v", res)
	}
}

func TestFTClassGeometryExposed(t *testing.T) {
	if collsel.FTClassD.MsgBytesPerPair(1024) != 32768 {
		t.Error("class D geometry wrong")
	}
	if collsel.FTClassC.MsgBytesPerPair(256) != 32768 {
		t.Error("class C geometry wrong")
	}
}

func TestSelectionToStoreFlow(t *testing.T) {
	// End-to-end: run a selection, install its cell into a decision-table
	// artifact, reload the artifact and resolve the algorithm for the
	// selected size and for a size inside the cell's bin.
	pl := collsel.SimCluster()
	sel, err := collsel.Select(collsel.SelectConfig{
		Machine:    pl,
		Collective: collsel.Alltoall,
		MsgBytes:   1024,
		Procs:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := &store.Table{Machine: pl.Name, PlatformFingerprint: pl.Fingerprint()}
	tb, err := store.WithCell(base, collsel.Alltoall, 16,
		store.RankedCell(1024, sel.Ranking, sel.ConventionalChoice))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/table.json"
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != tb.Version {
		t.Fatalf("reloaded version %s, saved %s", loaded.Version, tb.Version)
	}
	for _, size := range []int{1024, 2048} {
		got, ok := loaded.Get(collsel.Alltoall, 16, size)
		if !ok || got.Cell.Winner.Name != sel.Recommended.Name || got.Exact != (size == 1024) {
			t.Fatalf("lookup at %d B gave %+v/%v, want %s", size, got, ok, sel.Recommended.Name)
		}
	}
	if _, ok := loaded.Get(collsel.Alltoall, 16, 1<<20); ok {
		t.Fatal("size beyond the cell's decade resolved")
	}
}
