package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
	"collsel/internal/store"
)

// spec is the selection `selector -machine SimCluster -coll alltoall
// -procs 8 -size <size> -reps 0` runs: compilestore's default provenance.
func spec(size int) expt.SelectSpec {
	return expt.SelectSpec{
		Platform:   netmodel.SimCluster(),
		Collective: coll.Alltoall,
		MsgBytes:   size,
		Procs:      8,
		Factor:     1,
		Seed:       1,
	}
}

func selectCell(t *testing.T, sp expt.SelectSpec) *expt.SelectOutcome {
	t.Helper()
	out, err := expt.SelectRobustCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compiled writes the artifact `compilestore -machine SimCluster -colls
// alltoall -procs 8 -sizes 1024,32768` would, and returns its path.
func compiled(t *testing.T) string {
	t.Helper()
	tb, err := store.Compile(context.Background(), store.CompileConfig{
		Platform:    netmodel.SimCluster(),
		Collectives: []coll.Collective{coll.Alltoall},
		ProcsList:   []int{8},
		Sizes:       []int{1024, 32768},
		Seed:        1,
		Factor:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSaveCellNewArtifactIsServable(t *testing.T) {
	sp := spec(4096)
	out := selectCell(t, sp)
	path := filepath.Join(t.TempDir(), "sel.json")
	saved, err := saveCell(path, sp, out)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != saved.Version || loaded.Cells() != 1 {
		t.Fatalf("loaded version %s with %d cells, saved %s", loaded.Version, loaded.Cells(), saved.Version)
	}
	got, ok := loaded.Get(coll.Alltoall, 8, 4096)
	if !ok || !got.Exact {
		t.Fatalf("lookup = %+v, %v; want an exact hit", got, ok)
	}
	if want := store.CellFromOutcome(4096, out); got.Cell.Winner != want.Winner || got.Cell.Score != want.Score {
		t.Fatalf("cell %+v, selection %+v", got.Cell, want)
	}
	// The artifact's provenance reproduces the cell, as collseld's cold
	// path would.
	pl, err := loaded.Platform()
	if err != nil {
		t.Fatal(err)
	}
	again := selectCell(t, store.SpecOf(loaded, pl, coll.Alltoall, 8, 4096))
	if store.CellFromOutcome(4096, again).Winner != got.Cell.Winner {
		t.Fatal("the artifact's provenance does not reproduce the saved cell")
	}
}

func TestSaveCellAtCompiledPointKeepsVersion(t *testing.T) {
	path := compiled(t)
	before, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec(1024)
	if _, err := saveCell(path, sp, selectCell(t, sp)); err != nil {
		t.Fatal(err)
	}
	after, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Fatalf("version %s -> %s: the selector's cell differs from the compiled one", before.Version, after.Version)
	}
}

func TestSaveCellRefusesProvenanceMismatch(t *testing.T) {
	path := compiled(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seed := spec(4096)
	seed.Seed = 2
	reps := spec(4096)
	reps.Reps = 5
	for _, tc := range []struct {
		name string
		sp   expt.SelectSpec
		want string
	}{
		{"seed", seed, "-seed 1"},
		{"reps", reps, "-reps 0"},
	} {
		_, err := saveCell(path, tc.sp, selectCell(t, tc.sp))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s mismatch: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if now, _ := os.ReadFile(path); !bytes.Equal(now, raw) {
			t.Errorf("%s mismatch rewrote the artifact", tc.name)
		}
	}
}

func TestSaveCellRefusesSkewAndRoot(t *testing.T) {
	skew := spec(64)
	skew.Collective, skew.MaxSkewNs = coll.Bcast, 20000
	root := spec(64)
	root.Collective, root.Root = coll.Bcast, 3
	for _, sp := range []expt.SelectSpec{skew, root} {
		path := filepath.Join(t.TempDir(), "sel.json")
		if _, err := saveCell(path, sp, selectCell(t, sp)); err == nil {
			t.Errorf("save of %+v accepted", sp)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("refused save left a file behind (%v)", err)
		}
	}
}
