package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/netmodel"
)

func compileTestTable(t *testing.T) *Table {
	t.Helper()
	tb, err := Compile(context.Background(), CompileConfig{
		Platform:    netmodel.SimCluster(),
		Collectives: []coll.Collective{coll.Alltoall},
		ProcsList:   []int{8},
		Sizes:       []int{512, 8192},
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestRecompileCellsReplacesOnlyPatchedCells(t *testing.T) {
	base := compileTestTable(t)
	baseVersion := base.Version

	patches := []CellPatch{{Collective: coll.Alltoall, Procs: 8, MsgBytes: 512, Factor: 2.5}}
	nt, err := RecompileCells(context.Background(), base, patches, RecompileConfig{ProfileDigest: "sha256:deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	if base.Version != baseVersion {
		t.Fatalf("base table mutated: version %s -> %s", baseVersion, base.Version)
	}
	if nt.ProfileDigest != "sha256:deadbeef" {
		t.Fatalf("profile digest not stamped: %q", nt.ProfileDigest)
	}
	if nt.Version == base.Version {
		t.Fatal("recompiled table has the same content version as the base")
	}
	lk, ok := nt.Get(coll.Alltoall, 8, 512)
	if !ok || lk.Cell.Factor != 2.5 {
		t.Fatalf("patched cell: ok=%v factor=%g, want factor 2.5", ok, lk.Cell.Factor)
	}
	if _, ok := lk.Cell.Winner.Resolve(coll.Alltoall); !ok {
		t.Fatalf("patched winner %q does not resolve", lk.Cell.Winner.Name)
	}
	// The untouched cell must be bit-for-bit the base's.
	got, _ := nt.Get(coll.Alltoall, 8, 8192)
	want, _ := base.Get(coll.Alltoall, 8, 8192)
	if fmt.Sprintf("%+v", got.Cell) != fmt.Sprintf("%+v", want.Cell) {
		t.Fatalf("untouched cell changed: %+v vs %+v", got.Cell, want.Cell)
	}
}

func TestRecompileCellsDeterministicArtifact(t *testing.T) {
	base := compileTestTable(t)
	patches := []CellPatch{
		{Collective: coll.Alltoall, Procs: 8, MsgBytes: 8192, Factor: 1.75},
		{Collective: coll.Alltoall, Procs: 8, MsgBytes: 512, Factor: 2.0},
	}
	dir := t.TempDir()
	var sums [2]string
	for i := range sums {
		// Reverse the patch order on the second run: the result must not
		// depend on planner ordering.
		ps := append([]CellPatch(nil), patches...)
		if i == 1 {
			ps[0], ps[1] = ps[1], ps[0]
		}
		nt, err := RecompileCells(context.Background(), base, ps, RecompileConfig{ProfileDigest: "sha256:0123"})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "t.json")
		if err := nt.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = string(raw)
	}
	if sums[0] != sums[1] {
		t.Fatal("recompiled artifacts differ across patch orderings")
	}
}

func TestRecompileCellsRejectsBadPatches(t *testing.T) {
	base := compileTestTable(t)
	ctx := context.Background()
	if _, err := RecompileCells(ctx, base, nil, RecompileConfig{ProfileDigest: "d"}); err == nil {
		t.Fatal("empty patch list accepted")
	}
	if _, err := RecompileCells(ctx, base,
		[]CellPatch{{Collective: coll.Alltoall, Procs: 8, MsgBytes: 1000, Factor: 2}},
		RecompileConfig{ProfileDigest: "d"}); err == nil {
		t.Fatal("patch for a size that is no compiled cell accepted")
	}
	if _, err := RecompileCells(ctx, base,
		[]CellPatch{{Collective: coll.Alltoall, Procs: 8, MsgBytes: 512, Factor: 0}},
		RecompileConfig{ProfileDigest: "d"}); err == nil {
		t.Fatal("non-positive factor accepted")
	}
	if _, err := RecompileCells(ctx, base,
		[]CellPatch{{Collective: coll.Alltoall, Procs: 8, MsgBytes: 512, Factor: 2}},
		RecompileConfig{}); err == nil {
		t.Fatal("missing profile digest accepted")
	}
}

// TestHandleUpdateNoLostUpdate runs concurrent promotions of distinct
// cells through Update: writers are serialized, each derives its table
// from the current one, so every cell lands and every write is one
// install. A writer that returns nil or an error installs nothing.
func TestHandleUpdateNoLostUpdate(t *testing.T) {
	base := tinyTable(t)
	h := NewHandle(base)
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell := Cell{MsgBytes: 10_000 + i, Winner: AlgoRef{ID: 2, Name: "pairwise"}, Score: 1}
			if _, err := h.Update(func(cur *Table) (*Table, error) {
				return WithCell(cur, coll.Alltoall, 8, cell)
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 64; i++ {
		if _, ok := h.Table().Get(coll.Alltoall, 8, 64); !ok {
			t.Fatal("reader saw a table without the compiled cell")
		}
	}
	wg.Wait()
	final := h.Table()
	for i := 0; i < writers; i++ {
		if lk, ok := final.Get(coll.Alltoall, 8, 10_000+i); !ok || !lk.Exact {
			t.Fatalf("update %d lost", i)
		}
	}
	if final.Cells() != base.Cells()+writers {
		t.Fatalf("%d cells, want %d", final.Cells(), base.Cells()+writers)
	}
	if got := h.Swaps(); got != 1+writers {
		t.Fatalf("swaps = %d, want %d (initial install + one per update)", got, 1+writers)
	}

	if nt, err := h.Update(func(*Table) (*Table, error) { return nil, nil }); nt != nil || err != nil {
		t.Fatalf("nil update: %v, %v", nt, err)
	}
	boom := errors.New("refused")
	if nt, err := h.Update(func(cur *Table) (*Table, error) { return base, boom }); nt != nil || err != boom {
		t.Fatalf("failed update: %v, %v", nt, err)
	}
	if h.Table() != final || h.Swaps() != 1+writers {
		t.Fatal("an update that returned nil or an error installed a table")
	}
}
