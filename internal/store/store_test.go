package store

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
)

// tinyTable builds a small hand-made table for lookup and I/O tests.
func tinyTable(t *testing.T) *Table {
	t.Helper()
	tb := &Table{
		Machine:             "SimCluster",
		PlatformFingerprint: netmodel.SimCluster().Fingerprint(),
		Seed:                1,
		Sections: []Section{
			{
				Collective: coll.Alltoall.String(),
				Procs:      8,
				Cells: []Cell{
					{MsgBytes: 1024, Winner: AlgoRef{ID: 2, Name: "pairwise"}, Score: 1.1, Conventional: AlgoRef{ID: 1, Name: "basic_linear"}},
					{MsgBytes: 64, Winner: AlgoRef{ID: 3, Name: "bruck"}, Score: 1.0, Conventional: AlgoRef{ID: 3, Name: "bruck"}},
				},
			},
			{
				Collective: coll.Reduce.String(),
				Procs:      8,
				Cells: []Cell{
					{MsgBytes: 64, Winner: AlgoRef{ID: 5, Name: "binomial"}, Score: 1.0, Conventional: AlgoRef{ID: 5, Name: "binomial"}},
				},
			},
		},
	}
	if err := tb.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestLookupBinBoundaries(t *testing.T) {
	tb := tinyTable(t)
	cases := []struct {
		name   string
		c      coll.Collective
		procs  int
		bytes  int
		ok     bool
		winner string
		exact  bool
	}{
		{"exact lower bin", coll.Alltoall, 8, 64, true, "bruck", true},
		{"inside lower bin", coll.Alltoall, 8, 512, true, "bruck", false},
		{"lower edge of upper bin", coll.Alltoall, 8, 1024, true, "pairwise", true},
		{"just below upper edge", coll.Alltoall, 8, 1023, true, "bruck", false},
		{"above last bin within decade", coll.Alltoall, 8, 10 * 1024, true, "pairwise", false},
		{"too far above last bin", coll.Alltoall, 8, 10*1024 + 1, false, "", false},
		{"below smallest bin", coll.Alltoall, 8, 63, false, "", false},
		{"procs not compiled", coll.Alltoall, 16, 64, false, "", false},
		{"procs below range", coll.Alltoall, 4, 64, false, "", false},
		{"collective not compiled", coll.Bcast, 8, 64, false, "", false},
		{"other section unaffected", coll.Reduce, 8, 100, true, "binomial", false},
		{"non-positive size", coll.Alltoall, 8, 0, false, "", false},
		{"non-positive procs", coll.Alltoall, 0, 64, false, "", false},
	}
	for _, c := range cases {
		lk, ok := tb.Get(c.c, c.procs, c.bytes)
		if ok != c.ok {
			t.Errorf("%s: ok=%v want %v", c.name, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if lk.Cell.Winner.Name != c.winner {
			t.Errorf("%s: winner %s want %s", c.name, lk.Cell.Winner.Name, c.winner)
		}
		if lk.Exact != c.exact {
			t.Errorf("%s: exact=%v want %v", c.name, lk.Exact, c.exact)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := tinyTable(t)
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := Verify(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version == "" || got.Version != tb.Version {
		t.Fatalf("version %q after round trip, want %q", got.Version, tb.Version)
	}
	if got.Cells() != tb.Cells() {
		t.Fatalf("cells %d after round trip, want %d", got.Cells(), tb.Cells())
	}
	lk, ok := got.Get(coll.Alltoall, 8, 512)
	if !ok || lk.Cell.Winner.Name != "bruck" {
		t.Fatalf("lookup after round trip: ok=%v cell=%+v", ok, lk.Cell)
	}
}

// TestSaveOfServedTableIsReadOnly saves a finalized table while readers
// look it up, as an operator tool or test does with a table that is being
// served. Run under -race: Save must not write to the table.
func TestSaveOfServedTableIsReadOnly(t *testing.T) {
	tb := tinyTable(t)
	version := tb.Version
	dir := t.TempDir()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if lk, ok := tb.Get(coll.Alltoall, 8, 1024); !ok || lk.Cell.Winner.Name != "pairwise" || tb.Version != version {
					t.Error("reader saw a changed table")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := tb.Save(filepath.Join(dir, fmt.Sprintf("t%d.json", i%2))); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	got, err := Load(filepath.Join(dir, "t0.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != version {
		t.Fatalf("saved version %s, want %s", got.Version, version)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	tb := tinyTable(t)
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the winner inside the payload without touching the checksum.
	bad := strings.Replace(string(raw), "bruck", "bluck", 1)
	if bad == string(raw) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted artifact loaded: err=%v", err)
	}
	// Garbage is rejected as not-an-artifact, not as a panic.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("garbage artifact loaded")
	}
}

// TestSaveRetainsLastKnownGood pins the recovery contract: every Save over
// an existing artifact moves the old one to BackupPath, and
// LoadWithFallback serves the backup when the primary is corrupt or gone.
func TestSaveRetainsLastKnownGood(t *testing.T) {
	tb := tinyTable(t)
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(BackupPath(path)); !os.IsNotExist(err) {
		t.Fatalf("first save created a backup: %v", err)
	}

	// A second save (e.g. a recompile promotion) retains the first artifact.
	tb2 := tinyTable(t)
	tb2.CreatedUnix = tb.CreatedUnix + 99
	if err := tb2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := tb2.Save(path); err != nil {
		t.Fatal(err)
	}
	bak, err := Load(BackupPath(path))
	if err != nil {
		t.Fatalf("backup unusable after second save: %v", err)
	}
	if bak.Version != tb.Version {
		t.Fatalf("backup version %q, want first artifact %q", bak.Version, tb.Version)
	}

	// Healthy primary: fallback path untouched.
	got, usedBackup, err := LoadWithFallback(path)
	if err != nil || usedBackup {
		t.Fatalf("healthy primary: usedBackup=%v err=%v", usedBackup, err)
	}
	if got.Version != tb2.Version {
		t.Fatalf("healthy primary served version %q, want %q", got.Version, tb2.Version)
	}

	// Corrupt primary: fallback recovers the last-known-good.
	if err := os.WriteFile(path, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, usedBackup, err = LoadWithFallback(path)
	if err != nil {
		t.Fatalf("corrupt primary with good backup: %v", err)
	}
	if !usedBackup || got.Version != tb.Version {
		t.Fatalf("corrupt primary: usedBackup=%v version=%q, want backup %q", usedBackup, got.Version, tb.Version)
	}

	// Missing primary (crash between the two renames): same recovery.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	got, usedBackup, err = LoadWithFallback(path)
	if err != nil || !usedBackup || got.Version != tb.Version {
		t.Fatalf("missing primary: usedBackup=%v err=%v", usedBackup, err)
	}

	// Both copies broken: the error names both causes.
	if err := os.WriteFile(BackupPath(path), []byte("also bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadWithFallback(path); err == nil || !strings.Contains(err.Error(), "last-known-good") {
		t.Fatalf("double corruption: err=%v", err)
	}
}

func TestVersionIsContentHash(t *testing.T) {
	a, b := tinyTable(t), tinyTable(t)
	b.CreatedUnix = a.CreatedUnix + 12345
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	if a.Version != b.Version {
		t.Fatalf("version depends on creation time: %s vs %s", a.Version, b.Version)
	}
	b.Sections[0].Cells[0].Score = 9.9
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	if a.Version == b.Version {
		t.Fatal("version did not change with content")
	}
}

func TestCompileMatchesDirectSelection(t *testing.T) {
	pl := netmodel.SimCluster()
	cfg := CompileConfig{
		Platform:    pl,
		Collectives: []coll.Collective{coll.Alltoall},
		ProcsList:   []int{8},
		Sizes:       []int{256, 4096},
		Seed:        1,
	}
	tb, err := Compile(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.PlatformFingerprint != pl.Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", tb.PlatformFingerprint, pl.Fingerprint())
	}
	for _, size := range cfg.Sizes {
		lk, ok := tb.Get(coll.Alltoall, 8, size)
		if !ok || !lk.Exact {
			t.Fatalf("compiled cell %d B missing (ok=%v exact=%v)", size, ok, lk.Exact)
		}
		out, err := expt.SelectRobustCtx(context.Background(), SpecOf(tb, pl, coll.Alltoall, 8, size))
		if err != nil {
			t.Fatal(err)
		}
		want := CellFromOutcome(size, out)
		if lk.Cell.Winner != want.Winner || lk.Cell.RunnerUp != want.RunnerUp ||
			lk.Cell.Score != want.Score || lk.Cell.Margin != want.Margin {
			t.Fatalf("compiled cell %d B: %+v, direct selection %+v", size, lk.Cell, want)
		}
	}
	// Deterministic recompilation: identical content version.
	tb2, err := Compile(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Version != tb2.Version {
		t.Fatalf("recompilation changed version: %s vs %s", tb.Version, tb2.Version)
	}
}

// TestTablePlatform pins the one resolution of a table's machine that
// every live selection on it uses: a memoized preset, refused when the
// model drifted from the table's fingerprint or is unknown.
func TestTablePlatform(t *testing.T) {
	tb := tinyTable(t)
	pl, err := tb.Platform()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := tb.Platform(); again != pl {
		t.Fatal("preset resolved to a fresh platform on the second call")
	}
	drifted, unknown := *tb, *tb
	drifted.PlatformFingerprint = "fp-of-another-model"
	unknown.Machine = "NoSuchMachine"
	for _, c := range []struct {
		tb   *Table
		want string
	}{{&drifted, "drifted"}, {&unknown, "not a known preset"}} {
		if _, err := c.tb.Platform(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("machine %s/%s: err = %v, want %q", c.tb.Machine, c.tb.PlatformFingerprint, err, c.want)
		}
	}
	patch := []CellPatch{{Collective: coll.Alltoall, Procs: 8, MsgBytes: 64, Factor: 2}}
	if _, err := RecompileCells(context.Background(), &drifted, patch, RecompileConfig{ProfileDigest: "d"}); err == nil {
		t.Error("recompiled a drifted table")
	}
}

// TestCompileByteIdentical pins the reproducibility contract end to end:
// two compiles of the same inputs (including the injected CreatedUnix
// stamp) must serialize to byte-identical, checksum-stable artifacts.
func TestCompileByteIdentical(t *testing.T) {
	cfg := CompileConfig{
		Platform:    netmodel.SimCluster(),
		Collectives: []coll.Collective{coll.Alltoall},
		ProcsList:   []int{8},
		Sizes:       []int{256},
		Seed:        1,
		CreatedUnix: 1700000000,
	}
	dir := t.TempDir()
	var sums [2][sha256.Size]byte
	for i := range sums {
		tb, err := Compile(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tb.CreatedUnix != cfg.CreatedUnix {
			t.Fatalf("CreatedUnix %d, want injected %d", tb.CreatedUnix, cfg.CreatedUnix)
		}
		path := filepath.Join(dir, fmt.Sprintf("artifact%d.json", i))
		if err := tb.Save(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = sha256.Sum256(raw)
	}
	if sums[0] != sums[1] {
		t.Fatalf("recompiling identical inputs changed artifact bytes: %x vs %x", sums[0], sums[1])
	}
}

func TestHandleHotSwap(t *testing.T) {
	a := tinyTable(t)
	h := NewHandle(a)
	if h.Table() != a || h.Swaps() != 1 {
		t.Fatal("initial install not visible")
	}

	b := tinyTable(t)
	b.Sections[0].Cells[0].Score = 2.0
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}

	// Concurrent readers must always observe a complete table (a or b).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tb := h.Table()
				if tb == nil {
					t.Error("reader observed nil table")
					return
				}
				if v := tb.Version; v != a.Version && v != b.Version {
					t.Errorf("reader observed torn version %q", v)
					return
				}
				if _, ok := tb.Get(coll.Reduce, 8, 64); !ok {
					t.Error("reader observed incomplete table")
					return
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			h.Swap(b)
		} else {
			h.Swap(a)
		}
	}
	close(stop)
	wg.Wait()
	if h.Swaps() != 1001 {
		t.Fatalf("swaps %d, want 1001", h.Swaps())
	}
	if h.AgeSeconds() < 0 {
		t.Fatal("negative table age")
	}
}

// TestNearestDegradedLookup covers the serving layer's degraded fallback:
// nearest section by process-count ratio, nearest cell by size ratio,
// deterministic tie-breaks, and a miss only when the collective is absent.
func TestNearestDegradedLookup(t *testing.T) {
	tb := &Table{
		Machine: "SimCluster",
		Seed:    1,
		Sections: []Section{
			{Collective: coll.Alltoall.String(), Procs: 8, Cells: []Cell{
				{MsgBytes: 64, Winner: AlgoRef{ID: 3, Name: "bruck"}},
				{MsgBytes: 1024, Winner: AlgoRef{ID: 2, Name: "pair"}},
			}},
			{Collective: coll.Alltoall.String(), Procs: 64, Cells: []Cell{
				{MsgBytes: 1024, Winner: AlgoRef{ID: 4, Name: "ring"}},
			}},
			{Collective: coll.Reduce.String(), Procs: 8, Cells: []Cell{
				{MsgBytes: 64, Winner: AlgoRef{ID: 5, Name: "binomial"}},
			}},
		},
	}
	if err := tb.Finalize(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		procs, msgBytes int
		wantProcs       int
		wantSize        int
		wantAlgo        string
	}{
		// Exact coordinates still answer (Nearest is a superset of Get).
		{8, 1024, 8, 1024, "pair"},
		// Size between bins: 128 is 2x from 64, 8x from 1024.
		{8, 128, 8, 64, "bruck"},
		// Size above every bin.
		{8, 1 << 20, 8, 1024, "pair"},
		// Procs between sections: 16 is 2x from 8, 4x from 64.
		{16, 1024, 8, 1024, "pair"},
		// Procs nearer the big section.
		{48, 4096, 64, 1024, "ring"},
		// Size tie (128 is 2x from 64 in either direction… use 256: 4x vs 4x
		// against 64 and 1024): smaller size wins.
		{8, 256, 8, 64, "bruck"},
	}
	for _, tc := range cases {
		got, ok := tb.Nearest(coll.Alltoall, tc.procs, tc.msgBytes)
		if !ok {
			t.Fatalf("Nearest(%d procs, %d B): miss", tc.procs, tc.msgBytes)
		}
		if got.Procs != tc.wantProcs || got.MsgBytes != tc.wantSize || got.Cell.Winner.Name != tc.wantAlgo {
			t.Errorf("Nearest(%d procs, %d B) = %s@%d procs/%d B, want %s@%d/%d",
				tc.procs, tc.msgBytes, got.Cell.Winner.Name, got.Procs, got.MsgBytes,
				tc.wantAlgo, tc.wantProcs, tc.wantSize)
		}
	}

	// Absent collective: the only true miss.
	if _, ok := tb.Nearest(coll.Allreduce, 8, 64); ok {
		t.Fatal("Nearest answered for a collective the table does not cover")
	}
	// Invalid coordinates.
	if _, ok := tb.Nearest(coll.Alltoall, 0, 64); ok {
		t.Fatal("Nearest answered procs=0")
	}
	if _, ok := tb.Nearest(coll.Alltoall, 8, -5); ok {
		t.Fatal("Nearest answered msgBytes<0")
	}
}
