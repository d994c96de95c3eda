package feedback

import (
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"collsel/internal/coll"
	"collsel/internal/store"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func driftBatch(factor float64, n int64) []Record {
	return []Record{{Collective: "alltoall", Procs: 8, MsgBytes: 600,
		ImbMicro: int64(factor * 1e6), SpreadNs: 5000, Count: n}}
}

func TestPipelineEndToEndPromotes(t *testing.T) {
	base := compileBase(t, 3)
	h := store.NewHandle(base)
	p, err := New(Config{WALDir: t.TempDir(), Handle: h, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	if err := p.Offer(driftBatch(2.0, 50)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion", func() bool { return p.Stats().SwapGeneration >= 1 })

	nt := h.Table()
	if nt == base {
		t.Fatal("handle still serves the base table")
	}
	lk, ok := nt.Get(coll.Alltoall, 8, 512)
	if !ok || lk.Cell.Factor != 2.0 {
		t.Fatalf("promoted cell: ok=%v factor=%g, want 2.0", ok, lk.Cell.Factor)
	}
	if nt.ProfileDigest == "" {
		t.Fatal("promoted table lacks profile digest provenance")
	}
	// What is being served is exactly what is on disk, checksum-verified.
	onDisk, err := store.Load(p.cfg.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Version != nt.Version {
		t.Fatalf("served %s, on disk %s", nt.Version, onDisk.Version)
	}
	st := p.Stats()
	if st.RecompileSuccesses != 1 || st.RecompileFailures != 0 || st.BackoffState != BackoffIdle {
		t.Fatalf("stats %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineReplayByteIdentical is the acceptance criterion: the same
// observation multiset — shuffled, re-batched, or replayed from a
// recovered WAL after a restart — must produce a byte-identical (SHA-256)
// promoted artifact.
func TestPipelineReplayByteIdentical(t *testing.T) {
	obs := []Record{
		{Collective: "alltoall", Procs: 8, MsgBytes: 600, ImbMicro: 2_000_000, SpreadNs: 100, Count: 20},
		{Collective: "alltoall", Procs: 8, MsgBytes: 900, ImbMicro: 2_400_000, SpreadNs: 200, Count: 10},
		{Collective: "alltoall", Procs: 8, MsgBytes: 9000, ImbMicro: 3_000_000, SpreadNs: 300, Count: 30},
	}
	run := func(t *testing.T, dir string, batches [][]Record) (artifact string, sum [32]byte) {
		base := compileBase(t, 3)
		h := store.NewHandle(base)
		p, err := New(Config{WALDir: dir, Handle: h})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		defer p.Close()
		for _, b := range batches {
			if err := p.Offer(b); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "promotion", func() bool {
			s := p.Stats()
			return s.SwapGeneration >= 1 && s.PendingBatches == 0 && s.RecompileAttempts == s.RecompileSuccesses
		})
		// Converged: no further drift planned against the promoted table.
		patches, _ := p.agg.Plan(h.Table(), p.cfg.Plan)
		if len(patches) != 0 {
			t.Fatalf("loop not converged: %+v", patches)
		}
		raw, err := os.ReadFile(p.cfg.ArtifactPath)
		if err != nil {
			t.Fatal(err)
		}
		return p.cfg.ArtifactPath, sha256.Sum256(raw)
	}

	dirA := t.TempDir()
	_, sumA := run(t, dirA, [][]Record{{obs[0], obs[1], obs[2]}})
	_, sumB := run(t, t.TempDir(), [][]Record{{obs[2]}, {obs[1]}, {obs[0]}})
	if sumA != sumB {
		t.Fatal("artifacts differ across ingest orders")
	}

	// Restart on dirA's recovered WAL with a fresh handle at the base
	// table: recovery must reproduce the identical artifact.
	os.Remove(filepath.Join(dirA, "autotuned.json"))
	_, sumC := run(t, dirA, nil) // no new offers: recovered WAL alone drives it
	if sumC != sumA {
		t.Fatal("artifact from recovered WAL differs from the original")
	}
}

// recordingSleep is the backoff seam: instant, remembering each wait.
type recordingSleep struct {
	mu sync.Mutex
	ds []time.Duration
}

func (r *recordingSleep) sleep(ctx context.Context, d time.Duration) bool {
	r.mu.Lock()
	r.ds = append(r.ds, d)
	r.mu.Unlock()
	return ctx.Err() == nil
}

func (r *recordingSleep) waits() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.ds...)
}

func TestPipelineBackoffLadderAndPark(t *testing.T) {
	base := compileBase(t, 3)
	h := store.NewHandle(base)
	failing := true
	var mu sync.Mutex
	setFailing := func(v bool) { mu.Lock(); failing = v; mu.Unlock() }
	rs := &recordingSleep{}
	p, err := New(Config{
		WALDir:      t.TempDir(),
		Handle:      h,
		MaxFailures: 3,
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  time.Second,
		Compile: func(ctx context.Context, b *store.Table, patches []store.CellPatch, digest string) (*store.Table, error) {
			mu.Lock()
			f := failing
			mu.Unlock()
			if f {
				return nil, errors.New("injected compile failure")
			}
			return store.RecompileCells(ctx, b, patches, store.RecompileConfig{ProfileDigest: digest})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.cfg.sleep = rs.sleep
	p.Start()
	defer p.Close()

	if err := p.Offer(driftBatch(2.0, 50)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "park", func() bool { return p.Stats().BackoffState == BackoffParked })
	st := p.Stats()
	if st.RecompileFailures != 3 || st.RecompileAttempts != 3 || st.SwapGeneration != 0 {
		t.Fatalf("stats after park: %+v", st)
	}
	if h.Table() != base {
		t.Fatal("park must leave the old table serving")
	}
	// Two backoff waits before the parking third failure, walking the
	// capped-exponential ladder with deterministic jitter.
	ds := rs.waits()
	if len(ds) != 2 {
		t.Fatalf("got %d backoff waits, want 2: %v", len(ds), ds)
	}
	if ds[0] < 100*time.Millisecond || ds[0] > 125*time.Millisecond {
		t.Fatalf("first backoff %v outside [base, base*1.25]", ds[0])
	}
	if ds[1] < 200*time.Millisecond || ds[1] > 250*time.Millisecond {
		t.Fatalf("second backoff %v outside [2*base, 2.5*base]", ds[1])
	}

	// New evidence (the count changes the digest) un-parks; with the
	// compile fixed first, the recompile it starts cannot fail and park
	// again, so promotion succeeds.
	setFailing(false)
	if err := p.Offer(driftBatch(2.0, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion after un-park", func() bool { return p.Stats().SwapGeneration >= 1 })
	if p.Stats().BackoffState != BackoffIdle {
		t.Fatalf("backoff state %d after recovery, want idle", p.Stats().BackoffState)
	}
}

// TestPipelineRollbackOnFailedValidation pins that a candidate failing
// validation is never published: the handle keeps serving base, no
// install happens (Swaps does not move) and no artifact is written.
func TestPipelineRollbackOnFailedValidation(t *testing.T) {
	base := compileBase(t, 3)
	h := store.NewHandle(base)
	p, err := New(Config{
		WALDir:      t.TempDir(),
		Handle:      h,
		MaxFailures: 2,
		Validate: func(*store.Table, []store.CellPatch) error {
			return errors.New("injected validation failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingSleep{}
	p.cfg.sleep = rs.sleep
	p.Start()
	defer p.Close()

	if err := p.Offer(driftBatch(2.0, 50)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "park after failed validations", func() bool { return p.Stats().BackoffState == BackoffParked })
	st := p.Stats()
	if st.RecompileFailures != 2 || st.SwapGeneration != 0 {
		t.Fatalf("stats %+v, want 2 failures and no promotion", st)
	}
	if h.Table() != base {
		t.Fatalf("a candidate that failed validation was published (serving %s)", h.Table().Version)
	}
	if got := h.Swaps(); got != 1 {
		t.Fatalf("swaps = %d, want 1 (the initial install only)", got)
	}
	if _, err := os.Stat(p.cfg.ArtifactPath); !os.IsNotExist(err) {
		t.Fatalf("artifact written for an unpublished candidate: %v", err)
	}
}

// TestPipelineKeepsCellsPromotedDuringRecompile promotes an unrelated cell
// while a recompile is running. The serving table then differs from the
// recompile's base only by that cell, so the recompiled cells are
// installed into it in one attempt and the promoted cell survives.
func TestPipelineKeepsCellsPromotedDuringRecompile(t *testing.T) {
	base := compileBase(t, 3)
	h := store.NewHandle(base)
	extra := store.Cell{MsgBytes: 64, Winner: store.AlgoRef{ID: 3, Name: "bruck"}, Score: 1,
		Conventional: store.AlgoRef{ID: 3, Name: "bruck"}}
	var once sync.Once
	p, err := New(Config{
		WALDir: t.TempDir(),
		Handle: h,
		Compile: func(ctx context.Context, b *store.Table, patches []store.CellPatch, digest string) (*store.Table, error) {
			once.Do(func() {
				if _, err := h.Update(func(cur *store.Table) (*store.Table, error) {
					return store.WithCell(cur, coll.Alltoall, 8, extra)
				}); err != nil {
					t.Error(err)
				}
			})
			return store.RecompileCells(ctx, b, patches, store.RecompileConfig{ProfileDigest: digest})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	if err := p.Offer(driftBatch(2.0, 50)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion", func() bool { return p.Stats().SwapGeneration >= 1 })
	st := p.Stats()
	if st.RecompileAttempts != 1 || st.SwapsLost != 0 || st.RecompileFailures != 0 {
		t.Fatalf("stats %+v, want one attempt that landed", st)
	}
	nt := h.Table()
	if lk, ok := nt.Get(coll.Alltoall, 8, 64); !ok || !lk.Exact || lk.Cell.Winner != extra.Winner {
		t.Fatalf("promoted cell lost by the recompile: ok=%v %+v", ok, lk)
	}
	if lk, ok := nt.Get(coll.Alltoall, 8, 512); !ok || lk.Cell.Factor != 2.0 {
		t.Fatalf("recompiled cell missing: ok=%v %+v", ok, lk)
	}
	if nt.ProfileDigest == "" {
		t.Fatal("published table lacks the profile digest")
	}
	onDisk, err := store.Load(p.cfg.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Version != nt.Version {
		t.Fatalf("served %s, on disk %s", nt.Version, onDisk.Version)
	}
}

// TestPipelineLosesSwapRaceToOperatorReload pins last-writer-wins: an
// operator /reload landing mid-recompilation invalidates the recompiler's
// base snapshot; the stale artifact is dropped, the loop re-plans against
// the operator's table and promotes on top of it.
func TestPipelineLosesSwapRaceToOperatorReload(t *testing.T) {
	base := compileBase(t, 3)
	operator := compileBase(t, 99) // different seed: a different artifact
	h := store.NewHandle(base)

	reloaded := false
	var mu sync.Mutex
	p, err := New(Config{
		WALDir: t.TempDir(),
		Handle: h,
		Compile: func(ctx context.Context, b *store.Table, patches []store.CellPatch, digest string) (*store.Table, error) {
			// Simulate the operator reloading while we compile — once.
			mu.Lock()
			if !reloaded {
				reloaded = true
				h.Swap(operator)
			}
			mu.Unlock()
			return store.RecompileCells(ctx, b, patches, store.RecompileConfig{ProfileDigest: digest})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	if err := p.Offer(driftBatch(2.0, 50)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion on the operator's table", func() bool { return p.Stats().SwapGeneration >= 1 })
	st := p.Stats()
	if st.SwapsLost != 1 {
		t.Fatalf("swapsLost = %d, want 1", st.SwapsLost)
	}
	if st.RecompileFailures != 0 {
		t.Fatalf("a lost swap race must not count as a failure: %+v", st)
	}
	nt := h.Table()
	if nt.Seed != operator.Seed {
		t.Fatalf("promotion built on seed %d, want the operator table's %d", nt.Seed, operator.Seed)
	}
	if lk, ok := nt.Get(coll.Alltoall, 8, 512); !ok || lk.Cell.Factor != 2.0 {
		t.Fatal("drifted cell not recompiled on the operator's table")
	}
}

func TestOfferBackpressureAndClose(t *testing.T) {
	base := compileBase(t, 3)
	p, err := New(Config{WALDir: t.TempDir(), Handle: store.NewHandle(base), Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the buffer fills and the third batch is shed.
	if err := p.Offer(driftBatch(1.5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Offer(driftBatch(1.5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Offer(driftBatch(1.5, 1)); !errors.Is(err, ErrBusy) {
		t.Fatalf("third offer: %v, want ErrBusy", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Offer(driftBatch(1.5, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer after close: %v, want ErrClosed", err)
	}
	// Accepted batches were drained to the WAL by Close.
	var n int
	w, err := OpenWAL(p.cfg.WALDir, 0, func(Record) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if n != 2 {
		t.Fatalf("WAL holds %d records after close-drain, want 2", n)
	}
}

func TestBackoffForDeterministicAndCapped(t *testing.T) {
	p := &Pipeline{cfg: Config{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second}}
	if a, b := p.backoffFor(3, "digest"), p.backoffFor(3, "digest"); a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	if a, b := p.backoffFor(3, "d1"), p.backoffFor(3, "d2"); a == b {
		t.Logf("note: distinct digests happened to collide (%v) — allowed but unlikely", a)
	}
	if d := p.backoffFor(30, "x"); d > 1250*time.Millisecond {
		t.Fatalf("backoff %v exceeds cap+jitter", d)
	}
	var prev time.Duration
	for n := 1; n <= 5; n++ {
		d := p.backoffFor(n, "x")
		if d < prev {
			t.Fatalf("ladder not monotone at n=%d: %v < %v", n, d, prev)
		}
		prev = d
	}
}
