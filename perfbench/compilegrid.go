package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
	"collsel/internal/runner"
	"collsel/internal/store"
)

// createdUnix is the fixed artifact timestamp, so that the artifact's
// SHA-256 is a function of the seed alone.
const createdUnix = 1_700_000_000

// shapes is the number of pattern rows of one selection grid: no-delay
// plus the eight artificial arrival patterns.
const shapes = 9

// gridConfig is the compile-grid workload's compilation: reduce, allreduce
// and alltoall × procs {8,16,32,64} × the default 8 B–1 MiB ladder on
// SimCluster (72 grid points, 3,672 microbench cells).
func gridConfig(o options, pl *netmodel.Platform) store.CompileConfig {
	cfg := store.CompileConfig{
		Platform:    pl,
		Collectives: []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall},
		ProcsList:   []int{8, 16, 32, 64},
		Sizes:       store.DefaultSizes(),
		Seed:        o.seed,
		CreatedUnix: createdUnix,
	}
	if o.small {
		cfg.ProcsList = []int{8, 16}
		cfg.Sizes = []int{8, 1024, 65536}
	}
	return cfg
}

// gridPoint is one (collective, procs, size) point of a compilation.
type gridPoint struct {
	c           coll.Collective
	procs, size int
}

// points lists cfg's grid points in the order store.Compile visits them.
func points(cfg store.CompileConfig) []gridPoint {
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	var out []gridPoint
	for _, c := range cfg.Collectives {
		for _, p := range cfg.ProcsList {
			for _, s := range sizes {
				out = append(out, gridPoint{c, p, s})
			}
		}
	}
	return out
}

// freshRunner is a runner with the workload's worker count and an empty
// cell cache, so that no compilation reuses another's cells.
func freshRunner(o options) *runner.Engine { return runner.New(runner.WithWorkers(o.workers)) }

// tracedRunner is a fresh runner that reports every finished cell to cs.
func tracedRunner(o options, cs *cellSpans) *runner.Engine {
	return runner.New(runner.WithWorkers(o.workers),
		runner.WithProgress(func(p runner.Progress) { cs.done(p.Label, p.CacheHit) }))
}

// warmUp compiles the grid's smallest size at every (collective, procs),
// so that lazily built per-size pools exist before timing starts.
func warmUp(ctx context.Context, o options, cfg store.CompileConfig) error {
	cfg.Sizes = cfg.Sizes[:1]
	cfg.Runner = freshRunner(o)
	_, err := store.Compile(ctx, cfg)
	return err
}

func runCompileGrid(ctx context.Context, o options) (*result, error) {
	res := newResult()
	var pl *netmodel.Platform
	setup, err := timeSetups(func(int) (func(), error) {
		pl = netmodel.SimCluster()
		return nil, warmUp(ctx, o, gridConfig(o, pl))
	})
	if err != nil {
		return nil, err
	}
	cfg := gridConfig(o, pl)
	if o.trace {
		return res, traceCompileGrid(ctx, o, cfg, res)
	}

	pts := points(cfg)
	// Grid points run one after another, so the progress count crossing a
	// point's last cell marks the point's end.
	var bounds []int
	cum := 0
	for _, p := range pts {
		cum += len(expt.CandidateAlgorithms(p.c)) * shapes
		bounds = append(bounds, cum)
	}
	// Per grid point: wall time and process CPU time (both workers).
	var compileS, compileCPU, pointMs, pointCPUms, peaks []float64
	var first *store.Table
	mismatches := 0
	began := time.Now()
	for len(compileS) == 0 || time.Since(began).Seconds() < o.seconds {
		run := cfg
		run.Runner = freshRunner(o)
		next, last := 0, startWatch()
		run.Progress = func(done, _ int) {
			if next < len(bounds) && done == bounds[next] {
				wall, cpu := last.elapsed()
				pointMs = append(pointMs, wall*1e3)
				pointCPUms = append(pointCPUms, cpu*1e3)
				last = startWatch()
				next++
			}
		}
		startRSSPeak()
		w := startWatch()
		t, err := store.Compile(ctx, run)
		res.attempted += len(pts)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		wall, cpu := w.elapsed()
		peaks = append(peaks, peakRSSMB())
		compileS = append(compileS, wall)
		compileCPU = append(compileCPU, cpu)
		if first == nil {
			first = t
		} else if t.Version != first.Version {
			mismatches++
		}
	}
	res.check("deterministic-compile", mismatches == 0, "%d compiles, %d differ from version %s",
		len(compileS), mismatches, first.Version)

	digest, err := checkArtifact(ctx, o, cfg, first, res)
	if err != nil {
		return nil, err
	}
	res.digest = digest

	fillEndToEnd(res, setup, peaks, median(compileCPU)*1e3/float64(len(pts)), pointCPUms)
	res.note("cells_per_s", float64(len(pts))/median(compileS), "1/s")
	res.note("compile_s_p50", median(compileS), "s")
	res.note("compile_cpu_s_p50", median(compileCPU), "s")
	res.note("point_wall_ms_p50", quantile(pointMs, 0.5), "ms")
	res.note("point_wall_ms_p99", quantile(pointMs, 0.99), "ms")
	res.note("grid_points", float64(len(pts)), "count")
	res.note("compiles", float64(len(compileS)), "count")
	return res, nil
}

// checkArtifact runs the compile-grid output checks on a compiled table:
// a Save/Verify/Load round trip, and a seeded sample of grid points
// re-selected on a fresh runner that must reproduce the table's cells. It
// returns the artifact's SHA-256.
func checkArtifact(ctx context.Context, o options, cfg store.CompileConfig, t *store.Table, res *result) (string, error) {
	path := filepath.Join(o.workdir, "grid.json")
	defer os.Remove(path)
	defer os.Remove(store.BackupPath(path))
	if err := t.Save(path); err != nil {
		return "", err
	}
	err := store.Verify(path)
	res.check("artifact-verify", err == nil, "store.Verify: %v", err)
	back, err := store.Load(path)
	if err != nil {
		res.check("artifact-load", false, "%v", err)
	} else {
		res.check("artifact-load", back.Version == t.Version && reflect.DeepEqual(back.Sections, t.Sections),
			"loaded version %s, saved %s", back.Version, t.Version)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)

	pts := points(cfg)
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < 3; i++ {
		p := pts[rng.Intn(len(pts))]
		spec := cfg.Spec(p.c, p.procs, p.size)
		spec.Runner = freshRunner(o)
		out, err := expt.SelectRobustCtx(ctx, spec)
		if err != nil {
			return "", err
		}
		got := store.CellFromOutcome(p.size, out)
		lk, ok := t.Get(p.c, p.procs, p.size)
		res.check("reselect-sample", ok && lk.Exact && reflect.DeepEqual(lk.Cell, got),
			"%s/%d/%d: table %s, re-selected %s", p.c, p.procs, p.size, lk.Cell.Winner.Name, got.Winner.Name)
	}
	return hex.EncodeToString(sum[:]), nil
}

// replayCompile rebuilds store.Compile one grid point at a time —
// CompileConfig.Spec → expt.SelectRobustCtx → store.CellFromOutcome —
// with a span around each layer call and one span per microbench cell.
func replayCompile(ctx context.Context, o options, tr *tracer, cfg store.CompileConfig) (*store.Table, *cellSpans, error) {
	cs := newCellSpans(tr)
	cfg.Runner = tracedRunner(o, cs)
	t := &store.Table{
		Machine:             cfg.Platform.Name,
		PlatformFingerprint: cfg.Platform.Fingerprint(),
		Seed:                cfg.Seed,
		Factor:              cfg.Factor,
		Reps:                cfg.Reps,
		Warmup:              cfg.Warmup,
		Faults:              cfg.Faults,
		WatchdogNs:          cfg.WatchdogNs,
		PruneTopK:           cfg.PruneTopK,
		CreatedUnix:         cfg.CreatedUnix,
	}
	var err error
	tr.do("store.compile", 0, 0, func(root int64) {
		var req int64
		for _, p := range points(cfg) {
			req++
			var out *expt.SelectOutcome
			tr.do("expt.select", root, req, func(id int64) {
				cs.begin(id, req)
				out, err = expt.SelectRobustCtx(ctx, cfg.Spec(p.c, p.procs, p.size))
			})
			if err != nil {
				return
			}
			tr.do("store.cell", root, req, func(int64) {
				cell := store.CellFromOutcome(p.size, out)
				n := len(t.Sections)
				if n == 0 || t.Sections[n-1].Collective != p.c.String() || t.Sections[n-1].Procs != p.procs {
					t.Sections = append(t.Sections, store.Section{Collective: p.c.String(), Procs: p.procs})
					n++
				}
				t.Sections[n-1].Cells = append(t.Sections[n-1].Cells, cell)
			})
		}
		tr.do("store.finalize", root, 0, func(int64) { err = t.Finalize() })
	})
	return t, cs, err
}

// traceCompileGrid is the traced compile-grid run: one untraced compile as
// the reference, then the traced replay, which must produce the same
// table.
func traceCompileGrid(ctx context.Context, o options, cfg store.CompileConfig, res *result) error {
	ref := cfg
	ref.Runner = freshRunner(o)
	w := startWatch()
	want, err := store.Compile(ctx, ref)
	if err != nil {
		return err
	}
	untracedWall, untraced := w.elapsed()

	tr := newTracer()
	pr := newProbe()
	heap := startHeapSampler()
	before := pr.read()
	w = startWatch()
	got, cs, err := replayCompile(ctx, o, tr, cfg)
	tracedWall, traced := w.elapsed()
	c := before.to(pr.read())
	heapPeak := heap.done()
	if err != nil {
		return err
	}
	res.attempted += len(points(cfg))
	wantCells := 0
	for _, p := range points(cfg) {
		wantCells += len(expt.CandidateAlgorithms(p.c)) * shapes
	}
	res.check("runner-cells", cs.cells == wantCells, "%d cells run, %d in the grid", cs.cells, wantCells)
	res.check("replay-equals-compile", got.Version == want.Version && reflect.DeepEqual(got.Sections, want.Sections),
		"replayed version %s, compiled %s", got.Version, want.Version)

	path := filepath.Join(o.workdir, "replay.json")
	defer os.Remove(path)
	defer os.Remove(store.BackupPath(path))
	var verifyErr error
	tr.do("store.save_verify", 0, 0, func(int64) {
		if verifyErr = got.Save(path); verifyErr == nil {
			verifyErr = store.Verify(path)
		}
	})
	res.check("replay-artifact-verify", verifyErr == nil, "store.Verify: %v", verifyErr)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(raw)
	res.digest = hex.EncodeToString(sum[:])

	lk := lookupNs(got, points(cfg))
	st := fillPerLayer(res, tr, cs, c, c, heapPeak, lk, traced/untraced-1)
	res.note("expt.select_ms_max", maxOf(st["expt.select"].durs)/1e6, "ms")
	res.note("store.save_verify_ms", st["store.save_verify"].self/1e6, "ms")
	res.note("trace.traced_s", tracedWall, "s")
	res.note("trace.untraced_s", untracedWall, "s")
	res.note("trace.traced_cpu_s", traced, "s")
	res.note("trace.untraced_cpu_s", untraced, "s")
	return tr.write(tracePath(o))
}
