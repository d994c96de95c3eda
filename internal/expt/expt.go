// Package expt contains the experiment drivers, one per table/figure of the
// paper. Each driver owns the full methodology of its figure — skew-
// magnitude policy, pattern set, algorithm set, machine mode — and returns
// structured results plus a textual rendering. The cmd/ tools and the
// repository benchmarks are thin wrappers around these drivers.
package expt

import (
	"context"
	"fmt"
	"math"

	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/fault"
	"collsel/internal/microbench"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/runner"
)

// SizeToCount converts a wire message size in bytes to (count, elemSize).
// Sizes below 8 B become a single small element; moderate sizes use 8-byte
// elements; large sizes cap the element count at 128 and grow the element
// size instead. Wire cost depends only on count*elemSize, but the split is
// part of every schedule: segment counts, chunk boundaries and the
// count-below-ranks fallbacks are computed in elements. Changing the
// mapping would therefore change makespans (and every compiled table), so
// it stays even though selection runs in timing mode and holds no payload.
func SizeToCount(bytes int) (count, elemSize int) {
	if bytes < 8 {
		return 1, bytes
	}
	if bytes <= 1024 || bytes%128 != 0 {
		return bytes / 8, 8
	}
	return 128, bytes / 128
}

// SimGridSet returns the algorithm set used in the Fig. 4 simulation study
// for a collective (the SMPI selector names reported in the paper).
func SimGridSet(c coll.Collective) []coll.Algorithm {
	var names []string
	switch c {
	case coll.Reduce:
		names = []string{"ompi_basic_linear", "ompi_chain", "ompi_pipeline", "ompi_binary", "ompi_binomial", "ompi_in_order_binary", "rab", "scatter_gather"}
	case coll.Allreduce:
		names = []string{"lr", "rdb", "rab_rdb", "ompi_ring_segmented", "redbcast"}
	case coll.Alltoall:
		names = []string{"basic_linear", "pair", "bruck", "ring", "2dmesh", "3dmesh"}
	default:
		return coll.Algorithms(c)
	}
	out := make([]coll.Algorithm, 0, len(names))
	for _, n := range names {
		if al, ok := coll.ByName(c, n); ok {
			out = append(out, al)
		}
	}
	return out
}

// SkewPolicy selects how the maximum process skew is derived for the
// artificial patterns of a study.
type SkewPolicy int

const (
	// SkewAvgRuntime uses factor * t^a where t^a is the mean no-delay
	// last-delay over the algorithm set (Sec. III-B; Figs. 4 and 5).
	SkewAvgRuntime SkewPolicy = iota
	// SkewPerAlgorithm gives algorithm i a skew of factor * its own
	// no-delay runtime (the Fig. 6 robustness methodology).
	SkewPerAlgorithm
	// SkewFixed uses FixedSkewNs for every pattern (the Fig. 8 methodology,
	// where the skew is the maximum observed in the application trace).
	SkewFixed
)

// GridConfig describes one pattern x algorithm measurement grid.
type GridConfig struct {
	Platform   *netmodel.Platform
	Procs      int
	Seed       int64
	Algorithms []coll.Algorithm
	// Shapes are the artificial pattern rows; a no_delay row is always
	// included first.
	Shapes []pattern.Shape
	// ExtraPatterns are appended verbatim as additional rows (e.g. a traced
	// FT-Scenario). Their size must match Procs.
	ExtraPatterns []pattern.Pattern
	// MsgBytes is the wire message size (per destination).
	MsgBytes int
	Root     int
	Policy   SkewPolicy
	// Factor scales the skew magnitude under SkewAvgRuntime and
	// SkewPerAlgorithm (the paper uses 0.5/1.0/1.5 and reports 1.5 for the
	// simulation study, 1.0 elsewhere).
	Factor      float64
	FixedSkewNs int64
	Reps        int
	Warmup      int
	// PerfectClocks/NoNoise select simulation mode.
	PerfectClocks bool
	NoNoise       bool
	// Faults configures deterministic fault injection for every cell of the
	// grid; the zero value disables it (and is bit-identical to a build
	// without fault support).
	Faults fault.Profile
	// WatchdogNs arms each cell's virtual-time watchdog: a simulation whose
	// next event would exceed this deadline aborts with a diagnostic instead
	// of running (or hanging) forever. 0 disables the watchdog.
	WatchdogNs int64
	// Runner executes the grid's cells; nil uses runner.New(), a
	// GOMAXPROCS-wide engine. Every cell is simulated; results are
	// bit-identical at any worker count.
	Runner *runner.Engine
	// Progress, when non-nil, is called after every completed cell with the
	// number of finished and total cells of the whole grid (both measurement
	// passes). Calls are serialized.
	Progress func(done, total int)
}

func (g *GridConfig) fill() error {
	if g.Platform == nil {
		return fmt.Errorf("expt: nil platform")
	}
	if len(g.Algorithms) == 0 {
		return fmt.Errorf("expt: no algorithms")
	}
	if g.Procs == 0 {
		g.Procs = g.Platform.Size()
	}
	if g.MsgBytes <= 0 {
		return fmt.Errorf("expt: message size must be positive")
	}
	if g.Factor == 0 {
		g.Factor = 1.0
	}
	if g.Reps <= 0 {
		if g.NoNoise || !g.Platform.Noise.Enabled {
			g.Reps, g.Warmup = 1, 0 // deterministic in simulation mode
		} else {
			g.Reps, g.Warmup = 5, 1
		}
	}
	for _, ep := range g.ExtraPatterns {
		if ep.Size() != g.Procs {
			return fmt.Errorf("expt: extra pattern %q sized %d, procs %d", ep.Name, ep.Size(), g.Procs)
		}
	}
	return nil
}

// studyProgress aggregates per-grid progress into one (done, total)
// sequence over a study of nGrids equally sized grids of gridCells cells
// each. The returned factory yields the i-th grid's callback (nil when cb
// is nil, so it can be assigned to GridConfig.Progress directly).
func studyProgress(cb func(done, total int), nGrids, gridCells int) func(i int) func(done, total int) {
	if cb == nil {
		return func(int) func(done, total int) { return nil }
	}
	total := nGrids * gridCells
	return func(i int) func(done, total int) {
		offset := i * gridCells
		return func(done, _ int) { cb(offset+done, total) }
	}
}

// cellConfig builds the micro-benchmark configuration of one grid cell.
// seed must come from the runner seed-derivation helpers so that it depends
// only on the cell's grid coordinates, never on execution order.
func (g *GridConfig) cellConfig(al coll.Algorithm, pat pattern.Pattern, seed int64) microbench.Config {
	count, elemSize := SizeToCount(g.MsgBytes)
	return microbench.Config{
		Platform:      g.Platform,
		Procs:         g.Procs,
		Seed:          seed,
		Algorithm:     al,
		Count:         count,
		ElemSize:      elemSize,
		Root:          g.Root,
		Pattern:       pat,
		Reps:          g.Reps,
		Warmup:        g.Warmup,
		PerfectClocks: g.PerfectClocks,
		NoNoise:       g.NoNoise,
		Faults:        g.Faults,
		WatchdogNs:    g.WatchdogNs,
	}
}

// BuildMatrix measures the full grid and returns the matrix (rows:
// no_delay, then Shapes in order, then ExtraPatterns) plus the per-
// algorithm no-delay runtimes (ns).
func BuildMatrix(g GridConfig) (*core.Matrix, []float64, error) {
	return BuildMatrixCtx(context.Background(), g)
}

// BuildMatrixCtx is BuildMatrix with cancellation. Cells are executed on
// the grid's runner engine (runner.New() when unset); results are
// bit-identical to a serial evaluation at any worker count because every
// cell's seed is derived from its grid coordinates. The first failed cell
// (smallest grid index) aborts the build; see BuildMatrixDegraded for the
// fault-tolerant variant.
func BuildMatrixCtx(ctx context.Context, g GridConfig) (*core.Matrix, []float64, error) {
	m, noDelay, _, err := buildMatrix(ctx, g, false)
	return m, noDelay, err
}

// buildMatrix measures the grid. With tolerate=false the first failed cell
// aborts the build (the historical BuildMatrix contract); with tolerate=true
// failed cells are recorded in the returned report and left as NaN holes in
// the matrix. A zero-failure tolerant build returns a matrix bit-identical
// to an intolerant one.
func buildMatrix(ctx context.Context, g GridConfig, tolerate bool) (*core.Matrix, []float64, *DegradedReport, error) {
	if err := g.fill(); err != nil {
		return nil, nil, nil, err
	}
	if len(g.Shapes) == 0 && len(g.ExtraPatterns) == 0 {
		return nil, nil, nil, fmt.Errorf("expt: no pattern rows requested")
	}

	eng := g.Runner
	if eng == nil {
		eng = runner.New()
	}
	nAlg := len(g.Algorithms)
	total := nAlg * (1 + len(g.Shapes) + len(g.ExtraPatterns))
	var opts []runner.Option
	if g.Progress != nil {
		// Both passes run on the same engine sequentially; Map serializes
		// progress callbacks, so the counter needs no further locking.
		completed := 0
		cb := g.Progress
		opts = append(opts, runner.WithProgress(func(runner.Progress) {
			completed++
			cb(completed, total)
		}))
	}
	report := &DegradedReport{FaultCounts: map[string]int{}}

	// Every cell of a deterministic grid starts from the same world, so
	// rep 0's harmonization is simulated once here and replayed in each
	// cell. When the recording fails (a grid with noise, clock error,
	// faults or a watchdog, a world that cannot be built, or a butterfly
	// that overruns the window) every cell simulates it, as before.
	harm, _ := microbench.RecordHarmonization(g.cellConfig(g.Algorithms[0], pattern.Pattern{}, g.Seed))
	cell := func(label string, cfg microbench.Config) runner.Cell {
		return runner.Cell{Label: label, Config: cfg, Harmonization: harm}
	}

	// Pass 1: no-delay runtimes (the skew policies depend on them).
	cells := make([]runner.Cell, nAlg)
	for j, al := range g.Algorithms {
		cells[j] = cell(pattern.NoDelay.String()+"/"+al.Name, g.cellConfig(al, pattern.Pattern{}, runner.NoDelaySeed(g.Seed)))
	}
	res, cellErrs, err := eng.MapAll(ctx, cells, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(cellErrs) > 0 && !tolerate {
		ce := cellErrs[0]
		return nil, nil, nil, fmt.Errorf("expt: no-delay %s: %w", g.Algorithms[ce.Index].Name, ce.Err)
	}
	failed := make(map[int]bool) // pass-1 cell index -> failed
	for _, ce := range cellErrs {
		failed[ce.Index] = true
		report.record(pattern.NoDelay.String(), g.Algorithms[ce.Index], ce.Err)
	}
	noDelay := make([]float64, nAlg)
	var survivorSum float64
	survivors := 0
	for j := range g.Algorithms {
		if failed[j] {
			noDelay[j] = math.NaN()
			continue
		}
		noDelay[j] = posFloor(res[j].LastDelay.Mean)
		survivorSum += noDelay[j]
		survivors++
		report.Retransmits += res[j].Retransmits
		report.Drops += res[j].Drops
	}
	// Matches stats.Mean(noDelay) exactly in the zero-failure case.
	avgRuntime := math.NaN()
	if survivors > 0 {
		avgRuntime = survivorSum / float64(survivors)
	}

	rows := []string{pattern.NoDelay.String()}
	for _, sh := range g.Shapes {
		rows = append(rows, sh.String())
	}
	for _, ep := range g.ExtraPatterns {
		rows = append(rows, ep.Name)
	}
	collective := g.Algorithms[0].Coll
	m := core.NewMatrix(collective, rows, g.Algorithms)
	m.MsgBytes = g.MsgBytes
	m.Procs = g.Procs
	m.Machine = g.Platform.Name
	for j := range g.Algorithms {
		m.Set(0, j, noDelay[j])
	}

	skewFor := func(algIdx int) int64 {
		switch g.Policy {
		case SkewPerAlgorithm:
			if math.IsNaN(noDelay[algIdx]) {
				// The algorithm's own baseline failed; it will be excluded,
				// but its pattern cells still need a finite, deterministic
				// skew. Fall back to the survivors' average.
				return int64(g.Factor * avgRuntime)
			}
			return int64(g.Factor * noDelay[algIdx])
		case SkewFixed:
			return g.FixedSkewNs
		default:
			return int64(g.Factor * avgRuntime)
		}
	}

	// Pass 2: the pattern rows, one cell per (row, algorithm). Generate is a
	// pure function of its arguments, so a row's pattern is materialized
	// once per distinct skew instead of once per algorithm — under the
	// default (grid-average) skew policy that is a single generation per
	// row, shared read-only by every cell in it.
	cells = cells[:0]
	for si, sh := range g.Shapes {
		row := si + 1
		var pat pattern.Pattern
		patSkew, patOK := int64(0), false
		for j, al := range g.Algorithms {
			if s := skewFor(j); !patOK || s != patSkew {
				pat = pattern.Generate(sh, g.Procs, s, runner.PatternSeed(g.Seed, si))
				patSkew, patOK = s, true
			}
			cells = append(cells, cell(sh.String()+"/"+al.Name, g.cellConfig(al, pat, runner.CellSeed(g.Seed, row, j))))
		}
	}
	for ei, ep := range g.ExtraPatterns {
		row := 1 + len(g.Shapes) + ei
		for j, al := range g.Algorithms {
			cells = append(cells, cell(ep.Name+"/"+al.Name, g.cellConfig(al, ep, runner.CellSeed(g.Seed, row, j))))
		}
	}
	res, cellErrs, err = eng.MapAll(ctx, cells, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(cellErrs) > 0 && !tolerate {
		ce := cellErrs[0]
		return nil, nil, nil, fmt.Errorf("expt: %s: %w", ce.Label, ce.Err)
	}
	failed = make(map[int]bool)
	for _, ce := range cellErrs {
		failed[ce.Index] = true
		report.record(rows[1+ce.Index/nAlg], g.Algorithms[ce.Index%nAlg], ce.Err)
	}
	for i := range cells {
		if failed[i] {
			continue // leave the NaN hole for PruneFailed/exclusion
		}
		m.Set(1+i/nAlg, i%nAlg, posFloor(res[i].LastDelay.Mean))
		report.Retransmits += res[i].Retransmits
		report.Drops += res[i].Drops
	}
	report.finish(m)
	return m, noDelay, report, nil
}

// posFloor clamps a measured mean last-delay to at least 1 ns. A cell can
// legitimately measure d̂ = 0 when the schedule fully absorbs the arrival
// skew (the collective completes the instant the last rank arrives, e.g.
// an eager linear bcast under an ascending pattern); the selection
// analyses require strictly positive matrices, and "finished within the
// clock resolution" is indistinguishable from 1 ns. NaN holes (failed
// cells) pass through untouched.
func posFloor(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}
