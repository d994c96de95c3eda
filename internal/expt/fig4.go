package expt

import (
	"context"
	"fmt"
	"strings"

	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/runner"
	"collsel/internal/table"
)

// Fig4Config parameterizes the Section III simulation study.
type Fig4Config struct {
	// Collective under study (the paper presents Reduce, Allreduce,
	// Alltoall).
	Collective coll.Collective
	// Procs defaults to 1024 (32x32), the paper's setting; smaller values
	// run proportionally faster.
	Procs int
	// MsgSizes in bytes; defaults to a 2 B .. 1 MiB ladder.
	MsgSizes []int
	// Factor is the skew multiplier on t^a; the paper reports 1.5.
	Factor float64
	Seed   int64
	// Procs beyond the SimCluster need a custom platform.
	Platform *netmodel.Platform
	// Runner executes the grids (nil: runner.New()).
	Runner *runner.Engine
	// Progress, when non-nil, is called after each completed cell with
	// (done, total) over the whole study (all sizes).
	Progress func(done, total int)
}

// Fig4SizeResult is the study outcome for one message size.
type Fig4SizeResult struct {
	MsgBytes int
	Matrix   *core.Matrix
	// Cells[i] corresponds to Matrix.Patterns[i].
	Cells []core.PotentialCell
}

// Fig4Result aggregates the whole study for one collective.
type Fig4Result struct {
	Collective coll.Collective
	Procs      int
	Factor     float64
	Sizes      []Fig4SizeResult
}

// DefaultFig4Sizes is the message-size ladder of the simulation study.
func DefaultFig4Sizes() []int {
	return []int{2, 16, 256, 1024, 16384, 262144, 1048576}
}

// RunFig4 executes the simulation study: noiseless SimCluster, perfect
// clocks, SimGrid algorithm set, eight artificial patterns with maximum
// skew 1.5*t^a.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	return RunFig4Ctx(context.Background(), cfg)
}

// RunFig4Ctx is RunFig4 with cancellation.
func RunFig4Ctx(ctx context.Context, cfg Fig4Config) (*Fig4Result, error) {
	if cfg.Platform == nil {
		cfg.Platform = netmodel.SimCluster()
	}
	if cfg.Procs == 0 {
		cfg.Procs = cfg.Platform.Size()
	}
	if len(cfg.MsgSizes) == 0 {
		cfg.MsgSizes = DefaultFig4Sizes()
	}
	if cfg.Factor == 0 {
		cfg.Factor = 1.5
	}
	algs := SimGridSet(cfg.Collective)
	if len(algs) == 0 {
		return nil, fmt.Errorf("expt: no SimGrid algorithms for %v", cfg.Collective)
	}
	shapes := pattern.ArtificialShapes()
	progress := studyProgress(cfg.Progress, len(cfg.MsgSizes), len(algs)*(1+len(shapes)))
	out := &Fig4Result{Collective: cfg.Collective, Procs: cfg.Procs, Factor: cfg.Factor}
	for i, sz := range cfg.MsgSizes {
		m, _, err := BuildMatrixCtx(ctx, GridConfig{
			Platform:      cfg.Platform,
			Procs:         cfg.Procs,
			Seed:          cfg.Seed,
			Algorithms:    algs,
			Shapes:        shapes,
			MsgBytes:      sz,
			Policy:        SkewAvgRuntime,
			Factor:        cfg.Factor,
			PerfectClocks: true,
			NoNoise:       true,
			Runner:        cfg.Runner,
			Progress:      progress(i),
		})
		if err != nil {
			return nil, err
		}
		cells, err := m.OptimizationPotential()
		if err != nil {
			return nil, err
		}
		out.Sizes = append(out.Sizes, Fig4SizeResult{MsgBytes: sz, Matrix: m, Cells: cells})
	}
	return out, nil
}

// Format renders the study like one Fig. 4 heatmap: rows are patterns,
// columns are message sizes, each cell shows the per-pattern best algorithm
// and its runtime relative to the no-delay winner of that size.
func (r *Fig4Result) Format() string {
	if len(r.Sizes) == 0 {
		return "(empty study)\n"
	}
	headers := []string{"pattern \\ size"}
	for _, s := range r.Sizes {
		headers = append(headers, table.Bytes(s.MsgBytes))
	}
	tb := table.New(headers...)
	nPat := len(r.Sizes[0].Matrix.Patterns)
	for i := 0; i < nPat; i++ {
		row := []string{r.Sizes[0].Matrix.Patterns[i]}
		for _, s := range r.Sizes {
			c := s.Cells[i]
			row = append(row, fmt.Sprintf("%s %.2f", shortName(c.Best), c.Ratio))
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 simulation study: %v, %d procs, skew = %.1f * t^a\n", r.Collective, r.Procs, r.Factor)
	fmt.Fprintf(&b, "(cell: best algorithm under the pattern; ratio of its d-hat to the no-delay winner's d-hat under the same pattern)\n\n")
	b.WriteString(tb.String())
	return b.String()
}

func shortName(al coll.Algorithm) string {
	if al.SimGridName != "" {
		return strings.TrimPrefix(al.SimGridName, "ompi_")
	}
	return al.Name
}
