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

// Fig5Config parameterizes the real-machine pattern-impact study
// (Sec. IV-B): Table II algorithms under a subset of distinct patterns,
// skew = the average no-delay runtime of the algorithms.
type Fig5Config struct {
	Platform   *netmodel.Platform
	Collective coll.Collective
	Procs      int
	MsgSizes   []int
	Seed       int64
	Reps       int
	// Runner executes the grids (nil: runner.New()); Progress reports
	// (done, total) cells over the whole study.
	Runner   *runner.Engine
	Progress func(done, total int)
}

// Fig5SizeResult carries the matrix and the 5%-good classification.
type Fig5SizeResult struct {
	MsgBytes int
	Matrix   *core.Matrix
	// Good[i][j]: algorithm j is within 5% of the fastest under pattern i.
	Good [][]bool
}

// Fig5Result aggregates the study.
type Fig5Result struct {
	Machine    string
	Collective coll.Collective
	Procs      int
	Sizes      []Fig5SizeResult
}

// DefaultFig5Sizes matches the paper's presented sizes.
func DefaultFig5Sizes() []int { return []int{8, 1024, 1048576} }

// Fig5Shapes is the subset of "most distinct" patterns shown in Fig. 5.
func Fig5Shapes() []pattern.Shape {
	return []pattern.Shape{
		pattern.Ascending, pattern.Descending,
		pattern.LastDelayed, pattern.FirstDelayed, pattern.Random,
	}
}

// RunFig5 executes the study on a noisy machine with HCA-synchronized
// clocks (the real-machine methodology).
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	return RunFig5Ctx(context.Background(), cfg)
}

// RunFig5Ctx is RunFig5 with cancellation.
func RunFig5Ctx(ctx context.Context, cfg Fig5Config) (*Fig5Result, error) {
	if cfg.Platform == nil {
		cfg.Platform = netmodel.Hydra()
	}
	if cfg.Procs == 0 {
		cfg.Procs = 1024
	}
	if len(cfg.MsgSizes) == 0 {
		cfg.MsgSizes = DefaultFig5Sizes()
	}
	algs := coll.TableII(cfg.Collective)
	if len(algs) == 0 {
		return nil, fmt.Errorf("expt: no Table II algorithms for %v", cfg.Collective)
	}
	shapes := Fig5Shapes()
	progress := studyProgress(cfg.Progress, len(cfg.MsgSizes), len(algs)*(1+len(shapes)))
	out := &Fig5Result{Machine: cfg.Platform.Name, Collective: cfg.Collective, Procs: cfg.Procs}
	for i, sz := range cfg.MsgSizes {
		m, _, err := BuildMatrixCtx(ctx, GridConfig{
			Platform:   cfg.Platform,
			Procs:      cfg.Procs,
			Seed:       cfg.Seed,
			Algorithms: algs,
			Shapes:     shapes,
			MsgBytes:   sz,
			Policy:     SkewAvgRuntime,
			Factor:     1.0,
			Reps:       cfg.Reps,
			Runner:     cfg.Runner,
			Progress:   progress(i),
		})
		if err != nil {
			return nil, err
		}
		good := make([][]bool, len(m.Patterns))
		for i := range m.Patterns {
			good[i] = m.GoodAlgorithms(i)
		}
		out.Sizes = append(out.Sizes, Fig5SizeResult{MsgBytes: sz, Matrix: m, Good: good})
	}
	return out, nil
}

// Format renders each size as a pattern x algorithm runtime table with the
// paper's good/slow marking ('*' = within 5% of fastest, '!' otherwise).
func (r *Fig5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5: %v runtimes (d-hat) on %s, %d procs\n", r.Collective, r.Machine, r.Procs)
	fmt.Fprintf(&b, "('*' within 5%% of the row's fastest, '!' slower)\n")
	for _, s := range r.Sizes {
		fmt.Fprintf(&b, "\n-- message size %s --\n", table.Bytes(s.MsgBytes))
		headers := []string{"pattern"}
		for _, al := range s.Matrix.Algorithms {
			headers = append(headers, fmt.Sprintf("%d:%s", al.ID, al.Abbrev))
		}
		tb := table.New(headers...)
		for i, pat := range s.Matrix.Patterns {
			row := []string{pat}
			for j := range s.Matrix.Algorithms {
				cell := table.Ns(s.Matrix.ValueNs[i][j])
				row = append(row, table.Mark(cell, s.Good[i][j], !s.Good[i][j]))
			}
			tb.AddRow(row...)
		}
		b.WriteString(tb.String())
	}
	return b.String()
}

// --- Fig. 6 -----------------------------------------------------------------

// Fig6Config parameterizes the robustness study (Sec. IV-C): every
// algorithm gets a pattern scaled to its own no-delay runtime.
type Fig6Config struct {
	Platform   *netmodel.Platform
	Collective coll.Collective
	Procs      int
	MsgSizes   []int
	Seed       int64
	Reps       int
	// Runner executes the grids (nil: runner.New()); Progress reports
	// (done, total) cells over the whole study.
	Runner   *runner.Engine
	Progress func(done, total int)
}

// Fig6SizeResult holds the normalized robustness cells for one size.
type Fig6SizeResult struct {
	MsgBytes int
	Matrix   *core.Matrix
	Rows     []string
	Cells    [][]core.RobustnessCell
}

// Fig6Result aggregates the robustness study.
type Fig6Result struct {
	Machine    string
	Collective coll.Collective
	Procs      int
	Sizes      []Fig6SizeResult
}

// RunFig6 executes the robustness study.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	return RunFig6Ctx(context.Background(), cfg)
}

// RunFig6Ctx is RunFig6 with cancellation.
func RunFig6Ctx(ctx context.Context, cfg Fig6Config) (*Fig6Result, error) {
	if cfg.Platform == nil {
		cfg.Platform = netmodel.Hydra()
	}
	if cfg.Procs == 0 {
		cfg.Procs = 1024
	}
	if len(cfg.MsgSizes) == 0 {
		cfg.MsgSizes = DefaultFig5Sizes()
	}
	algs := coll.TableII(cfg.Collective)
	if len(algs) == 0 {
		return nil, fmt.Errorf("expt: no Table II algorithms for %v", cfg.Collective)
	}
	shapes := pattern.ArtificialShapes()
	progress := studyProgress(cfg.Progress, len(cfg.MsgSizes), len(algs)*(1+len(shapes)))
	out := &Fig6Result{Machine: cfg.Platform.Name, Collective: cfg.Collective, Procs: cfg.Procs}
	for i, sz := range cfg.MsgSizes {
		m, _, err := BuildMatrixCtx(ctx, GridConfig{
			Platform:   cfg.Platform,
			Procs:      cfg.Procs,
			Seed:       cfg.Seed,
			Algorithms: algs,
			Shapes:     shapes,
			MsgBytes:   sz,
			Policy:     SkewPerAlgorithm,
			Factor:     1.0,
			Reps:       cfg.Reps,
			Runner:     cfg.Runner,
			Progress:   progress(i),
		})
		if err != nil {
			return nil, err
		}
		rows, cells, err := m.Robustness()
		if err != nil {
			return nil, err
		}
		out.Sizes = append(out.Sizes, Fig6SizeResult{MsgBytes: sz, Matrix: m, Rows: rows, Cells: cells})
	}
	return out, nil
}

// Format renders the normalized values with the paper's green ('*', at
// least 25% faster) and red ('!', at least 25% slower) marks.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: robustness of %v algorithms on %s, %d procs\n", r.Collective, r.Machine, r.Procs)
	fmt.Fprintf(&b, "(d-hat under pattern / d-hat no-delay - 1; '*' <= -0.25 absorbs skew, '!' >= +0.25 degrades)\n")
	for _, s := range r.Sizes {
		fmt.Fprintf(&b, "\n-- message size %s --\n", table.Bytes(s.MsgBytes))
		headers := []string{"pattern"}
		for _, al := range s.Matrix.Algorithms {
			headers = append(headers, fmt.Sprintf("%d:%s", al.ID, al.Abbrev))
		}
		tb := table.New(headers...)
		for i, pat := range s.Rows {
			row := []string{pat}
			for _, c := range s.Cells[i] {
				row = append(row, table.Mark(fmt.Sprintf("%+.3f", c.Normalized), c.Class == core.Faster, c.Class == core.Slower))
			}
			tb.AddRow(row...)
		}
		b.WriteString(tb.String())
	}
	return b.String()
}
