package expt

import (
	"context"
	"fmt"
	"strings"

	"collsel/internal/coll"
	"collsel/internal/fault"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/runner"
	"collsel/internal/table"
)

// FaultStudyConfig parameterizes the drop-rate sweep: for every
// (collective, drop rate) the full pattern x algorithm grid is measured
// under deterministic fault injection and the degraded selection is
// recorded, showing how the recommendation shifts — and which algorithms
// stop completing at all — as the network gets lossier.
type FaultStudyConfig struct {
	Platform *netmodel.Platform
	// Collectives to sweep (default: Reduce, Allreduce, Alltoall).
	Collectives []coll.Collective
	// Procs defaults to 64 (the sweep re-simulates every grid per drop
	// rate, so the paper-scale 1024 is impractical here).
	Procs int
	// MsgBytes is the wire message size (default 32 KiB).
	MsgBytes int
	// DropRates are the per-message drop probabilities (default
	// 0, 0.005, 0.02, 0.08, 0.2).
	DropRates []float64
	// MaxRetries caps retransmissions per message (default
	// fault.DefaultMaxRetries).
	MaxRetries int
	Seed       int64
	// Reps defaults to 1: with fault injection active the run is already an
	// adverse-conditions probe, not a statistics-grade measurement.
	Reps int
	// WatchdogNs arms each cell's virtual-time watchdog (default 60 s of
	// virtual time, generous enough for any surviving cell).
	WatchdogNs int64
	// Runner executes the grids (nil: runner.New()); Progress reports
	// (done, total) cells over the whole sweep.
	Runner   *runner.Engine
	Progress func(done, total int)
}

// FaultStudyRow is one (collective, drop rate) outcome.
type FaultStudyRow struct {
	Collective coll.Collective
	DropRate   float64
	// AllFailed is true when no algorithm survived; the remaining fields
	// except FailedCells/Excluded are then zero.
	AllFailed bool
	// Selected is the most robust surviving algorithm; Score its average
	// normalized runtime.
	Selected coll.Algorithm
	Score    float64
	// Changed is true when Selected differs from this collective's
	// selection at the sweep's first (lowest) drop rate.
	Changed bool
	// Degraded is true when at least one cell failed.
	Degraded    bool
	FailedCells int
	Excluded    []coll.Algorithm
	// Retransmits and Drops total the transport fault traffic of the grid's
	// successful cells.
	Retransmits, Drops int64
}

// FaultStudyResult aggregates the sweep.
type FaultStudyResult struct {
	Machine  string
	Procs    int
	MsgBytes int
	Rows     []FaultStudyRow
}

// DefaultDropRates returns the sweep's default drop probabilities.
func DefaultDropRates() []float64 { return []float64{0, 0.005, 0.02, 0.08, 0.2} }

// RunFaultStudy executes the sweep; RunFaultStudyCtx adds cancellation.
func RunFaultStudy(cfg FaultStudyConfig) (*FaultStudyResult, error) {
	return RunFaultStudyCtx(context.Background(), cfg)
}

// RunFaultStudyCtx executes the drop-rate sweep. Rows are ordered by
// (collective, drop rate); the whole result is deterministic at any worker
// count.
func RunFaultStudyCtx(ctx context.Context, cfg FaultStudyConfig) (*FaultStudyResult, error) {
	if cfg.Platform == nil {
		cfg.Platform = netmodel.Hydra()
	}
	if len(cfg.Collectives) == 0 {
		cfg.Collectives = []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall}
	}
	if cfg.Procs == 0 {
		cfg.Procs = 64
	}
	if cfg.MsgBytes == 0 {
		cfg.MsgBytes = 32 * 1024
	}
	if len(cfg.DropRates) == 0 {
		cfg.DropRates = DefaultDropRates()
	}
	if cfg.Reps == 0 {
		cfg.Reps = 1
	}
	if cfg.WatchdogNs == 0 {
		cfg.WatchdogNs = 60_000_000_000
	}
	shapes := pattern.ArtificialShapes()

	algsOf := make([][]coll.Algorithm, len(cfg.Collectives))
	totalCells := 0
	for i, c := range cfg.Collectives {
		algsOf[i] = coll.TableII(c)
		if len(algsOf[i]) == 0 {
			algsOf[i] = coll.Algorithms(c)
		}
		if len(algsOf[i]) == 0 {
			return nil, fmt.Errorf("expt: no algorithms for %v", c)
		}
		totalCells += len(algsOf[i]) * (1 + len(shapes)) * len(cfg.DropRates)
	}
	offset := 0
	gridProgress := func(gridCells int) func(done, total int) {
		if cfg.Progress == nil {
			return nil
		}
		base := offset
		offset += gridCells
		return func(done, _ int) { cfg.Progress(base+done, totalCells) }
	}

	out := &FaultStudyResult{Machine: cfg.Platform.Name, Procs: cfg.Procs, MsgBytes: cfg.MsgBytes}
	for ci, c := range cfg.Collectives {
		algs := algsOf[ci]
		var baseline coll.Algorithm
		for di, rate := range cfg.DropRates {
			prof := fault.Profile{}
			if rate > 0 {
				prof = fault.Profile{Enabled: true, DropProb: rate, MaxRetries: cfg.MaxRetries}
			}
			m, _, report, err := BuildMatrixDegraded(ctx, GridConfig{
				Platform:   cfg.Platform,
				Procs:      cfg.Procs,
				Seed:       cfg.Seed,
				Algorithms: algs,
				Shapes:     shapes,
				MsgBytes:   cfg.MsgBytes,
				Policy:     SkewAvgRuntime,
				Factor:     1.0,
				Reps:       cfg.Reps,
				Faults:     prof,
				WatchdogNs: cfg.WatchdogNs,
				Runner:     cfg.Runner,
				Progress:   gridProgress(len(algs) * (1 + len(shapes))),
			})
			if err != nil {
				return nil, err
			}
			row := FaultStudyRow{
				Collective:  c,
				DropRate:    rate,
				Degraded:    report.Degraded(),
				FailedCells: len(report.Cells),
				Excluded:    report.Excluded,
				Retransmits: report.Retransmits,
				Drops:       report.Drops,
			}
			pruned, _ := m.PruneFailed()
			if len(pruned.Algorithms) == 0 {
				row.AllFailed = true
			} else {
				ranking, err := pruned.SelectRobust()
				if err != nil {
					return nil, fmt.Errorf("expt: fault study %v at drop %g: %w", c, rate, err)
				}
				row.Selected = ranking[0].Algorithm
				row.Score = ranking[0].Score
				if di == 0 {
					baseline = row.Selected
				}
				row.Changed = row.Selected.Name != baseline.Name
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Format renders one table per collective: drop rate, surviving selection,
// robustness score, transport fault traffic and exclusions ('!' marks a
// selection that differs from the lowest drop rate's).
func (r *FaultStudyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault study: degraded selection on %s, %d procs, %s messages\n",
		r.Machine, r.Procs, table.Bytes(r.MsgBytes))
	fmt.Fprintf(&b, "('!' selection changed vs. the lowest drop rate)\n")
	var cur coll.Collective
	var tb *table.Table
	flush := func() {
		if tb != nil {
			b.WriteString(tb.String())
		}
	}
	for _, row := range r.Rows {
		if tb == nil || row.Collective != cur {
			flush()
			cur = row.Collective
			fmt.Fprintf(&b, "\n-- %v --\n", cur)
			tb = table.New("drop", "selected", "score", "retransmits", "drops", "failed cells", "excluded")
		}
		sel, score := "(all failed)", "-"
		if !row.AllFailed {
			sel = table.Mark(fmt.Sprintf("%d:%s", row.Selected.ID, row.Selected.Name), false, row.Changed)
			score = fmt.Sprintf("%.3f", row.Score)
		}
		excluded := "-"
		if len(row.Excluded) > 0 {
			names := make([]string, len(row.Excluded))
			for i, al := range row.Excluded {
				names[i] = al.Name
			}
			excluded = strings.Join(names, ",")
		}
		tb.AddRow(
			fmt.Sprintf("%.3f", row.DropRate),
			sel, score,
			fmt.Sprintf("%d", row.Retransmits),
			fmt.Sprintf("%d", row.Drops),
			fmt.Sprintf("%d", row.FailedCells),
			excluded,
		)
	}
	flush()
	return b.String()
}
