package expt

import (
	"context"
	"fmt"

	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/fault"
	"collsel/internal/model"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/runner"
)

// SelectSpec fully specifies one robust-selection cell: the paper's
// pattern x algorithm grid for a single (collective, message size, process
// count) on one machine, plus the fault/watchdog regime. It is the shared
// input of collsel.SelectCtx and the decision-table compiler
// (internal/store), which both delegate to SelectRobustCtx — by
// construction an answer compiled into an artifact is bit-identical to the
// answer a direct selection with the same spec would produce.
type SelectSpec struct {
	Platform   *netmodel.Platform
	Collective coll.Collective
	// MsgBytes is the message size (per pair for Alltoall); required.
	MsgBytes int
	// Procs defaults to Platform.Size().
	Procs int
	// Root rank for rooted collectives.
	Root int
	// MaxSkewNs fixes the pattern magnitude; 0 derives it from the average
	// no-delay runtime of the algorithm set (SkewAvgRuntime).
	MaxSkewNs int64
	// Factor scales the derived skew magnitude when MaxSkewNs is 0.
	Factor float64
	// Reps/Warmup are the per-cell repetition counts (0: grid defaults).
	Reps   int
	Warmup int
	// Seed drives the machine's noise, clocks and fault schedule.
	Seed int64
	// Faults enables deterministic fault injection (degraded-mode
	// selection); the zero value disables it.
	Faults fault.Profile
	// WatchdogNs arms each cell's virtual-time watchdog (0 disables it).
	WatchdogNs int64
	// Algorithms overrides the candidate set; nil benchmarks the Table II
	// algorithms of the collective (all registered ones when the collective
	// has no Table II set).
	Algorithms []coll.Algorithm
	// PruneTopK, when positive, asks the analytical model tier to rank the
	// candidate set first and simulates only the model's top K algorithms
	// (model-guided grid pruning). 0 runs the full dense sweep — the
	// escape hatch when the model is not trusted for a platform. The
	// pruned ranking keeps the candidates' original order, so whenever the
	// dense winner survives the cut the pruned selection reproduces it
	// bit-for-bit (the robust ranking's tie-break is candidate position).
	PruneTopK int
	// Runner executes the grid's cells; nil uses runner.New().
	Runner *runner.Engine
	// Progress, when non-nil, is called after every measured cell with
	// (done, total) over the spec's whole grid.
	Progress func(done, total int)
}

// SelectOutcome is the result of one robust-selection cell.
type SelectOutcome struct {
	// Ranking lists the (surviving) algorithms, most robust first.
	Ranking []core.Choice
	// Conventional is what a synchronized (no-delay) micro-benchmark would
	// pick.
	Conventional coll.Algorithm
	// Matrix is the underlying measurement grid (pruned to survivors in a
	// degraded selection).
	Matrix *core.Matrix
	// Degraded is true when fault injection failed at least one grid cell.
	Degraded bool
	// Excluded lists the algorithms dropped from a degraded ranking.
	Excluded []coll.Algorithm
	// FaultCounts maps an algorithm name to its number of failed cells.
	FaultCounts map[string]int
	// Report carries per-cell failure details (nil when fault injection and
	// the watchdog are disabled).
	Report *DegradedReport
}

// CandidateAlgorithms returns the default candidate set of a collective:
// its Table II algorithms, or every registered algorithm when the
// collective has no Table II set.
func CandidateAlgorithms(c coll.Collective) []coll.Algorithm {
	algs := coll.TableII(c)
	if len(algs) == 0 {
		algs = coll.Algorithms(c)
	}
	return algs
}

// SelectRobustCtx runs the paper's full selection methodology for one spec:
// benchmark every candidate algorithm under the no-delay baseline and the
// eight artificial arrival patterns, rank by average normalized runtime and
// return the most robust choice first. With fault injection or a watchdog
// enabled the selection runs in degraded mode: cells that crash, exhaust
// their retransmission budget or trip the watchdog exclude their algorithm
// from the ranking instead of aborting.
//
// The outcome is bit-identical at any worker count and is a pure function
// of the spec (given a fixed algorithm registry), which is what makes
// compiled decision tables equivalent to live selections.
func SelectRobustCtx(ctx context.Context, spec SelectSpec) (*SelectOutcome, error) {
	algs := spec.Algorithms
	if len(algs) == 0 {
		algs = CandidateAlgorithms(spec.Collective)
	}
	if spec.PruneTopK > 0 && spec.PruneTopK < len(algs) {
		pruned, err := model.TopK(model.Spec{
			Platform:   spec.Platform,
			Collective: spec.Collective,
			MsgBytes:   spec.MsgBytes,
			Procs:      spec.Procs,
			Factor:     spec.Factor,
			Seed:       spec.Seed,
			Algorithms: algs,
		}, spec.PruneTopK)
		if err != nil {
			return nil, fmt.Errorf("expt: model pruning: %w", err)
		}
		algs = pruned
	}
	policy := SkewAvgRuntime
	if spec.MaxSkewNs > 0 {
		policy = SkewFixed
	}
	grid := GridConfig{
		Platform:    spec.Platform,
		Procs:       spec.Procs,
		Seed:        spec.Seed,
		Algorithms:  algs,
		Shapes:      pattern.ArtificialShapes(),
		MsgBytes:    spec.MsgBytes,
		Root:        spec.Root,
		Policy:      policy,
		Factor:      spec.Factor,
		FixedSkewNs: spec.MaxSkewNs,
		Reps:        spec.Reps,
		Warmup:      spec.Warmup,
		Faults:      spec.Faults,
		WatchdogNs:  spec.WatchdogNs,
		Runner:      spec.Runner,
		Progress:    spec.Progress,
	}
	out := &SelectOutcome{}
	var m *core.Matrix
	var err error
	if spec.Faults.Enabled || spec.WatchdogNs > 0 {
		// Degraded mode: tolerate failed cells, exclude their algorithms and
		// rank the survivors. Only fault injection and the watchdog can fail
		// cells here, so an empty survivor set means every algorithm faulted.
		var report *DegradedReport
		m, _, report, err = BuildMatrixDegraded(ctx, grid)
		if err != nil {
			return nil, err
		}
		m, _ = m.PruneFailed()
		out.Report = report
		if report.Degraded() {
			out.Degraded = true
			out.Excluded = report.Excluded
			out.FaultCounts = report.FaultCounts
		}
		if len(m.Algorithms) == 0 {
			return nil, fmt.Errorf("expt: every algorithm failed under fault injection: %s", report)
		}
	} else {
		m, _, err = BuildMatrixCtx(ctx, grid)
		if err != nil {
			return nil, err
		}
	}
	ranking, err := m.SelectRobust()
	if err != nil {
		return nil, err
	}
	conventional, err := m.NoDelayChoice()
	if err != nil {
		return nil, err
	}
	out.Ranking = ranking
	out.Conventional = conventional
	out.Matrix = m
	return out, nil
}
