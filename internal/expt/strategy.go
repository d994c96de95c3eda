package expt

import (
	"context"
	"fmt"
	"strings"

	"collsel/internal/coll"
	"collsel/internal/core"
	"collsel/internal/decision"
	"collsel/internal/stats"
	"collsel/internal/table"
)

// Strategy identifies one way of picking a collective algorithm.
type Strategy int

const (
	// StrategyDefault is the MPI library's fixed decision logic (the
	// deployment baseline; never sees arrival patterns).
	StrategyDefault Strategy = iota
	// StrategyNoDelay picks the winner of the synchronized micro-benchmark
	// (conventional tuning, e.g. OSU-style).
	StrategyNoDelay
	// StrategyRobust picks the paper's choice: smallest average normalized
	// runtime across arrival patterns.
	StrategyRobust
)

func (s Strategy) String() string {
	switch s {
	case StrategyDefault:
		return "library-default"
	case StrategyNoDelay:
		return "no-delay-tuned"
	default:
		return "pattern-robust"
	}
}

// StrategyOutcome is the evaluation of one strategy's pick.
type StrategyOutcome struct {
	Strategy  Strategy
	Algorithm coll.Algorithm
	// MeanNs is the mean d-hat of the picked algorithm across all pattern
	// rows (the expected per-call cost under realistic arrival imbalance).
	MeanNs float64
	// WorstNs is its worst-case d-hat across patterns.
	WorstNs float64
}

// StrategyComparison evaluates the three strategies on one measurement
// grid.
type StrategyComparison struct {
	Machine  string
	Coll     coll.Collective
	MsgBytes int
	Procs    int
	Outcomes []StrategyOutcome
}

// CompareStrategies builds the measurement matrix for g and evaluates the
// three selection strategies on it.
func CompareStrategies(g GridConfig) (*StrategyComparison, error) {
	return CompareStrategiesCtx(context.Background(), g)
}

// CompareStrategiesCtx is CompareStrategies with cancellation; the grid is
// measured on g.Runner (runner.New() when unset), and every call simulates
// its cells afresh.
func CompareStrategiesCtx(ctx context.Context, g GridConfig) (*StrategyComparison, error) {
	m, _, err := BuildMatrixCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	return CompareStrategiesOn(m)
}

// CompareStrategiesOn evaluates the strategies on an existing matrix.
func CompareStrategiesOn(m *core.Matrix) (*StrategyComparison, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cmp := &StrategyComparison{
		Machine:  m.Machine,
		Coll:     m.Collective,
		MsgBytes: m.MsgBytes,
		Procs:    m.Procs,
	}
	algIdx := func(name string) int {
		for j, al := range m.Algorithms {
			if al.Name == name {
				return j
			}
		}
		return -1
	}
	evaluate := func(s Strategy, al coll.Algorithm) error {
		j := algIdx(al.Name)
		if j < 0 {
			return fmt.Errorf("expt: strategy %v picked %q, not in the matrix", s, al.Name)
		}
		var worst float64
		var vals []float64
		for i := range m.Patterns {
			v := m.ValueNs[i][j]
			vals = append(vals, v)
			if v > worst {
				worst = v
			}
		}
		cmp.Outcomes = append(cmp.Outcomes, StrategyOutcome{
			Strategy:  s,
			Algorithm: al,
			MeanNs:    stats.Mean(vals),
			WorstNs:   worst,
		})
		return nil
	}

	def, err := decision.Fixed(m.Collective, m.Procs, m.MsgBytes)
	if err != nil {
		return nil, err
	}
	if err := evaluate(StrategyDefault, def); err != nil {
		return nil, err
	}
	nd, err := m.NoDelayChoice()
	if err != nil {
		return nil, err
	}
	if err := evaluate(StrategyNoDelay, nd); err != nil {
		return nil, err
	}
	robust, err := m.SelectRobust()
	if err != nil {
		return nil, err
	}
	if err := evaluate(StrategyRobust, robust[0].Algorithm); err != nil {
		return nil, err
	}
	return cmp, nil
}

// Format renders the comparison.
func (c *StrategyComparison) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Selection strategies for %v, %s, %d procs on %s\n",
		c.Coll, table.Bytes(c.MsgBytes), c.Procs, c.Machine)
	fmt.Fprintf(&b, "(expected per-call d-hat across arrival patterns)\n\n")
	tb := table.New("strategy", "algorithm", "mean over patterns", "worst pattern")
	for _, o := range c.Outcomes {
		tb.AddRow(o.Strategy.String(), o.Algorithm.Name, table.Ns(o.MeanNs), table.Ns(o.WorstNs))
	}
	b.WriteString(tb.String())
	return b.String()
}
