package expt

// Qualitative-reproduction tests: the paper's central claims, asserted
// against the simulation at a small, fast scale. These are the guardrails
// that keep the model honest — if a refactor of the network or protocol
// layer breaks one of the phenomena the paper rests on, these tests fail.

import (
	"testing"

	"collsel/internal/apps/ft"
	"collsel/internal/coll"
	"collsel/internal/microbench"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/trace"
)

// Claim (Sec. III-C / Fig. 4a): MPI_Reduce is highly sensitive to arrival
// patterns — for some (pattern, size), the pattern-aware best algorithm is
// substantially faster than the no-delay winner measured under the same
// pattern.
func TestClaim_ReduceSensitiveToPatterns(t *testing.T) {
	res, err := RunFig4(Fig4Config{
		Collective: coll.Reduce,
		Procs:      64,
		MsgSizes:   []int{8, 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	bestGain := 1.0
	flips := 0
	for _, s := range res.Sizes {
		winner := s.Cells[0].Best.Name
		for _, c := range s.Cells[1:] {
			if c.Ratio < bestGain {
				bestGain = c.Ratio
			}
			if c.Best.Name != winner {
				flips++
			}
		}
	}
	if bestGain > 0.7 {
		t.Errorf("largest reduce gain only %.2f; paper reports ~0.3 ratios", bestGain)
	}
	if flips == 0 {
		t.Error("no winner flips for reduce under arrival patterns")
	}
}

// Claim (Sec. III-C / Fig. 4a): the in-order binary tree absorbs the
// last-delayed pattern far better than the binomial tree, because its
// internal root is rank p-1.
func TestClaim_InOrderBinaryAbsorbsLastDelayed(t *testing.T) {
	run := func(name string, skewed bool) float64 {
		al, ok := coll.ByName(coll.Reduce, name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		var pat pattern.Pattern
		if skewed {
			pat = pattern.Generate(pattern.LastDelayed, 64, 1_000_000, 0)
		}
		res, err := microbench.Run(microbench.Config{
			Platform:      netmodel.SimCluster(),
			Procs:         64,
			Algorithm:     al,
			Count:         128,
			Pattern:       pat,
			Reps:          1,
			PerfectClocks: true,
			NoNoise:       true,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.LastDelay.Mean
	}
	binomial := run("binomial", true)
	inOrder := run("in_order_binary", true)
	if inOrder >= binomial {
		t.Errorf("in_order_binary d-hat %.0f >= binomial %.0f under last_delayed", inOrder, binomial)
	}
	// And the relationship must flip (or at least shrink drastically) with
	// synchronized arrival, where binomial's shallower effective depth wins.
	binomialND := run("binomial", false)
	inOrderND := run("in_order_binary", false)
	if binomialND >= inOrderND {
		t.Errorf("expected binomial (%.0f) to beat in_order_binary (%.0f) in the no-delay case", binomialND, inOrderND)
	}
}

// Claim (Sec. III-C / Fig. 4b): Allreduce is robust — the no-delay winner
// stays the winner under most arrival patterns.
func TestClaim_AllreduceRobustToPatterns(t *testing.T) {
	res, err := RunFig4(Fig4Config{
		Collective: coll.Allreduce,
		Procs:      64,
		MsgSizes:   []int{1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sizes[0]
	winner := s.Cells[0].Best.Name
	same := 0
	for _, c := range s.Cells[1:] {
		if c.Best.Name == winner || c.Ratio > 0.9 {
			same++
		}
	}
	if same < 6 { // at least 6 of 8 patterns keep (nearly) the same winner
		t.Errorf("allreduce winner stable in only %d/8 patterns", same)
	}
}

// Claim (Sec. II / Eq. 1-2): with skew, the total delay d* includes the
// skew while the last delay d-hat does not; with no skew they coincide.
func TestClaim_MetricsSeparateSkew(t *testing.T) {
	al, _ := coll.ByID(coll.Allreduce, 3)
	const skew = 2_000_000
	skewed, err := microbench.Run(microbench.Config{
		Platform:      netmodel.SimCluster(),
		Procs:         32,
		Algorithm:     al,
		Count:         64,
		Pattern:       pattern.Generate(pattern.Ascending, 32, skew, 0),
		Reps:          2,
		PerfectClocks: true,
		NoNoise:       true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.TotalDelay.Mean < skew {
		t.Errorf("d* %.0f does not include the %d skew", skewed.TotalDelay.Mean, skew)
	}
	if skewed.LastDelay.Mean > skewed.TotalDelay.Mean/2 {
		t.Errorf("d-hat %.0f not separated from d* %.0f", skewed.LastDelay.Mean, skewed.TotalDelay.Mean)
	}
}

// Claim (Fig. 1 / Sec. V-A): FT on a noisy machine produces a structured,
// nonzero arrival pattern at its Alltoalls; the same run without noise
// produces (almost) none.
func TestClaim_FTProducesArrivalPatterns(t *testing.T) {
	run := func(noNoise bool) int64 {
		tr := trace.New(32)
		al, _ := coll.ByID(coll.Alltoall, 2)
		_, err := ft.Run(ft.Config{
			Platform:      netmodel.Galileo100(),
			Procs:         32,
			Seed:          2,
			Class:         ft.Class{Name: "t", NX: 64, NY: 64, NZ: 64, Iterations: 4},
			AlltoallAlg:   al,
			Tracer:        tr,
			NoNoise:       noNoise,
			PerfectClocks: noNoise,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.MaxSkewNs(coll.Alltoall)
	}
	noisy, clean := run(false), run(true)
	if noisy < 10*clean || noisy == 0 {
		t.Errorf("noisy FT skew %d vs noiseless %d; expected order-of-magnitude structure", noisy, clean)
	}
}

// Claim (Sec. V-C / Fig. 8): the robustness score (average normalized
// runtime across patterns) never prefers an algorithm that is dominated
// under every single pattern.
func TestClaim_RobustScoreRespectsDomination(t *testing.T) {
	m, _, err := BuildMatrix(GridConfig{
		Platform:      netmodel.SimCluster(),
		Procs:         32,
		Algorithms:    coll.TableII(coll.Alltoall),
		Shapes:        pattern.ArtificialShapes(),
		MsgBytes:      32768,
		Policy:        SkewAvgRuntime,
		PerfectClocks: true,
		NoNoise:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	choices, err := m.SelectRobust()
	if err != nil {
		t.Fatal(err)
	}
	best := choices[0].Algorithm.Name
	bestIdx := -1
	for j, al := range m.Algorithms {
		if al.Name == best {
			bestIdx = j
		}
	}
	for j := range m.Algorithms {
		if j == bestIdx {
			continue
		}
		dominates := true
		for i := range m.Patterns {
			if m.ValueNs[i][j] >= m.ValueNs[i][bestIdx] {
				dominates = false
				break
			}
		}
		if dominates {
			t.Errorf("selected %s is dominated by %s under every pattern", best, m.Algorithms[j].Name)
		}
	}
}

// Claim (Table II): every Table II algorithm runs and validates on every
// modelled machine under a random arrival pattern (full integration sweep).
func TestClaim_AllTableIIRunEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, pl := range []*netmodel.Platform{netmodel.Hydra(), netmodel.Galileo100(), netmodel.Discoverer()} {
		for _, c := range []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall, coll.Bcast, coll.ReduceScatter, coll.Allgather} {
			for _, al := range coll.TableII(c) {
				cfg := microbench.Config{
					Platform:  pl,
					Procs:     24,
					Seed:      3,
					Algorithm: al,
					Count:     16,
					Pattern:   pattern.Generate(pattern.Random, 24, 200_000, 1),
					Reps:      1,
					Warmup:    0,
					Validate:  true,
				}
				if _, err := microbench.Run(cfg, nil); err != nil {
					t.Errorf("%s on %s: %v", al, pl.Name, err)
				}
			}
		}
	}
}
