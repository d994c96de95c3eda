// Command modelcheck validates the analytical model tier against the
// simulator: for every (collective, message size) cell it runs both the
// closed-form model ranking (internal/model) and the full simulated
// selection (expt.SelectRobustCtx) over the same candidate set, and
// reports the Spearman rank correlation between the two robustness-score
// orderings. A mean per-collective correlation below the floor fails the
// run — this is the CI tripwire that catches model drift before it
// reaches production "source":"model" answers.
//
// Usage:
//
//	modelcheck -machine SimCluster -procs 8
//	modelcheck -machine Hydra -colls bcast,allreduce -sizes 64,16384 -floor 0.6
package main

import (
	"flag"
	"fmt"
	"os"

	"collsel/internal/cliutil"
	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/model"
	"collsel/internal/runner"
	"collsel/internal/stats"
)

func main() {
	machine := flag.String("machine", "SimCluster", "machine model to validate on")
	colls := flag.String("colls", "", "comma-separated collectives (default: every registered collective)")
	procsFlag := flag.Int("procs", 8, "communicator size")
	sizes := flag.String("sizes", "", "comma-separated message sizes in bytes (default: 8,64,1024,16384,262144,1048576)")
	seed := flag.Int64("seed", 1, "simulation seed")
	factor := flag.Float64("factor", 1.0, "skew factor on the average no-delay runtime")
	floor := flag.Float64("floor", 0.7, "minimum acceptable mean Spearman correlation per collective")
	workers := flag.Int("workers", 0, "concurrent cell simulations (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-cell model and simulation scores")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()

	pl, err := cliutil.Machine(*machine)
	if err != nil {
		cliutil.Usage("modelcheck", err)
	}
	if err := cliutil.CheckProcs(*procsFlag, pl); err != nil {
		cliutil.Usage("modelcheck", err)
	}
	allColls := []coll.Collective{
		coll.Reduce, coll.Allreduce, coll.Alltoall, coll.Bcast, coll.Allgather,
		coll.Gather, coll.Scatter, coll.Barrier, coll.ReduceScatter, coll.Alltoallv,
	}
	collectives, err := cliutil.Collectives(*colls, allColls)
	if err != nil {
		cliutil.Usage("modelcheck", err)
	}
	msgSizes, err := cliutil.ParseSizes(*sizes)
	if err != nil {
		cliutil.Usage("modelcheck", fmt.Errorf("bad -sizes: %v", err))
	}
	if len(msgSizes) == 0 {
		msgSizes = []int{8, 64, 1024, 16 * 1024, 256 * 1024, 1024 * 1024}
	}
	eng := runner.New(runner.WithWorkers(*workers))

	failed := false
	for _, c := range collectives {
		algs := model.Candidates(c)
		var sum float64
		n := 0
		fmt.Printf("%-14s", c.String())
		for _, m := range msgSizes {
			// Barrier has no message payload; one size covers it.
			if c == coll.Barrier && n > 0 {
				break
			}
			mod, err := model.Select(model.Spec{
				Platform:   pl,
				Collective: c,
				MsgBytes:   m,
				Procs:      *procsFlag,
				Factor:     *factor,
				Seed:       *seed,
				Algorithms: algs,
			})
			if err != nil {
				cliutil.Fatal("modelcheck", err)
			}
			sim, err := expt.SelectRobustCtx(ctx, expt.SelectSpec{
				Platform:   pl,
				Collective: c,
				MsgBytes:   m,
				Procs:      *procsFlag,
				Factor:     *factor,
				Seed:       *seed,
				Algorithms: algs,
				Runner:     eng,
			})
			if err != nil {
				cliutil.Fatal("modelcheck", err)
			}
			rho := rankCorrelation(algs, mod, sim)
			sum += rho
			n++
			fmt.Printf("  %8.3f", rho)
			if *verbose {
				fmt.Printf("\n    size %d:\n", m)
				ms := map[string]float64{}
				for _, ch := range mod.Ranking {
					ms[ch.Algorithm.Name] = ch.Score
				}
				for _, ch := range sim.Ranking {
					fmt.Printf("      %-22s sim %8.4f  model %8.4f\n", ch.Algorithm.Name, ch.Score, ms[ch.Algorithm.Name])
				}
			}
		}
		mean := sum / float64(n)
		mark := "ok"
		if mean < *floor {
			mark = "FAIL"
			failed = true
		}
		fmt.Printf("  | mean %6.3f  %s\n", mean, mark)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "modelcheck: mean Spearman below floor %.2f for at least one collective\n", *floor)
		os.Exit(1)
	}
}

// rankCorrelation aligns both rankings by candidate order and correlates
// the robustness scores. Scores — not positions — go into Spearman: it
// ranks internally, and ties (algorithms the selection genuinely cannot
// distinguish) are then handled by its midrank convention on both sides.
func rankCorrelation(algs []coll.Algorithm, mod *model.Outcome, sim *expt.SelectOutcome) float64 {
	modScore := map[string]float64{}
	for _, ch := range mod.Ranking {
		modScore[ch.Algorithm.Name] = ch.Score
	}
	simScore := map[string]float64{}
	for _, ch := range sim.Ranking {
		simScore[ch.Algorithm.Name] = ch.Score
	}
	a := make([]float64, 0, len(algs))
	b := make([]float64, 0, len(algs))
	for _, al := range algs {
		ma, okA := modScore[al.Name]
		sb, okB := simScore[al.Name]
		if !okA || !okB {
			continue // excluded by a degraded simulation; skip the pair
		}
		a = append(a, ma)
		b = append(b, sb)
	}
	return stats.Spearman(a, b)
}
