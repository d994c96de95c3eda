// Command collbench reproduces the paper's Fig. 5 micro-benchmark study:
// runtimes (last delay) of every Table II algorithm of a collective under a
// set of distinct arrival patterns on a modelled production machine, with
// the within-5%-of-fastest classification.
//
// Usage:
//
//	collbench -coll reduce -machine Hydra -procs 256
//	collbench -coll alltoall -machine Galileo100 -sizes 8,1024,1048576
package main

import (
	"flag"
	"fmt"
	"os"

	"collsel/internal/cliutil"
	"collsel/internal/expt"
	"collsel/internal/runner"
)

func main() {
	collName := flag.String("coll", "reduce", "collective: reduce, allreduce, alltoall")
	machine := flag.String("machine", "Hydra", "machine model: Hydra, Galileo100, Discoverer, SimCluster")
	procs := flag.Int("procs", 256, "number of processes (paper: 1024 = 32x32)")
	sizes := flag.String("sizes", "", "comma-separated message sizes in bytes (default: 8,1024,1048576)")
	reps := flag.Int("reps", 5, "benchmark repetitions per cell")
	seed := flag.Int64("seed", 1, "seed")
	workers := flag.Int("workers", 0, "concurrent cell simulations (0 = GOMAXPROCS); results are identical at any value")
	progress := flag.Bool("progress", false, "print per-cell progress to stderr")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()

	c, err := cliutil.Collective(*collName)
	if err != nil {
		cliutil.Usage("collbench", err)
	}
	pl, err := cliutil.Machine(*machine)
	if err != nil {
		cliutil.Usage("collbench", err)
	}
	if err := cliutil.CheckProcs(*procs, pl); err != nil {
		cliutil.Usage("collbench", err)
	}
	msgSizes, err := cliutil.ParseSizes(*sizes)
	if err != nil {
		cliutil.Usage("collbench", err)
	}
	res, err := expt.RunFig5Ctx(ctx, expt.Fig5Config{
		Platform:   pl,
		Collective: c,
		Procs:      *procs,
		MsgSizes:   msgSizes,
		Reps:       *reps,
		Seed:       *seed,
		Runner:     runner.New(runner.WithWorkers(*workers)),
		Progress:   cliutil.ProgressPrinter(os.Stderr, "collbench", *progress),
	})
	if err != nil {
		cliutil.Fatal("collbench", err)
	}
	fmt.Print(res.Format())
}
