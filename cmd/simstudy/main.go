// Command simstudy reproduces the paper's Fig. 4 simulation study: for each
// message size and arrival pattern, which collective algorithm is best, and
// how much faster is it than the algorithm a synchronized (no-delay)
// micro-benchmark would have chosen?
//
// Usage:
//
//	simstudy -coll reduce -procs 1024
//	simstudy -coll alltoall -procs 256 -sizes 8,1024,32768
package main

import (
	"flag"
	"fmt"
	"os"

	"collsel/internal/cliutil"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
	"collsel/internal/runner"
)

func main() {
	collName := flag.String("coll", "reduce", "collective: reduce, allreduce, alltoall, bcast")
	procs := flag.Int("procs", 256, "number of processes (paper: 1024)")
	sizes := flag.String("sizes", "", "comma-separated message sizes in bytes (default: 2,16,256,1024,16384,262144,1048576)")
	factor := flag.Float64("factor", 1.5, "skew factor on the average no-delay runtime")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent cell simulations (0 = GOMAXPROCS); results are identical at any value")
	progress := flag.Bool("progress", false, "print per-cell progress to stderr")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()

	c, err := cliutil.Collective(*collName)
	if err != nil {
		cliutil.Usage("simstudy", err)
	}
	if err := cliutil.CheckProcs(*procs, netmodel.SimCluster()); err != nil {
		cliutil.Usage("simstudy", err)
	}
	msgSizes, err := cliutil.ParseSizes(*sizes)
	if err != nil {
		cliutil.Usage("simstudy", err)
	}
	res, err := expt.RunFig4Ctx(ctx, expt.Fig4Config{
		Collective: c,
		Procs:      *procs,
		MsgSizes:   msgSizes,
		Factor:     *factor,
		Seed:       *seed,
		Runner:     runner.New(runner.WithWorkers(*workers)),
		Progress:   cliutil.ProgressPrinter(os.Stderr, "simstudy", *progress),
	})
	if err != nil {
		cliutil.Fatal("simstudy", err)
	}
	fmt.Print(res.Format())
}
