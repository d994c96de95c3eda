// Command faultstudy sweeps message drop rates over the paper's
// collectives and reports how the pattern-robust selection degrades: which
// algorithm the toolkit recommends at each loss level, how much transport
// retransmission traffic the grid generated, and which algorithms stopped
// completing and were excluded from the ranking.
//
// Usage:
//
//	faultstudy -machine Hydra -procs 64 -size 32768
//	faultstudy -colls allreduce -drops 0,0.05,0.2 -progress
package main

import (
	"flag"
	"fmt"
	"os"

	"collsel/internal/cliutil"
	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/runner"
)

func main() {
	machine := flag.String("machine", "Hydra", "machine model")
	procs := flag.Int("procs", 64, "number of processes")
	colls := flag.String("colls", "", "comma-separated collectives (default reduce,allreduce,alltoall)")
	size := flag.Int("size", 32*1024, "message size in bytes")
	drops := flag.String("drops", "", "comma-separated drop probabilities (default 0,0.005,0.02,0.08,0.2)")
	retries := flag.Int("retries", 0, "max retransmissions per message (0: library default)")
	reps := flag.Int("reps", 1, "benchmark repetitions per cell")
	seed := flag.Int64("seed", 1, "seed")
	watchdog := flag.Int64("watchdog", 0, "virtual-time watchdog per cell in ns (0: 60 s default)")
	workers := flag.Int("workers", 0, "max concurrent cell simulations (0: GOMAXPROCS)")
	progress := flag.Bool("progress", false, "print cell progress")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()

	pl, err := cliutil.Machine(*machine)
	if err != nil {
		cliutil.Usage("faultstudy", err)
	}
	if err := cliutil.CheckProcs(*procs, pl); err != nil {
		cliutil.Usage("faultstudy", err)
	}
	collectives, err := cliutil.Collectives(*colls, []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall})
	if err != nil {
		cliutil.Usage("faultstudy", err)
	}
	dropRates, err := cliutil.ParseFloats(*drops)
	if err != nil {
		cliutil.Usage("faultstudy", err)
	}

	res, err := expt.RunFaultStudyCtx(ctx, expt.FaultStudyConfig{
		Platform:    pl,
		Collectives: collectives,
		Procs:       *procs,
		MsgBytes:    *size,
		DropRates:   dropRates,
		MaxRetries:  *retries,
		Seed:        *seed,
		Reps:        *reps,
		WatchdogNs:  *watchdog,
		Runner:      runner.New(runner.WithWorkers(*workers)),
		Progress:    cliutil.ProgressPrinter(os.Stderr, "faultstudy", *progress),
	})
	if err != nil {
		cliutil.Fatal("faultstudy", err)
	}
	fmt.Print(res.Format())
}
