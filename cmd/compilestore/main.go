// Command compilestore compiles a decision-table artifact offline: it runs
// the full pattern-robust selection for every (collective, procs, message
// size) grid point and writes the winners — with provenance and a content
// checksum — to a versioned JSON artifact that collseld serves from.
//
// Usage:
//
//	compilestore -machine SimCluster -procs 8 -o table.json
//	compilestore -machine Hydra -colls alltoall -procs 64,256 \
//	    -sizes 1024,32768,1048576 -factor 1.5 -o hydra.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"collsel/internal/cliutil"
	"collsel/internal/fault"
	"collsel/internal/runner"
	"collsel/internal/store"
)

func main() {
	machine := flag.String("machine", "SimCluster", "machine model to compile for")
	colls := flag.String("colls", "", "comma-separated collectives (default reduce,allreduce,alltoall)")
	procsList := flag.String("procs", "", "comma-separated process counts (default: the full machine)")
	sizes := flag.String("sizes", "", "comma-separated message sizes in bytes (default: 8,64,1024,16384,262144,1048576)")
	seed := flag.Int64("seed", 1, "simulation seed")
	factor := flag.Float64("factor", 1.0, "skew factor on the average no-delay runtime")
	reps := flag.Int("reps", 0, "benchmark repetitions per cell (0: per-machine default)")
	warmup := flag.Int("warmup", 0, "warmup repetitions per cell")
	dropRate := flag.Float64("drop", 0, "message drop probability for fault-aware compilation (0 disables)")
	retries := flag.Int("retries", 0, "max retransmissions per message when -drop is set (0: library default)")
	watchdog := flag.Int64("watchdog", 0, "virtual-time watchdog per cell in ns (0 disables)")
	pruneTopK := flag.Int("prune-topk", 0, "simulate only the analytical model's top K candidates per cell (0: full dense sweep)")
	workers := flag.Int("workers", 0, "concurrent cell simulations (0 = GOMAXPROCS); results are identical at any value")
	progress := flag.Bool("progress", false, "print per-cell progress to stderr")
	created := flag.Int64("created", time.Now().Unix(), "artifact build timestamp (Unix seconds); fix it for byte-reproducible artifacts")
	out := flag.String("o", "decision_table.json", "output artifact path")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()

	pl, err := cliutil.Machine(*machine)
	if err != nil {
		cliutil.Usage("compilestore", err)
	}
	collectives, err := cliutil.Collectives(*colls, nil) // nil: CompileConfig default
	if err != nil {
		cliutil.Usage("compilestore", err)
	}
	procs, err := cliutil.ParseSizes(*procsList)
	if err != nil {
		cliutil.Usage("compilestore", fmt.Errorf("bad -procs: %v", err))
	}
	for _, p := range procs {
		if err := cliutil.CheckProcs(p, pl); err != nil {
			cliutil.Usage("compilestore", err)
		}
	}
	msgSizes, err := cliutil.ParseSizes(*sizes)
	if err != nil {
		cliutil.Usage("compilestore", err)
	}
	var faults fault.Profile
	if *dropRate > 0 {
		faults = fault.Profile{Enabled: true, DropProb: *dropRate, MaxRetries: *retries}
	}

	start := time.Now()
	tb, err := store.Compile(ctx, store.CompileConfig{
		Platform:    pl,
		Collectives: collectives,
		ProcsList:   procs,
		Sizes:       msgSizes,
		Seed:        *seed,
		Factor:      *factor,
		Reps:        *reps,
		Warmup:      *warmup,
		Faults:      faults,
		WatchdogNs:  *watchdog,
		PruneTopK:   *pruneTopK,
		Runner:      runner.New(runner.WithWorkers(*workers)),
		Progress:    cliutil.ProgressPrinter(os.Stderr, "compilestore", *progress),
		CreatedUnix: *created,
	})
	if err != nil {
		cliutil.Fatal("compilestore", err)
	}
	if err := tb.Save(*out); err != nil {
		cliutil.Fatal("compilestore", err)
	}
	fmt.Printf("wrote %s: table %s for %s (%s), %d cells in %d sections, compiled in %s\n",
		*out, tb.Version, tb.Machine, tb.PlatformFingerprint, tb.Cells(), len(tb.Sections),
		time.Since(start).Round(time.Millisecond))
}
