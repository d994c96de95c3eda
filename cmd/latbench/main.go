// Command latbench is an OSU-micro-benchmarks-style latency sweep: for a
// collective, it prints the mean last-delay of every algorithm across a
// ladder of message sizes — optionally under an arrival pattern, which is
// exactly what conventional benchmark suites cannot do and what makes
// their tuning tables misleading (the paper's core observation).
//
// Usage:
//
//	latbench -coll alltoall -machine Hydra -procs 128
//	latbench -coll reduce -pattern last_delayed -skew 500000
//	latbench -coll allreduce -pattern-file ft.pattern
package main

import (
	"flag"
	"fmt"
	"os"

	"collsel/internal/cliutil"
	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/microbench"
	"collsel/internal/pattern"
	"collsel/internal/table"
)

func main() {
	collName := flag.String("coll", "alltoall", "collective to sweep")
	machine := flag.String("machine", "Hydra", "machine model")
	procs := flag.Int("procs", 128, "number of processes")
	sizes := flag.String("sizes", "", "comma-separated sizes (default: 8..1MiB ladder)")
	patName := flag.String("pattern", "", "arrival pattern shape (default: none/no-delay)")
	patFile := flag.String("pattern-file", "", "arrival pattern file (one delay per line)")
	skew := flag.Int64("skew", 1_000_000, "max skew in ns for -pattern")
	reps := flag.Int("reps", 3, "repetitions per cell")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	c, ok := coll.CollectiveByName(*collName)
	if !ok {
		fail("unknown collective %q", *collName)
	}
	pl, err := cliutil.Machine(*machine)
	if err != nil {
		fail("%v", err)
	}
	if err := cliutil.CheckProcs(*procs, pl); err != nil {
		fail("%v", err)
	}
	msgSizes, err := cliutil.ParseSizes(*sizes)
	if err != nil {
		fail("%v", err)
	}
	if len(msgSizes) == 0 {
		msgSizes = []int{8, 64, 1024, 8192, 32768, 262144, 1048576}
	}
	var pat pattern.Pattern
	switch {
	case *patFile != "":
		pat, err = pattern.ReadFile(*patFile)
		if err != nil {
			fail("%v", err)
		}
		if pat.Size() != *procs {
			fail("pattern file has %d processes, -procs is %d", pat.Size(), *procs)
		}
	case *patName != "":
		sh, ok := pattern.ShapeByName(*patName)
		if !ok {
			fail("unknown pattern %q", *patName)
		}
		pat = pattern.Generate(sh, *procs, *skew, *seed)
	}

	algs := coll.TableII(c)
	if len(algs) == 0 {
		algs = coll.Algorithms(c)
	}
	patLabel := "no-delay"
	if pat.Size() > 0 {
		patLabel = pat.Name
	}
	fmt.Printf("# %v latency sweep on %s, %d procs, pattern: %s\n", c, pl.Name, *procs, patLabel)
	headers := []string{"size"}
	for _, al := range algs {
		headers = append(headers, fmt.Sprintf("%d:%s", al.ID, al.Abbrev))
	}
	tb := table.New(headers...)
	for _, sz := range msgSizes {
		count, elemSize := expt.SizeToCount(sz)
		row := []string{table.Bytes(sz)}
		for _, al := range algs {
			res, err := microbench.Run(microbench.Config{
				Platform:  pl,
				Procs:     *procs,
				Seed:      *seed,
				Algorithm: al,
				Count:     count,
				ElemSize:  elemSize,
				Pattern:   pat,
				Reps:      *reps,
			}, nil)
			if err != nil {
				fail("%s at %d B: %v", al.Name, sz, err)
			}
			row = append(row, table.Ns(res.LastDelay.Mean))
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb.String())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "latbench: "+format+"\n", args...)
	os.Exit(1)
}
