// Command selector is the end-user tool embodying the paper's contribution:
// it benchmarks every algorithm of a collective under the eight artificial
// arrival patterns on the chosen machine model and recommends the most
// robust algorithm — the one with the smallest average normalized runtime
// across patterns — rather than the winner of the synchronized (no-delay)
// benchmark alone. With -save it installs the selection's cell into a
// decision-table artifact (internal/store) that collseld can serve.
//
// Usage:
//
//	selector -coll alltoall -machine Galileo100 -size 32768 -procs 256
//	selector -coll reduce -machine Hydra -size 8 -skew 500000
//	selector -coll alltoall -machine SimCluster -procs 8 -size 4096 -reps 0 -save table.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"slices"

	"collsel/internal/cliutil"
	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/store"
	"collsel/internal/table"
)

func main() {
	collName := flag.String("coll", "alltoall", "collective: reduce, allreduce, alltoall, bcast, ...")
	machine := flag.String("machine", "Hydra", "machine model")
	procs := flag.Int("procs", 256, "number of processes")
	size := flag.Int("size", 32768, "message size in bytes (per pair for alltoall)")
	skew := flag.Int64("skew", 0, "fixed max skew in ns (0 = use avg no-delay runtime)")
	factor := flag.Float64("factor", 1.0, "skew factor when -skew is 0")
	reps := flag.Int("reps", 5, "benchmark repetitions per cell")
	seed := flag.Int64("seed", 1, "seed")
	root := flag.Int("root", 0, "root rank for rooted collectives")
	save := flag.String("save", "", "install the selection's cell into this decision-table artifact (created if absent; must share the selection's provenance) for collseld to serve")
	workers := flag.Int("workers", 0, "concurrent cell simulations (0 = GOMAXPROCS); results are identical at any value")
	progress := flag.Bool("progress", false, "print per-cell progress to stderr")
	flag.Parse()

	ctx, stop := cliutil.SignalContext()
	defer stop()

	c, err := cliutil.Collective(*collName)
	if err != nil {
		cliutil.Usage("selector", err)
	}
	pl, err := cliutil.Machine(*machine)
	if err != nil {
		cliutil.Usage("selector", err)
	}
	if err := cliutil.CheckProcs(*procs, pl); err != nil {
		cliutil.Usage("selector", err)
	}
	spec := expt.SelectSpec{
		Platform:   pl,
		Collective: c,
		MsgBytes:   *size,
		Procs:      *procs,
		Root:       *root,
		MaxSkewNs:  *skew,
		Factor:     *factor,
		Reps:       *reps,
		Seed:       *seed,
		Runner:     cliutil.Engine(*workers),
		Progress:   cliutil.ProgressPrinter(os.Stderr, "selector", *progress),
	}
	if *save != "" {
		if err := savable(spec); err != nil {
			cliutil.Usage("selector", err)
		}
	}
	out, err := expt.SelectRobustCtx(ctx, spec)
	if err != nil {
		cliutil.Fatal("selector", err)
	}
	m, choices, noDelay := out.Matrix, out.Ranking, out.Conventional

	fmt.Printf("Algorithm selection for %v, %s on %s, %d procs\n\n",
		c, table.Bytes(*size), pl.Name, *procs)
	tb := table.New("rank", "algorithm", "robustness score", "no-delay d-hat")
	nd := m.PatternIndex("no_delay")
	for i, ch := range choices {
		j := slices.IndexFunc(m.Algorithms, func(al coll.Algorithm) bool { return al.Name == ch.Algorithm.Name })
		tb.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d:%s (%s)", ch.Algorithm.ID, ch.Algorithm.Name, ch.Algorithm.Abbrev),
			fmt.Sprintf("%.3f", ch.Score),
			table.Ns(m.ValueNs[nd][j]),
		)
	}
	fmt.Print(tb.String())
	fmt.Printf("\nrecommended (pattern-robust):    %s\n", choices[0].Algorithm.Name)
	fmt.Printf("conventional (no-delay fastest): %s\n", noDelay.Name)
	if cmp, err := expt.CompareStrategiesOn(m); err == nil {
		fmt.Println()
		fmt.Print(cmp.Format())
	}
	if choices[0].Algorithm.Name != noDelay.Name {
		fmt.Println("note: the synchronized benchmark would pick a different algorithm;")
		fmt.Println("      under realistic arrival patterns that choice is expected to underperform.")
	}

	if *save != "" {
		t, err := saveCell(*save, spec, out)
		if err != nil {
			cliutil.Fatal("selector", err)
		}
		fmt.Printf("\nsaved cell to %s (table %s, %d cells)\n", *save, t.Version, t.Cells())
	}
}

// savable refuses a selection an artifact cannot record: a table carries
// no fixed skew and no root, so collseld could not reproduce the cell.
func savable(spec expt.SelectSpec) error {
	if spec.MaxSkewNs != 0 || spec.Root != 0 {
		return errors.New("-save cannot record -skew or -root; drop them to save the cell")
	}
	return nil
}

// saveCell installs the selection's cell into the decision-table artifact
// at path and writes it with store.Table.Save, so collseld can serve it. A
// missing artifact is started with the selection's provenance; an existing
// one must share it. A refused save leaves the file untouched.
func saveCell(path string, spec expt.SelectSpec, out *expt.SelectOutcome) (*store.Table, error) {
	if err := savable(spec); err != nil {
		return nil, err
	}
	want := &store.Table{
		Machine:             spec.Platform.Name,
		PlatformFingerprint: spec.Platform.Fingerprint(),
		Seed:                spec.Seed,
		Factor:              spec.Factor,
		Reps:                spec.Reps,
	}
	base, err := store.Load(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		base = want
	case err != nil:
		return nil, err
	default:
		if err := sameProvenance(base, want); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	t, err := store.WithCell(base, spec.Collective, spec.Procs, store.CellFromOutcome(spec.MsgBytes, out))
	if err != nil {
		return nil, err
	}
	return t, t.Save(path)
}

// sameProvenance names the first provenance field in which the artifact
// differs from the selection, and the flag that matches it.
func sameProvenance(have, want *store.Table) error {
	if store.ProvenanceKey(have) == store.ProvenanceKey(want) {
		return nil
	}
	for _, f := range []struct {
		flag       string
		have, want any
	}{
		{"machine", have.Machine, want.Machine},
		{"seed", have.Seed, want.Seed},
		{"factor", have.Factor, want.Factor},
		{"reps", have.Reps, want.Reps},
	} {
		if f.have != f.want {
			return fmt.Errorf("artifact %s is %v, the selection's %v; pass -%s %v", f.flag, f.have, f.want, f.flag, f.have)
		}
	}
	return errors.New("artifact platform fingerprint, warmup, faults, watchdog or pruning differ from the selection's; recompile it with compilestore")
}
