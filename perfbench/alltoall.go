package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
	"collsel/internal/store"
)

// alltoallSpec is the alltoall-256 workload's selection: alltoall at
// 32 KiB on 256 SimCluster ranks, 4 algorithms × 9 patterns = 36 cells.
func alltoallSpec(o options, pl *netmodel.Platform) expt.SelectSpec {
	procs := 256
	if o.small {
		procs = 32
	}
	return expt.SelectSpec{
		Platform:   pl,
		Collective: coll.Alltoall,
		MsgBytes:   32 * 1024,
		Procs:      procs,
		Seed:       o.seed,
	}
}

// rankingDigest checks a selection outcome — every candidate ranked, every
// score finite — and returns a digest of the ranking.
func rankingDigest(out *expt.SelectOutcome) (string, error) {
	want := len(expt.CandidateAlgorithms(coll.Alltoall))
	if len(out.Ranking) != want {
		return "", fmt.Errorf("ranking has %d of %d candidates", len(out.Ranking), want)
	}
	var b strings.Builder
	for _, ch := range out.Ranking {
		if math.IsNaN(ch.Score) || math.IsInf(ch.Score, 0) {
			return "", fmt.Errorf("%s scored %v", ch.Algorithm.Name, ch.Score)
		}
		fmt.Fprintf(&b, "%s=%s;", ch.Algorithm.Name, fmtFloat(ch.Score))
	}
	fmt.Fprintf(&b, "conventional=%s", out.Conventional.Name)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

func runAlltoall(ctx context.Context, o options) (*result, error) {
	res := newResult()
	var pl *netmodel.Platform
	setup, err := timeSetups(func(int) (func(), error) {
		// Warm the simulator's pools with the same selection on a small
		// communicator.
		pl = netmodel.SimCluster()
		warm := alltoallSpec(o, pl)
		warm.Procs = 64
		warm.Runner = freshRunner(o)
		_, err := expt.SelectRobustCtx(ctx, warm)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	spec := alltoallSpec(o, pl)
	if o.trace {
		return res, traceAlltoall(ctx, o, spec, res)
	}
	began := time.Now()

	// Selection i runs with seed o.seed+i: a selection's cost and memory
	// depend on its arrival patterns, so every run covers several draws.
	// The digest is that of the first selection.
	var selectMs, selectCPUms, peaks []float64
	for i := 0; i == 0 || time.Since(began).Seconds() < o.seconds; i++ {
		startRSSPeak()
		run := spec
		run.Seed = o.seed + int64(i)
		run.Runner = freshRunner(o)
		w := startWatch()
		out, err := expt.SelectRobustCtx(ctx, run)
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("select: %w", err)
		}
		wall, cpu := w.elapsed()
		peaks = append(peaks, peakRSSMB())
		selectMs = append(selectMs, wall*1e3)
		selectCPUms = append(selectCPUms, cpu*1e3)
		d, err := rankingDigest(out)
		res.check("ranking", err == nil, "seed %d: %v", run.Seed, err)
		if i == 0 {
			res.digest = d
		}
	}

	fillEndToEnd(res, setup, peaks, median(selectCPUms), selectCPUms)
	res.note("select_s", median(selectMs)/1000, "s")
	res.note("selections", float64(len(selectMs)), "count")
	return res, nil
}

// traceAlltoall is the traced alltoall-256 run: one untraced selection as
// the reference, then the traced one with a span per microbench cell.
func traceAlltoall(ctx context.Context, o options, spec expt.SelectSpec, res *result) error {
	ref := spec
	ref.Runner = freshRunner(o)
	w := startWatch()
	want, err := expt.SelectRobustCtx(ctx, ref)
	if err != nil {
		return err
	}
	untracedWall, untraced := w.elapsed()
	wantDigest, err := rankingDigest(want)
	if err != nil {
		return err
	}

	tr := newTracer()
	cs := newCellSpans(tr)
	run := spec
	run.Runner = tracedRunner(o, cs)
	pr := newProbe()
	heap := startHeapSampler()
	before := pr.read()
	w = startWatch()
	var out *expt.SelectOutcome
	tr.do("expt.select", 0, 1, func(id int64) {
		cs.begin(id, 1)
		out, err = expt.SelectRobustCtx(ctx, run)
	})
	tracedWall, traced := w.elapsed()
	c := before.to(pr.read())
	heapPeak := heap.done()
	if err != nil {
		return err
	}
	res.attempted++
	got, err := rankingDigest(out)
	res.check("ranking", err == nil, "%v", err)
	res.check("traced-equals-untraced", got == wantDigest, "digest %s vs %s", got, wantDigest)
	res.digest = got

	// Freeze the answer into a one-cell table, as the compiler would, and
	// probe its lookup.
	var t *store.Table
	tr.do("store.cell", 0, 1, func(int64) {
		t = &store.Table{
			Machine:             spec.Platform.Name,
			PlatformFingerprint: spec.Platform.Fingerprint(),
			Seed:                spec.Seed,
			Sections: []store.Section{{Collective: spec.Collective.String(), Procs: spec.Procs,
				Cells: []store.Cell{store.CellFromOutcome(spec.MsgBytes, out)}}},
		}
		err = t.Finalize()
	})
	if err != nil {
		return err
	}
	lk := lookupNs(t, []gridPoint{{spec.Collective, spec.Procs, spec.MsgBytes}})

	fillPerLayer(res, tr, cs, c, c, heapPeak, lk, traced/untraced-1)
	for _, al := range expt.CandidateAlgorithms(coll.Alltoall) {
		res.note("microbench.alg_s."+al.Name, cs.byAlg[al.Name]/1e9, "s")
	}
	res.note("microbench.alloc_gb", float64(c.allocBytes)/(1<<30), "GB")
	res.note("trace.traced_s", tracedWall, "s")
	res.note("trace.untraced_s", untracedWall, "s")
	res.note("trace.traced_cpu_s", traced, "s")
	res.note("trace.untraced_cpu_s", untraced, "s")
	return tr.write(tracePath(o))
}
