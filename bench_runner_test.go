// Benchmarks of the grid layer. The first set measures the wall-clock
// scaling of a full Table II Alltoall measurement grid across worker
// counts. On a multi-core box BenchmarkGridAlltoallWorkersMax should run
// at least ~2x faster than BenchmarkGridAlltoallWorkers1; on a single-core
// box the two coincide but remain bit-identical (see
// TestBuildMatrixBitIdenticalAcrossWorkers). BenchmarkSelectReduce8BSimCluster64
// times one deterministic selection grid, whose cells replay the grid's
// recorded rep-0 harmonization.
package collsel_test

import (
	"context"
	"runtime"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/runner"
)

// benchGrid is the full Table II Alltoall grid on the Hydra model:
// 9 pattern rows (no_delay + 8 artificial shapes) x 7 algorithms.
func benchGrid(b *testing.B) expt.GridConfig {
	algs := coll.TableII(coll.Alltoall)
	if len(algs) == 0 {
		algs = coll.Algorithms(coll.Alltoall)
	}
	if len(algs) == 0 {
		b.Fatal("no alltoall algorithms")
	}
	return expt.GridConfig{
		Platform:   netmodel.Hydra(),
		Procs:      benchProcs(),
		Seed:       1,
		Algorithms: algs,
		Shapes:     pattern.ArtificialShapes(),
		MsgBytes:   32768,
		Policy:     expt.SkewAvgRuntime,
		Reps:       3,
	}
}

func benchGridWorkers(b *testing.B, workers int) {
	g := benchGrid(b)
	b.ReportMetric(float64(workers), "workers")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gg := g
		gg.Runner = runner.New(runner.WithWorkers(workers))
		if _, _, err := expt.BuildMatrixCtx(context.Background(), gg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridAlltoallWorkers1(b *testing.B)   { benchGridWorkers(b, 1) }
func BenchmarkGridAlltoallWorkers2(b *testing.B)   { benchGridWorkers(b, 2) }
func BenchmarkGridAlltoallWorkers4(b *testing.B)   { benchGridWorkers(b, 4) }
func BenchmarkGridAlltoallWorkersMax(b *testing.B) { benchGridWorkers(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSelectReduce8BSimCluster64 runs one robust selection, reduce 8 B
// on 64 SimCluster ranks (9 pattern rows x the Table II reduce set), on a
// single worker: a deterministic grid of small cells, where the
// harmonization before each cell's first repetition is a large share of
// its events.
func BenchmarkSelectReduce8BSimCluster64(b *testing.B) {
	spec := expt.SelectSpec{
		Platform:   netmodel.SimCluster(),
		Collective: coll.Reduce,
		MsgBytes:   8,
		Procs:      64,
		Seed:       1,
		Runner:     runner.New(runner.WithWorkers(1)),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expt.SelectRobustCtx(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
