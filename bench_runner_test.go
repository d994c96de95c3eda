// Benchmarks of the parallel grid engine: wall-clock scaling of a full
// Table II Alltoall measurement grid across worker counts. On a multi-core box
// BenchmarkGridAlltoallWorkersMax should run at least ~2x faster than
// BenchmarkGridAlltoallWorkers1; on a single-core box the two coincide but
// remain bit-identical (see TestBuildMatrixBitIdenticalAcrossWorkers).
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
