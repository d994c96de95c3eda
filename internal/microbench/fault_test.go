package microbench

import (
	"errors"
	"reflect"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/fault"
	"collsel/internal/mpi"
	"collsel/internal/netmodel"
)

// comparable strips the algorithm's func field (funcs are never DeepEqual)
// so whole results can be compared structurally.
func comparable(r Result) Result {
	r.Algorithm.Run = nil
	return r
}

func anyAlg(t *testing.T, c coll.Collective) coll.Algorithm {
	t.Helper()
	algs := coll.TableII(c)
	if len(algs) == 0 {
		algs = coll.Algorithms(c)
	}
	if len(algs) == 0 {
		t.Fatalf("no algorithms for %v", c)
	}
	return algs[0]
}

// TestGoldenZeroFaultPlan: a run with an enabled-but-zero fault profile is
// bit-identical to a run without fault injection, on both a noiseless and a
// noisy machine.
func TestGoldenZeroFaultPlan(t *testing.T) {
	for _, pl := range []*netmodel.Platform{netmodel.SimCluster(), netmodel.Hydra()} {
		base := Config{
			Platform:  pl,
			Procs:     16,
			Seed:      42,
			Algorithm: anyAlg(t, coll.Allreduce),
			Count:     64,
			Reps:      2,
			Warmup:    1,
		}
		plain, err := Run(base, nil)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		withZero := base
		withZero.Faults = fault.Profile{Enabled: true}
		zeroed, err := Run(withZero, nil)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		if !reflect.DeepEqual(comparable(plain), comparable(zeroed)) {
			t.Fatalf("%s: zero-fault plan changed the result:\n%+v\nvs\n%+v", pl.Name, plain, zeroed)
		}
	}
}

// TestFaultyRunDeterministicAndResilient: a lossy run completes, reports
// retransmissions, and is bit-identical when repeated.
func TestFaultyRunDeterministicAndResilient(t *testing.T) {
	cfg := Config{
		Platform:  netmodel.SimCluster(),
		Procs:     16,
		Seed:      7,
		Algorithm: anyAlg(t, coll.Allreduce),
		Count:     64,
		Reps:      2,
		Warmup:    0,
		Validate:  true,
		Faults:    fault.Profile{Enabled: true, DropProb: 0.05, MaxRetries: 50},
	}
	a, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparable(a), comparable(b)) {
		t.Fatalf("faulty runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Retransmits == 0 {
		t.Error("expected retransmissions at 5% drop rate")
	}
}

// TestCrashFailsCell: a crash-scheduled run surfaces a FaultError, which is
// what the degraded grid layer records as a CellError.
func TestCrashFailsCell(t *testing.T) {
	cfg := Config{
		Platform:  netmodel.SimCluster(),
		Procs:     8,
		Seed:      3,
		Algorithm: anyAlg(t, coll.Allreduce),
		Count:     16,
		Reps:      1,
		Faults:    fault.Profile{Enabled: true, CrashProb: 1, CrashMaxNs: 10_000},
	}
	_, err := Run(cfg, nil)
	var fe *mpi.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %T (%v), want *mpi.FaultError", err, err)
	}
	if fe.Kind != mpi.FaultCrash {
		t.Errorf("kind %v, want crash", fe.Kind)
	}
}
