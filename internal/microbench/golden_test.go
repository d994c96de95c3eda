package microbench

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/fault"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
)

// The golden makespan corpus pins the exact simulation output — every
// repetition's metrics down to the float64 bit pattern, plus fault-injection
// traffic counts — for every Table II algorithm across a small
// (procs, size, skew) cross, one noisy-clock configuration per paper
// collective, and one faulted configuration. It exists so that kernel
// refactors are provably bit-identical: any change to event ordering, RNG
// stream consumption, or floating-point evaluation order shows up as a bit
// mismatch here before it can silently corrupt published grids.
//
// Regenerate deliberately (never to paper over a diff) with:
//
//	go test ./internal/microbench -run TestGoldenMakespans -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_makespans.json from the current kernel")

const goldenPath = "testdata/golden_makespans.json"

// goldenRep stores one repetition's metrics as hex-encoded math.Float64bits
// so that JSON round-tripping cannot lose precision.
type goldenRep struct {
	TotalBits string `json:"total_bits"`
	LastBits  string `json:"last_bits"`
	// Total and Last repeat the values in human-readable form; only the
	// bit strings are compared.
	Total float64 `json:"total_ns"`
	Last  float64 `json:"last_ns"`
}

type goldenEntry struct {
	Key         string      `json:"key"`
	Reps        []goldenRep `json:"reps"`
	Retransmits int64       `json:"retransmits,omitempty"`
	Drops       int64       `json:"drops,omitempty"`
}

type goldenCase struct {
	key string
	cfg Config
}

// goldenSeed derives a per-case seed from the case key so that seeds are
// stable under corpus reordering.
func goldenSeed(key string) int64 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int64(h.Sum32() % 1_000_000)
}

// goldenCases enumerates the corpus in a fixed, deterministic order.
func goldenCases() []goldenCase {
	sim := netmodel.SimCluster()
	hydra := netmodel.Hydra()

	procsCross := []int{5, 8}
	countCross := []int{8, 512} // x ElemSize 8 = 64 B, 4 KiB
	shapes := []pattern.Shape{pattern.NoDelay, pattern.Ascending, pattern.Random, pattern.LastDelayed}
	const maxSkewNs = 30_000

	var cases []goldenCase
	add := func(key string, cfg Config) {
		cfg.Seed = goldenSeed(key)
		cases = append(cases, goldenCase{key: key, cfg: cfg})
	}

	// The main cross: every Table II algorithm, simulation mode (perfect
	// clocks, no noise) on SimCluster, so the pinned bits isolate the
	// kernel, transport, and collective schedules themselves.
	for _, c := range allCollectives {
		for _, al := range coll.TableII(c) {
			for _, procs := range procsCross {
				for _, count := range countCross {
					for _, sh := range shapes {
						key := fmt.Sprintf("%s/%s/p%d/c%d/%s", c, al.Name, procs, count, sh)
						cfg := Config{
							Platform:      sim,
							Procs:         procs,
							Algorithm:     al,
							Count:         count,
							Reps:          2,
							Warmup:        0,
							PerfectClocks: true,
							NoNoise:       true,
							Validate:      true,
						}
						if sh != pattern.NoDelay {
							cfg.Pattern = pattern.Generate(sh, procs, maxSkewNs, goldenSeed(key))
						}
						add(key, cfg)
					}
				}
			}
		}
	}

	// Noisy configurations: Hydra with its noise model and imperfect,
	// HCA-synchronized clocks active. These pin the noise and clock-sync
	// RNG streams, which a kernel refactor must consume identically.
	for _, c := range []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall} {
		al := coll.TableII(c)[0]
		for _, sh := range []pattern.Shape{pattern.NoDelay, pattern.Random} {
			key := fmt.Sprintf("noisy/%s/%s/p8/c512/%s", c, al.Name, sh)
			cfg := Config{
				Platform:  hydra,
				Procs:     8,
				Algorithm: al,
				Count:     512,
				Reps:      2,
				Warmup:    0,
				Validate:  true,
			}
			if sh != pattern.NoDelay {
				cfg.Pattern = pattern.Generate(sh, 8, maxSkewNs, goldenSeed(key))
			}
			add(key, cfg)
		}
	}

	// One faulted configuration: drops with retransmission, stragglers and
	// link degradation all active. Pins the fault schedule, the retry
	// timer ordering, and the retransmit/drop counters.
	{
		al, _ := coll.ByName(coll.Alltoall, "pairwise")
		key := "faulted/alltoall/pairwise/p8/c512/random"
		cfg := Config{
			Platform:      sim,
			Procs:         8,
			Algorithm:     al,
			Count:         512,
			Reps:          2,
			Warmup:        0,
			PerfectClocks: true,
			NoNoise:       true,
			Validate:      true,
			Pattern:       pattern.Generate(pattern.Random, 8, maxSkewNs, goldenSeed(key)),
			Faults: fault.Profile{
				Enabled:                true,
				DropProb:               0.05,
				StragglerProb:          0.3,
				StragglerFactor:        3,
				DegradeProb:            0.3,
				DegradeLatencyFactor:   2,
				DegradeBandwidthFactor: 0.5,
				DegradeStartMaxNs:      500_000,
				DegradeDurationNs:      2_000_000,
			},
		}
		add(key, cfg)
	}
	return cases
}

func runGoldenCase(t *testing.T, gc goldenCase) goldenEntry {
	t.Helper()
	res, err := Run(gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.key, err)
	}
	e := goldenEntry{Key: gc.key, Retransmits: res.Retransmits, Drops: res.Drops}
	for _, rep := range res.Reps {
		e.Reps = append(e.Reps, goldenRep{
			TotalBits: fmt.Sprintf("%016x", math.Float64bits(rep.TotalDelayNs)),
			LastBits:  fmt.Sprintf("%016x", math.Float64bits(rep.LastDelayNs)),
			Total:     rep.TotalDelayNs,
			Last:      rep.LastDelayNs,
		})
	}
	return e
}

// TestGoldenMakespans replays the corpus and requires bit-exact agreement
// with the committed snapshot, in data mode (the corpus's Validate) and
// again in timing mode, which must reproduce the same bits without moving
// a payload.
func TestGoldenMakespans(t *testing.T) {
	cases := goldenCases()

	if *updateGolden {
		entries := make([]goldenEntry, 0, len(cases))
		for _, gc := range cases {
			entries = append(entries, runGoldenCase(t, gc))
		}
		buf, err := json.MarshalIndent(entries, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(entries), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (regenerate with -update-golden): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden corpus: %v", err)
	}
	byKey := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		byKey[e.Key] = e
	}
	if len(byKey) != len(cases) {
		t.Errorf("corpus has %d entries, enumeration has %d cases (regenerate with -update-golden)", len(byKey), len(cases))
	}

	if testing.Short() {
		// Under -short, spot-check a deterministic 1-in-8 sample so the
		// race/CI sweeps still touch the corpus without replaying all of it.
		var sampled []goldenCase
		for i, gc := range cases {
			if i%8 == 0 || gc.cfg.Faults.Enabled {
				sampled = append(sampled, gc)
			}
		}
		cases = sampled
	}

	for _, gc := range cases {
		gc := gc
		t.Run(gc.key, func(t *testing.T) {
			t.Parallel()
			wantE, ok := byKey[gc.key]
			if !ok {
				t.Fatalf("no golden entry for %s (regenerate with -update-golden)", gc.key)
			}
			for _, validate := range []bool{true, false} {
				mode := gc
				mode.cfg.Validate = validate
				got := runGoldenCase(t, mode)
				if len(got.Reps) != len(wantE.Reps) {
					t.Fatalf("validate=%v: rep count %d, want %d", validate, len(got.Reps), len(wantE.Reps))
				}
				for i := range got.Reps {
					if got.Reps[i].TotalBits != wantE.Reps[i].TotalBits {
						t.Errorf("validate=%v: rep %d total delay %v (bits %s), want %v (bits %s)",
							validate, i, got.Reps[i].Total, got.Reps[i].TotalBits, wantE.Reps[i].Total, wantE.Reps[i].TotalBits)
					}
					if got.Reps[i].LastBits != wantE.Reps[i].LastBits {
						t.Errorf("validate=%v: rep %d last delay %v (bits %s), want %v (bits %s)",
							validate, i, got.Reps[i].Last, got.Reps[i].LastBits, wantE.Reps[i].Last, wantE.Reps[i].LastBits)
					}
				}
				if got.Retransmits != wantE.Retransmits || got.Drops != wantE.Drops {
					t.Errorf("validate=%v: retransmits/drops %d/%d, want %d/%d",
						validate, got.Retransmits, got.Drops, wantE.Retransmits, wantE.Drops)
				}
			}
		})
	}
}
