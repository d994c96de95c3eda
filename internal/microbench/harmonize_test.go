package microbench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"collsel/internal/coll"
	"collsel/internal/fault"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
)

// replayCase is one cell the replay must leave unchanged.
type replayCase struct {
	key string
	cfg Config
}

// replayCases returns every deterministic golden case, in data and in
// timing mode, and a SimCluster sweep in timing mode: reduce, allreduce,
// alltoall and bcast, every Table II algorithm, procs {1, 2, 3, 7, 12,
// 16, 33, 64}, every arrival shape, 1 and 2 reps, counts 1 and 4096.
func replayCases() []replayCase {
	var cases []replayCase
	for _, gc := range goldenCases() {
		if !deterministic(gc.cfg) {
			continue
		}
		for _, validate := range []bool{true, false} {
			cfg := gc.cfg
			cfg.Validate = validate
			cases = append(cases, replayCase{key: fmt.Sprintf("golden/%s/validate=%v", gc.key, validate), cfg: cfg})
		}
	}
	sim := netmodel.SimCluster()
	const maxSkewNs = 30_000
	for _, c := range []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall, coll.Bcast} {
		for _, al := range coll.TableII(c) {
			for _, procs := range []int{1, 2, 3, 7, 12, 16, 33, 64} {
				for _, sh := range pattern.AllShapes() {
					for _, reps := range []int{1, 2} {
						for _, count := range []int{1, 4096} {
							key := fmt.Sprintf("sweep/%s/%s/p%d/%s/r%d/c%d", c, al.Name, procs, sh, reps, count)
							cases = append(cases, replayCase{key: key, cfg: Config{
								Platform:  sim,
								Procs:     procs,
								Seed:      goldenSeed(key),
								Algorithm: al,
								Count:     count,
								Pattern:   pattern.Generate(sh, procs, maxSkewNs, goldenSeed(key)),
								Reps:      reps,
								Warmup:    0,
							}})
						}
					}
				}
			}
		}
	}
	return cases
}

// TestHarmonizationReplayEquivalence runs every replay case with and
// without the recorded rep-0 harmonization of its (platform, procs) and
// requires deeply equal Results, traffic and event counts included, and
// equal errors. Under -short it checks a deterministic 1-in-8 sample.
func TestHarmonizationReplayEquivalence(t *testing.T) {
	type world struct {
		plat  *netmodel.Platform
		procs int
	}
	records := map[world]*Harmonization{}
	var failed int
	for i, rc := range replayCases() {
		if testing.Short() && i%8 != 0 {
			continue
		}
		w := world{rc.cfg.Platform, rc.cfg.Procs}
		h, ok := records[w]
		if !ok {
			var err error
			if h, err = RecordHarmonization(rc.cfg); err != nil {
				t.Fatalf("%s: record: %v", rc.key, err)
			}
			records[w] = h
		}
		simulated, simErr := Run(rc.cfg, nil)
		replayed, repErr := Run(rc.cfg, h)
		if fmt.Sprint(simErr) != fmt.Sprint(repErr) {
			t.Errorf("%s: error %v simulated, %v replayed", rc.key, simErr, repErr)
		}
		// Algorithm holds a func, which DeepEqual never equates.
		if simulated.Algorithm.Name != replayed.Algorithm.Name {
			t.Errorf("%s: algorithm %q simulated, %q replayed", rc.key, simulated.Algorithm.Name, replayed.Algorithm.Name)
		}
		simulated.Algorithm, replayed.Algorithm = coll.Algorithm{}, coll.Algorithm{}
		if !reflect.DeepEqual(simulated, replayed) {
			t.Errorf("%s: result differs\nsimulated %+v\nreplayed  %+v", rc.key, simulated, replayed)
		}
		if t.Failed() {
			if failed++; failed >= 10 {
				t.Fatal("stopping after 10 failed cases")
			}
		}
	}
}

// TestHarmonizationReplayRefusesMisfit: a record replayed in a cell of
// another platform or procs, or in a noisy, clocked, faulted or
// watchdogged cell is an error, not a silent simulation. A negative delay
// is not a misfit: that cell simulates rep 0 and gets the same Result.
func TestHarmonizationReplayRefusesMisfit(t *testing.T) {
	base := Config{
		Platform:  netmodel.SimCluster(),
		Procs:     8,
		Algorithm: alg(t, coll.Reduce, 5),
		Count:     1,
		Reps:      1,
	}
	h, err := RecordHarmonization(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(base, h); err != nil {
		t.Fatalf("record refused by its own cell: %v", err)
	}
	misfits := map[string]func(*Config){
		"platform": func(c *Config) { c.Platform = netmodel.Hydra(); c.NoNoise, c.PerfectClocks = true, true },
		"procs":    func(c *Config) { c.Procs = 7 },
		"noise":    func(c *Config) { p := *c.Platform; p.Noise.Enabled = true; c.Platform = &p },
		"clocks": func(c *Config) {
			p := *c.Platform
			p.Clock = netmodel.ClockProfile{Enabled: true, MaxOffsetNs: 1000}
			c.Platform = &p
		},
		"faults":   func(c *Config) { c.Faults = fault.Profile{Enabled: true, DropProb: 0.1} },
		"watchdog": func(c *Config) { c.WatchdogNs = 1e9 },
	}
	neg := base
	neg.Pattern = pattern.FromDelays("negative", []int64{0, 0, -5, 0, 0, 0, 0, 0})
	simulated, simErr := Run(neg, nil)
	replayed, repErr := Run(neg, h)
	simulated.Algorithm, replayed.Algorithm = coll.Algorithm{}, coll.Algorithm{}
	if simErr != nil || repErr != nil || !reflect.DeepEqual(simulated, replayed) {
		t.Errorf("negative delay: %+v (%v) simulated, %+v (%v) with the record", simulated, simErr, replayed, repErr)
	}
	for name, mutate := range misfits {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg, h); err == nil || !strings.Contains(err.Error(), "harmonization") {
			t.Errorf("%s: Run = %v, want a harmonization misfit error", name, err)
		}
	}
}

// TestRecordHarmonizationRefusesNondeterminism: a noisy platform, and a
// cell with faults or a watchdog, have no replayable harmonization.
func TestRecordHarmonizationRefusesNondeterminism(t *testing.T) {
	for name, cfg := range map[string]Config{
		"noisy Hydra":  {Platform: netmodel.Hydra(), Procs: 8},
		"clocked only": {Platform: netmodel.Hydra(), Procs: 8, NoNoise: true},
		"faults":       {Platform: netmodel.SimCluster(), Procs: 8, Faults: fault.Profile{Enabled: true}},
		"watchdog":     {Platform: netmodel.SimCluster(), Procs: 8, WatchdogNs: 1e9},
	} {
		if _, err := RecordHarmonization(cfg); err == nil {
			t.Errorf("%s: recorded", name)
		}
	}
	if _, err := RecordHarmonization(Config{Platform: netmodel.Hydra(), Procs: 8, NoNoise: true, PerfectClocks: true}); err != nil {
		t.Errorf("Hydra in simulation mode: %v", err)
	}
}
