package microbench

import (
	"fmt"
	"math"

	"collsel/internal/mpi"
	"collsel/internal/netmodel"
)

// Harmonization is the recorded outcome of rep 0's MPIX_Harmonize on a
// deterministic world, for replay by Run.
//
// A world is deterministic when it has no noise, perfect clocks, no fault
// injection and no watchdog. Every such world of one (platform, procs)
// starts from the same state, and rep 0's harmonization runs before any
// rank applies its skew, so the butterfly has the same outcome in every
// cell of a grid: the same window, the same order in which ranks leave it
// and the same traffic. A cell replaying the record starts rank i at
// window + delay_i, which is where the simulated harmonization would have
// left it. Reps after the first still simulate their harmonization: they
// start from per-rank times that depend on the cell. Noisy, clocked,
// faulted and watchdogged cells simulate every harmonization, since theirs
// draws noise, clock error or faults, or can be cut by the watchdog.
type Harmonization struct {
	plat  netmodel.Platform
	procs int
	// windowNs is the agreed window start, a whole number of ns.
	windowNs int64
	// order lists the ranks in the order they left the butterfly, which is
	// the order their window waits were queued.
	order []int32
	// messages, bytes and events are the harmonization's wire messages,
	// wire bytes and kernel events.
	messages, bytes, events int64
}

// deterministic reports whether cfg's world has no noise, perfect clocks,
// no fault injection and no watchdog: whether its rep-0 harmonization can
// be recorded and replayed.
func deterministic(cfg Config) bool {
	p := cfg.Platform
	return (cfg.NoNoise || !p.Noise.Enabled) &&
		(cfg.PerfectClocks || !p.Clock.Enabled) &&
		!cfg.Faults.Enabled && cfg.WatchdogNs == 0
}

// RecordHarmonization simulates rep 0's harmonization once on a fresh
// world of cfg's platform and procs and records it for replay in every
// cell of that (platform, procs) with the same determinism (see Run). Only
// the fields that shape the world are read. It fails for a world that is
// not deterministic, and when the recording does not bear out what replay
// relies on: every harmonization event precedes the window, and the window
// is a whole number of ns.
func RecordHarmonization(cfg Config) (*Harmonization, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("microbench: nil platform")
	}
	if cfg.Procs == 0 {
		cfg.Procs = cfg.Platform.Size()
	}
	if !deterministic(cfg) {
		return nil, fmt.Errorf("microbench: harmonization on %s is not deterministic (noise, clock error, faults or a watchdog); it cannot be replayed", cfg.Platform.Name)
	}
	w, err := mpi.NewWorld(mpi.Config{
		Platform:      cfg.Platform,
		Size:          cfg.Procs,
		PerfectClocks: cfg.PerfectClocks,
		NoNoise:       cfg.NoNoise,
	})
	if err != nil {
		return nil, err
	}
	h := &Harmonization{plat: *cfg.Platform, procs: cfg.Procs, order: make([]int32, 0, cfg.Procs)}
	windows := make([]float64, cfg.Procs)
	err = w.Run(func(r *mpi.Rank) {
		windows[r.ID()] = harmonize(r, 0)
		h.order = append(h.order, int32(r.ID()))
	})
	w.Release()
	if err != nil {
		return nil, err
	}
	window := windows[0]
	for rank, v := range windows {
		if v != window {
			return nil, fmt.Errorf("microbench: harmonization disagrees: rank %d window %v, rank 0 %v", rank, v, window)
		}
	}
	if window != math.Trunc(window) || math.Abs(window) >= 1<<53 {
		return nil, fmt.Errorf("microbench: harmonization window %v is not a whole number of ns", window)
	}
	h.windowNs = int64(window)
	if end := w.K.Now(); end >= h.windowNs {
		return nil, fmt.Errorf("microbench: harmonization on %d ranks of %s ends at %d ns, not before its window at %d ns",
			cfg.Procs, cfg.Platform.Name, end, h.windowNs)
	}
	h.messages, h.bytes, h.events = w.MessageCount(), w.ByteCount(), w.K.Events()
	return h, nil
}

// fits reports why h cannot be replayed in cell cfg, or nil if it can: the
// cell must be deterministic and on h's platform and procs.
func (h *Harmonization) fits(cfg Config) error {
	switch {
	case *cfg.Platform != h.plat:
		return fmt.Errorf("microbench: harmonization recorded on %s replayed on %s", h.plat.Name, cfg.Platform.Name)
	case cfg.Procs != h.procs:
		return fmt.Errorf("microbench: harmonization recorded on %d ranks replayed on %d", h.procs, cfg.Procs)
	case !deterministic(cfg):
		return fmt.Errorf("microbench: harmonization replayed in a cell with noise, clock error, faults or a watchdog")
	}
	return nil
}
