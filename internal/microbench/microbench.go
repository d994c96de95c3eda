// Package microbench implements the paper's micro-benchmarking methodology
// (Listing 1): processes are harmonized in time (MPIX_Harmonize via the
// synchronized clocks), each process then waits out its pattern-assigned
// skew, enters the collective, and the harness records per-process arrival
// and exit times. From those it computes the paper's two metrics:
//
//	total delay d* = max(e_i) - min(a_i)   (Eq. 1)
//	last delay  d̂ = max(e_i) - max(a_i)   (Eq. 2)
//
// On machines with imperfect clocks the timestamps are taken on the
// HCA-synchronized logical global clock, exactly as the paper does with
// HCA3; in simulation mode (perfect clocks) they equal true global time.
package microbench

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"collsel/internal/clocksync"
	"collsel/internal/coll"
	"collsel/internal/fault"
	"collsel/internal/mpi"
	"collsel/internal/netmodel"
	"collsel/internal/pattern"
	"collsel/internal/stats"
)

// Config describes one micro-benchmark run (one algorithm, one message
// size, one arrival pattern).
type Config struct {
	// Platform is the machine model; required.
	Platform *netmodel.Platform
	// Procs is the number of ranks (defaults to Platform.Size()).
	Procs int
	// Seed drives noise, clock and pattern randomness.
	Seed int64
	// Algorithm is the collective algorithm under test; required.
	Algorithm coll.Algorithm
	// Count is the per-destination element count; total message size is
	// Count*ElemSize bytes (per pair, for Alltoall).
	Count int
	// ElemSize is the wire bytes per element (default 8).
	ElemSize int
	// Root for rooted collectives.
	Root int
	// Pattern holds per-rank skews; an empty pattern means No-delay. Its
	// size must equal Procs when non-empty.
	Pattern pattern.Pattern
	// Reps is the number of measured repetitions (default 10).
	Reps int
	// Warmup repetitions are run but excluded from statistics (default 2).
	Warmup int
	// PerfectClocks/NoNoise force simulation-mode behaviour on any platform.
	PerfectClocks bool
	NoNoise       bool
	// Validate runs the collective in data mode and cross-checks its
	// payload results against the expected semantics on every repetition
	// (reduce sums, alltoall transposition), failing the run on mismatch.
	// Without it the collective runs in timing mode: the same schedule and
	// the same metrics, with no payload allocated or moved.
	Validate bool
	// Faults configures deterministic fault injection (message drops with
	// retransmission, link degradation, stragglers, crashes); the zero
	// value injects nothing. The schedule is a pure function of (platform,
	// Procs, Seed), so grid results stay bit-identical at any parallelism.
	Faults fault.Profile
	// WatchdogNs aborts the run with a blocked-process diagnostic if the
	// simulation's virtual time would exceed it; 0 disables the watchdog.
	WatchdogNs int64
	// Cancel, when non-nil, cooperatively cancels the run: closing it makes
	// the simulation abort with an error wrapping context.Canceled instead
	// of burning CPU to completion. It is wall-clock control, not part of
	// the cell's identity: configs differing only in Cancel produce the same
	// result when they complete.
	Cancel <-chan struct{}
}

// RepMetrics holds the metrics of one repetition, in nanoseconds on the
// logical global clock.
type RepMetrics struct {
	TotalDelayNs float64 // d*, Eq. 1
	LastDelayNs  float64 // d̂, Eq. 2
}

// Result aggregates a micro-benchmark run.
type Result struct {
	Algorithm coll.Algorithm
	Pattern   string
	Count     int
	ElemSize  int
	Procs     int
	Reps      []RepMetrics
	// TotalDelay and LastDelay summarize the repetitions (ns).
	TotalDelay stats.Summary
	LastDelay  stats.Summary
	// MaxSkewNs is the pattern's maximum skew actually applied.
	MaxSkewNs int64
	// Retransmits and Drops count the fault-injection traffic over the whole
	// run (all repetitions); both are 0 without fault injection.
	Retransmits int64
	Drops       int64
	// WireMessages and WireBytes count every point-to-point message the run
	// sent and the wire bytes it was charged, harmonization included; they
	// are the same in timing and data mode.
	WireMessages int64
	WireBytes    int64
	// Events counts the simulator events the run dispatched, all
	// repetitions and harmonization included; it is the same in timing
	// and data mode.
	Events int64
}

// MsgBytes returns the wire size of the benchmarked message.
func (r Result) MsgBytes() int { return r.Count * r.ElemSize }

const (
	// harmonizeSlackNs is added to the agreed window start so that even the
	// slowest rank has finished the harmonization exchange by then.
	harmonizeSlackNs = 200_000
)

// Run executes the micro-benchmark and returns aggregated metrics.
//
// h, when non-nil, is the recorded rep-0 harmonization of a deterministic
// world (see RecordHarmonization): instead of simulating the butterfly
// again, rank i is first dispatched at the recorded window + delay_i, in
// the recorded order, and the recorded traffic and events are added to the
// Result, which is therefore the same as without h. An h recorded on
// another platform or procs, or passed to a cell that is not
// deterministic, is an error. A cell with a negative delay simulates rep 0
// anyway: that rank would start inside the butterfly.
func Run(cfg Config, h *Harmonization) (Result, error) {
	if cfg.Platform == nil {
		return Result{}, fmt.Errorf("microbench: nil platform")
	}
	if cfg.Algorithm.Run == nil {
		return Result{}, fmt.Errorf("microbench: no algorithm")
	}
	if cfg.Procs == 0 {
		cfg.Procs = cfg.Platform.Size()
	}
	if cfg.Count <= 0 {
		return Result{}, fmt.Errorf("microbench: count must be positive")
	}
	if cfg.ElemSize <= 0 {
		cfg.ElemSize = 8
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 10
	}
	if cfg.Warmup < 0 {
		cfg.Warmup = 2
	}
	if cfg.Pattern.Size() != 0 && cfg.Pattern.Size() != cfg.Procs {
		return Result{}, fmt.Errorf("microbench: pattern size %d != procs %d", cfg.Pattern.Size(), cfg.Procs)
	}
	if h != nil {
		if err := h.fits(cfg); err != nil {
			return Result{}, err
		}
		if slices.ContainsFunc(cfg.Pattern.DelaysNs, func(d int64) bool { return d < 0 }) {
			h = nil
		}
	}

	w, err := mpi.NewWorld(mpi.Config{
		Platform:      cfg.Platform,
		Size:          cfg.Procs,
		Seed:          cfg.Seed,
		PerfectClocks: cfg.PerfectClocks,
		NoNoise:       cfg.NoNoise,
		Fault:         cfg.Faults,
		DeadlineNs:    cfg.WatchdogNs,
		Cancel:        cfg.Cancel,
	})
	if err != nil {
		return Result{}, err
	}

	total := cfg.Warmup + cfg.Reps
	arrive := make([][]float64, total) // [rep][rank] synced-clock ns
	exit := make([][]float64, total)
	timestamps := make([]float64, 2*total*cfg.Procs)
	for i := range arrive {
		arrive[i] = timestamps[(2*i)*cfg.Procs : (2*i+1)*cfg.Procs]
		exit[i] = timestamps[(2*i+1)*cfg.Procs : (2*i+2)*cfg.Procs]
	}
	delay := func(rank int) int64 {
		if cfg.Pattern.Size() == 0 {
			return 0
		}
		return cfg.Pattern.DelaysNs[rank]
	}

	patName := cfg.Pattern.Name
	if cfg.Pattern.Size() == 0 {
		patName = pattern.NoDelay.String()
	}

	// Alltoallv runs with uniform counts, equivalent to a regular alltoall
	// of Count each; the slice is read-only, so all ranks share it.
	var counts []int
	if cfg.Algorithm.Coll == coll.Alltoallv {
		counts = make([]int, cfg.Procs)
		for i := range counts {
			counts[i] = cfg.Count
		}
	}
	var staged []mpi.Start
	if h != nil {
		staged = make([]mpi.Start, len(h.order))
		for k, rank := range h.order {
			staged[k] = mpi.Start{Rank: int(rank), AtNs: h.windowNs + delay(int(rank))}
		}
	}
	runErr := w.Run(func(r *mpi.Rank) {
		// Algorithms treat their input as read-only, so one vector per rank
		// serves every repetition.
		in := input(cfg, r.ID())
		// Synchronize clocks once up front, as ReproMPI+HCA3 do.
		if cfg.Platform.Clock.Enabled && !cfg.PerfectClocks {
			r.SyncClock(clocksync.DefaultHCAConfig())
		}
		for rep := 0; rep < total; rep++ {
			// A replayed rep 0 starts this rank at window + delay_i.
			if rep > 0 || h == nil {
				// Apply this rank's skew: busy-wait until window + delay_i.
				r.WaitUntilSyncedNs(harmonize(r, rep) + float64(delay(r.ID())))
			}
			arrive[rep][r.ID()] = r.SyncedNowNs()
			out, err := cfg.Algorithm.Run(&coll.Args{
				R:        r,
				Root:     cfg.Root,
				Data:     in,
				Count:    cfg.Count,
				ElemSize: cfg.ElemSize,
				Counts:   counts,
				Tag:      coll.NextTag(r),
			})
			if err != nil {
				r.Abort("collective failed: %v", err)
			}
			exit[rep][r.ID()] = r.SyncedNowNs()
			if cfg.Validate {
				if err := validateResult(cfg, r, out); err != nil {
					r.Abort("validation: %v", err)
				}
			}
		}
	}, staged...)
	// The world is dead: nothing references its requests or transport
	// events anymore, so the storage can be recycled for the next cell.
	// Statistics stay readable after Release.
	w.Release()
	if runErr != nil {
		return Result{}, runErr
	}

	res := Result{
		Algorithm:    cfg.Algorithm,
		Pattern:      patName,
		Count:        cfg.Count,
		ElemSize:     cfg.ElemSize,
		Procs:        cfg.Procs,
		MaxSkewNs:    cfg.Pattern.MaxSkewNs(),
		Retransmits:  w.RetransmitCount(),
		Drops:        w.DropCount(),
		WireMessages: w.MessageCount(),
		WireBytes:    w.ByteCount(),
		Events:       w.K.Events(),
	}
	if h != nil {
		res.WireMessages += h.messages
		res.WireBytes += h.bytes
		res.Events += h.events
	}
	for rep := cfg.Warmup; rep < total; rep++ {
		minA, maxA := math.Inf(1), math.Inf(-1)
		maxE := math.Inf(-1)
		for rk := 0; rk < cfg.Procs; rk++ {
			a, e := arrive[rep][rk], exit[rep][rk]
			minA = math.Min(minA, a)
			maxA = math.Max(maxA, a)
			maxE = math.Max(maxE, e)
		}
		res.Reps = append(res.Reps, RepMetrics{
			TotalDelayNs: maxE - minA,
			LastDelayNs:  maxE - maxA,
		})
	}
	res.TotalDelay = stats.Summarize(collect(res.Reps, func(m RepMetrics) float64 { return m.TotalDelayNs }))
	res.LastDelay = stats.Summarize(collect(res.Reps, func(m RepMetrics) float64 { return m.LastDelayNs }))
	return res, nil
}

func collect(ms []RepMetrics, f func(RepMetrics) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

// input returns rank id's input vector. Without Validate it is nil on
// every rank: the collective runs in timing mode, on sizes alone (see
// package coll). With Validate every element is id+1, which validateResult
// checks the outputs against; ranks that only receive (non-root Bcast and
// Scatter, and every Barrier rank) get nil in both modes.
func input(cfg Config, id int) []float64 {
	if !cfg.Validate {
		return nil
	}
	n := cfg.Count
	switch cfg.Algorithm.Coll {
	case coll.Barrier:
		return nil
	case coll.Bcast, coll.Scatter:
		if id != cfg.Root {
			return nil
		}
		if cfg.Algorithm.Coll == coll.Scatter {
			n *= cfg.Procs
		}
	case coll.Alltoall, coll.Alltoallv, coll.ReduceScatter:
		n *= cfg.Procs
	}
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(id + 1)
	}
	return in
}

// validateResult cross-checks collective semantics for the data produced by
// input.
func validateResult(cfg Config, r *mpi.Rank, out []float64) error {
	p := r.Size()
	switch cfg.Algorithm.Coll {
	case coll.Reduce:
		if r.ID() != cfg.Root {
			return nil
		}
		want := float64(p*(p+1)) / 2
		return expectAll(out, cfg.Count, want)
	case coll.Allreduce:
		want := float64(p*(p+1)) / 2
		return expectAll(out, cfg.Count, want)
	case coll.Alltoall:
		if len(out) != p*cfg.Count {
			return fmt.Errorf("alltoall output length %d", len(out))
		}
		for src := 0; src < p; src++ {
			for e := 0; e < cfg.Count; e++ {
				if out[src*cfg.Count+e] != float64(src+1) {
					return fmt.Errorf("alltoall chunk %d corrupted", src)
				}
			}
		}
		return nil
	case coll.Bcast:
		return expectAll(out, cfg.Count, float64(cfg.Root+1))
	case coll.ReduceScatter:
		want := float64(p*(p+1)) / 2
		return expectAll(out, cfg.Count, want)
	case coll.Allgather:
		if len(out) != p*cfg.Count {
			return fmt.Errorf("allgather output length %d", len(out))
		}
		for src := 0; src < p; src++ {
			for e := 0; e < cfg.Count; e++ {
				if out[src*cfg.Count+e] != float64(src+1) {
					return fmt.Errorf("allgather block %d corrupted", src)
				}
			}
		}
		return nil
	default:
		return nil
	}
}

func expectAll(out []float64, n int, want float64) error {
	if len(out) != n {
		return fmt.Errorf("output length %d != %d", len(out), n)
	}
	for i, v := range out {
		if math.Abs(v-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("element %d: got %g want %g", i, v, want)
		}
	}
	return nil
}

func harmonizeTag(rep int) int { return 1<<22 + rep*8 }

// harmonize is MPIX_Harmonize for repetition rep: the ranks agree on a
// future window start on the logical global clock and return it.
func harmonize(r *mpi.Rank, rep int) float64 {
	return allreduceMaxScalar(r, r.SyncedNowNs(), harmonizeTag(rep)) + harmonizeSlackNs
}

// allreduceMaxScalar agrees on the maximum of v across all ranks using a
// fold + recursive-doubling butterfly (non-power-of-two safe).
func allreduceMaxScalar(r *mpi.Rank, v float64, tag int) float64 {
	p, me := r.Size(), r.ID()
	if p == 1 {
		return v
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	// Each send is one element of a single buffer, sized for the most
	// sends a rank makes (the fold or the last hop, plus one per butterfly
	// round): a receiver reads its payload after the sender has moved on,
	// so no round may overwrite an earlier round's element.
	buf := make([]float64, 0, bits.Len(uint(pof2)))
	payload := func(x float64) []float64 {
		buf = append(buf, x)
		return buf[len(buf)-1:]
	}
	cur := v
	newRank := -1
	if me < 2*rem {
		if me%2 == 0 {
			r.Send(me+1, tag, payload(cur), 8)
		} else {
			m := r.Recv(me-1, tag)
			cur = math.Max(cur, m.Data[0])
			newRank = me / 2
		}
	} else {
		newRank = me - rem
	}
	toReal := func(g int) int {
		if g >= rem {
			return g + rem
		}
		return 2*g + 1
	}
	if newRank >= 0 {
		for b := 1; b < pof2; b <<= 1 {
			peer := toReal(newRank ^ b)
			m := r.Sendrecv(peer, tag+1, payload(cur), 8, peer, tag+1)
			cur = math.Max(cur, m.Data[0])
		}
	}
	if me < 2*rem {
		if me%2 == 0 {
			m := r.Recv(me+1, tag+2)
			cur = m.Data[0]
		} else {
			r.Send(me-1, tag+2, payload(cur), 8)
		}
	}
	return cur
}
