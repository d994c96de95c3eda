package mpi

import (
	"fmt"
	"math"

	"collsel/internal/clocksync"
	"collsel/internal/sim"
)

// Rank is one MPI process. All methods must be called from the rank's own
// program function (they may block the simulated process).
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc

	// Port occupancy state (virtual time until which each port is busy).
	sendBusyUntil sim.Time
	recvBusyUntil sim.Time

	// Matching state: the posted receives, the unexpected messages and the
	// arrivals held for a predecessor (see matchLists).
	matchLists

	// Non-overtaking state: the next expected sequence number per source
	// and the next sequence number per destination, rank-indexed rows of
	// the store's p² tables materialized on first use (collectives touch
	// most pairs anyway, and indexing beats per-pair maps on the delivery
	// hot path).
	inPseq  []int32
	outPseq []int32

	// syncModel maps this rank's local clock to the reference clock; set by
	// SyncClock, identity by default.
	syncModel clocksync.LinearModel

	// collSeq numbers collective invocations on this rank, for tag spacing.
	collSeq int
}

// matchLists is one rank's matching state: envelopes of the posted
// receives, in post order, and of the arrived-but-unmatched messages, in
// arrival order, and the arrivals from any source still waiting in reorder
// for a predecessor. A scan compares source and tag inline and follows a
// handle only on a match; it stays linear because chargeMatch charges by
// position. reorder only fills when link jitter reorders the wire and
// stays tiny. The lists outlive the world in its pooled store, so a warm
// world appends into storage that has already grown.
type matchLists struct {
	posted     []envelope
	unexpected []envelope
	reorder    []held
}

// NextCollSeq increments and returns this rank's collective-invocation
// counter. SPMD programs call collectives in the same order everywhere, so
// the counter yields matching tag bases across ranks.
func (r *Rank) NextCollSeq() int {
	r.collSeq++
	return r.collSeq
}

// inNext returns the sequence number the next matchable message from src
// must carry.
func (r *Rank) inNext(src int32) *int32 {
	if r.inPseq == nil {
		r.inPseq = row(&r.w.st.inPseq, r.w.size, r.id)
	}
	return &r.inPseq[src]
}

// takeHeld removes the arrival from src with sequence pseq from the
// reorder list and returns its message handle, if it is there.
func (r *Rank) takeHeld(src, pseq int32) (int32, bool) {
	for i, e := range r.reorder {
		if e.src == src && e.pseq == pseq {
			last := len(r.reorder) - 1
			r.reorder[i] = r.reorder[last]
			r.reorder = r.reorder[:last]
			return e.h, true
		}
	}
	return 0, false
}

// nextPseq returns the next per-pair sequence number for messages to dst.
func (r *Rank) nextPseq(dst int) int32 {
	if r.outPseq == nil {
		r.outPseq = row(&r.w.st.outPseq, r.w.size, r.id)
	}
	v := r.outPseq[dst]
	r.outPseq[dst] = v + 1
	return v
}

// ID returns this process's rank.
func (r *Rank) ID() int { return r.id }

// curProc returns the simulated process currently executing. Rank methods
// block whichever process calls them, so a helper progress actor (used by
// non-blocking collectives) can share a rank's endpoints with the rank's
// main process.
func (r *Rank) curProc() *sim.Proc {
	if p := r.w.K.Current(); p != nil {
		return p
	}
	return r.proc
}

// Size returns the communicator size (the world size).
func (r *Rank) Size() int { return r.w.size }

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.w }

// Wtime returns the local clock reading in seconds (MPI_Wtime). On machines
// with imperfect clocks, values from different ranks are not directly
// comparable; see GlobalTime.
func (r *Rank) Wtime() float64 {
	return r.w.clocks.LocalOf(r.id, r.w.K.Now()) / 1e9
}

// LocalNowNs returns the local clock reading in nanoseconds.
func (r *Rank) LocalNowNs() float64 {
	return r.w.clocks.LocalOf(r.id, r.w.K.Now())
}

// SyncedNowNs returns the current time mapped onto the reference clock
// through the model obtained from SyncClock (ns). Before SyncClock is
// called, this is simply the local clock.
func (r *Rank) SyncedNowNs() float64 {
	return r.syncModel.Apply(r.LocalNowNs())
}

// SyncModel returns the rank's current local->reference model.
func (r *Rank) SyncModel() clocksync.LinearModel { return r.syncModel }

// SyncClock runs hierarchical clock synchronization collectively over all
// ranks and installs the resulting model; subsequent SyncedNowNs calls use
// it. Rank 0 keeps the identity model.
func (r *Rank) SyncClock(cfg clocksync.HCAConfig) {
	if cfg.Waiter == nil {
		cfg.Waiter = r.WaitUntilLocalNs
	}
	r.syncModel = clocksync.Synchronize(exchanger{r}, cfg)
}

// Compute advances this rank through nominalNs nanoseconds of computation,
// inflated by the machine's noise model (static imbalance + OS jitter) and,
// when fault injection marks this rank a straggler, by the fault plan's
// straggler factor.
func (r *Rank) Compute(nominalNs int64) {
	if nominalNs <= 0 {
		return
	}
	if f := r.w.fault.StragglerFactor(r.id); f != 1 {
		nominalNs = int64(float64(nominalNs) * f)
	}
	r.curProc().Sleep(r.w.noise.ComputeNs(r.id, nominalNs))
}

// SleepNs advances this rank by exactly d nanoseconds of virtual time,
// bypassing the noise model (used by harnesses to inject precise skew).
func (r *Rank) SleepNs(d int64) { r.curProc().Sleep(d) }

// WaitUntilLocalNs blocks until this rank's local clock reads at least
// localNs, emulating a busy-wait on MPI_Wtime.
func (r *Rank) WaitUntilLocalNs(localNs float64) {
	g := r.w.clocks.GlobalOf(r.id, localNs)
	r.curProc().WaitUntil(sim.Time(math.Ceil(g)))
}

// WaitUntilSyncedNs blocks until the reference clock (as estimated by this
// rank's sync model) reads at least refNs. This is the primitive behind
// harmonized window starts (MPIX_Harmonize).
func (r *Rank) WaitUntilSyncedNs(refNs float64) {
	local := r.syncModel.Invert().Apply(refNs)
	r.WaitUntilLocalNs(local)
}

// Abort terminates the whole simulation with an error.
func (r *Rank) Abort(format string, args ...any) {
	r.w.K.Fail(fmt.Errorf("rank %d: %s", r.id, fmt.Sprintf(format, args...)))
	// Block forever; the kernel returns the failure at the next step.
	var c sim.Cond
	c.Wait(r.curProc(), "aborted")
}

// exchanger adapts Rank to clocksync.Exchanger.
type exchanger struct{ r *Rank }

func (e exchanger) Rank() int { return e.r.id }
func (e exchanger) Size() int { return e.r.w.size }
func (e exchanger) SendFloat(dst, tag int, v float64) {
	e.r.Send(dst, tag, []float64{v}, 8)
}
func (e exchanger) RecvFloat(src, tag int) float64 {
	m := e.r.Recv(src, tag)
	return m.Data[0]
}
func (e exchanger) LocalNowNs() float64 { return e.r.LocalNowNs() }
