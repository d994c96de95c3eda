// Package mpi implements an MPI-like message-passing runtime on top of the
// discrete-event kernel. It provides the subset of MPI semantics that
// collective algorithms are built from: tagged point-to-point messages with
// non-overtaking matching, eager and rendezvous protocols, blocking and
// non-blocking operations, local clocks (MPI_Wtime) and compute phases.
//
// A World hosts size ranks on a netmodel.Platform. Each rank runs the user's
// program function on its own simulated process. Message costs follow the
// platform's LogGP-like model with per-rank send/receive port serialization,
// so contention effects (incast, fan-out, pipelining) emerge naturally.
package mpi

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"collsel/internal/clocksync"
	"collsel/internal/fault"
	"collsel/internal/netmodel"
	"collsel/internal/noise"
	"collsel/internal/sim"
)

// World is one simulated MPI job.
type World struct {
	// K is the simulation kernel; exported for harnesses that need to
	// schedule auxiliary events.
	K      *sim.Kernel
	plat   *netmodel.Platform
	noise  *noise.Model
	clocks *clocksync.Ensemble
	fault  *fault.Plan // nil = no fault injection
	ranks  []*Rank
	size   int

	// hid is the id under which the world is registered as its kernel's
	// handler: every transport event is an AtOp event addressed to it.
	hid sim.HandlerID
	st  *store // requests, messages and per-pair state; pooled by Release

	// stats
	totalMessages int64
	totalBytes    int64
	retransmits   int64
	drops         int64
}

// store is the per-world storage that Release recycles across worlds.
// Requests and inMsgs live in slabs and are named by int32 handle (events,
// an inMsg's sendReq, matching envelopes); a Request is freed when Wait
// releases it, an inMsg once both its sender and its receiver are done
// with it (releaseMsg), so each slab holds as many entries as were ever in
// flight at once, not one per message. data is the side table of
// data-mode payloads by message handle, cleared entry by entry as handles
// are freed; a world that sends no payloads never grows it. inPseq and
// outPseq are the int32 size*size tables of next expected and next
// outgoing per-pair sequence numbers, carved into per-rank rows on first
// use (Rank.inNext / Rank.nextPseq): 256 KB each at 256 ranks. lists keeps
// each rank's matching lists, by rank, between worlds.
type store struct {
	reqs    slab[Request]
	msgs    slab[inMsg]
	data    [][]float64
	inPseq  []int32
	outPseq []int32
	lists   []matchLists
}

var storePool = sync.Pool{New: func() any { return new(store) }}

// reset zeroes everything a world used, so the store can be pooled.
func (s *store) reset() {
	s.reqs.reset()
	s.msgs.reset()
	clear(s.data)
	s.data = s.data[:0]
	clear(s.inPseq)
	clear(s.outPseq)
	for i := range s.lists {
		l := &s.lists[i]
		l.posted, l.unexpected, l.reorder = l.posted[:0], l.unexpected[:0], l.reorder[:0]
	}
}

// row returns rank's size-wide row of the size*size slice *buf, sizing
// *buf on first use. A pooled *buf is zeroed, and entries beyond its
// length were zeroed by the world that last used them, so growing it
// within its capacity yields zeroes.
func row[T any](buf *[]T, size, rank int) []T {
	if n := size * size; len(*buf) != n {
		*buf = slices.Grow((*buf)[:0], n)[:n]
	}
	return (*buf)[rank*size : (rank+1)*size]
}

// chunkLen is the number of entries in one slab chunk.
const chunkLen = 512

// slab is an arena of T addressed by int32 handles. Entries live in
// fixed-size chunks that never move, so a *T stays valid however far the
// slab grows; freed handles are reused LIFO.
type slab[T any] struct {
	chunks []*[chunkLen]T
	free   []int32
	// n counts the handles issued since the last reset; only entries
	// below it can be in use.
	n int32
}

// get returns a free handle and its zeroed entry.
func (s *slab[T]) get() (int32, *T) {
	var h int32
	if k := len(s.free); k > 0 {
		h = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		h = s.n
		if int(h/chunkLen) == len(s.chunks) {
			s.chunks = append(s.chunks, new([chunkLen]T))
		}
		s.n++
	}
	return h, s.at(h)
}

// at returns the entry of handle h.
func (s *slab[T]) at(h int32) *T { return &s.chunks[h/chunkLen][h%chunkLen] }

// put zeroes h's entry and frees the handle.
func (s *slab[T]) put(h int32) {
	*s.at(h) = *new(T)
	s.free = append(s.free, h)
}

// reset zeroes every entry issued since the last reset, released or not,
// and frees all handles; the chunks are kept.
func (s *slab[T]) reset() {
	for i := 0; i*chunkLen < int(s.n); i++ {
		clear(s.chunks[i][:min(chunkLen, int(s.n)-i*chunkLen)])
	}
	s.free = s.free[:0]
	s.n = 0
}

// setData records payload d for message handle h, growing the side table
// to cover h.
func (s *store) setData(h int32, d []float64) {
	if n := int(h) + 1; n > len(s.data) {
		s.data = slices.Grow(s.data, n-len(s.data))[:n]
	}
	s.data[h] = d
}

// payload returns the payload recorded for message handle h, nil if none.
func (s *store) payload(h int32) []float64 {
	if int(h) < len(s.data) {
		return s.data[h]
	}
	return nil
}

// freeMsg clears message handle h's payload, if any, and frees the
// handle, so a recycled handle never yields a stale payload.
func (s *store) freeMsg(h int32) {
	if int(h) < len(s.data) {
		s.data[h] = nil
	}
	s.msgs.put(h)
}

// newRequest returns a zeroed Request owned by rank r.
func (w *World) newRequest(r *Rank) *Request {
	h, q := w.st.reqs.get()
	q.h, q.r = h, r
	return q
}

// newInMsg returns a zeroed inMsg holding a reference for each side,
// sender and receiver.
func (w *World) newInMsg() *inMsg {
	h, m := w.st.msgs.get()
	m.h, m.refs = h, 2
	return m
}

// releaseMsg drops one side's reference to m: the sender's once its last
// byte has left the send port, the receiver's once Wait has copied the
// message out. The second release frees m's handle.
func (w *World) releaseMsg(m *inMsg) {
	if m.refs--; m.refs > 0 {
		return
	}
	w.st.freeMsg(m.h)
}

// Release returns the world's storage and kernel event storage to
// process-wide pools. Call it only once the simulation is finished and
// every Message obtained from it has been consumed; statistics
// (MessageCount, DropCount, ...) remain readable.
func (w *World) Release() {
	for i, r := range w.ranks {
		w.st.lists[i] = r.matchLists
	}
	w.st.reset()
	storePool.Put(w.st)
	w.st = nil
	w.K.Release()
}

// Config controls world construction.
type Config struct {
	// Platform describes the machine; required.
	Platform *netmodel.Platform
	// Size is the number of ranks; must be in [1, Platform.Size()].
	Size int
	// Seed drives noise and clock randomness; runs with equal seeds are
	// identical.
	Seed int64
	// PerfectClocks forces identity clocks even if the platform profile has
	// clock imperfection enabled (the simulation-study setting).
	PerfectClocks bool
	// NoNoise forces the noise model off for this world.
	NoNoise bool
	// Fault declares the deterministic fault-injection profile; the zero
	// value injects nothing. The materialized schedule is a pure function
	// of (platform fingerprint, Size, Seed), like the noise model.
	Fault fault.Profile
	// DeadlineNs arms a virtual-time watchdog: the simulation aborts with a
	// diagnostic listing every blocked process if it would run past this
	// virtual time. 0 disables the watchdog.
	DeadlineNs int64
	// Cancel, when non-nil, is polled by the kernel's event loop; closing it
	// aborts Run with sim.ErrCanceled (cooperative wall-clock cancellation,
	// typically a context's Done channel). nil disables the checks.
	Cancel <-chan struct{}
}

// NewWorld creates a world of cfg.Size ranks.
func NewWorld(cfg Config) (*World, error) {
	p := cfg.Platform
	if p == nil {
		return nil, fmt.Errorf("mpi: nil platform")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Size <= 0 || cfg.Size > p.Size() {
		return nil, fmt.Errorf("mpi: size %d out of range [1, %d] on %s", cfg.Size, p.Size(), p.Name)
	}
	var kopts []sim.Option
	if cfg.DeadlineNs > 0 {
		kopts = append(kopts, sim.WithDeadline(cfg.DeadlineNs))
	}
	if cfg.Cancel != nil {
		kopts = append(kopts, sim.WithCancel(cfg.Cancel))
	}
	w := &World{
		K:    sim.New(kopts...),
		plat: p,
		size: cfg.Size,
	}
	w.hid = w.K.Register(w)
	w.st = storePool.Get().(*store)
	if cfg.NoNoise || !p.Noise.Enabled {
		w.noise = noise.Inert(cfg.Size)
	} else {
		w.noise = noise.New(p, cfg.Size, cfg.Seed)
	}
	if cfg.PerfectClocks || !p.Clock.Enabled {
		w.clocks = clocksync.PerfectEnsemble(cfg.Size)
	} else {
		w.clocks = clocksync.NewEnsemble(p.Clock, cfg.Size, cfg.Seed)
	}
	w.fault = fault.NewPlan(p, cfg.Size, cfg.Seed, cfg.Fault)
	w.ranks = make([]*Rank, cfg.Size)
	slab := make([]Rank, cfg.Size)
	if n := cfg.Size - len(w.st.lists); n > 0 {
		w.st.lists = append(w.st.lists, make([]matchLists, n)...)
	}
	for i := 0; i < cfg.Size; i++ {
		slab[i] = Rank{w: w, id: i, matchLists: w.st.lists[i], syncModel: clocksync.Identity()}
		w.ranks[i] = &slab[i]
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Platform returns the platform the world runs on.
func (w *World) Platform() *netmodel.Platform { return w.plat }

// Clocks returns the ground-truth clock ensemble (for harness bookkeeping;
// rank programs should use Rank.Wtime).
func (w *World) Clocks() *clocksync.Ensemble { return w.clocks }

// Noise returns the world's noise model.
func (w *World) Noise() *noise.Model { return w.noise }

// Rank returns the rank handle with the given id (valid after Run started;
// handles exist from construction).
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// MessageCount returns the number of point-to-point messages fully delivered
// so far (self-copies included).
func (w *World) MessageCount() int64 { return w.totalMessages }

// ByteCount returns the total payload bytes delivered so far.
func (w *World) ByteCount() int64 { return w.totalBytes }

// RetransmitCount returns the number of message retransmissions scheduled
// by the fault-injection layer so far.
func (w *World) RetransmitCount() int64 { return w.retransmits }

// DropCount returns the number of transmission attempts lost to fault
// injection so far (each drop either triggers a retransmission or, once
// retries are exhausted, a FaultError).
func (w *World) DropCount() int64 { return w.drops }

// FaultPlan returns the world's materialized fault schedule (nil when fault
// injection is disabled).
func (w *World) FaultPlan() *fault.Plan { return w.fault }

// Run spawns one process per rank executing main and runs the simulation to
// completion. It returns an error on deadlock or if any rank panicked via
// Fail. Run may be called once per World.
func (w *World) Run(main func(r *Rank)) error {
	if w.fault != nil {
		for i := 0; i < w.size; i++ {
			if at, ok := w.fault.CrashAtNs(i); ok {
				rank := i
				w.K.At(at, func() {
					w.K.Fail(&FaultError{Kind: FaultCrash, Rank: rank, Peer: -1, AtNs: at})
				})
			}
		}
	}
	for i := 0; i < w.size; i++ {
		r := w.ranks[i]
		w.K.Spawn(rankName(i), func(p *sim.Proc) {
			r.proc = p
			main(r)
		})
	}
	return w.K.Run()
}

// rankNames caches process names ("rank0", "rank1", ...): every world of
// every grid cell names the same first few hundred ranks, so the strings
// are interned process-wide instead of formatted per world. The table only
// grows, by copy-on-write; concurrent worlds race at worst to publish
// identical contents.
var rankNames atomic.Pointer[[]string]

func rankName(i int) string {
	if t := rankNames.Load(); t != nil && i < len(*t) {
		return (*t)[i]
	}
	n := i + 64
	t := make([]string, n)
	if old := rankNames.Load(); old != nil {
		copy(t, *old)
	}
	for j := range t {
		if t[j] == "" {
			t[j] = fmt.Sprintf("rank%d", j)
		}
	}
	rankNames.Store(&t)
	return t[i]
}

// --- fault surface -----------------------------------------------------------

// FaultKind classifies an injected failure.
type FaultKind int

const (
	// FaultRetriesExhausted: a message was dropped on every transmission
	// attempt, including all retransmissions.
	FaultRetriesExhausted FaultKind = iota
	// FaultCrash: a rank hit its scheduled crash time.
	FaultCrash
)

func (k FaultKind) String() string {
	switch k {
	case FaultRetriesExhausted:
		return "retries exhausted"
	case FaultCrash:
		return "rank crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultError is the typed failure surfaced when injected faults defeat the
// transport's resilience: retransmission caps exhausted, or a scheduled
// rank crash. Simulations fail fast with this error instead of deadlocking.
type FaultError struct {
	Kind FaultKind
	// Rank is the crashed rank, or the sender of the undeliverable message.
	Rank int
	// Peer is the receiver of the undeliverable message; -1 for crashes.
	Peer int
	// Attempts is the number of transmission attempts made (message faults).
	Attempts int
	// AtNs is the virtual time of the failure.
	AtNs int64
}

func (e *FaultError) Error() string {
	if e.Kind == FaultCrash {
		return fmt.Sprintf("mpi: fault: rank %d crashed at t=%d ns", e.Rank, e.AtNs)
	}
	return fmt.Sprintf("mpi: fault: message %d->%d undeliverable after %d attempts at t=%d ns",
		e.Rank, e.Peer, e.Attempts, e.AtNs)
}
