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

	// tevs, reqs and msgs recycle transport events, Requests and inMsgs.
	// A transport event returns when it fires, a Request when Wait
	// releases it, an inMsg once both its sender and its receiver are done
	// with it (releaseMsg). Each list therefore holds as many entries as
	// were ever in flight at once, not one per message.
	tevs *freeList[tev]
	reqs *freeList[Request]
	msgs *freeList[inMsg]
	// fifoBacking and pseqBacking are size*size slabs carved into per-rank
	// slices on first use (Rank.pairFIFO / Rank.nextPseq); pooling the slab
	// replaces size allocations per world with one pool hit.
	fifoBacking []pairFIFO
	pseqBacking []int64

	// stats
	totalMessages int64
	totalBytes    int64
	retransmits   int64
	drops         int64
}

// Pools recycling per-world storage across worlds (Release); the free
// lists hold zeroed entries, the slabs are zeroed before they are pooled.
var (
	tevListPool  sync.Pool // *freeList[tev]
	reqListPool  sync.Pool // *freeList[Request]
	msgListPool  sync.Pool // *freeList[inMsg]
	fifoSlabPool sync.Pool // *[]pairFIFO
	pseqSlabPool sync.Pool // *[]int64
)

// freeList is a LIFO stack of zeroed values for reuse.
type freeList[T any] struct{ items []*T }

// pooledList returns a free list from pool, or a new empty one.
func pooledList[T any](pool *sync.Pool) *freeList[T] {
	if v := pool.Get(); v != nil {
		return v.(*freeList[T])
	}
	return new(freeList[T])
}

// get returns a zeroed value, recycled if one is free.
func (f *freeList[T]) get() *T {
	n := len(f.items)
	if n == 0 {
		return new(T)
	}
	x := f.items[n-1]
	f.items = f.items[:n-1]
	return x
}

// put zeroes x and pushes it for reuse.
func (f *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	f.items = append(f.items, x)
}

// fifoSlab returns rank's size-wide slice of the world's reorder-FIFO slab.
func (w *World) fifoSlab(rank int) []pairFIFO {
	if w.fifoBacking == nil {
		n := w.size * w.size
		if v := fifoSlabPool.Get(); v != nil && cap(*(v.(*[]pairFIFO))) >= n {
			w.fifoBacking = (*(v.(*[]pairFIFO)))[:n]
		} else {
			w.fifoBacking = make([]pairFIFO, n)
		}
	}
	return w.fifoBacking[rank*w.size : (rank+1)*w.size]
}

// pseqSlab returns rank's size-wide slice of the world's sequence-counter slab.
func (w *World) pseqSlab(rank int) []int64 {
	if w.pseqBacking == nil {
		n := w.size * w.size
		if v := pseqSlabPool.Get(); v != nil && cap(*(v.(*[]int64))) >= n {
			w.pseqBacking = (*(v.(*[]int64)))[:n]
		} else {
			w.pseqBacking = make([]int64, n)
		}
	}
	return w.pseqBacking[rank*w.size : (rank+1)*w.size]
}

// newInMsg returns a zeroed inMsg holding a reference for each side,
// sender and receiver.
func (w *World) newInMsg() *inMsg {
	m := w.msgs.get()
	m.refs = 2
	return m
}

// releaseMsg drops one side's reference to m: the sender's once its last
// byte has left the send port, the receiver's once Wait has copied the
// message out. The second release returns m to the world's free list.
func (w *World) releaseMsg(m *inMsg) {
	if m.refs--; m.refs > 0 {
		return
	}
	w.msgs.put(m)
}

// Release returns the world's free lists, reorder and sequence slabs and
// kernel event storage to process-wide pools. Call it only once the
// simulation is finished and every Message obtained from it has been
// consumed; statistics (MessageCount, DropCount, ...) remain readable.
func (w *World) Release() {
	tevListPool.Put(w.tevs)
	reqListPool.Put(w.reqs)
	msgListPool.Put(w.msgs)
	w.tevs, w.reqs, w.msgs = nil, nil, nil
	if w.fifoBacking != nil {
		b := w.fifoBacking
		clear(b)
		fifoSlabPool.Put(&b)
		w.fifoBacking = nil
	}
	if w.pseqBacking != nil {
		b := w.pseqBacking
		clear(b)
		pseqSlabPool.Put(&b)
		w.pseqBacking = nil
	}
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
	w.tevs = pooledList[tev](&tevListPool)
	w.reqs = pooledList[Request](&reqListPool)
	w.msgs = pooledList[inMsg](&msgListPool)
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
	for i := 0; i < cfg.Size; i++ {
		slab[i] = Rank{w: w, id: i, syncModel: clocksync.Identity()}
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
