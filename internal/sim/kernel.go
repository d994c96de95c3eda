// Package sim implements a deterministic discrete-event simulation kernel
// with an actor-style process model, in the spirit of SimGrid.
//
// The kernel is a run-to-completion scheduler: a single loop pops events in
// virtual-time order and dispatches process continuations directly. Each
// simulated process is a coroutine (iter.Pull) — suspending into the
// scheduler and resuming from it are direct coroutine switches on one OS
// thread, with no channel handoffs and no goroutine parking on the hot
// path. Processes block on kernel primitives (Sleep, WaitUntil, condition
// waits) and are resumed by events popped from a global event queue.
//
// An event is a 24-byte value with no pointers: a kind, a target id, an op,
// two int32 operands and an int64 argument. The target is a process id (a
// wake), a handler id (a pooled event, see Register and AtOp) or a slot in
// the kernel's closure table (At). The queue (internal/sim/eventq) stores
// events by value, so its slab is never scanned by the GC and steady-state
// dispatch performs no allocations. Parallelism belongs one layer up: a
// Kernel is single-threaded by construction, and internal/runner fans
// independent simulations out across cores.
//
// Virtual time is int64 nanoseconds. Ties between events at the same
// timestamp are broken by insertion order, which makes every simulation run
// bit-for-bit reproducible.
package sim

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
	"time"

	"collsel/internal/sim/eventq"
)

// Time is virtual simulation time in nanoseconds.
type Time = int64

// FromDuration converts a wall-clock duration to virtual time; it is the
// inverse of ToDuration. Use it to express watchdogs and deadlines in
// time.Duration at API boundaries while the kernel keeps raw nanoseconds.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// ToDuration converts virtual time to a wall-clock duration; it is the
// inverse of FromDuration.
func ToDuration(t Time) time.Duration { return time.Duration(t) }

// Handler runs pooled events: the alternative to a closure for hot paths
// (message delivery, completion callbacks). A handler is registered once
// per kernel; each event scheduled with AtOp then carries only an op code,
// two int32 handles naming the handler's own state and an int64 argument,
// so scheduling allocates nothing and the queue holds no pointers.
type Handler interface {
	// Handle runs one event in kernel context; it must not block.
	Handle(op uint16, a, b int32, arg int64)
}

// HandlerID names a Handler registered with a kernel (see Register).
type HandlerID int32

// Event kinds: how an event's target is read.
const (
	evWake    uint8 = iota // target is the id of a process to make runnable
	evHandler              // target is a HandlerID
	evFunc                 // target is a slot of the closure table
)

// event is one scheduled entry, stored by value in the queue. It holds no
// pointers, so the queue's slab is allocated noscan; op, a, b and arg are
// the operands of an evHandler event.
type event struct {
	kind   uint8
	op     uint16
	target int32
	a, b   int32
	arg    int64
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// BlockReason supplies a process's block-reason diagnostic on demand.
// Blocking primitives accept one (Cond.WaitWith) so that hot paths do not
// format a string per block; the kernel renders it only if the run ends in
// a deadlock or watchdog report.
type BlockReason interface {
	// BlockReason returns the diagnostic, e.g. "wait recv(src=3,tag=7)".
	BlockReason() string
}

// blockInfo is a process's pending block-reason diagnostic, captured
// cheaply at block time and rendered lazily.
type blockInfo struct {
	kind uint8
	arg  int64
	str  string
	prov BlockReason
}

const (
	reasonNone uint8 = iota
	reasonStatic
	reasonLazy
	reasonSleep
	reasonWaitUntil
	reasonYield
)

func (b *blockInfo) render() string {
	switch b.kind {
	case reasonStatic:
		return b.str
	case reasonLazy:
		return b.prov.BlockReason()
	case reasonSleep:
		return fmt.Sprintf("sleep(%d)", b.arg)
	case reasonWaitUntil:
		return fmt.Sprintf("waitUntil(%d)", b.arg)
	case reasonYield:
		return "yield"
	}
	return ""
}

// Proc is a simulated process (actor). All Proc methods that can block must
// be called from the process's own coroutine, i.e. from within the function
// passed to Spawn.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	state   procState
	started bool
	// fn is the process body, held until the first dispatch hands it to a
	// coroutine.
	fn func(*Proc)
	// co is the coroutine executing this process's body. It is borrowed
	// from a process-wide pool at first dispatch and returned there when
	// the body finishes normally (see coro); aborted bodies unwind their
	// coroutine to exit instead.
	co *coro
	// reason describes why the process is blocked, for deadlock reports.
	reason blockInfo
}

// ID returns the process identifier assigned at Spawn time (dense, 0-based).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Kernel is the simulation scheduler.
type Kernel struct {
	now Time
	q   *eventq.Queue[event]
	seq uint64

	procs []*Proc
	ready procRing // FIFO ready list
	alive int      // procs not yet done

	// cur is the process currently executing (nil in kernel context).
	cur *Proc

	// handlers is the table AtOp events address by HandlerID.
	handlers []Handler
	// fns holds the closures scheduled with At, by slot; a slot is freed
	// when its event fires and reused LIFO from fnFree.
	fns    []func()
	fnFree []int32

	running bool
	failure error

	// deadline, when > 0, is the virtual-time watchdog: advancing past it
	// aborts the run with a DeadlineError (see WithDeadline).
	deadline Time

	// cancel, when non-nil, is polled every cancelCheckInterval events;
	// once closed, Run aborts with ErrCanceled (see WithCancel).
	cancel <-chan struct{}
	// events counts the events dispatched from the queue; peakQueue is the
	// most events ever queued at once.
	events    int64
	peakQueue int
	// aborted flags an early termination (failure, watchdog, cancellation,
	// deadlock); suspended processes observe it while unwinding.
	aborted bool
}

// Option configures a Kernel at construction time.
type Option func(*Kernel)

// WithCancel installs a cooperative cancellation channel: once it is
// closed, Run aborts with ErrCanceled at the next poll point instead of
// simulating to completion. Pass a context's Done() channel to stop a
// selection whose requester has gone away or whose deadline has expired. A
// nil channel (the default) disables the checks entirely, so batch runs
// pay nothing.
func WithCancel(ch <-chan struct{}) Option { return func(k *Kernel) { k.cancel = ch } }

// WithDeadline installs a virtual-time watchdog: if the kernel would
// advance past absolute virtual time t, Run aborts with a *DeadlineError
// whose diagnostic lists every blocked process and its block reason. A
// deadline of 0 (the default) disables the watchdog. The watchdog catches
// runaway simulations — e.g. unbounded retransmission storms — that would
// otherwise run, or block, forever.
func WithDeadline(t Time) Option { return func(k *Kernel) { k.deadline = t } }

// New creates an empty simulation configured by opts.
func New(opts ...Option) *Kernel {
	k := &Kernel{}
	if v := queuePool.Get(); v != nil {
		k.q = v.(*eventq.Queue[event])
	} else {
		k.q = new(eventq.Queue[event])
	}
	for _, o := range opts {
		o(k)
	}
	return k
}

// queuePool recycles event queues — their buckets, slab and free list —
// across kernels: every simulation re-grows identical storage otherwise,
// and the per-cell worlds of a selection grid churn through thousands of
// them.
var queuePool sync.Pool

// Release returns the kernel's event queue to a process-wide pool. Call it
// only once the simulation is finished and no further Kernel or Proc
// method will be invoked; diagnostic state (Now, failure) remains
// readable.
func (k *Kernel) Release() {
	k.q.Reset()
	queuePool.Put(k.q)
	k.q = nil
}

// Now returns the current virtual time. Valid from both kernel callbacks and
// process coroutines (which only run while the kernel is paused).
func (k *Kernel) Now() Time { return k.now }

// push enqueues e at absolute time t; scheduling in the past is clamped to
// the current time, and insertion order breaks timestamp ties. The clamp
// and the increasing seq keep every push above the last popped event,
// which is the event queue's monotone precondition.
func (k *Kernel) push(t Time, e event) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.q.Push(t, k.seq, e)
	if n := k.q.Len(); n > k.peakQueue {
		k.peakQueue = n
	}
}

// At schedules fn to run in kernel context at absolute virtual time t.
// Scheduling in the past is clamped to the current time. The closure waits
// in a kernel-owned slot until its event fires. Hot paths should prefer
// AtOp, which allocates nothing.
func (k *Kernel) At(t Time, fn func()) {
	var slot int32
	if n := len(k.fnFree); n > 0 {
		slot = k.fnFree[n-1]
		k.fnFree = k.fnFree[:n-1]
		k.fns[slot] = fn
	} else {
		slot = int32(len(k.fns))
		k.fns = append(k.fns, fn)
	}
	k.push(t, event{kind: evFunc, target: slot})
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Register adds h to the kernel's handler table and returns the id AtOp
// events address it by. Register once per kernel, not per event.
func (k *Kernel) Register(h Handler) HandlerID {
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// AtOp schedules h.Handle(op, a, b, arg) to run in kernel context at
// absolute virtual time t, for a handler h registered with Register.
// Unlike At, it allocates nothing.
func (k *Kernel) AtOp(t Time, h HandlerID, op uint16, a, b int32, arg int64) {
	k.push(t, event{kind: evHandler, op: op, target: int32(h), a: a, b: b, arg: arg})
}

// Events returns the number of events the kernel has dispatched from its
// queue. Process wakes count; draining the ready list does not.
func (k *Kernel) Events() int64 { return k.events }

// PeakQueueLen returns the most events that were ever queued at once.
func (k *Kernel) PeakQueueLen() int { return k.peakQueue }

// Spawn creates a new process that will start executing fn at the current
// virtual time (or at simulation start). It returns the process handle.
// The body runs on a pooled coroutine bound at first dispatch, so spawning
// a process that is aborted before it ever runs costs no coroutine at all.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		name:  name,
		state: stateRunnable,
		fn:    fn,
	}
	k.procs = append(k.procs, p)
	k.alive++
	// Make it runnable immediately.
	k.ready.push(p)
	return p
}

// StartAt defers the first dispatch of a process that has been spawned but
// not yet dispatched to virtual time t: its start is a wake event queued
// now, so processes started at the same instant are first dispatched in
// StartAt call order, after every event at t queued before them. Until
// then the process counts as blocked in waitUntil(t). The entry Spawn left
// on the ready list is skipped, since the process is no longer runnable.
func (p *Proc) StartAt(t Time) {
	if p.started || p.state != stateRunnable {
		panic("sim: StartAt on a process that is not freshly spawned")
	}
	p.state = stateBlocked
	p.reason = blockInfo{kind: reasonWaitUntil, arg: t}
	p.k.push(t, event{kind: evWake, target: int32(p.id)})
}

// Ready marks a blocked process runnable. It must be called from kernel
// context (an event callback) or from the running process.
func (k *Kernel) Ready(p *Proc) {
	if p.state == stateBlocked {
		p.state = stateRunnable
		k.ready.push(p)
	}
}

// suspend parks the calling process until Ready is called on it. The
// caller has already recorded its block reason in p.reason.
func (p *Proc) suspend() {
	p.state = stateBlocked
	if !p.co.yieldFn(struct{}{}) || p.k.aborted {
		// The kernel is unwinding an aborted run; exit through the Spawn
		// wrapper so the coroutine does not stay suspended forever.
		panic(abortSignal{})
	}
	p.reason = blockInfo{}
}

// block suspends the calling process until Ready is called on it.
// reason is reported in deadlock diagnostics.
func (p *Proc) block(reason string) {
	p.reason = blockInfo{kind: reasonStatic, str: reason}
	p.suspend()
}

// Sleep suspends the calling process for d nanoseconds of virtual time.
// Negative durations sleep zero time (but still yield).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.push(k.now+d, event{kind: evWake, target: int32(p.id)})
	p.reason = blockInfo{kind: reasonSleep, arg: d}
	p.suspend()
}

// WaitUntil suspends the calling process until virtual time t. If t is in
// the past it returns immediately without yielding.
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	k := p.k
	k.push(t, event{kind: evWake, target: int32(p.id)})
	p.reason = blockInfo{kind: reasonWaitUntil, arg: t}
	p.suspend()
}

// Yield gives up the processor until the kernel has drained all events at
// the current timestamp that were scheduled before this call.
func (p *Proc) Yield() {
	k := p.k
	k.push(k.now, event{kind: evWake, target: int32(p.id)})
	p.reason = blockInfo{kind: reasonYield}
	p.suspend()
}

// Cond is a single-waiter condition slot used for blocking waits on state
// changes (e.g. message arrival, request completion). It names its waiter
// by process id, so it is four bytes and holds no pointer; the waiter's
// kernel is the one passed to Signal.
type Cond struct {
	// waiter is the waiting process's id plus one; 0 means none.
	waiter int32
}

// Arm makes p the Cond's waiter without blocking it: the next Signal
// readies p. A process that arms several Conds and then blocks once (see
// Park) is woken by whichever is signaled first; it must Disarm the rest
// when it resumes. A Cond supports at most one waiter at a time.
func (c *Cond) Arm(p *Proc) {
	if c.waiter != 0 {
		panic("sim: Cond already has a waiter")
	}
	c.waiter = int32(p.id) + 1
}

// Disarm removes the Cond's waiter, if any, without waking it.
func (c *Cond) Disarm() { c.waiter = 0 }

// Wait blocks the calling process until Signal is called.
// A Cond supports at most one waiter at a time.
func (c *Cond) Wait(p *Proc, reason string) {
	c.Arm(p)
	p.block(reason)
}

// WaitWith blocks like Wait but takes the diagnostic lazily: r is only
// asked to render itself if the run ends in a deadlock or watchdog report,
// so hot paths avoid formatting a reason string per block.
func (c *Cond) WaitWith(p *Proc, r BlockReason) {
	c.Arm(p)
	p.Park(r)
}

// Park suspends the calling process until a Cond it armed is signaled (or
// anything else readies it). r supplies the block-reason diagnostic
// lazily, as for WaitWith.
func (p *Proc) Park(r BlockReason) {
	p.reason = blockInfo{kind: reasonLazy, prov: r}
	p.suspend()
}

// Signal wakes the waiter, if any. Must be called in kernel context or from
// the running process.
func (c *Cond) Signal(k *Kernel) {
	if c.waiter != 0 {
		id := c.waiter - 1
		c.waiter = 0
		k.Ready(k.procs[id])
	}
}

// HasWaiter reports whether a process is currently blocked on the Cond.
func (c *Cond) HasWaiter() bool { return c.waiter != 0 }

// Current returns the process currently executing (nil from kernel
// context). Blocking helpers use it so that any process — e.g. a progress
// actor driving a non-blocking collective — can wait on shared state.
func (k *Kernel) Current() *Proc { return k.cur }

// dispatch resumes process p until it blocks or finishes: one direct
// coroutine switch in, one out. The first dispatch binds a pooled
// coroutine to the process; when the body finishes normally the coroutine
// parks at its idle yield and goes back to the pool.
func (k *Kernel) dispatch(p *Proc) {
	p.state = stateRunning
	if !p.started {
		p.started = true
		c := getCoro()
		c.p, c.fn = p, p.fn
		p.fn = nil
		p.co = c
	}
	k.cur = p
	p.co.next()
	k.cur = nil
	if p.state == stateDone {
		putCoro(p.co)
		p.co = nil
	}
}

// Run executes the simulation until the event queue is empty and no process
// is runnable. It returns an error if processes remain blocked afterwards
// (deadlock) or if the simulation was aborted via Fail.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()

	if err := k.checkCancel(true); err != nil {
		return err
	}
	for {
		// Drain the ready list first: processes scheduled at the current
		// instant run before time advances.
		for k.ready.len() > 0 {
			p := k.ready.pop()
			if p.state != stateRunnable {
				continue
			}
			k.dispatch(p)
			if k.failure != nil {
				return k.abort(k.failure)
			}
		}
		if k.q.Len() == 0 {
			break
		}
		if err := k.checkCancel(false); err != nil {
			return err
		}
		it := k.q.Pop()
		k.events++
		if k.deadline > 0 && it.At > k.deadline {
			derr := &DeadlineError{
				DeadlineNs:  k.deadline,
				NextEventNs: it.At,
				Blocked:     k.blockedSummary(),
			}
			return k.abort(derr)
		}
		if it.At > k.now {
			k.now = it.At
		}
		switch e := it.V; e.kind {
		case evWake:
			k.Ready(k.procs[e.target])
		case evHandler:
			k.handlers[e.target].Handle(e.op, e.a, e.b, e.arg)
		default:
			fn := k.fns[e.target]
			k.fns[e.target] = nil
			k.fnFree = append(k.fnFree, e.target)
			fn()
		}
		if k.failure != nil {
			return k.abort(k.failure)
		}
	}

	if k.alive > 0 {
		err := k.deadlockError()
		return k.abort(err)
	}
	return nil
}

// abortSignal is the panic value suspend() uses to unwind a process
// coroutine when the kernel aborts a run early; coro.run recovers it so
// user deferred functions still execute.
type abortSignal struct{}

// coro is a reusable coroutine that executes process bodies. Between tasks
// it parks at an idle yield inside its task loop; binding a new (Proc, fn)
// pair and resuming it starts the next body. Reuse matters because
// iter.Pull coroutine construction — goroutine creation plus the first
// stack growth of the body — is a measurable share of per-simulation cost
// on the selection cold path, and every world spawns one coroutine per
// rank.
type coro struct {
	// next resumes the coroutine until its next suspension; stop unwinds
	// it (the suspended yield returns false).
	next func() (struct{}, bool)
	stop func()
	// yieldFn is the coroutine's suspension point, captured at start.
	yieldFn func(struct{}) bool
	// p and fn are the task bindings, set by dispatch before resuming an
	// idle coro and cleared by the task loop when the body finishes.
	p  *Proc
	fn func(*Proc)
}

// newCoro starts a coroutine parked before its first task; the first next()
// runs the task loop.
func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yieldFn = yield
		for {
			c.run()
			c.p, c.fn = nil, nil
			// Idle yield: park until the pool hands out this coro again
			// (yield returns true, bindings already set) or stops it
			// (yield returns false).
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// run executes one process body. Aborted runs unwind the body through the
// abortSignal panic, recovered here so user deferred functions still
// execute; after an abort the enclosing task loop's yield returns false and
// the coroutine exits instead of returning to the pool.
func (c *coro) run() {
	p := c.p
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				panic(r)
			}
		}
		p.state = stateDone
		p.k.alive--
	}()
	if p.k.aborted {
		return
	}
	c.fn(p)
}

// coroPool is the process-wide free list of idle coroutines. It is an
// explicit capped list rather than a sync.Pool: a pooled coro owns a parked
// goroutine, and a goroutine parked on a coroutine is a GC root, so entries
// evicted by a sync.Pool would leak their goroutine forever. The cap bounds
// idle goroutines; overflow coros are stopped on the spot.
var coroPool struct {
	mu   sync.Mutex
	free []*coro
}

// coroPoolCap bounds idle pooled coroutines process-wide: enough to recycle
// the ranks of several concurrently-finishing worlds, small enough that an
// idle server holds only a handful of parked goroutines.
const coroPoolCap = 64

func getCoro() *coro {
	coroPool.mu.Lock()
	if n := len(coroPool.free); n > 0 {
		c := coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
		coroPool.mu.Unlock()
		return c
	}
	coroPool.mu.Unlock()
	return newCoro()
}

func putCoro(c *coro) {
	coroPool.mu.Lock()
	if len(coroPool.free) < coroPoolCap {
		coroPool.free = append(coroPool.free, c)
		coroPool.mu.Unlock()
		return
	}
	coroPool.mu.Unlock()
	c.stop()
}

// DrainIdleCoros stops every idle pooled coroutine, releasing their parked
// goroutines. Tests that assert on goroutine counts and servers shutting
// down gracefully call it; simulations running concurrently are unaffected
// (their coroutines are bound, not pooled).
func DrainIdleCoros() {
	coroPool.mu.Lock()
	free := coroPool.free
	coroPool.free = nil
	coroPool.mu.Unlock()
	for _, c := range free {
		c.stop()
	}
}

// abort unwinds every live process coroutine and returns err. Without the
// unwind, an aborted run (failure, watchdog, cancellation, deadlock) would
// leave suspended coroutines — and their deferred cleanups — parked
// forever, a real leak for long-lived servers that cancel simulations.
func (k *Kernel) abort(err error) error {
	k.aborted = true
	// Index loop: a deferred function running during p.co.stop() may Spawn,
	// appending to k.procs; those late arrivals must be retired too.
	for i := 0; i < len(k.procs); i++ {
		p := k.procs[i]
		if p.state == stateDone {
			continue
		}
		if !p.started {
			// Never dispatched: no coroutine is bound yet, so there is
			// nothing to unwind — just retire the process.
			p.fn = nil
			p.state = stateDone
			k.alive--
			continue
		}
		k.cur = p
		p.co.stop()
		p.co = nil
		k.cur = nil
	}
	return err
}

// cancelCheckInterval bounds how many events may run between polls of the
// cancel channel: frequent enough that cancellation lands in microseconds
// of real time, rare enough that the select never shows up in profiles.
const cancelCheckInterval = 256

// ErrCanceled is returned by Run when the channel installed via WithCancel
// is closed. It wraps context.Canceled so callers can classify it with
// errors.Is.
var ErrCanceled = fmt.Errorf("sim: run canceled: %w", context.Canceled)

// checkCancel polls the cancel channel (every cancelCheckInterval events,
// or immediately when force is set) and aborts the run when it is closed.
func (k *Kernel) checkCancel(force bool) error {
	if k.cancel == nil {
		return nil
	}
	if !force && k.events%cancelCheckInterval != 0 {
		return nil
	}
	select {
	case <-k.cancel:
		return k.abort(ErrCanceled)
	default:
		return nil
	}
}

// Fail aborts the simulation with err at the next scheduling point.
func (k *Kernel) Fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}

// DeadlineError reports a watchdog abort: the next scheduled event lay
// beyond the deadline set via WithDeadline.
type DeadlineError struct {
	// DeadlineNs is the configured virtual-time deadline.
	DeadlineNs Time
	// NextEventNs is the timestamp of the event that would have crossed it.
	NextEventNs Time
	// Blocked lists every blocked process as "name[id]: reason".
	Blocked []string
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: watchdog: next event at t=%d ns exceeds deadline %d ns; %d process(es) blocked: %s",
		e.NextEventNs, e.DeadlineNs, len(e.Blocked), summarize(e.Blocked))
}

// blockedSummary lists every blocked process as "name[id]: reason", sorted
// for stable diagnostics.
func (k *Kernel) blockedSummary() []string {
	var stuck []string
	for _, p := range k.procs {
		if p.state == stateBlocked {
			stuck = append(stuck, fmt.Sprintf("%s[%d]: %s", p.name, p.id, p.reason.render()))
		}
	}
	sort.Strings(stuck)
	return stuck
}

// summaryLimit bounds how many blocked processes a diagnostic spells out;
// the rest are folded into a "(+N more)" suffix so errors from thousand-rank
// simulations stay readable.
const summaryLimit = 16

func summarize(stuck []string) string {
	shown := stuck
	suffix := ""
	if len(shown) > summaryLimit {
		shown = shown[:summaryLimit]
		suffix = fmt.Sprintf(" (+%d more)", len(stuck)-summaryLimit)
	}
	return "[" + strings.Join(shown, ", ") + "]" + suffix
}

func (k *Kernel) deadlockError() error {
	stuck := k.blockedSummary()
	return fmt.Errorf("sim: deadlock at t=%d ns, %d process(es) blocked: %s", k.now, len(stuck), summarize(stuck))
}

// procRing is a FIFO of runnable processes backed by a reusable circular
// buffer, so steady-state Ready/dispatch cycles never allocate.
type procRing struct {
	buf  []*Proc
	head int
	size int
}

func (r *procRing) len() int { return r.size }

func (r *procRing) push(p *Proc) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = p
	r.size++
}

func (r *procRing) pop() *Proc {
	i := r.head
	p := r.buf[i]
	r.buf[i] = nil // release the reference
	r.head = (i + 1) & (len(r.buf) - 1)
	r.size--
	return p
}

func (r *procRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*Proc, n) // power-of-two capacity for mask indexing
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
