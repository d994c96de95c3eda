package sim

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// countdownTimer re-arms itself left-1 times: a minimal self-sustaining
// event chain exercising the push → pop → dispatch cycle with a
// registered Handler, the same shape the mpi layer uses for message
// delivery.
type countdownTimer struct {
	k        *Kernel
	id       HandlerID
	left     int
	interval Time
}

// newCountdownTimer registers a countdown chain with k.
func newCountdownTimer(k *Kernel, interval Time) *countdownTimer {
	t := &countdownTimer{k: k, interval: interval}
	t.id = k.Register(t)
	return t
}

// arm schedules the chain's next event at absolute time at.
func (t *countdownTimer) arm(at Time) { t.k.AtOp(at, t.id, 0, 0, 0, 0) }

func (t *countdownTimer) Handle(uint16, int32, int32, int64) {
	t.left--
	if t.left > 0 {
		t.arm(t.k.Now() + t.interval)
	}
}

// TestTimerDispatchZeroAlloc pins the kernel's core contract: once the
// event-queue backing has grown, steady-state event dispatch allocates
// nothing. A reused kernel runs a 256-event handler chain per iteration;
// every push, pop, time advance and Handle call must come out of
// existing storage.
func TestTimerDispatchZeroAlloc(t *testing.T) {
	k := New()
	tm := newCountdownTimer(k, 5)
	run := func() {
		tm.left = 256
		tm.arm(k.Now() + 1)
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	run() // grow the queue backing before measuring
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("steady-state timer dispatch allocated %.1f allocs/run, want 0", n)
	}
}

// TestEventIsPointerFree pins what keeps the GC off the event queue: the
// queued event value must hold no pointer-bearing field, or the queue's
// slab is allocated as scannable memory again. It also pins the 24-byte
// size that keeps a pop to a fraction of a cache line.
func TestEventIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: the event must hold no pointers", path, typ.Kind())
		}
	}
	typ := reflect.TypeOf(event{})
	walk(typ.Name(), typ)
	if size := typ.Size(); size > 24 {
		t.Errorf("event is %d bytes, want at most 24", size)
	}
}

// TestClosureSlotsAreRecycled: a closure's slot is freed when its event
// fires, so a chain of At calls reuses one slot instead of growing the
// table per event.
func TestClosureSlotsAreRecycled(t *testing.T) {
	k := New()
	left := 100
	var step func()
	step = func() {
		if left--; left > 0 {
			k.After(1, step)
		}
	}
	k.After(1, step)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.fns) != 1 {
		t.Fatalf("closure table grew to %d slots for a chain of one in flight, want 1", len(k.fns))
	}
	if k.fns[0] != nil {
		t.Fatal("fired closure still referenced by its slot")
	}
}

// TestProcDispatchZeroAlloc proves that waking, resuming and re-blocking a
// process allocates nothing: a world whose process sleeps 2048 times costs
// exactly as many allocations as one sleeping 256 times, so the marginal
// cost of a dispatch is zero. The fixed per-world residue (Kernel, Proc,
// bookkeeping slices) is allowed; the coroutine itself comes from the
// process-wide pool. GC is disabled during the measurement so sync.Pool
// contents — queue backings, pooled coroutines — survive between runs.
func TestProcDispatchZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	world := func(sleeps int) func() {
		return func() {
			k := New()
			k.Spawn("sleeper", func(p *Proc) {
				for i := 0; i < sleeps; i++ {
					p.Sleep(3)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			k.Release()
		}
	}
	world(2048)() // warm the backing and coroutine pools at the larger size
	small := testing.AllocsPerRun(10, world(256))
	large := testing.AllocsPerRun(10, world(2048))
	if large > small {
		t.Fatalf("dispatch is not allocation-free: %.1f allocs at 256 sleeps vs %.1f at 2048", small, large)
	}
}

// TestDrainIdleCoros checks the pool contract: coroutines of normally
// finished processes are parked for reuse (their goroutines survive the
// run), and DrainIdleCoros releases every one of them.
func TestDrainIdleCoros(t *testing.T) {
	DrainIdleCoros()
	before := runtime.NumGoroutine()

	k := New()
	for i := 0; i < 8; i++ {
		k.Spawn("p", func(p *Proc) { p.Sleep(1) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	DrainIdleCoros()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("drained pool still holds goroutines: %d before, %d after", before, n)
	}
}
