package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyKernelRuns(t *testing.T) {
	k := New()
	if err := k.Run(); err != nil {
		t.Fatalf("empty kernel: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced with no events: %d", k.Now())
	}
}

func TestSingleProcSleep(t *testing.T) {
	k := New()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(1500)
		at = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1500 {
		t.Fatalf("woke at %d, want 1500", at)
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	k := New()
	var at Time = -1
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		at = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("woke at %d, want 0", at)
	}
}

func TestWaitUntilPastReturnsImmediately(t *testing.T) {
	k := New()
	order := []string{}
	k.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		p.WaitUntil(50) // already past
		order = append(order, fmt.Sprintf("t=%d", k.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "t=100" {
		t.Fatalf("got %v", order)
	}
}

func TestEventOrderingStable(t *testing.T) {
	// Events at the same timestamp run in insertion order.
	k := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(42, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order: got %v", i, got[:i+1])
		}
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	times := []Time{500, 10, 300, 10, 999, 1}
	var got []Time
	for _, tm := range times {
		tm := tm
		k.At(tm, func() { got = append(got, tm) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1, 10, 10, 300, 500, 999}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	k := New()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			trace = append(trace, fmt.Sprintf("a@%d", k.Now()))
		}
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(5)
		trace = append(trace, fmt.Sprintf("b@%d", k.Now()))
		p.Sleep(10)
		trace = append(trace, fmt.Sprintf("b@%d", k.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@5", "a@10", "b@15", "a@20", "a@30"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondWaitSignal(t *testing.T) {
	k := New()
	var c Cond
	var woke Time
	k.Spawn("waiter", func(p *Proc) {
		c.Wait(p, "test-wait")
		woke = k.Now()
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(777)
		c.Signal(k)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 777 {
		t.Fatalf("waiter woke at %d, want 777", woke)
	}
}

func TestCondDoubleWaiterPanics(t *testing.T) {
	k := New()
	var c Cond
	c.Arm(&Proc{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second waiter")
		}
	}()
	p := &Proc{k: k}
	c.Wait(p, "x")
}

func TestDeadlockDetected(t *testing.T) {
	k := New()
	var c Cond
	k.Spawn("stuck", func(p *Proc) {
		c.Wait(p, "never-signaled")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if want := "never-signaled"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestFailAbortsRun(t *testing.T) {
	k := New()
	sentinel := errors.New("boom")
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		k.Fail(sentinel)
		p.Sleep(10) // never completes; Run returns first
	})
	err := k.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestReadyOnRunningProcIsNoop(t *testing.T) {
	k := New()
	done := false
	k.Spawn("p", func(p *Proc) {
		k.Ready(p) // runnable/running: must not corrupt state
		p.Sleep(1)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []int {
		k := New()
		var order []int
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 64; i++ {
			i := i
			d := Time(rng.Intn(100))
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				order = append(order, i)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := New()
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childAt = k.Now()
		})
		p.Sleep(1000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 150 {
		t.Fatalf("child finished at %d, want 150", childAt)
	}
}

func TestYieldDrainsSameInstant(t *testing.T) {
	k := New()
	var sawFlag bool
	flag := false
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(10)
		flag = true
	})
	k.Spawn("checker", func(p *Proc) {
		p.Sleep(10)
		p.Yield()
		sawFlag = flag
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawFlag {
		t.Fatal("yield did not let same-instant peer run")
	}
}

func TestRunTwiceSequentially(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.Sleep(5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Running again with nothing scheduled is a no-op success.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNowMonotonicProperty(t *testing.T) {
	// Property: regardless of event insertion pattern, observed times during
	// execution are non-decreasing.
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := New()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			d := Time(d)
			k.At(d, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSleepAccumulatesProperty(t *testing.T) {
	// Property: a proc doing k sleeps of d ends at k*d.
	f := func(n uint8, d uint16) bool {
		steps := int(n%20) + 1
		dur := Time(d)
		k := New()
		var end Time
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < steps; i++ {
				p.Sleep(dur)
			}
			end = k.Now()
		})
		if err := k.Run(); err != nil {
			return false
		}
		return end == Time(steps)*dur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyChurn(t *testing.T) {
	// Stress: many procs ping-ponging through conds.
	const n = 100
	k := New()
	conds := make([]Cond, n)
	var completed atomic.Int32
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			if i > 0 {
				conds[i].Wait(p, "chain")
			}
			p.Sleep(Time(i))
			if i+1 < n {
				conds[i+1].Signal(k)
			}
			completed.Add(1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if completed.Load() != n {
		t.Fatalf("completed %d of %d", completed.Load(), n)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestDeadlockDiagnosticNamesEveryBlockedProcess(t *testing.T) {
	k := New()
	var c1, c2 Cond
	k.Spawn("alpha", func(p *Proc) { c1.Wait(p, "waiting-on-alpha-cond") })
	k.Spawn("beta", func(p *Proc) { c2.Wait(p, "waiting-on-beta-cond") })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, want := range []string{"alpha[0]", "beta[1]", "waiting-on-alpha-cond", "waiting-on-beta-cond"} {
		if !containsStr(err.Error(), want) {
			t.Errorf("deadlock error %q does not mention %q", err, want)
		}
	}
}

func TestDeadlockDiagnosticFoldsLongLists(t *testing.T) {
	k := New()
	conds := make([]Cond, 20)
	for i := range conds {
		c := &conds[i]
		k.Spawn(fmt.Sprintf("proc%02d", i), func(p *Proc) { c.Wait(p, "stuck") })
	}
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !containsStr(err.Error(), "20 process(es) blocked") {
		t.Errorf("error %q does not report the blocked count", err)
	}
	if !containsStr(err.Error(), "(+4 more)") {
		t.Errorf("error %q does not fold the overflow", err)
	}
}

func TestSetDeadlineAbortsRunawaySimulation(t *testing.T) {
	k := New(WithDeadline(1_000))
	k.Spawn("runaway", func(p *Proc) {
		for {
			p.Sleep(600) // keeps scheduling events past the deadline
		}
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected watchdog error")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("got %T (%v), want *DeadlineError", err, err)
	}
	if de.DeadlineNs != 1_000 || de.NextEventNs <= 1_000 {
		t.Errorf("deadline %d next %d, want deadline 1000 and next > 1000", de.DeadlineNs, de.NextEventNs)
	}
	if !containsStr(err.Error(), "runaway[0]") || !containsStr(err.Error(), "sleep(600)") {
		t.Errorf("watchdog error %q does not name the blocked process and reason", err)
	}
}

func TestDeadlineNotHitWhenSimulationFinishesInTime(t *testing.T) {
	k := New(WithDeadline(10_000))
	done := false
	k.Spawn("quick", func(p *Proc) {
		p.Sleep(500)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !done {
		t.Fatal("process did not finish")
	}
}

func TestEventExactlyAtDeadlineStillRuns(t *testing.T) {
	k := New(WithDeadline(1_000))
	fired := false
	k.At(1_000, func() { fired = true })
	if err := k.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !fired {
		t.Fatal("event at the deadline must still run")
	}
}

// TestSetCancelAbortsRun: a closed cancel channel stops a self-perpetuating
// event chain that would otherwise run forever, and the error classifies as
// context.Canceled.
func TestSetCancelAbortsRun(t *testing.T) {
	cancel := make(chan struct{})
	k := New(WithCancel(cancel))
	events := 0
	var step func()
	step = func() {
		events++
		if events == 10*cancelCheckInterval {
			close(cancel) // picked up at the next poll point
		}
		k.After(1, step)
	}
	k.After(0, step)
	err := k.Run()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if events > 11*cancelCheckInterval {
		t.Fatalf("ran %d events after cancellation (poll interval %d)", events, cancelCheckInterval)
	}
}

// TestAbortUnwindsProcessGoroutines: every early-terminated run — canceled,
// failed, watchdogged or deadlocked — must resume its blocked processes so
// their goroutines exit instead of staying parked forever. A long-lived
// server canceling selections would otherwise leak goroutines per rank.
func TestAbortUnwindsProcessGoroutines(t *testing.T) {
	const procs = 16
	cancel := make(chan struct{})
	abortsOf := map[string]struct {
		opts []Option
		run  func(k *Kernel) error
	}{
		"cancel": {[]Option{WithCancel(cancel)}, func(k *Kernel) error {
			// Close the channel mid-run, once the processes are blocked,
			// and keep the event chain alive until a poll picks it up.
			n := 0
			var step func()
			step = func() {
				n++
				if n == 10 {
					close(cancel)
				}
				if n < 3*cancelCheckInterval {
					k.After(1, step)
				}
			}
			k.After(0, step)
			return k.Run()
		}},
		"fail": {nil, func(k *Kernel) error {
			k.After(5, func() { k.Fail(fmt.Errorf("boom")) })
			return k.Run()
		}},
		"watchdog": {[]Option{WithDeadline(10)}, func(k *Kernel) error {
			k.After(100, func() {}) // first event already past the deadline
			return k.Run()
		}},
		"deadlock": {nil, func(k *Kernel) error {
			return k.Run()
		}},
	}
	for name, abort := range abortsOf {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New(abort.opts...)
			exited := make(chan struct{}, procs)
			for i := 0; i < procs; i++ {
				k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					defer func() {
						exited <- struct{}{}
						// Re-panic so the Spawn wrapper still sees the
						// abort signal and completes the handshake.
						if r := recover(); r != nil {
							panic(r)
						}
					}()
					var c Cond
					c.Wait(p, "forever") // never signaled
				})
			}
			if err := abort.run(k); err == nil {
				t.Fatal("aborted run returned nil error")
			}
			// Every process goroutine must have unwound through its defers.
			for i := 0; i < procs; i++ {
				select {
				case <-exited:
				case <-time.After(2 * time.Second):
					t.Fatalf("only %d/%d processes unwound", i, procs)
				}
			}
			// And the goroutines themselves must be gone.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

// TestEventCounters: Events counts every event dispatched from the queue —
// closures, process wakes and handler events alike — and PeakQueueLen the
// most events queued at once.
func TestEventCounters(t *testing.T) {
	k := New()
	for i := 0; i < 3; i++ {
		k.At(Time(i), func() {})
	}
	tm := newCountdownTimer(k, 1)
	tm.left = 4
	tm.arm(100)
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(10)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 closures + 2 wakes + 4 handler events; the sleeper's first wake
	// joins the 4 events queued before Run.
	if got := k.Events(); got != 9 {
		t.Errorf("Events() = %d, want 9", got)
	}
	if got := k.PeakQueueLen(); got != 5 {
		t.Errorf("PeakQueueLen() = %d, want 5", got)
	}
}
