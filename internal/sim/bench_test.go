package sim

import "testing"

// BenchmarkKernelTimerChain measures raw event-loop throughput: one
// registered Handler re-arming itself b.N times, i.e. the push → pop →
// Handle cycle with no process involved. This is the floor every simulated
// message delivery pays.
func BenchmarkKernelTimerChain(b *testing.B) {
	k := New()
	tm := newCountdownTimer(k, 5)
	tm.left = 16
	tm.arm(1)
	if err := k.Run(); err != nil { // warm the queue backing
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tm.left = b.N
	tm.arm(k.Now() + 1)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelProcWake measures the coroutine dispatch path: a process
// suspending on Sleep and being resumed by its wake event, b.N times. The
// difference to BenchmarkKernelTimerChain is the cost of two coroutine
// switches per event.
func BenchmarkKernelProcWake(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(3)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelWorldChurn measures whole-kernel lifecycle cost at
// selection-grid shape: per iteration, build a kernel, spawn 8 processes
// that sleep 64 times each, run to completion and release — the pattern a
// decision-table compile repeats thousands of times. Pool effectiveness
// (event backings, coroutines) shows up here.
func BenchmarkKernelWorldChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := New()
		for r := 0; r < 8; r++ {
			k.Spawn("rank", func(p *Proc) {
				for s := 0; s < 64; s++ {
					p.Sleep(3)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		k.Release()
	}
}
