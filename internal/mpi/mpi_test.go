package mpi

import (
	"math"
	"slices"
	"testing"

	"collsel/internal/netmodel"
)

func newTestWorld(t *testing.T, size int) *World {
	t.Helper()
	w, err := NewWorld(Config{Platform: netmodel.SimCluster(), Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := NewWorld(Config{Platform: netmodel.SimCluster(), Size: 0}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewWorld(Config{Platform: netmodel.SimCluster(), Size: 1025}); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestEagerPingTiming(t *testing.T) {
	// SimCluster intra-node: overhead 250, latency 1000, bw 1.25e9 B/s.
	// 1000 B: transfer 800 ns. Send done 1050; first byte 1250; recv
	// completes 1250+800+250 = 2300.
	w := newTestWorld(t, 2)
	var sendDone, recvDone int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, nil, 1000)
			sendDone = w.K.Now()
		case 1:
			r.Recv(0, 7)
			recvDone = w.K.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone != 1050 {
		t.Errorf("send completed at %d, want 1050", sendDone)
	}
	if recvDone != 2300 {
		t.Errorf("recv completed at %d, want 2300", recvDone)
	}
}

func TestInterNodeUsesInterLink(t *testing.T) {
	// rank 0 (node 0) -> rank 32 (node 1): latency 2000 instead of 1000.
	w := newTestWorld(t, 64)
	var recvDone int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(32, 1, nil, 1000)
		case 32:
			r.Recv(0, 1)
			recvDone = w.K.Now()
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvDone != 3300 { // 250+2000 + 800 + 250
		t.Errorf("recv completed at %d, want 3300", recvDone)
	}
}

func TestRendezvousTiming(t *testing.T) {
	// 8192 B > eager threshold 4096. rank0 -> rank32 inter-node.
	// RTS out 250, arrives 2250 (recv already posted), CTS out 2500,
	// at sender 4500; data: sendDone 4500+250+6554=11304, first byte
	// 4500+250+2000=6750, completion 6750+6554+250=13554.
	w := newTestWorld(t, 64)
	var sendDone, recvDone int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(32, 1, nil, 8192)
			sendDone = w.K.Now()
		case 32:
			r.Recv(0, 1)
			recvDone = w.K.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone != 11304 {
		t.Errorf("send done %d, want 11304", sendDone)
	}
	if recvDone != 13554 {
		t.Errorf("recv done %d, want 13554", recvDone)
	}
}

func TestRendezvousWaitsForLateReceiver(t *testing.T) {
	// The receiver posts its receive late; the sender's data cannot move
	// before that. This is the coupling mechanism for arrival patterns.
	w := newTestWorld(t, 2)
	const lateNs = 1_000_000
	var sendDone int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, nil, 100_000)
			sendDone = w.K.Now()
		case 1:
			r.SleepNs(lateNs)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone < lateNs {
		t.Errorf("rendezvous send finished at %d, before receiver arrived at %d", sendDone, lateNs)
	}
}

func TestEagerDoesNotWaitForReceiver(t *testing.T) {
	w := newTestWorld(t, 2)
	var sendDone int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, nil, 128)
			sendDone = w.K.Now()
		case 1:
			r.SleepNs(5_000_000)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendDone > 10_000 {
		t.Errorf("eager send blocked until %d", sendDone)
	}
}

func TestPayloadDelivered(t *testing.T) {
	w := newTestWorld(t, 2)
	var got []float64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 3, []float64{1, 2, 3}, 0)
		case 1:
			m := r.Recv(0, 3)
			got = m.Data
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload %v", got)
	}
}

func TestTagMatching(t *testing.T) {
	// Two messages with different tags received in reverse order.
	w := newTestWorld(t, 2)
	var first, second float64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 10, []float64{10}, 8)
			r.Send(1, 20, []float64{20}, 8)
		case 1:
			second = r.Recv(0, 20).Data[0]
			first = r.Recv(0, 10).Data[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 10 || second != 20 {
		t.Fatalf("tag matching broken: %g %g", first, second)
	}
}

func TestSelfSend(t *testing.T) {
	w := newTestWorld(t, 1)
	var got float64
	err := w.Run(func(r *Rank) {
		rq := r.Irecv(0, 5)
		r.Send(0, 5, []float64{42}, 8)
		got = rq.Wait().Data[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("self send got %g", got)
	}
}

func TestSendrecvSymmetricNoDeadlock(t *testing.T) {
	w := newTestWorld(t, 2)
	sum := make([]float64, 2)
	err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		// Large messages would deadlock with plain Send/Send (rendezvous).
		m := r.Sendrecv(peer, 1, []float64{float64(r.ID())}, 100_000, peer, 1)
		sum[r.ID()] = m.Data[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum[0] != 1 || sum[1] != 0 {
		t.Fatalf("sendrecv payloads: %v", sum)
	}
}

func TestBlockingSendSendDeadlockDetected(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) {
		peer := 1 - r.ID()
		r.Send(peer, 1, nil, 1_000_000) // rendezvous both ways: deadlock
		r.Recv(peer, 1)
	})
	if err == nil {
		t.Fatal("expected deadlock")
	}
}

func TestIncastSerializesAtReceiverPort(t *testing.T) {
	// n-1 senders to rank 0 simultaneously: completion must scale with n.
	run := func(n int) int64 {
		w := newTestWorld(t, n)
		var done int64
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				reqs := make([]*Request, 0, n-1)
				for s := 1; s < n; s++ {
					reqs = append(reqs, r.Irecv(s, 1))
				}
				Waitall(reqs...)
				done = w.K.Now()
			} else {
				r.Send(0, 1, nil, 4000)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	t4, t16 := run(4), run(16)
	if t16 < 3*t4 {
		t.Errorf("incast with 15 senders (%d ns) should be ~5x slower than 3 senders (%d ns)", t16, t4)
	}
}

func TestSenderPortSerializesFanout(t *testing.T) {
	// One sender to n-1 receivers: last completion scales with n.
	run := func(n int) int64 {
		w := newTestWorld(t, n)
		var last int64
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for d := 1; d < n; d++ {
					r.Isend(d, 1, nil, 4000)
				}
				// Wait for acks to learn completion time.
				for d := 1; d < n; d++ {
					r.Recv(d, 2)
				}
				last = w.K.Now()
			} else {
				r.Recv(0, 1)
				r.Send(0, 2, nil, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return last
	}
	t4, t16 := run(4), run(16)
	if t16 < 2*t4 {
		t.Errorf("fan-out to 15 (%d ns) should be well above fan-out to 3 (%d ns)", t16, t4)
	}
}

func TestWtimeDriftsWithClockProfile(t *testing.T) {
	p := netmodel.SimCluster()
	p.Clock = netmodel.ClockProfile{Enabled: true, MaxOffsetNs: 1e6, MaxDriftPPM: 50}
	w, err := NewWorld(Config{Platform: p, Size: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	diff := make([]float64, 4)
	err = w.Run(func(r *Rank) {
		r.SleepNs(1_000_000)
		diff[r.ID()] = r.Wtime() - 1e-3 // true elapsed is 1 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff[0] != 0 {
		t.Errorf("rank 0 must be reference clock, diff %g", diff[0])
	}
	anyOff := false
	for r := 1; r < 4; r++ {
		if math.Abs(diff[r]) > 1e-9 {
			anyOff = true
		}
	}
	if !anyOff {
		t.Error("no rank shows clock offset despite enabled profile")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		p := netmodel.Hydra() // noise + clocks enabled
		w, err := NewWorld(Config{Platform: p, Size: 32, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *Rank) {
			next := (r.ID() + 1) % 32
			prev := (r.ID() + 31) % 32
			for i := 0; i < 10; i++ {
				r.Sendrecv(next, 1, []float64{1}, 512, prev, 1)
				r.Compute(1000)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.K.Now(), w.ByteCount()
	}
	aT, aB := run()
	bT, bB := run()
	if aT != bT || aB != bB {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", aT, aB, bT, bB)
	}
}

func TestMessageAndByteCounts(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, nil, 100)
			r.Send(1, 1, nil, 200)
		} else {
			r.Recv(0, 1)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MessageCount() != 2 || w.ByteCount() != 300 {
		t.Fatalf("counts: %d msgs, %d bytes", w.MessageCount(), w.ByteCount())
	}
}

func TestComputeAppliesNoise(t *testing.T) {
	p := netmodel.Galileo100()
	w, err := NewWorld(Config{Platform: p, Size: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, 8)
	err = w.Run(func(r *Rank) {
		r.Compute(1_000_000)
		ends[r.ID()] = w.K.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	varies := false
	for i := 1; i < 8; i++ {
		if ends[i] < 1_000_000 {
			t.Fatalf("rank %d finished early: %d", i, ends[i])
		}
		if ends[i] != ends[0] {
			varies = true
		}
	}
	if !varies {
		t.Error("noise produced identical compute times on all ranks")
	}
}

func TestWaitUntilLocalNs(t *testing.T) {
	w := newTestWorld(t, 2)
	var at int64
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.WaitUntilLocalNs(123_456)
			at = w.K.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if at != 123_456 { // perfect clocks: local == global
		t.Errorf("woke at %d", at)
	}
}

// TestRunStagedStarts: a staged rank is first dispatched at its start
// time, ranks staged at one instant in staged order, unstaged ranks at 0;
// a rank staged twice or out of range is an error.
func TestRunStagedStarts(t *testing.T) {
	w := newTestWorld(t, 4)
	type start struct {
		rank int
		at   int64
	}
	var got []start
	err := w.Run(func(r *Rank) {
		got = append(got, start{r.ID(), w.K.Now()})
	}, Start{Rank: 3, AtNs: 500}, Start{Rank: 0, AtNs: 500}, Start{Rank: 1, AtNs: 200})
	if err != nil {
		t.Fatal(err)
	}
	want := []start{{2, 0}, {1, 200}, {3, 500}, {0, 500}}
	if !slices.Equal(got, want) {
		t.Errorf("starts %v, want %v", got, want)
	}
	for _, bad := range [][]Start{{{Rank: 1}, {Rank: 1}}, {{Rank: 4}}, {{Rank: -1}}} {
		if err := newTestWorld(t, 4).Run(func(*Rank) {}, bad...); err == nil {
			t.Errorf("staging %v accepted", bad)
		}
	}
}
