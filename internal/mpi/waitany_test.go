package mpi

import (
	"testing"

	"collsel/internal/netmodel"
)

func TestWaitAnyReturnsFirstCompletion(t *testing.T) {
	w := newTestWorld(t, 4)
	var order []int
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			reqs := []*Request{
				r.Irecv(1, 1),
				r.Irecv(2, 1),
				r.Irecv(3, 1),
			}
			for remaining := 3; remaining > 0; remaining-- {
				i, m := WaitAny(reqs)
				reqs[i] = nil
				order = append(order, int(m.Data[0]))
			}
		default:
			// rank 3 sends first, then 2, then 1.
			r.SleepNs(int64(4-r.ID()) * 100_000)
			r.Send(0, 1, []float64{float64(r.ID())}, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

func TestWaitAnyWithAlreadyDone(t *testing.T) {
	w := newTestWorld(t, 2)
	var got float64
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			rq := r.Irecv(1, 1)
			r.SleepNs(1_000_000) // message arrives while sleeping
			i, m := WaitAny([]*Request{rq})
			if i != 0 {
				r.Abort("index %d", i)
			}
			got = m.Data[0]
		} else {
			r.Send(0, 1, []float64{7}, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %g", got)
	}
}

func TestWaitAnyAllNil(t *testing.T) {
	w := newTestWorld(t, 1)
	err := w.Run(func(r *Rank) {
		if i, _ := WaitAny([]*Request{nil, nil}); i != -1 {
			r.Abort("WaitAny on nils returned %d", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitAnyMixedSendRecv(t *testing.T) {
	// WaitAny over a send and a recv request: the send (rendezvous)
	// completes only when the peer posts its receive.
	p := netmodel.SimCluster()
	w, err := NewWorld(Config{Platform: p, Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			sq := r.Isend(1, 1, nil, 100_000) // rendezvous
			rq := r.Irecv(1, 2)
			first, _ := WaitAny([]*Request{sq, rq})
			// The peer sends tag 2 before posting its receive, so the recv
			// must complete first.
			if first != 1 {
				r.Abort("expected recv to finish first, got index %d", first)
			}
			sq.Wait()
		} else {
			r.Send(0, 2, nil, 8)
			r.SleepNs(500_000)
			r.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockedWaitDiagnostics pins the deadlock report's text for a rank
// blocked in Wait on a receive, in Wait on a rendezvous send that is never
// matched, and in WaitAny.
func TestBlockedWaitDiagnostics(t *testing.T) {
	w := newTestWorld(t, 3)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Recv(1, 16793607)
		case 1:
			WaitAny([]*Request{r.Irecv(0, 3), nil, r.Irecv(2, 4)})
		case 2:
			r.Send(0, 9, nil, 1_000_000) // rendezvous: rank 0 never posts tag 9
		}
	})
	want := "sim: deadlock at t=1250 ns, 3 process(es) blocked: [" +
		"rank0[0]: rank 0 wait recv(src=1,tag=16793607), " +
		"rank1[1]: rank 1 waitany(3 reqs), " +
		"rank2[2]: rank 2 wait send]"
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}
