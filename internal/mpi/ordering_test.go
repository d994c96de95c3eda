package mpi

import (
	"testing"

	"collsel/internal/netmodel"
)

// TestNonOvertakingUnderJitter is a regression test for the MPI
// non-overtaking guarantee: two same-envelope messages must be received in
// send order even when link jitter makes the second physically arrive
// first. (This once produced catastrophic clock-sync fits: the slope and
// intercept of the HCA fan-out swapped.)
func TestNonOvertakingUnderJitter(t *testing.T) {
	p := netmodel.SimCluster()
	p.Noise = netmodel.NoiseProfile{Enabled: true, LinkJitterFrac: 0.8} // violent jitter
	for seed := int64(0); seed < 30; seed++ {
		w, err := NewWorld(Config{Platform: p, Size: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		err = w.Run(func(r *Rank) {
			const n = 20
			if r.ID() == 0 {
				for i := 0; i < n; i++ {
					r.Isend(1, 7, []float64{float64(i)}, 8)
				}
				r.Recv(1, 8) // completion ack
			} else {
				for i := 0; i < n; i++ {
					got = append(got, r.Recv(0, 7).Data[0])
				}
				r.Send(0, 8, nil, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != float64(i) {
				t.Fatalf("seed %d: message %d overtaken: got order %v", seed, i, got)
			}
		}
	}
}

// TestNonOvertakingMultiSourceUnderJitter checks the guarantee when early
// arrivals from several sources wait in one receiver's reorder list at
// once: four senders each send 20 same-tag messages to rank 0 under
// violent jitter, and rank 0, receiving from the sources in interleaved
// order, must see each source's messages in send order.
func TestNonOvertakingMultiSourceUnderJitter(t *testing.T) {
	const senders, n = 4, 20
	p := netmodel.SimCluster()
	p.Noise = netmodel.NoiseProfile{Enabled: true, LinkJitterFrac: 0.8}
	for seed := int64(0); seed < 30; seed++ {
		w, err := NewWorld(Config{Platform: p, Size: senders + 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var got [senders + 1][]float64
		err = w.Run(func(r *Rank) {
			if r.ID() != 0 {
				reqs := make([]*Request, n)
				for i := range reqs {
					reqs[i] = r.Isend(0, 7, []float64{float64(i)}, 8)
				}
				Waitall(reqs...)
				return
			}
			for i := 0; i < n; i++ {
				for src := 1; src <= senders; src++ {
					got[src] = append(got[src], r.Recv(src, 7).Data[0])
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for src := 1; src <= senders; src++ {
			for i, v := range got[src] {
				if v != float64(i) {
					t.Fatalf("seed %d: message %d from rank %d overtaken: got order %v", seed, i, src, got[src])
				}
			}
		}
	}
}

// TestNonOvertakingMixedProtocols checks ordering across the eager /
// rendezvous boundary: a large (rendezvous) message followed by a small
// (eager) one with the same envelope must still match in send order.
func TestNonOvertakingMixedProtocols(t *testing.T) {
	w, err := NewWorld(Config{Platform: netmodel.SimCluster(), Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	var first, second float64
	err = w.Run(func(r *Rank) {
		if r.ID() == 0 {
			big := make([]float64, 10_000) // 80 KB >> eager threshold
			big[0] = 111
			r.Isend(1, 5, big, 0)
			r.Isend(1, 5, []float64{222}, 8) // eager, physically first
			r.Recv(1, 6)
		} else {
			r.SleepNs(1_000_000) // let both arrive before posting receives
			first = r.Recv(0, 5).Data[0]
			second = r.Recv(0, 5).Data[0]
			r.Send(0, 6, nil, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 111 || second != 222 {
		t.Fatalf("order violated across protocols: got %g, %g", first, second)
	}
}
