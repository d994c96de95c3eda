package serve

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"collsel/internal/cluster"
	"collsel/internal/coll"
	"collsel/internal/store"
)

// BenchmarkHotTableLookup measures the in-process hot path: one atomic
// snapshot read plus the binary-search lookup — what /select does after
// routing. Compare against BenchmarkColdSelectCtx for the compile-once
// payoff (the acceptance bar is >= 100x; the observed gap is far larger).
func BenchmarkHotTableLookup(b *testing.B) {
	tb := compileTiny(b, 1)
	h := store.NewHandle(tb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := h.Table()
		if _, ok := t.Get(coll.Alltoall, 8, 512); !ok {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkServeHotLoopback measures the full loopback HTTP round trip for
// a table hit: routing, JSON, metrics and the lookup.
func BenchmarkServeHotLoopback(b *testing.B) {
	tb := compileTiny(b, 1)
	_, ts := newTestServer(b, Config{Handle: store.NewHandle(tb)})
	url := ts.URL + "/select?collective=alltoall&msg_bytes=512&procs=8"
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		drain(resp)
	}
}

// BenchmarkColdSelectCtx measures the selection a table hit replaces: the
// full pattern x algorithm simulation grid. Each iteration uses a distinct
// message size, as a stream of uncovered queries would.
func BenchmarkColdSelectCtx(b *testing.B) {
	tb := compileTiny(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fallback(context.Background(), tb, coll.Alltoall, 8, 3000+i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeHotDuringReload drives the hot path while a goroutine
// hot-swaps the table on every iteration; any non-200 or inconsistent
// response fails the benchmark. This is the /reload-under-load guarantee
// in benchmark form.
func BenchmarkServeHotDuringReload(b *testing.B) {
	tbA := compileTiny(b, 1)
	tbB := compileTiny(b, 99)
	h := store.NewHandle(tbA)
	_, ts := newTestServer(b, Config{Handle: h})
	url := ts.URL + "/select?collective=alltoall&msg_bytes=512&procs=8"
	client := ts.Client()

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				h.Swap(tbB)
			} else {
				h.Swap(tbA)
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d during hot swap", resp.StatusCode)
		}
		drain(resp)
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}

// BenchmarkModelSelect measures the model rung's miss answer: the full
// analytical selection (every candidate algorithm under the nine arrival
// patterns) for a cell the table does not cover. The acceptance bar is
// < 100µs per answer — the whole point of the rung is that a miss costs
// microseconds instead of waiting on a simulation (compare
// BenchmarkColdSelectCtx).
func BenchmarkModelSelect(b *testing.B) {
	tb := compileTiny(b, 1)
	s, err := New(Config{Handle: store.NewHandle(tb), ColdDisabled: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.modelAnswer(tb, coll.Alltoall, 8, 64); !ok {
			b.Fatal("model answer refused")
		}
	}
}

// BenchmarkPeerSelect compares the two ways a replica can answer a hot
// cell in a cluster: the owner-forwarded path (an extra HTTP hop through
// the peer ring to a replica whose table covers it) against the plain
// local table hit. The gap is the price of non-ownership before gossip
// promotes the cell locally — it bounds how much the /peer/cell sharing
// is worth.
func BenchmarkPeerSelect(b *testing.B) {
	reps := newServeCluster(b, 2, false, nil, nil)
	// A covered cell: both the forward target and the local path answer
	// from their tables, so the benchmark isolates routing cost.
	req := SelectRequest{Collective: "alltoall", MsgBytes: 512, Procs: 8}
	client := reps[0].ts.Client()

	b.Run("owner-forwarded", func(b *testing.B) {
		// Force the forward by asking replica 0 through the peer Select
		// transport of replica 1's cluster — a real cross-replica hop.
		for i := 0; i < b.N; i++ {
			status, _, err := cluster.NewHTTPTransport(0).Select(context.Background(), reps[1].ts.URL, req.Collective, req.Procs, req.MsgBytes)
			if err != nil || status != http.StatusOK {
				b.Fatalf("forwarded select: %d %v", status, err)
			}
		}
	})
	b.Run("local-hit", func(b *testing.B) {
		url := reps[0].ts.URL + "/select?collective=alltoall&msg_bytes=512&procs=8"
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("HTTP %d", resp.StatusCode)
			}
			drain(resp)
		}
	})
}

func drain(resp *http.Response) {
	buf := make([]byte, 512)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
}
