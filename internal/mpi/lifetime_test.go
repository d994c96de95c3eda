package mpi

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"collsel/internal/fault"
	"collsel/internal/netmodel"
)

// TestSecondWaitPanics: Wait and WaitAny release the request they
// complete (MPI_Wait sets the handle to MPI_REQUEST_NULL), so waiting on it
// again is a caller bug that must panic rather than read a recycled
// request.
func TestSecondWaitPanics(t *testing.T) {
	for _, kind := range []string{"send", "recv", "waitany"} {
		t.Run(kind, func(t *testing.T) {
			w := newTestWorld(t, 2)
			var got any
			err := w.Run(func(r *Rank) {
				var q *Request
				switch {
				case r.ID() == 0 && kind == "send", r.ID() == 1 && kind != "send":
					if r.ID() == 0 {
						q = r.Isend(1, 1, nil, 8)
					} else {
						q = r.Irecv(0, 1)
					}
					if kind == "waitany" {
						reqs := []*Request{nil, q}
						WaitAny(reqs) // the caller should now set reqs[1] = nil
						func() {
							defer func() { got = recover() }()
							WaitAny(reqs)
						}()
						return
					}
					q.Wait()
					func() {
						defer func() { got = recover() }()
						q.Wait()
					}()
				case r.ID() == 0:
					r.Send(1, 1, nil, 8)
				default:
					r.Recv(0, 1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if msg := fmt.Sprint(got); !strings.Contains(msg, "released request") {
				t.Fatalf("second Wait: recovered %v, want a released-request panic", got)
			}
		})
	}
}

// rendezvousExchange has rank 0 send four rendezvous messages (alternating
// Isend and Issend, distinct tags and payloads) to rank 1 and returns what
// rank 1 received. Each message is waited before the next is posted, so
// later messages reuse the recycled state of earlier ones.
func rendezvousExchange(t *testing.T, prof fault.Profile, seed int64) ([]Message, *World) {
	t.Helper()
	w, err := NewWorld(Config{Platform: netmodel.SimCluster(), Size: 2, Seed: seed, Fault: prof})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	bytes := 4 * w.Platform().EagerThresholdBytes
	var got []Message
	err = w.Run(func(r *Rank) {
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				payload := []float64{float64(i), float64(10 * i)}
				if i%2 == 0 {
					r.Isend(1, 100+i, payload, bytes).Wait()
				} else {
					r.Issend(1, 100+i, payload, bytes).Wait()
				}
			} else {
				got = append(got, r.Recv(0, 100+i))
			}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got, w
}

// TestRendezvousDeliversSameMessageUnderRetransmit: a rendezvous message
// travels as one inMsg through RTS, CTS and data transfer; dropping its RTS
// or its data and retransmitting must not change the delivered Message.
func TestRendezvousDeliversSameMessageUnderRetransmit(t *testing.T) {
	want, _ := rendezvousExchange(t, fault.Profile{}, 1)
	if len(want) != 4 {
		t.Fatalf("fault-free run delivered %d messages, want 4", len(want))
	}
	for i, m := range want {
		exp := Message{Source: 0, Tag: 100 + i, Data: []float64{float64(i), float64(10 * i)}, Bytes: m.Bytes}
		if m.Bytes <= 0 || !reflect.DeepEqual(m, exp) {
			t.Fatalf("fault-free message %d = %+v", i, m)
		}
	}
	lossy := fault.Profile{Enabled: true, DropProb: 0.5, MaxRetries: 40}
	for _, ch := range []fault.Channel{fault.ChannelRTS, fault.ChannelData} {
		t.Run(fmt.Sprintf("channel=%d", ch), func(t *testing.T) {
			// Find a seed whose plan drops the first attempt of the first
			// message on this channel.
			for seed := int64(1); seed < 200; seed++ {
				got, w := rendezvousExchange(t, lossy, seed)
				if !w.FaultPlan().Drop(0, 1, 0, ch, 0) {
					continue
				}
				if w.RetransmitCount() == 0 {
					t.Fatalf("seed %d: planned drop but no retransmission", seed)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: delivered %+v, want %+v", seed, got, want)
				}
				return
			}
			t.Fatal("no seed drops the first message on this channel")
		})
	}
}

// TestPairwiseAlltoallAllocationIsInFlightBounded: completed requests and
// delivered messages are recycled within a world, so a warm 256-rank
// pairwise alltoall (p-1 Sendrecv steps per rank, p² messages) makes O(p)
// allocations, not one Request and one inMsg per message. GC is off so the
// first run's pooled storage survives into the measured one, and one P
// runs both: a sync.Pool keeps an entry private to the P that put it. The
// bound is on the allocation count, not bytes: the world's p²-entry
// reorder and sequence slabs are one allocation each when sync.Pool drops
// them, as it does at random under the race detector.
func TestPairwiseAlltoallAllocationIsInFlightBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p = 256
	plat := netmodel.SimCluster()
	for _, bytes := range []int{64, 4 * plat.EagerThresholdBytes} { // eager and rendezvous
		run := func() {
			w, err := NewWorld(Config{Platform: plat, Size: p, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(r *Rank) {
				me := r.ID()
				for step := 1; step < p; step++ {
					r.Sendrecv((me+step)%p, step, nil, bytes, (me-step+p)%p, step)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.MessageCount() != p*(p-1) {
				t.Fatalf("delivered %d messages, want %d", w.MessageCount(), p*(p-1))
			}
			w.Release()
		}
		run() // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		// Per rank: its Rank, Proc and clock and noise state, plus the
		// Requests and inMsgs of its few messages in flight — about 15
		// allocations. Keeping one Request per message would add 2p² =
		// 131072.
		mallocs := after.Mallocs - before.Mallocs
		if limit := uint64(32 * p); mallocs > limit {
			t.Errorf("bytes=%d: warm run made %d allocations, want <= %d (O(p))", bytes, mallocs, limit)
		}
		t.Logf("bytes=%d: warm run made %d allocations (%d B)", bytes, mallocs, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestSlabHandlesStableAndReusedLIFO: algorithms hold *Request across
// later operations, so an entry must keep its address and contents while
// the slab grows by several chunks; freed handles are reused last-freed
// first, and reset zeroes every issued entry and starts over at handle 0.
func TestSlabHandlesStableAndReusedLIFO(t *testing.T) {
	var s slab[Request]
	h0, q0 := s.get()
	q0.src, q0.tag = 7, 9
	handles := []int32{h0}
	for i := 0; i < 5*chunkLen; i++ {
		h, _ := s.get()
		handles = append(handles, h)
	}
	if len(s.chunks) < 5 {
		t.Fatalf("slab has %d chunks after %d gets, want >= 5", len(s.chunks), len(handles))
	}
	if s.at(h0) != q0 || q0.src != 7 || q0.tag != 9 {
		t.Fatalf("entry of handle %d moved or changed after growth: %p vs %p, %+v", h0, s.at(h0), q0, *q0)
	}
	a, b := handles[3], handles[chunkLen+1]
	s.at(a).tag = 1
	s.put(a)
	s.put(b)
	if s.at(a).tag != 0 {
		t.Fatal("put did not zero the entry")
	}
	if h, _ := s.get(); h != b {
		t.Fatalf("first get after put(%d), put(%d) returned %d, want %d", a, b, h, b)
	}
	if h, _ := s.get(); h != a {
		t.Fatalf("second get returned %d, want %d", h, a)
	}
	if h, q := s.get(); h != int32(len(handles)) || q.src != 0 {
		t.Fatalf("get with an empty free list returned handle %d, want fresh handle %d", h, len(handles))
	}
	s.reset()
	if h, q := s.get(); h != 0 || q != q0 || q.src != 0 || q.tag != 0 {
		t.Fatalf("get after reset returned handle %d (%+v), want zeroed handle 0", h, *q)
	}
}

// TestInMsgIsPointerFree pins what keeps the GC off the message slab: an
// inMsg must hold no pointer-bearing field, or the slab's chunks are
// allocated as scannable memory again. It also pins the 40-byte size that
// keeps a delivery to one cache line of the slab.
func TestInMsgIsPointerFree(t *testing.T) {
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
			t.Errorf("%s is a %s: inMsg must hold no pointers", path, typ.Kind())
		}
	}
	typ := reflect.TypeOf(inMsg{})
	walk(typ.Name(), typ)
	if size := typ.Size(); size > 40 {
		t.Errorf("inMsg is %d bytes, want at most 40", size)
	}
}

// TestRequestIsCompact pins the in-flight request state: basic_linear
// holds 2·p·(p-1) requests at once, so a Request must stay within 32
// bytes, and the owning rank, which the public *Request methods need, must
// be its only pointer — the message and the waiting process are named by
// handle and by id.
func TestRequestIsCompact(t *testing.T) {
	var pointers []string
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
			pointers = append(pointers, path+" "+typ.String())
		}
	}
	typ := reflect.TypeOf(Request{})
	walk(typ.Name(), typ)
	if want := []string{"Request.r *mpi.Rank"}; !reflect.DeepEqual(pointers, want) {
		t.Errorf("pointer fields %q, want only %q", pointers, want)
	}
	if size := typ.Size(); size > 32 {
		t.Errorf("Request is %d bytes, want at most 32", size)
	}
}

// TestRecycledHandleDropsPayload: a data-mode payload is kept beside its
// message, under the message's handle, so freeing the handle must clear
// it. Rank 1's payload-less reply reuses the handle of rank 0's message,
// which both sides have released by then, and must arrive without Data.
func TestRecycledHandleDropsPayload(t *testing.T) {
	w := newTestWorld(t, 2)
	var first, reply Message
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{42}, 0)
			reply = r.Recv(1, 2)
		} else {
			first = r.Recv(0, 1)
			r.Send(0, 2, nil, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.st.msgs.n != 1 {
		t.Fatalf("%d message handles issued, want 1: the reply must recycle the first message's handle", w.st.msgs.n)
	}
	if len(first.Data) != 1 || first.Data[0] != 42 {
		t.Fatalf("first message Data = %v, want [42]", first.Data)
	}
	if reply.Data != nil {
		t.Fatalf("reply on a recycled handle yields stale Data %v", reply.Data)
	}
}
