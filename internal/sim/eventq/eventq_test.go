package eventq

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestOrderingAndStability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	type key struct {
		at  int64
		seq uint64
	}
	var want []key
	for seq := 0; seq < 5000; seq++ {
		at := int64(rng.Intn(50)) // heavy At collisions to stress the tie-break
		q.Push(at, uint64(seq), seq)
		want = append(want, key{at, uint64(seq)})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		if at, ok := q.MinAt(); !ok || at != w.at {
			t.Fatalf("MinAt %d = (%d,%v), want (%d,true)", i, at, ok, w.at)
		}
		it := q.Pop()
		if it.At != w.at || it.Seq != w.seq {
			t.Fatalf("pop %d = (at=%d,seq=%d), want (at=%d,seq=%d)", i, it.At, it.Seq, w.at, w.seq)
		}
		if it.V != int(it.Seq) {
			t.Fatalf("pop %d payload %d, want %d", i, it.V, it.Seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	if _, ok := q.MinAt(); ok {
		t.Fatal("MinAt on empty queue reported ok")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	// Hold-and-advance like the kernel: pop the minimum, push a few events
	// in its future, repeat. The popped sequence must never go backwards.
	rng := rand.New(rand.NewSource(7))
	var q Queue[struct{}]
	var seq uint64
	push := func(at int64) {
		seq++
		q.Push(at, seq, struct{}{})
	}
	for i := 0; i < 64; i++ {
		push(int64(rng.Intn(100)))
	}
	lastAt, lastSeq := int64(-1), uint64(0)
	for q.Len() > 0 {
		it := q.Pop()
		if it.At < lastAt || (it.At == lastAt && it.Seq <= lastSeq) {
			t.Fatalf("order went backwards: (%d,%d) after (%d,%d)", it.At, it.Seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = it.At, it.Seq
		if seq < 20000 {
			for j := 0; j < rng.Intn(3); j++ {
				push(it.At + int64(rng.Intn(50)))
			}
		}
	}
}

func TestPushPopDoesNotAllocateSteadyState(t *testing.T) {
	var q Queue[[3]uintptr] // kernel event payload is three words
	for i := 0; i < 1024; i++ {
		q.Push(int64(i), uint64(i), [3]uintptr{})
	}
	for q.Len() > 512 {
		q.Pop()
	}
	var seq uint64 = 1 << 20
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			seq++
			q.Push(int64(seq), seq, [3]uintptr{})
		}
		for i := 0; i < 64; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %v times per run, want 0", allocs)
	}
}

// refHeap is the differential reference: container/heap ordered by
// (at, seq), the textbook priority queue.
type refHeap []Item[int]

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].Seq < h[j].Seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(Item[int])) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestHoldWorkloadMatchesReference drives the queue and the reference
// through the kernel's access pattern — pop the minimum, push zero to two
// events at or after it, a third of them at exactly the popped time — and
// requires identical pops. Timestamps come from a small range, so At ties
// are heavy and the seq tie-break decides most pops.
func TestHoldWorkloadMatchesReference(t *testing.T) {
	for _, standing := range []int{64, 4096, 131072} {
		t.Run(fmt.Sprintf("standing=%d", standing), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(standing)))
			var q Queue[int]
			var ref refHeap
			var seq uint64
			push := func(at int64) {
				seq++
				q.Push(at, seq, int(seq))
				heap.Push(&ref, Item[int]{At: at, Seq: seq, V: int(seq)})
			}
			for i := 0; i < standing; i++ {
				push(int64(rng.Intn(50)))
			}
			ops := 4 * standing
			if ops > 300000 {
				ops = 300000
			}
			for i := 0; q.Len() > 0; i++ {
				got, want := q.Pop(), heap.Pop(&ref).(Item[int])
				if got != want {
					t.Fatalf("pop %d = %+v, want %+v", i, got, want)
				}
				if q.Len() != ref.Len() {
					t.Fatalf("pop %d: Len %d, want %d", i, q.Len(), ref.Len())
				}
				if i >= ops {
					continue // drain
				}
				// Hold the size around standing: push one on average.
				for n := rng.Intn(3); n > 0; n-- {
					switch rng.Intn(3) {
					case 0:
						push(got.At) // at now, after every queued tie
					default:
						push(got.At + int64(rng.Intn(20)))
					}
				}
			}
		})
	}
}

// TestWideStepWorkloadMatchesReference is the hold workload with
// timestamps that reach every bucket: steps drawn log-uniformly up to 2^40
// ns, starting below zero so keys cross the sign bit, pairs of pushes at
// exactly the same future time, and pushes at the popped time. It pits the
// queue against the reference heap at a standing size that keeps the
// current-time FIFO busy (64) and at one that forces multi-level
// redistributions of large buckets (131072).
func TestWideStepWorkloadMatchesReference(t *testing.T) {
	for _, standing := range []int{64, 131072} {
		t.Run(fmt.Sprintf("standing=%d", standing), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(standing) + 1))
			var q Queue[int]
			var ref refHeap
			var seq uint64
			push := func(at int64) {
				seq++
				q.Push(at, seq, int(seq))
				heap.Push(&ref, Item[int]{At: at, Seq: seq, V: int(seq)})
			}
			step := func() int64 { return rng.Int63n(1 << rng.Intn(41)) }
			for i := 0; i < standing; i++ {
				push(-1<<39 + step())
			}
			ops := min(4*standing, 300000)
			for i := 0; q.Len() > 0; i++ {
				got, want := q.Pop(), heap.Pop(&ref).(Item[int])
				if got != want {
					t.Fatalf("pop %d = %+v, want %+v", i, got, want)
				}
				if i >= ops {
					continue // drain
				}
				for n := rng.Intn(3); n > 0; n-- {
					switch rng.Intn(4) {
					case 0:
						push(got.At) // at the popped time
					case 1:
						at := got.At + step()
						push(at)
						push(at) // an exact tie in a higher bucket
					default:
						push(got.At + step())
					}
				}
			}
			if ref.Len() != 0 {
				t.Fatalf("reference holds %d items after the queue drained", ref.Len())
			}
		})
	}
}

// keyChunks counts the key chunks q owns: those in its buckets and those
// on its free list.
func keyChunks[T any](q *Queue[T]) int {
	n := 0
	for b := range q.buckets {
		for c := q.buckets[b].head; c != nil; c = c.next {
			n++
		}
	}
	for c := q.spare; c != nil; c = c.next {
		n++
	}
	return n
}

// TestHoldStorageBounded runs the hold workload at a standing size of
// 131072 — a 256-rank cell with every message in flight — and then drains
// it. Key storage must stay within the most items ever queued plus
// nBuckets chunks, and the slab within that peak plus one chunk, however
// the keys spread over the buckets: a bucket keeps no storage it no longer
// needs.
func TestHoldStorageBounded(t *testing.T) {
	const standing = 131072
	rng := rand.New(rand.NewSource(3))
	var q Queue[[3]uintptr]
	var seq uint64
	push := func(at int64) {
		seq++
		q.Push(at, seq, [3]uintptr{})
	}
	peak := 0
	check := func(when string) {
		t.Helper()
		peak = max(peak, q.Len())
		if keys, limit := keyChunks(&q)*chunkKeys, peak+nBuckets*chunkKeys; keys > limit {
			t.Fatalf("%s: %d key slots for a peak of %d items, want <= %d", when, keys, peak, limit)
		}
		if slots, limit := len(q.slab)*slabChunk, peak+slabChunk; slots > limit {
			t.Fatalf("%s: %d slab slots for a peak of %d items, want <= %d", when, slots, peak, limit)
		}
	}
	for i := 0; i < standing; i++ {
		push(int64(rng.Intn(1 << 20)))
	}
	check("filled")
	for i := 0; q.Len() > 0; i++ {
		it := q.Pop()
		if i < 4*standing {
			for n := rng.Intn(3); n > 0; n-- {
				push(it.At + int64(rng.Intn(1<<rng.Intn(21))))
			}
		}
		if i%1024 == 0 {
			check(fmt.Sprintf("pop %d", i))
		}
	}
	check("drained")
	if len(q.free) != q.slots {
		t.Fatalf("drained queue has %d free slots of %d issued", len(q.free), q.slots)
	}
	t.Logf("peak %d items: %d key chunks, %d slab chunks", peak, keyChunks(&q), len(q.slab))
}

// mustPanic runs f and fails unless it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

func TestNonMonotonePushPanics(t *testing.T) {
	var q Queue[int]
	q.Push(10, 5, 0)
	q.Push(20, 6, 0)
	q.Pop() // last popped key is now (10, 5)
	mustPanic(t, "non-monotone push", func() { q.Push(9, 7, 0) })
	mustPanic(t, "non-monotone push", func() { q.Push(10, 4, 0) })
	mustPanic(t, "non-monotone push", func() { q.Push(10, 5, 0) })
	// At the popped time with a later seq is the kernel's Yield: accepted.
	q.Push(10, 7, 1)
	if it := q.Pop(); it.At != 10 || it.Seq != 7 || it.V != 1 {
		t.Fatalf("pop = %+v, want (10, 7, 1)", it)
	}
	// Reset forgets the last popped key.
	q.Reset()
	q.Push(0, 1, 2)
	if it := q.Pop(); it.At != 0 || it.Seq != 1 || it.V != 2 || q.Len() != 0 {
		t.Fatalf("after Reset: pop = %+v, Len %d", it, q.Len())
	}
}

func TestSeqOverflowPanics(t *testing.T) {
	var q Queue[int]
	q.Push(0, maxSeq, 0)
	if it := q.Pop(); it.Seq != maxSeq {
		t.Fatalf("pop seq = %d, want maxSeq", it.Seq)
	}
	mustPanic(t, "overflows the key's", func() { q.Push(1, maxSeq+1, 0) })
}

func TestSlotOverflowPanics(t *testing.T) {
	// Mark every slot issued; the next push has no slot left.
	var q Queue[struct{}]
	q.slots = slotMask + 1
	mustPanic(t, "items queued", func() { q.Push(0, 1, struct{}{}) })
}

// BenchmarkHoldModel mimics the kernel's access pattern: pop one, push one
// slightly in the future, on a queue of the given standing size (64: ~2
// in-flight events per rank at 32 ranks; 131072: a 256-rank cell with all
// p² messages in flight).
func BenchmarkHoldModel(b *testing.B) {
	for _, standing := range []int{64, 4096, 131072} {
		b.Run(fmt.Sprintf("standing=%d", standing), func(b *testing.B) {
			var q Queue[[3]uintptr]
			var seq uint64
			for i := 0; i < standing; i++ {
				seq++
				q.Push(int64(i), seq, [3]uintptr{})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := q.Pop()
				seq++
				q.Push(it.At+10, seq, [3]uintptr{})
			}
		})
	}
}
