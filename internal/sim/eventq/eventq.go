// Package eventq provides the simulation kernel's event queue: a monotone
// radix heap keyed by (at, seq), with payloads stored by value in a slab.
//
// Monotone precondition. Every pushed key must lie strictly above the key
// of the last popped item (before the first pop, above (math.MinInt64, 0)).
// The kernel satisfies this by construction: it clamps pushes into the
// past to the current time, and its sequence numbers strictly increase. A
// push that violates it panics; the queue never misorders.
//
// Radix buckets. The 128-bit key (at, seq) is compared with the last
// popped key; an item lives in the bucket numbered by the highest bit in
// which the two differ. Pop takes the lowest non-empty bucket, makes its
// minimum the new last key and redistributes the rest, each into a
// strictly lower bucket, so every item moves at most 128 times and, in
// practice, a handful. Ties at one timestamp differ only in seq and land
// in low buckets that are popped next. Buckets hold 16-byte keys — the
// timestamp in one word, the sequence number and the payload's slot packed
// into the other — so a redistribution pass streams through contiguous
// memory. The packing bounds a queue to 2^27 queued items and 2^37 - 1 as
// the largest seq; Push panics beyond either.
//
// Slab. Payloads sit in one slice indexed by slot and recycled through a
// LIFO free list: they are written once on push and read once on pop,
// never moved. Pop clears the vacated slot so the GC sees no stale payload
// pointers. The kernel's payload is a 24-byte value without pointers, so
// its slab is allocated noscan and the GC never walks it. Buckets, slab
// and free list keep their capacity across pops and, through Reset, across
// kernels, so steady-state pushes and pops do not allocate.
//
// Ordering is total and deterministic: items pop in ascending (at, seq)
// order, so ties at the same timestamp resolve by insertion sequence —
// exactly the tie-break the kernel relies on for bit-identical runs.
package eventq

import (
	"fmt"
	"math/bits"
)

// Item is one popped entry: the ordering key (At, Seq) plus the payload.
type Item[T any] struct {
	// At is the primary key, ascending (virtual time in the kernel).
	At int64
	// Seq breaks At ties, ascending (insertion order in the kernel).
	Seq uint64
	// V is the payload.
	V T
}

const (
	// slotBits is the width of the slot field in a packed key: at most
	// 1<<slotBits items may be queued at once (134M — a 4096-rank cell
	// with every one of its p² messages in flight needs 16.8M).
	slotBits = 27
	// maxSeq is the largest sequence number a key can carry (1.4e11 — a
	// 4096-rank p²-message cell dispatches ~5e8 events).
	maxSeq   = 1<<(64-slotBits) - 1
	slotMask = 1<<slotBits - 1
	signBit  = 1 << 63
	nBuckets = 129 // bucket b holds keys whose highest differing bit is b-1
	// firstCap is the capacity of each bucket, the slab and the free
	// list in a fresh queue.
	firstCap = 4
)

// key is a packed 128-bit ordering key. hi is At with its sign bit
// flipped, so unsigned order matches signed order; lo is Seq<<slotBits |
// slot.
type key struct{ hi, lo uint64 }

func (a key) less(b key) bool { return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo }

// Queue is a min-queue of items ordered by (At, Seq). The zero value is an
// empty queue ready for use; a Queue must not be copied after first use.
type Queue[T any] struct {
	last     key
	n        int
	occupied [(nBuckets + 63) / 64]uint64 // bit b set iff buckets[b] is non-empty
	buckets  [nBuckets][]key
	slab     []T
	free     []uint32

	firstKeys [nBuckets * firstCap]key
	firstSlab [firstCap]T
	firstFree [firstCap]uint32
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// bucketOf returns the bucket of k relative to the last popped key.
func (q *Queue[T]) bucketOf(k key) int {
	if d := k.hi ^ q.last.hi; d != 0 {
		return 64 + bits.Len64(d)
	}
	return bits.Len64(k.lo ^ q.last.lo)
}

func (q *Queue[T]) add(k key) {
	b := q.bucketOf(k)
	q.buckets[b] = append(q.buckets[b], k)
	q.occupied[b>>6] |= 1 << (b & 63)
}

// init points the buckets, slab and free list at the queue's inline first
// storage. A fresh queue is then one allocation however many buckets its
// keys touch, until one of them outgrows its first capacity.
func (q *Queue[T]) init() {
	for b := range q.buckets {
		i := b * firstCap
		q.buckets[b] = q.firstKeys[i : i : i+firstCap]
	}
	q.slab = q.firstSlab[:0]
	q.free = q.firstFree[:0]
}

// lowest returns the lowest non-empty bucket; the queue must not be empty.
func (q *Queue[T]) lowest() int {
	for w, m := range q.occupied {
		if m != 0 {
			return w<<6 | bits.TrailingZeros64(m)
		}
	}
	panic("eventq: empty queue")
}

// minOf returns the index of the smallest key in bk.
func minOf(bk []key) int {
	mi := 0
	for j := 1; j < len(bk); j++ {
		if bk[j].less(bk[mi]) {
			mi = j
		}
	}
	return mi
}

// MinAt returns the At key of the minimum item without removing it; ok is
// false when the queue is empty.
func (q *Queue[T]) MinAt() (at int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	bk := q.buckets[q.lowest()]
	return int64(bk[minOf(bk)].hi ^ signBit), true
}

// Push inserts v with key (at, seq). It panics if (at, seq) is not above
// the last popped key, if seq exceeds maxSeq, or if 1<<slotBits items are
// already queued. Amortized O(1) allocations: buckets and slab grow
// geometrically and are reused after pops.
func (q *Queue[T]) Push(at int64, seq uint64, v T) {
	if seq > maxSeq {
		panic(fmt.Sprintf("eventq: seq %d overflows the key's %d-bit seq field", seq, 64-slotBits))
	}
	k := key{hi: uint64(at) ^ signBit, lo: seq << slotBits}
	if k.hi < q.last.hi || k.hi == q.last.hi && k.lo <= q.last.lo&^slotMask {
		panic(fmt.Sprintf("eventq: non-monotone push (at=%d, seq=%d) not above last popped (at=%d, seq=%d)",
			at, seq, int64(q.last.hi^signBit), q.last.lo>>slotBits))
	}
	if q.slab == nil {
		q.init()
	}
	var slot int
	if n := len(q.free); n > 0 {
		slot = int(q.free[n-1])
		q.free = q.free[:n-1]
		q.slab[slot] = v
	} else {
		slot = len(q.slab)
		if slot > slotMask {
			panic(fmt.Sprintf("eventq: more than %d items queued", slotMask+1))
		}
		q.slab = append(q.slab, v)
	}
	k.lo |= uint64(slot)
	q.add(k)
	q.n++
}

// Pop removes and returns the minimum item. It panics on an empty queue —
// callers gate on Len, exactly as the kernel's run loop does.
func (q *Queue[T]) Pop() Item[T] {
	b := q.lowest()
	bk := q.buckets[b]
	mi := minOf(bk)
	min := bk[mi]
	q.last = min
	// Every other key of bucket b shares min's bits above b-1, so relative
	// to the new last key it falls into a strictly lower bucket.
	for j, k := range bk {
		if j != mi {
			q.add(k)
		}
	}
	q.buckets[b] = bk[:0]
	q.occupied[b>>6] &^= 1 << (b & 63)
	q.n--

	slot := uint32(min.lo & slotMask)
	it := Item[T]{At: int64(min.hi ^ signBit), Seq: min.lo >> slotBits, V: q.slab[slot]}
	var zero T
	q.slab[slot] = zero // release payload references held in the vacated slot
	q.free = append(q.free, slot)
	return it
}

// Reset empties the queue, keeping its storage for reuse, and forgets the
// last popped key, so the queue accepts any key again. Payload references
// still queued are cleared. The kernel calls it before pooling a queue for
// a future simulation.
func (q *Queue[T]) Reset() {
	clear(q.slab)
	q.slab = q.slab[:0]
	q.free = q.free[:0]
	for b := range q.buckets {
		q.buckets[b] = q.buckets[b][:0]
	}
	q.occupied = [len(q.occupied)]uint64{}
	q.last = key{}
	q.n = 0
}
