// Package eventq provides the simulation kernel's event queue: a monotone
// radix heap keyed by (at, seq), with payloads stored by value in a slab.
//
// Monotone precondition. Every pushed key must lie strictly above the key
// of the last popped item (before the first pop, above (math.MinInt64, 0)).
// The kernel satisfies this by construction: it clamps pushes into the
// past to the current time, and its sequence numbers strictly increase. A
// push that violates it panics; the queue never misorders.
//
// Time buckets. Items are bucketed by their timestamp alone: an item lives
// in the bucket numbered by the highest bit in which its at differs from
// the last popped at, so bucket 0 holds exactly the items at the last
// popped instant. Bucket 0 is a FIFO with a head index and a pop from it is
// O(1). When it runs dry, Pop takes the lowest non-empty bucket, scans it
// for its minimum at, makes that the new last popped time and
// redistributes the bucket, each item into a strictly lower bucket (the
// minimum's ties into bucket 0); an item moves at most 64 times and, in
// practice, a handful.
//
// Stability. Items with equal at always share a bucket: a bucket's number
// depends only on at and the last popped at, and a redistribution changes
// only bits below the bucket it empties, so it never separates a bucket's
// ties from items left in higher buckets. Within a bucket, ties sit in
// push order: pushes append in increasing seq, and a redistribution
// appends the emptied bucket's items in order into buckets that are all
// empty, since it empties the lowest non-empty one. So bucket 0 holds the
// current instant's items in seq order and pops them in (at, seq) order
// without comparing seqs at all.
//
// Keys and slab. Buckets hold 16-byte keys — the timestamp in one word,
// the sequence number and the payload's slot packed into the other — so a
// redistribution pass streams through contiguous memory. The packing
// bounds a queue to 2^27 queued items and 2^37 - 1 as the largest seq;
// Push panics beyond either. Payloads sit in one slice indexed by slot and
// recycled through a LIFO free list: they are written once on push and
// read once on pop, never moved, however often their key is redistributed.
// Moving payloads through the buckets instead would make every
// redistribution copy the payload too, and every bucket would retain
// payload-sized capacity. Pop clears the vacated slot so the GC sees no
// stale payload pointers. The kernel's payload is a 24-byte value without
// pointers, so its slab is allocated noscan and the GC never walks it.
// Buckets, slab and free list keep their capacity across pops and, through
// Reset, across kernels, so steady-state pushes and pops do not allocate.
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
	nBuckets = 65 // bucket b > 0 holds items whose at differs from the last popped at first in bit b-1
	// firstCap is the capacity of each bucket, the slab and the free
	// list in a fresh queue.
	firstCap = 4
)

// key is a packed 128-bit ordering key. hi is At with its sign bit
// flipped, so unsigned order matches signed order; lo is Seq<<slotBits |
// slot.
type key struct{ hi, lo uint64 }

// Queue is a min-queue of items ordered by (At, Seq). The zero value is an
// empty queue ready for use; a Queue must not be copied after first use.
type Queue[T any] struct {
	// last is the key of the last popped item; last.hi is the time every
	// key of buckets[0] carries.
	last key
	n    int
	// head indexes the next key to pop from buckets[0]; buckets[0] is
	// emptied, and head rewound, as soon as its last key is popped.
	head     int
	occupied uint64 // bit b-1 set iff buckets[b] is non-empty, for b > 0
	buckets  [nBuckets][]key
	slab     []T
	free     []uint32

	firstKeys [nBuckets * firstCap]key
	firstSlab [firstCap]T
	firstFree [firstCap]uint32
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// add appends k to its bucket relative to the last popped time.
func (q *Queue[T]) add(k key) {
	b := bits.Len64(k.hi ^ q.last.hi)
	q.buckets[b] = append(q.buckets[b], k)
	if b > 0 {
		q.occupied |= 1 << (b - 1)
	}
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

// lowest returns the lowest non-empty bucket above bucket 0; the queue
// must hold a key outside bucket 0.
func (q *Queue[T]) lowest() int {
	if q.occupied == 0 {
		panic("eventq: empty queue")
	}
	return bits.TrailingZeros64(q.occupied) + 1
}

// minHi returns the smallest time word in bk, which must not be empty.
func minHi(bk []key) uint64 {
	m := bk[0].hi
	for _, k := range bk[1:] {
		m = min(m, k.hi)
	}
	return m
}

// MinAt returns the At key of the minimum item without removing it; ok is
// false when the queue is empty.
func (q *Queue[T]) MinAt() (at int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	if len(q.buckets[0]) > 0 {
		return int64(q.last.hi ^ signBit), true
	}
	return int64(minHi(q.buckets[q.lowest()]) ^ signBit), true
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

// refill advances the last popped time to the earliest queued time and
// moves that time's keys into the empty bucket 0: it empties the lowest
// non-empty bucket, whose keys all fall into strictly lower buckets
// relative to its own minimum. The pass is a stable append, so bucket 0
// receives the minimum's ties in push order.
func (q *Queue[T]) refill() {
	b := q.lowest()
	bk := q.buckets[b]
	q.last.hi = minHi(bk)
	for _, k := range bk {
		q.add(k)
	}
	q.buckets[b] = bk[:0]
	q.occupied &^= 1 << (b - 1)
}

// Pop removes and returns the minimum item. It panics on an empty queue —
// callers gate on Len, exactly as the kernel's run loop does.
func (q *Queue[T]) Pop() Item[T] {
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	b0 := q.buckets[0]
	k := b0[q.head]
	if q.head++; q.head == len(b0) {
		q.buckets[0], q.head = b0[:0], 0
	}
	q.last = k
	q.n--

	slot := uint32(k.lo & slotMask)
	it := Item[T]{At: int64(k.hi ^ signBit), Seq: k.lo >> slotBits, V: q.slab[slot]}
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
	q.occupied = 0
	q.head = 0
	q.last = key{}
	q.n = 0
}
