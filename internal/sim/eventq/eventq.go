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
// Push panics beyond either. Payloads sit in a slab indexed by slot and
// recycled through a LIFO free list: they are written once on push and
// read once on pop, never moved, however often their key is redistributed.
// Moving payloads through the buckets instead would make every
// redistribution copy the payload too. Pop clears the vacated slot so the
// GC sees no stale payload pointers. The kernel's payload is a 24-byte
// value without pointers, so the slab's chunks are allocated noscan and
// the GC never walks them.
//
// Storage. Every bucket is a FIFO list of fixed-size key chunks, taken
// from and returned to a queue-local free list: a bucket gives a chunk
// back as soon as its keys have been popped or redistributed, except the
// last one of a bucket that runs empty. Key storage is therefore the live
// keys plus at most one partly used chunk per bucket (and one more at the
// head of bucket 0), not the sum of every bucket's high-water mark. The
// slab grows one fixed-size chunk at a time and never moves an entry, so
// its storage is the peak number of queued items rounded up to a chunk. A
// queue allocates only when it needs more storage than it has ever held;
// chunks, slab and free lists are kept across pops and, through Reset,
// across kernels, so steady-state pushes and pops do not allocate.
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
	// chunkKeys is the number of keys in one bucket chunk: with its link
	// word a chunk is 2 KB, exactly one allocation size class.
	chunkKeys = 127
	// slabShift sets the number of payloads in one slab chunk, 256: 6 KB
	// of the kernel's 24-byte events.
	slabShift = 8
	slabChunk = 1 << slabShift
)

// key is a packed 128-bit ordering key. hi is At with its sign bit
// flipped, so unsigned order matches signed order; lo is Seq<<slotBits |
// slot.
type key struct{ hi, lo uint64 }

// chunk is one fixed-size block of a bucket's keys. next links the
// bucket's chunks in FIFO order, or the queue's free chunks.
type chunk struct {
	next *chunk
	keys [chunkKeys]key
}

// bucket is a FIFO of n keys held in a list of chunks: it reads at
// head.keys[lo] and appends at tail.keys[chunkKeys-room]. Only bucket 0
// is read from the head; a higher bucket is emptied whole by refill. A
// bucket that has run empty keeps its last chunk (head == tail), so a
// bucket refilled and drained over and over, as bucket 0 is, takes
// nothing from the free list; one never used holds none (head == nil).
type bucket struct {
	head, tail *chunk
	lo, room   int32
	n          int
}

// Queue is a min-queue of items ordered by (At, Seq). The zero value is an
// empty queue ready for use; a Queue must not be copied after first use.
type Queue[T any] struct {
	// last is the key of the last popped item; last.hi is the time every
	// key of buckets[0] carries.
	last     key
	n        int
	occupied uint64 // bit b-1 set iff buckets[b] is non-empty, for b > 0
	buckets  [nBuckets]bucket
	// spare is the free list of key chunks, linked through next.
	spare *chunk
	// slab holds the payloads by slot, slabChunk to a chunk; slots counts
	// the slots ever issued since Reset, and free lists the released ones.
	slab  []*[slabChunk]T
	slots int
	free  []uint32
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// add appends k to its bucket relative to the last popped time; the
// bucket must have room for it (see reserve). Leaving the growth to
// reserve keeps add within the inlining budget of the push and
// redistribution loops.
func (q *Queue[T]) add(k key) {
	b := bits.Len64(k.hi ^ q.last.hi)
	bk := &q.buckets[b]
	bk.tail.keys[chunkKeys-bk.room] = k
	bk.room--
	bk.n++
	if b > 0 {
		q.occupied |= 1 << (b - 1)
	}
}

// reserve makes sure the bucket k belongs in has room for one more key.
func (q *Queue[T]) reserve(k key) {
	if bk := &q.buckets[bits.Len64(k.hi^q.last.hi)]; bk.room == 0 {
		q.grow(bk)
	}
}

// grow appends a chunk from the free list, or a new one, to bk.
func (q *Queue[T]) grow(bk *bucket) {
	c := q.spare
	if c != nil {
		q.spare, c.next = c.next, nil
	} else {
		c = new(chunk)
	}
	if bk.tail != nil {
		bk.tail.next = c
	} else {
		bk.head = c
	}
	bk.tail, bk.room = c, chunkKeys
}

// release returns the chunks from c up to, not including, end to the free
// list.
func (q *Queue[T]) release(c, end *chunk) {
	for c != end {
		next := c.next
		c.next, q.spare = q.spare, c
		c = next
	}
}

// lowest returns the lowest non-empty bucket above bucket 0; the queue
// must hold a key outside bucket 0.
func (q *Queue[T]) lowest() int {
	if q.occupied == 0 {
		panic("eventq: empty queue")
	}
	return bits.TrailingZeros64(q.occupied) + 1
}

// filled returns the keys of chunk c of a bucket above bucket 0 whose
// tail is tail and has room free slots.
func filled(c, tail *chunk, room int32) []key {
	if c == tail {
		return c.keys[:chunkKeys-room]
	}
	return c.keys[:]
}

// minHi returns the smallest time word in the higher bucket bk, which must
// not be empty.
func (bk *bucket) minHi() uint64 {
	m := uint64(1<<64 - 1)
	for c := bk.head; ; c = c.next {
		for _, k := range filled(c, bk.tail, bk.room) {
			m = min(m, k.hi)
		}
		if c == bk.tail {
			return m
		}
	}
}

// MinAt returns the At key of the minimum item without removing it; ok is
// false when the queue is empty.
func (q *Queue[T]) MinAt() (at int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	if q.buckets[0].n > 0 {
		return int64(q.last.hi ^ signBit), true
	}
	return int64(q.buckets[q.lowest()].minHi() ^ signBit), true
}

// Push inserts v with key (at, seq). It panics if (at, seq) is not above
// the last popped key, if seq exceeds maxSeq, or if 1<<slotBits items are
// already queued. It allocates only when the queue needs more storage than
// it has ever held: one key chunk or one slab chunk at a time.
func (q *Queue[T]) Push(at int64, seq uint64, v T) {
	if seq > maxSeq {
		panic(fmt.Sprintf("eventq: seq %d overflows the key's %d-bit seq field", seq, 64-slotBits))
	}
	k := key{hi: uint64(at) ^ signBit, lo: seq << slotBits}
	if k.hi < q.last.hi || k.hi == q.last.hi && k.lo <= q.last.lo&^slotMask {
		panic(fmt.Sprintf("eventq: non-monotone push (at=%d, seq=%d) not above last popped (at=%d, seq=%d)",
			at, seq, int64(q.last.hi^signBit), q.last.lo>>slotBits))
	}
	var slot int
	if n := len(q.free); n > 0 {
		slot = int(q.free[n-1])
		q.free = q.free[:n-1]
	} else {
		slot = q.slots
		if slot > slotMask {
			panic(fmt.Sprintf("eventq: more than %d items queued", slotMask+1))
		}
		if slot>>slabShift == len(q.slab) {
			q.slab = append(q.slab, new([slabChunk]T))
		}
		q.slots++
	}
	q.slab[slot>>slabShift][slot&(slabChunk-1)] = v
	k.lo |= uint64(slot)
	q.reserve(k)
	q.add(k)
	q.n++
}

// refill advances the last popped time to the earliest queued time and
// moves that time's keys into the empty bucket 0: it empties the lowest
// non-empty bucket, whose keys all fall into strictly lower buckets
// relative to its own minimum, returning each chunk but the last to the
// free list once it has been read. The pass is a stable append, so bucket
// 0 receives the minimum's ties in push order.
func (q *Queue[T]) refill() {
	b := q.lowest()
	bk := &q.buckets[b]
	q.occupied &^= 1 << (b - 1)
	q.last.hi = bk.minHi()
	// Nothing is added to bucket b during the pass, so it can be emptied
	// first, keeping its tail chunk, whose keys are read last.
	head, tail, room := bk.head, bk.tail, bk.room
	*bk = bucket{head: tail, tail: tail, room: chunkKeys}
	for c := head; ; {
		for _, k := range filled(c, tail, room) {
			q.reserve(k)
			q.add(k)
		}
		if c == tail {
			return
		}
		next := c.next
		q.release(c, next) // read through: the pass may reuse it at once
		c = next
	}
}

// Pop removes and returns the minimum item. It panics on an empty queue —
// callers gate on Len, exactly as the kernel's run loop does.
func (q *Queue[T]) Pop() Item[T] {
	b0 := &q.buckets[0]
	if b0.n == 0 {
		q.refill()
	}
	c := b0.head
	k := c.keys[b0.lo]
	if b0.n--; b0.n == 0 {
		b0.lo, b0.room = 0, chunkKeys // keep the chunk for the next instant
	} else if b0.lo++; b0.lo == chunkKeys {
		b0.head, b0.lo = c.next, 0
		q.release(c, c.next)
	}
	q.last = k
	q.n--

	slot := uint32(k.lo & slotMask)
	p := &q.slab[slot>>slabShift][slot&(slabChunk-1)]
	it := Item[T]{At: int64(k.hi ^ signBit), Seq: k.lo >> slotBits, V: *p}
	var zero T
	*p = zero // release payload references held in the vacated slot
	q.free = append(q.free, slot)
	return it
}

// Reset empties the queue, keeping its storage for reuse, and forgets the
// last popped key, so the queue accepts any key again. Payload references
// still queued are cleared. The kernel calls it before pooling a queue for
// a future simulation.
func (q *Queue[T]) Reset() {
	for i := 0; i*slabChunk < q.slots; i++ {
		clear(q.slab[i][:])
	}
	q.slots = 0
	q.free = q.free[:0]
	for b := range q.buckets {
		q.release(q.buckets[b].head, nil)
		q.buckets[b] = bucket{}
	}
	q.occupied = 0
	q.last = key{}
	q.n = 0
}
