package coll

import (
	"fmt"

	"collsel/internal/mpi"
)

// Alltoall algorithms. Table II (Open MPI 4.1.x coll_tuned):
//   1 basic linear, 2 pairwise, 3 modified Bruck, 4 linear with sync.
// SimGrid alias used in Fig. 4c: bruck, basic_linear, pair, ring.

func init() {
	register(Algorithm{Coll: Alltoall, ID: 1, Name: "basic_linear", Abbrev: "Lin", SimGridName: "basic_linear", Run: alltoallBasicLinear})
	register(Algorithm{Coll: Alltoall, ID: 2, Name: "pairwise", Abbrev: "Pair", SimGridName: "pair", Run: alltoallPairwise})
	register(Algorithm{Coll: Alltoall, ID: 3, Name: "bruck", Abbrev: "M-Bruck", SimGridName: "bruck", Run: alltoallBruck})
	register(Algorithm{Coll: Alltoall, ID: 4, Name: "linear_sync", Abbrev: "L-Sync", SimGridName: "basic_linear_sync", Run: alltoallLinearSync})
	register(Algorithm{Coll: Alltoall, Name: "ring", SimGridName: "ring", Run: alltoallRing})
}

// checkAlltoallArgs validates the alltoall argument shape: Count elements
// per destination, p*Count total.
func checkAlltoallArgs(a *Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("coll: count must be positive, got %d", a.Count)
	}
	if a.Data != nil && len(a.Data) != a.Count*a.size() {
		return fmt.Errorf("coll: rank %d alltoall data length %d != count*p = %d", a.me(), len(a.Data), a.Count*a.size())
	}
	return nil
}

// chunk returns block d (Count elements) of data; nil in timing mode.
func chunk(a *Args, data []float64, d int) []float64 {
	return seg(data, d*a.Count, (d+1)*a.Count)
}

// The alltoall algorithms send chunks of a.Data by reference instead of
// cloning per message: no alltoall sender mutates a.Data while the
// collective is in flight, and every receiver only reads the delivered
// payload (copying it into its own result buffer), so the slices are
// immutable for the lifetime of the message. The local copy the real
// implementation performs is still charged to the simulated clock via
// chargeCopy; only the host-side allocation is elided.

// alltoallBasicLinear: post all receives and all sends at once, wait for
// everything (Open MPI coll_basic linear alltoall). Maximum overlap, but
// also maximum port contention at scale.
func alltoallBasicLinear(a *Args) ([]float64, error) {
	if err := checkAlltoallArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), chunk(a, a.Data, me))
	chargeCopy(a, a.Count)
	if p == 1 {
		return res, nil
	}
	reqs := make([]*mpi.Request, 0, 2*(p-1))
	// Open MPI posts receives from (me+1), (me+2), ... and sends likewise.
	for i := 1; i < p; i++ {
		src := (me + i) % p
		reqs = append(reqs, a.R.Irecv(src, a.Tag))
	}
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		reqs = append(reqs, a.R.Isend(dst, a.Tag, chunk(a, a.Data, dst), a.Bytes(a.Count)))
	}
	// Wait in posting order, exactly like mpi.Waitall, copying each received
	// block as its request completes (the copy is host-side bookkeeping, so
	// interleaving it with the waits changes no simulated timestamps).
	for i := 1; i < p; i++ {
		src := (me + i) % p
		m := reqs[i-1].Wait()
		copy(chunk(a, res, src), m.Data)
	}
	for _, q := range reqs[p-1:] {
		q.Wait()
	}
	return res, nil
}

// alltoallPairwise: p-1 rounds; in round s, exchange with (me+s) / (me-s)
// via sendrecv. One partner at a time keeps ports uncontended but
// synchronizes the ring every step.
func alltoallPairwise(a *Args) ([]float64, error) {
	if err := checkAlltoallArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), chunk(a, a.Data, me))
	chargeCopy(a, a.Count)
	for s := 1; s < p; s++ {
		sendTo := (me + s) % p
		recvFrom := (me - s + p) % p
		m := a.R.Sendrecv(sendTo, a.Tag+s, chunk(a, a.Data, sendTo), a.Bytes(a.Count), recvFrom, a.Tag+s)
		copy(chunk(a, res, recvFrom), m.Data)
	}
	return res, nil
}

// alltoallBruck: the modified Bruck algorithm — ceil(log2 p) rounds, each
// moving about half the blocks as one aggregated message. Latency-optimal
// for small messages at the price of extra copying and larger volume.
func alltoallBruck(a *Args) ([]float64, error) {
	if err := checkAlltoallArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		chargeCopy(a, a.Count)
		return clonev(a.Data), nil
	}
	// Phase 1: local rotation. blocks[k] = my data for rank (me+k) mod p.
	// Blocks alias a.Data (and, after an exchange round, received payloads);
	// they are only ever read and re-pointed, never written through. Timing
	// mode moves no data, so it keeps no blocks.
	var blocks [][]float64
	if a.Data != nil {
		blocks = make([][]float64, p)
		for k := 0; k < p; k++ {
			blocks[k] = chunk(a, a.Data, (me+k)%p)
		}
	}
	chargeCopy(a, a.Count*p)

	// Phase 2: for each bit, ship all blocks whose index has the bit set to
	// rank (me+bit), receive the same set from (me-bit). Blocks are packed
	// into a single message. The indices with the bit set are k = bit,
	// (bit+1)|bit, ...: n of them, bit in every full period of 2·bit.
	for bit := 1; bit < p; bit <<= 1 {
		dst := (me + bit) % p
		src := (me - bit + p) % p
		n := p/(2*bit)*bit + max(0, p%(2*bit)-bit)
		packed := newLike(a.Data, n*a.Count)
		if blocks != nil {
			for i, k := 0, bit; k < p; i, k = i+1, (k+1)|bit {
				copy(chunk(a, packed, i), blocks[k])
			}
		}
		chargeCopy(a, n*a.Count)
		m := a.R.Sendrecv(dst, a.Tag+bit, packed, a.Bytes(n*a.Count), src, a.Tag+bit)
		// The received payload is the peer's freshly packed buffer for this
		// round; the peer never touches it again, so blocks can alias it.
		if blocks != nil {
			for i, k := 0, bit; k < p; i, k = i+1, (k+1)|bit {
				blocks[k] = chunk(a, m.Data, i)
			}
		}
		chargeCopy(a, n*a.Count)
	}

	// Phase 3: inverse rotation. After the exchange rounds, blocks[k] holds
	// the data sent *to me* by rank (me-k) mod p.
	res := newLike(a.Data, p*a.Count)
	for k := range blocks {
		srcRank := (me - k + p) % p
		copy(chunk(a, res, srcRank), blocks[k])
	}
	chargeCopy(a, a.Count*p)
	return res, nil
}

// alltoallLinearSync: Open MPI's linear with sync — like basic linear, but
// sends use the synchronous mode (forced rendezvous handshake) and only a
// small window of pairs is kept in flight. The handshakes couple every pair
// of ranks, which is why this algorithm reacts strongly to some arrival
// patterns (fast in No-delay, terrible when the first process is delayed).
func alltoallLinearSync(a *Args) ([]float64, error) {
	const window = 2 // outstanding send/recv pairs, Open MPI default
	if err := checkAlltoallArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), chunk(a, a.Data, me))
	chargeCopy(a, a.Count)
	if p == 1 {
		return res, nil
	}
	type slot struct {
		rq, sq *mpi.Request
		src    int
	}
	// The window is a fixed ring, oldest pair at head, so keeping it
	// allocates nothing per step.
	var ring [window]slot
	head, n := 0, 0
	flush := func(keep int) {
		for n > keep {
			s := ring[head]
			head, n = (head+1)%window, n-1
			m := s.rq.Wait()
			copy(chunk(a, res, s.src), m.Data)
			s.sq.Wait()
		}
	}
	for i := 1; i < p; i++ {
		src := (me - i + p) % p
		dst := (me + i) % p
		rq := a.R.Irecv(src, a.Tag)
		sq := a.R.Issend(dst, a.Tag, chunk(a, a.Data, dst), a.Bytes(a.Count))
		ring[(head+n)%window] = slot{rq: rq, sq: sq, src: src}
		n++
		flush(window - 1)
	}
	flush(0)
	return res, nil
}

// alltoallRing: p-1 rounds around a directed ring; round s sends to me+1
// the chunk for rank me+s... SimGrid's "ring" alltoall sends directly to
// (me+s) while receiving from (me-s), without the pairwise coupling
// (nonblocking both sides, one round in flight).
func alltoallRing(a *Args) ([]float64, error) {
	if err := checkAlltoallArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), chunk(a, a.Data, me))
	chargeCopy(a, a.Count)
	for s := 1; s < p; s++ {
		sendTo := (me + s) % p
		recvFrom := (me - s + p) % p
		rq := a.R.Irecv(recvFrom, a.Tag+s)
		sq := a.R.Isend(sendTo, a.Tag+s, chunk(a, a.Data, sendTo), a.Bytes(a.Count))
		m := rq.Wait()
		copy(chunk(a, res, recvFrom), m.Data)
		sq.Wait()
	}
	return res, nil
}
