package coll

// Allreduce algorithms. Table II (Open MPI 4.1.x coll_tuned):
//   1 basic linear, 2 non-overlapping, 3 recursive doubling, 4 ring,
//   5 segmented ring, 6 Rabenseifner.
// SimGrid aliases (Fig. 4b): lr (logical ring reduce-scatter + ring
// allgather = ring), rdb (recursive doubling), rab_rdb (Rabenseifner),
// ompi_ring_segmented (segmented ring), redbcast (reduce + bcast =
// non-overlapping).

func init() {
	register(Algorithm{Coll: Allreduce, ID: 1, Name: "basic_linear", Abbrev: "Lin", SimGridName: "ompi_basic_linear", Run: allreduceBasicLinear})
	register(Algorithm{Coll: Allreduce, ID: 2, Name: "nonoverlapping", Abbrev: "Non-ovlp", SimGridName: "redbcast", Run: allreduceNonOverlapping})
	register(Algorithm{Coll: Allreduce, ID: 3, Name: "recursive_doubling", Abbrev: "Rec-Dbl", SimGridName: "rdb", Run: allreduceRecursiveDoubling})
	register(Algorithm{Coll: Allreduce, ID: 4, Name: "ring", Abbrev: "Ring", SimGridName: "lr", Run: allreduceRing})
	register(Algorithm{Coll: Allreduce, ID: 5, Name: "segmented_ring", Abbrev: "Seg-Ring", SimGridName: "ompi_ring_segmented", Run: allreduceSegmentedRing})
	register(Algorithm{Coll: Allreduce, ID: 6, Name: "rabenseifner", Abbrev: "Raben", SimGridName: "rab_rdb", Run: allreduceRabenseifner})
}

// subArgs derives an Args for an inner collective, shifting the tag base so
// phases cannot collide.
func subArgs(a *Args, data []float64, tagShift int) *Args {
	sub := *a
	sub.Data = data
	sub.Tag = a.Tag + tagShift
	return &sub
}

// allreduceBasicLinear: linear reduce to rank 0 followed by linear bcast
// (Open MPI coll_basic allreduce).
func allreduceBasicLinear(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	sub := subArgs(a, a.Data, 0)
	sub.Root = 0
	red, err := reduceLinear(sub)
	if err != nil {
		return nil, err
	}
	sub2 := subArgs(a, red, tagSpan/2)
	sub2.Root = 0
	return bcastLinear(sub2)
}

// allreduceNonOverlapping: tuned reduce followed by tuned bcast (Open MPI's
// non-overlapping algorithm calls the decision-selected implementations; we
// use binomial for both, its small/medium-message choice).
func allreduceNonOverlapping(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	sub := subArgs(a, a.Data, 0)
	sub.Root = 0
	red, err := reduceBinomial(sub)
	if err != nil {
		return nil, err
	}
	sub2 := subArgs(a, red, tagSpan/2)
	sub2.Root = 0
	return bcastBinomial(sub2)
}

// allreduceRecursiveDoubling: classic power-of-two butterfly; excess ranks
// fold into the group first and receive the result at the end.
func allreduceRecursiveDoubling(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		return clonev(a.Data), nil
	}
	pof2 := nearestPow2LE(p)
	rem := p - pof2
	buf := clonev(a.Data)

	newRank := -1
	if me < 2*rem {
		if me%2 == 0 {
			a.R.Send(me+1, a.Tag, buf, a.Bytes(a.Count))
		} else {
			m := a.R.Recv(me-1, a.Tag)
			accumulate(a, buf, m.Data, a.Count)
			newRank = me / 2
		}
	} else {
		newRank = me - rem
	}
	toReal := func(g int) int {
		if g >= rem {
			return g + rem
		}
		return 2*g + 1
	}
	if newRank >= 0 {
		for b := 1; b < pof2; b <<= 1 {
			peer := toReal(newRank ^ b)
			m := a.R.Sendrecv(peer, a.Tag+1, clonev(buf), a.Bytes(a.Count), peer, a.Tag+1)
			accumulate(a, buf, m.Data, a.Count)
		}
	}
	// Unfold: odd survivors return the result to their even partners.
	if me < 2*rem {
		if me%2 == 0 {
			m := a.R.Recv(me+1, a.Tag+2)
			return m.Data, nil
		}
		a.R.Send(me-1, a.Tag+2, buf, a.Bytes(a.Count))
	}
	return buf, nil
}

// ringBounds splits count elements into p chunks, first count%p chunks one
// element larger.
func ringBounds(count, p int) []int {
	b := make([]int, p+1)
	base, extra := count/p, count%p
	for i := 0; i < p; i++ {
		b[i+1] = b[i] + base
		if i < extra {
			b[i+1]++
		}
	}
	return b
}

// allreduceRing: ring reduce-scatter (p-1 steps) followed by ring allgather
// (p-1 steps); SimGrid's "lr" algorithm.
func allreduceRing(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		return clonev(a.Data), nil
	}
	if a.Count < p {
		// Too little data for chunking; degrade to recursive doubling.
		return allreduceRecursiveDoubling(a)
	}
	bounds := ringBounds(a.Count, p)
	buf := clonev(a.Data)
	next, prev := (me+1)%p, (me-1+p)%p

	// Reduce-scatter: in step s, send chunk (me-s) and accumulate into
	// chunk (me-s-1). After p-1 steps rank me owns chunk (me+1)%p.
	for s := 0; s < p-1; s++ {
		sc := ((me-s)%p + p) % p
		rc := ((me-s-1)%p + p) % p
		m := a.R.Sendrecv(next, a.Tag+s, clonev(seg(buf, bounds[sc], bounds[sc+1])), a.Bytes(bounds[sc+1]-bounds[sc]), prev, a.Tag+s)
		accumulate(a, seg(buf, bounds[rc], bounds[rc+1]), m.Data, bounds[rc+1]-bounds[rc])
	}
	// Allgather: circulate finished chunks.
	cur := (me + 1) % p
	for s := 0; s < p-1; s++ {
		tag := a.Tag + tagSpan/2 + s
		m := a.R.Sendrecv(next, tag, clonev(seg(buf, bounds[cur], bounds[cur+1])), a.Bytes(bounds[cur+1]-bounds[cur]), prev, tag)
		cur = (cur - 1 + p) % p
		copy(seg(buf, bounds[cur], bounds[cur+1]), m.Data)
	}
	return buf, nil
}

// allreduceSegmentedRing: the ring algorithm with each chunk further split
// into segments that are pipelined around the ring (Open MPI's
// ring_segmented). The schedule interleaves segment transfers so the wire
// stays busy while reductions happen.
func allreduceSegmentedRing(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		return clonev(a.Data), nil
	}
	segCount := a.segCount(segElems(a, 16*1024))
	if a.Count < p || segCount >= ceilDiv(a.Count, p) {
		// Segments no smaller than chunks: identical to plain ring.
		return allreduceRing(a)
	}
	bounds := ringBounds(a.Count, p)
	buf := clonev(a.Data)
	next, prev := (me+1)%p, (me-1+p)%p

	// Reduce-scatter with per-chunk segmentation: each ring step moves all
	// segments of the chunk, pipelined.
	tag := a.Tag
	for s := 0; s < p-1; s++ {
		sc := ((me-s)%p + p) % p
		rc := ((me-s-1)%p + p) % p
		sLo, sHi := bounds[sc], bounds[sc+1]
		rLo, rHi := bounds[rc], bounds[rc+1]
		nSegS := ceilDiv(sHi-sLo, segCount)
		nSegR := ceilDiv(rHi-rLo, segCount)
		recvs := make([]*mpiRequest, 0, nSegR)
		for g := 0; g < nSegR; g++ {
			recvs = append(recvs, a.R.Irecv(prev, tag+g))
		}
		sends := make([]*mpiRequest, 0, nSegS)
		for g := 0; g < nSegS; g++ {
			lo := sLo + g*segCount
			hi := minInt(lo+segCount, sHi)
			sends = append(sends, a.R.Isend(next, tag+g, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo)))
		}
		for g := 0; g < nSegR; g++ {
			m := recvs[g].Wait()
			lo := rLo + g*segCount
			hi := minInt(lo+segCount, rHi)
			accumulate(a, seg(buf, lo, hi), m.Data, hi-lo)
		}
		waitall(sends)
		tag += maxInt(nSegS, nSegR) + 1
	}
	// Allgather phase (unsegmented; reductions are done).
	cur := (me + 1) % p
	for s := 0; s < p-1; s++ {
		t := a.Tag + tagSpan/2 + s
		m := a.R.Sendrecv(next, t, clonev(seg(buf, bounds[cur], bounds[cur+1])), a.Bytes(bounds[cur+1]-bounds[cur]), prev, t)
		cur = (cur - 1 + p) % p
		copy(seg(buf, bounds[cur], bounds[cur+1]), m.Data)
	}
	return buf, nil
}

// allreduceRabenseifner: recursive-halving reduce-scatter followed by
// recursive-doubling allgather (SimGrid's rab_rdb).
func allreduceRabenseifner(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		return clonev(a.Data), nil
	}
	if a.Count < p {
		return allreduceRecursiveDoubling(a)
	}
	pof2 := nearestPow2LE(p)
	rem := p - pof2
	buf := clonev(a.Data)

	newRank := -1
	if me < 2*rem {
		if me%2 == 0 {
			a.R.Send(me+1, a.Tag, buf, a.Bytes(a.Count))
		} else {
			m := a.R.Recv(me-1, a.Tag)
			accumulate(a, buf, m.Data, a.Count)
			newRank = me / 2
		}
	} else {
		newRank = me - rem
	}
	toReal := func(g int) int {
		if g >= rem {
			return g + rem
		}
		return 2*g + 1
	}
	bounds := ringBounds(a.Count, pof2)

	if newRank >= 0 {
		// Recursive halving reduce-scatter: group rank g ends owning chunk g.
		maskLo, maskHi := 0, pof2
		for dist := pof2 / 2; dist >= 1; dist /= 2 {
			peer := toReal(newRank ^ dist)
			mid := (maskLo + maskHi) / 2
			var keepLo, keepHi, sendLo, sendHi int
			if newRank < mid {
				keepLo, keepHi = maskLo, mid
				sendLo, sendHi = mid, maskHi
			} else {
				keepLo, keepHi = mid, maskHi
				sendLo, sendHi = maskLo, mid
			}
			sb, se := bounds[sendLo], bounds[sendHi]
			kb, ke := bounds[keepLo], bounds[keepHi]
			m := a.R.Sendrecv(peer, a.Tag+1, clonev(seg(buf, sb, se)), a.Bytes(se-sb), peer, a.Tag+1)
			accumulate(a, seg(buf, kb, ke), m.Data, ke-kb)
			maskLo, maskHi = keepLo, keepHi
		}
		// Recursive doubling allgather over the group.
		haveLo, haveHi := newRank, newRank+1
		for b := 1; b < pof2; b <<= 1 {
			peer := toReal(newRank ^ b)
			lo, hi := bounds[haveLo], bounds[haveHi]
			m := a.R.Sendrecv(peer, a.Tag+2, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo), peer, a.Tag+2)
			if newRank^b < newRank {
				copy(seg(buf, bounds[haveLo-b], bounds[haveLo]), m.Data)
				haveLo -= b
			} else {
				copy(seg(buf, bounds[haveHi], bounds[haveHi+b]), m.Data)
				haveHi += b
			}
		}
	}
	// Unfold to the even ranks.
	if me < 2*rem {
		if me%2 == 0 {
			m := a.R.Recv(me+1, a.Tag+3)
			return m.Data, nil
		}
		a.R.Send(me-1, a.Tag+3, buf, a.Bytes(a.Count))
	}
	return buf, nil
}
