package coll

import (
	"collsel/internal/mpi"
)

// Reduce algorithms. Table II (Open MPI 4.1.x coll_tuned):
//   1 linear, 2 chain, 3 pipeline, 4 binary, 5 binomial,
//   6 in-order binary, 7 Rabenseifner.
// SimGrid aliases (Fig. 4): ompi_basic_linear, ompi_chain, ompi_pipeline,
// ompi_binary, ompi_binomial, ompi_in_order_binary, scatter_gather, rab.

func init() {
	register(Algorithm{Coll: Reduce, ID: 1, Name: "linear", Abbrev: "Lin", SimGridName: "ompi_basic_linear", Run: reduceLinear})
	register(Algorithm{Coll: Reduce, ID: 2, Name: "chain", Abbrev: "Chain", SimGridName: "ompi_chain", Run: reduceChain})
	register(Algorithm{Coll: Reduce, ID: 3, Name: "pipeline", Abbrev: "Pipe", SimGridName: "ompi_pipeline", Run: reducePipeline})
	register(Algorithm{Coll: Reduce, ID: 4, Name: "binary", Abbrev: "Bin", SimGridName: "ompi_binary", Run: reduceBinary})
	register(Algorithm{Coll: Reduce, ID: 5, Name: "binomial", Abbrev: "Binom", SimGridName: "ompi_binomial", Run: reduceBinomial})
	register(Algorithm{Coll: Reduce, ID: 6, Name: "in_order_binary", Abbrev: "In-Bin", SimGridName: "ompi_in_order_binary", Run: reduceInOrderBinary})
	register(Algorithm{Coll: Reduce, ID: 7, Name: "rabenseifner", Abbrev: "Raben", SimGridName: "rab", Run: reduceRabenseifner})
	register(Algorithm{Coll: Reduce, Name: "scatter_gather", SimGridName: "scatter_gather", Run: reduceScatterGather})
}

// reduceLinear: every non-root sends its full buffer to the root; the root
// receives and accumulates them in rank order (Open MPI coll_basic).
func reduceLinear(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(a.Data), nil
	}
	if me != root {
		a.R.Send(root, a.Tag, a.Data, a.Bytes(a.Count))
		return nil, nil
	}
	res := clonev(a.Data)
	// Pre-post all receives so eager arrivals match immediately and
	// rendezvous transfers can start as senders arrive.
	reqs := make([]*mpi.Request, 0, p-1)
	for s := 0; s < p; s++ {
		if s == root {
			continue
		}
		reqs = append(reqs, a.R.Irecv(s, a.Tag))
	}
	for _, q := range reqs {
		m := q.Wait()
		accumulate(a, res, m.Data, a.Count)
	}
	return res, nil
}

// treeReduceSegmented is the generic segmented tree reduction behind chain,
// pipeline, binary, binomial and in-order-binary: receive each segment from
// every child, accumulate, forward to the parent, pipelined across
// segments.
func treeReduceSegmented(a *Args, t tree, segDefault int) ([]float64, error) {
	segCount := a.segCount(segDefault)
	nseg := ceilDiv(a.Count, segCount)
	res := clonev(a.Data)

	// Pre-post all receives per child and segment (bounded by the schedule;
	// Open MPI uses a sliding window — with the simulator's zero-cost
	// buffers, pre-posting everything gives the same pipelining behaviour).
	recvs := make([][]*mpi.Request, len(t.children))
	for ci, c := range t.children {
		recvs[ci] = make([]*mpi.Request, nseg)
		for s := 0; s < nseg; s++ {
			recvs[ci][s] = a.R.Irecv(c, a.Tag+s)
		}
	}
	var sendReqs []*mpi.Request
	for s := 0; s < nseg; s++ {
		lo := s * segCount
		hi := lo + segCount
		if hi > a.Count {
			hi = a.Count
		}
		for ci := range t.children {
			m := recvs[ci][s].Wait()
			accumulate(a, seg(res, lo, hi), m.Data, hi-lo)
		}
		if t.parent >= 0 {
			sendReqs = append(sendReqs, a.R.Isend(t.parent, a.Tag+s, clonev(seg(res, lo, hi)), a.Bytes(hi-lo)))
		}
	}
	waitall(sendReqs)
	if t.parent >= 0 {
		return nil, nil
	}
	return res, nil
}

// Default segment sizes, expressed in bytes and converted per call; these
// follow Open MPI's tuned defaults (e.g. 32 KiB chain/pipeline segments).
func segElems(a *Args, segBytes int) int {
	n := segBytes / a.elemSize()
	if n < 1 {
		n = 1
	}
	return n
}

func reduceChain(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	t := chainTrees(a.me(), a.Root, a.size(), 4)
	return treeReduceSegmented(a, t, segElems(a, 32*1024))
}

func reducePipeline(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	t := pipelineTree(a.me(), a.Root, a.size())
	return treeReduceSegmented(a, t, segElems(a, 32*1024))
}

func reduceBinary(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	t := binaryTree(a.me(), a.Root, a.size())
	return treeReduceSegmented(a, t, segElems(a, 32*1024))
}

func reduceBinomial(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	t := binomialTree(a.me(), a.Root, a.size())
	// Open MPI uses the binomial tree unsegmented for small messages; the
	// tuned decision falls back to segments for large ones.
	return treeReduceSegmented(a, t, a.Count)
}

// reduceInOrderBinary reduces over the in-order binary tree whose internal
// root is rank p-1, then ships the result to the operation root.
func reduceInOrderBinary(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(a.Data), nil
	}
	t := inOrderBinaryTree(me, p)
	res, err := treeReduceSegmented(a, t, segElems(a, 32*1024))
	if err != nil {
		return nil, err
	}
	shipTag := a.Tag + tagSpan/2
	internalRoot := p - 1
	if internalRoot == root {
		return res, nil
	}
	switch me {
	case internalRoot:
		a.R.Send(root, shipTag, res, a.Bytes(a.Count))
		return nil, nil
	case root:
		m := a.R.Recv(internalRoot, shipTag)
		return m.Data, nil
	default:
		return nil, nil
	}
}

// reduceRabenseifner implements the reduce-scatter (recursive halving) +
// binomial gather algorithm (MPICH "reduce scatter gather", Open MPI
// "Rabenseifner"). Non-power-of-two counts of ranks first fold the excess
// ranks into the power-of-two group.
func reduceRabenseifner(a *Args) ([]float64, error) {
	return reduceHalvingGather(a, false)
}

// reduceScatterGather is SimGrid's scatter_gather reduce: identical
// recursive-halving reduce-scatter, but the gather phase uses the linear
// gather (each owner sends its chunk straight to the root).
func reduceScatterGather(a *Args) ([]float64, error) {
	return reduceHalvingGather(a, true)
}

func reduceHalvingGather(a *Args, linearGather bool) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(a.Data), nil
	}
	if a.Count < p {
		// Too little data to scatter: fall back to binomial, as Open MPI's
		// decision logic does.
		t := binomialTree(me, root, p)
		return treeReduceSegmented(a, t, a.Count)
	}
	pof2 := nearestPow2LE(p)
	rem := p - pof2
	buf := clonev(a.Data)

	// Fold phase: the first 2*rem ranks pair up (even sends to odd), so the
	// surviving group is a power of two.
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

	// chunk boundaries over pof2 pieces
	bounds := make([]int, pof2+1)
	base, extra := a.Count/pof2, a.Count%pof2
	for i := 0; i < pof2; i++ {
		bounds[i+1] = bounds[i] + base
		if i < extra {
			bounds[i+1]++
		}
	}
	// Translate group ranks back to real ranks: group member g is rank
	// g+rem if g >= rem, else the odd fold survivor 2g+1.
	toReal := func(g int) int {
		if g >= rem {
			return g + rem
		}
		return 2*g + 1
	}

	if newRank >= 0 {
		// Recursive halving reduce-scatter within the pof2 group; group rank
		// g ends up owning chunk g.
		maskLo, maskHi := 0, pof2
		for dist := pof2 / 2; dist >= 1; dist /= 2 {
			peer := toReal(newRank ^ dist)
			mid := (maskLo + maskHi) / 2
			var keepLo, keepHi int
			var sendLo, sendHi int
			if newRank < mid { // keep lower half, send upper
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
	}

	// Gather phase: chunks are gathered to group rank 0; if the real rank
	// behind group 0 is not the operation root, the assembled vector is
	// shipped to the root afterwards (one extra hop; exact only for the
	// power-of-two communicators used in the paper's experiments).
	gatherTag := a.Tag + 2
	return rabGather(a, buf, newRank, rem, pof2, bounds, gatherTag, linearGather)
}

// rabGather gathers the scattered chunks (group rank g owns chunk g after
// recursive halving) to group rank 0, either along a binomial tree or
// linearly, then delivers the full vector to the operation root.
func rabGather(a *Args, buf []float64, newRank, rem, pof2 int, bounds []int, tag int, linear bool) ([]float64, error) {
	me, root := a.me(), a.Root
	toReal := func(g int) int {
		if g >= rem {
			return g + rem
		}
		return 2*g + 1
	}
	finalTag := tag + 1
	real0 := toReal(0)

	deliver := func(res []float64) ([]float64, error) {
		if real0 == root {
			if me == root {
				return res, nil
			}
			return nil, nil
		}
		switch me {
		case real0:
			a.R.Send(root, finalTag, res, a.Bytes(a.Count))
			return nil, nil
		case root:
			m := a.R.Recv(real0, finalTag)
			return m.Data, nil
		default:
			return nil, nil
		}
	}

	if newRank < 0 {
		// Folded-away rank: contributes nothing to the gather.
		return deliver(nil)
	}

	if linear {
		if newRank == 0 {
			res := buf
			reqs := make([]*mpi.Request, 0, pof2-1)
			for g := 1; g < pof2; g++ {
				reqs = append(reqs, a.R.Irecv(toReal(g), tag))
			}
			for i, q := range reqs {
				g := i + 1
				m := q.Wait()
				copy(seg(res, bounds[g], bounds[g+1]), m.Data)
			}
			return deliver(res)
		}
		lo, hi := bounds[newRank], bounds[newRank+1]
		if hi > lo {
			a.R.Send(real0, tag, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo))
		}
		return deliver(nil)
	}

	// Binomial gather: node v accumulates chunk range [v, v+2^k) and sends
	// it to v^bit when bit is v's lowest set bit.
	v := newRank
	hiChunk := v + 1
	for bit := 1; bit < pof2; bit <<= 1 {
		if v&bit != 0 {
			dst := toReal(v ^ bit)
			lo, hi := bounds[v], bounds[hiChunk]
			a.R.Send(dst, tag, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo))
			return deliver(nil)
		}
		src := v | bit
		if src < pof2 {
			m := a.R.Recv(toReal(src), tag)
			hiChunk = minInt(src+bit, pof2)
			copy(seg(buf, bounds[src], bounds[hiChunk]), m.Data)
		}
	}
	// Only group rank 0 reaches here with the full vector.
	return deliver(buf)
}
