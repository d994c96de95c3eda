package coll

import (
	"fmt"

	"collsel/internal/mpi"
)

// Bcast algorithms (Open MPI 4.1.x coll_tuned ids):
//   1 basic linear, 2 chain, 3 pipeline, 4 split binary (approximated by
//   binary), 5 binary, 6 binomial, 7 knomial (radix 4),
//   8 scatter_allgather, 9 scatter_allgather_ring.

func init() {
	register(Algorithm{Coll: Bcast, ID: 1, Name: "linear", Abbrev: "Lin", SimGridName: "ompi_basic_linear", Run: bcastLinear})
	register(Algorithm{Coll: Bcast, ID: 2, Name: "chain", Abbrev: "Chain", SimGridName: "ompi_chain", Run: bcastChain})
	register(Algorithm{Coll: Bcast, ID: 3, Name: "pipeline", Abbrev: "Pipe", SimGridName: "ompi_pipeline", Run: bcastPipeline})
	register(Algorithm{Coll: Bcast, ID: 5, Name: "binary", Abbrev: "Bin", SimGridName: "ompi_binary", Run: bcastBinary})
	register(Algorithm{Coll: Bcast, ID: 6, Name: "binomial", Abbrev: "Binom", SimGridName: "ompi_binomial", Run: bcastBinomial})
	register(Algorithm{Coll: Bcast, ID: 7, Name: "knomial", Abbrev: "Knom", Run: bcastKnomial})
	register(Algorithm{Coll: Bcast, ID: 8, Name: "scatter_allgather", Abbrev: "Scat-AG", SimGridName: "scatter_rdb_allgather", Run: bcastScatterAllgather})
}

// bcastKnomial: radix-4 k-nomial tree (Open MPI's knomial bcast default
// radix), segmented like the other tree broadcasts.
func bcastKnomial(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	return treeBcastSegmented(a, knomialTree(a.me(), a.Root, a.size(), 4), a.Count)
}

// checkBcastArgs validates bcast-style arguments; only the root's Data is
// inspected (non-roots receive).
func checkBcastArgs(a *Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("coll: count must be positive, got %d", a.Count)
	}
	if a.Root < 0 || a.Root >= a.size() {
		return fmt.Errorf("coll: root %d out of range", a.Root)
	}
	if a.me() == a.Root && a.Data != nil && len(a.Data) != a.Count {
		return fmt.Errorf("coll: root data length %d != count %d", len(a.Data), a.Count)
	}
	return nil
}

// bcastLinear: the root sends the whole buffer to every other rank.
func bcastLinear(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(a.Data), nil
	}
	if me == root {
		reqs := make([]*mpi.Request, 0, p-1)
		for d := 0; d < p; d++ {
			if d == root {
				continue
			}
			reqs = append(reqs, a.R.Isend(d, a.Tag, a.Data, a.Bytes(a.Count)))
		}
		waitall(reqs)
		return clonev(a.Data), nil
	}
	return a.R.Recv(root, a.Tag).Data, nil
}

// treeBcastSegmented pushes segments down a tree, pipelined: receive
// segment s from the parent, forward it to each child, move to s+1.
func treeBcastSegmented(a *Args, t tree, segDefault int) ([]float64, error) {
	segCount := a.segCount(segDefault)
	nseg := ceilDiv(a.Count, segCount)
	// A non-root allocates its result on the first segment, in data mode
	// only: its own Data is nil in both modes.
	var buf []float64
	if t.parent < 0 {
		buf = clonev(a.Data)
	}
	// Pre-post receives for all segments from the parent.
	var recvs []*mpi.Request
	if t.parent >= 0 {
		recvs = make([]*mpi.Request, nseg)
		for s := 0; s < nseg; s++ {
			recvs[s] = a.R.Irecv(t.parent, a.Tag+s)
		}
	}
	var sends []*mpi.Request
	for s := 0; s < nseg; s++ {
		lo := s * segCount
		hi := lo + segCount
		if hi > a.Count {
			hi = a.Count
		}
		if t.parent >= 0 {
			m := recvs[s].Wait()
			if s == 0 {
				buf = newLike(m.Data, a.Count)
			}
			copy(seg(buf, lo, hi), m.Data)
		}
		for _, c := range t.children {
			sends = append(sends, a.R.Isend(c, a.Tag+s, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo)))
		}
	}
	waitall(sends)
	return buf, nil
}

func bcastChain(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	return treeBcastSegmented(a, chainTrees(a.me(), a.Root, a.size(), 4), segElems(a, 32*1024))
}

func bcastPipeline(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	return treeBcastSegmented(a, pipelineTree(a.me(), a.Root, a.size()), segElems(a, 32*1024))
}

func bcastBinary(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	return treeBcastSegmented(a, binaryTree(a.me(), a.Root, a.size()), segElems(a, 32*1024))
}

func bcastBinomial(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	if a.size() == 1 {
		return clonev(a.Data), nil
	}
	return treeBcastSegmented(a, binomialTree(a.me(), a.Root, a.size()), a.Count)
}

// bcastScatterAllgather: binomial scatter of chunks followed by a recursive
// doubling allgather (the MPICH large-message bcast).
func bcastScatterAllgather(a *Args) ([]float64, error) {
	if err := checkBcastArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(a.Data), nil
	}
	if a.Count < p {
		// Not enough elements to scatter; use binomial as Open MPI does.
		return treeBcastSegmented(a, binomialTree(me, root, p), a.Count)
	}
	// Work in virtual ranks rooted at root; chunk i belongs to vrank i.
	v := vrank(me, root, p)
	bounds := make([]int, p+1)
	base, extra := a.Count/p, a.Count%p
	for i := 0; i < p; i++ {
		bounds[i+1] = bounds[i] + base
		if i < extra {
			bounds[i+1]++
		}
	}
	// The root starts from its input; every other rank allocates its
	// buffer (data mode only) when its scatter chunk arrives.
	var buf []float64
	if me == root {
		buf = clonev(a.Data)
	}

	// Binomial scatter: vrank 0 holds all chunks; at each step the holder of
	// range [v, v+2b) sends the upper half [v+b, v+2b) to vrank v+b.
	// Walk from the highest bit down.
	highBit := nearestPow2LE(maxInt(1, p-1))
	// Receive from parent: the chunk range [v, min(v+low, p)) where low is
	// v's lowest set bit.
	if v != 0 {
		low := v & (-v)
		parent := rrank(v^low, root, p)
		m := a.R.Recv(parent, a.Tag)
		buf = newLike(m.Data, a.Count)
		copy(seg(buf, bounds[v], a.Count), m.Data)
	}
	for b := highBit; b >= 1; b >>= 1 {
		if v&(b-1) == 0 && v&b == 0 { // I hold [v, v+2b); send upper half
			cv := v + b
			if cv < p {
				hiC := minInt(cv+b, p)
				lo, hi := bounds[cv], bounds[hiC]
				a.R.Send(rrank(cv, root, p), a.Tag, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo))
			}
		}
	}

	// Recursive-doubling allgather over virtual ranks (power-of-two part;
	// for non-power-of-two sizes, a ring pass fixes the stragglers).
	pof2 := nearestPow2LE(p)
	if pof2 == p {
		haveLo, haveHi := v, v+1
		for b := 1; b < p; b <<= 1 {
			peer := v ^ b
			// Exchange entire held range.
			lo, hi := bounds[haveLo], bounds[haveHi]
			m := a.R.Sendrecv(rrank(peer, root, p), a.Tag+1, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo), rrank(peer, root, p), a.Tag+1)
			// Peer holds the mirrored range of the same width.
			var dstLo int
			if peer < v {
				dstLo = haveLo - b
			} else {
				dstLo = haveHi
			}
			copy(seg(buf, bounds[dstLo], bounds[dstLo+b]), m.Data)
			if peer < v {
				haveLo -= b
			} else {
				haveHi += b
			}
		}
		return buf, nil
	}
	// Non-power-of-two: fall back to a ring allgather of chunks.
	next := rrank((v+1)%p, root, p)
	prev := rrank((v-1+p)%p, root, p)
	cur := v
	for step := 0; step < p-1; step++ {
		lo, hi := bounds[cur], bounds[cur+1]
		m := a.R.Sendrecv(next, a.Tag+2+step, clonev(seg(buf, lo, hi)), a.Bytes(hi-lo), prev, a.Tag+2+step)
		cur = (cur - 1 + p) % p
		copy(seg(buf, bounds[cur], bounds[cur+1]), m.Data)
	}
	return buf, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
