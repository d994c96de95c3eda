package coll

import (
	"fmt"

	"collsel/internal/mpi"
)

// Gather, Scatter and Allgather algorithms. These are substrates: the paper
// discusses them as related collectives and some composite algorithms
// (Rabenseifner variants, scatter+allgather bcast) are built from their
// schedules.

func init() {
	register(Algorithm{Coll: Gather, ID: 1, Name: "linear", Abbrev: "Lin", Run: gatherLinear})
	register(Algorithm{Coll: Gather, ID: 2, Name: "binomial", Abbrev: "Binom", Run: gatherBinomial})
	register(Algorithm{Coll: Scatter, ID: 1, Name: "linear", Abbrev: "Lin", Run: scatterLinear})
	register(Algorithm{Coll: Scatter, ID: 2, Name: "binomial", Abbrev: "Binom", Run: scatterBinomial})
	register(Algorithm{Coll: Allgather, ID: 1, Name: "linear", Abbrev: "Lin", Run: allgatherLinear})
	register(Algorithm{Coll: Allgather, ID: 2, Name: "bruck", Abbrev: "Bruck", Run: allgatherBruck})
	register(Algorithm{Coll: Allgather, ID: 3, Name: "recursive_doubling", Abbrev: "Rec-Dbl", Run: allgatherRecursiveDoubling})
	register(Algorithm{Coll: Allgather, ID: 4, Name: "ring", Abbrev: "Ring", Run: allgatherRing})
}

func checkGatherArgs(a *Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("coll: count must be positive, got %d", a.Count)
	}
	if a.Root < 0 || a.Root >= a.size() {
		return fmt.Errorf("coll: root %d out of range", a.Root)
	}
	if a.Data != nil && len(a.Data) != a.Count {
		return fmt.Errorf("coll: rank %d gather/allgather data length %d != count %d", a.me(), len(a.Data), a.Count)
	}
	return nil
}

// gatherLinear: everyone sends Count elements straight to the root.
func gatherLinear(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if me != root {
		a.R.Send(root, a.Tag, a.Data, a.Bytes(a.Count))
		return nil, nil
	}
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), a.Data)
	reqs := make([]*mpi.Request, 0, p-1)
	srcs := make([]int, 0, p-1)
	for s := 0; s < p; s++ {
		if s == root {
			continue
		}
		reqs = append(reqs, a.R.Irecv(s, a.Tag))
		srcs = append(srcs, s)
	}
	for i, q := range reqs {
		m := q.Wait()
		copy(chunk(a, res, srcs[i]), m.Data)
	}
	return res, nil
}

// gatherBinomial: children aggregate their subtree's blocks and forward
// them up a binomial tree. Virtual rank v holds blocks [v, v+2^k) of the
// rotated ordering at step k.
func gatherBinomial(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(a.Data), nil
	}
	v := vrank(me, root, p)
	// buf holds blocks indexed by virtual rank, buf[w] for w in [v, hiV).
	buf := newLike(a.Data, p*a.Count)
	copy(chunk(a, buf, v), a.Data)
	hiV := v + 1
	for bit := 1; bit < p; bit <<= 1 {
		if v&bit != 0 {
			parent := rrank(v^bit, root, p)
			a.R.Send(parent, a.Tag, clonev(seg(buf, v*a.Count, hiV*a.Count)), a.Bytes((hiV-v)*a.Count))
			return nil, nil
		}
		childV := v | bit
		if childV < p {
			m := a.R.Recv(rrank(childV, root, p), a.Tag)
			hiV = minInt(childV+bit, p)
			copy(seg(buf, childV*a.Count, hiV*a.Count), m.Data)
		}
	}
	// Only the root (v == 0) reaches here; undo the virtual rotation.
	res := newLike(a.Data, p*a.Count)
	for w := 0; w < p; w++ {
		copy(chunk(a, res, rrank(w, root, p)), chunk(a, buf, w))
	}
	chargeCopy(a, p*a.Count)
	return res, nil
}

func checkScatterArgs(a *Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("coll: count must be positive, got %d", a.Count)
	}
	if a.Root < 0 || a.Root >= a.size() {
		return fmt.Errorf("coll: root %d out of range", a.Root)
	}
	if a.me() == a.Root && a.Data != nil && len(a.Data) != a.Count*a.size() {
		return fmt.Errorf("coll: root scatter data length %d != count*p = %d", len(a.Data), a.Count*a.size())
	}
	return nil
}

// scatterLinear: the root sends each rank its block directly.
func scatterLinear(a *Args) ([]float64, error) {
	if err := checkScatterArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(chunk(a, a.Data, 0)), nil
	}
	if me == root {
		reqs := make([]*mpi.Request, 0, p-1)
		for d := 0; d < p; d++ {
			if d == root {
				continue
			}
			reqs = append(reqs, a.R.Isend(d, a.Tag, clonev(chunk(a, a.Data, d)), a.Bytes(a.Count)))
		}
		waitall(reqs)
		return clonev(chunk(a, a.Data, root)), nil
	}
	return a.R.Recv(root, a.Tag).Data, nil
}

// scatterBinomial: the root splits its buffer down a binomial tree; each
// inner node forwards the halves belonging to its subtree.
func scatterBinomial(a *Args) ([]float64, error) {
	if err := checkScatterArgs(a); err != nil {
		return nil, err
	}
	p, me, root := a.size(), a.me(), a.Root
	if p == 1 {
		return clonev(chunk(a, a.Data, 0)), nil
	}
	v := vrank(me, root, p)
	// Virtual-block buffer: on arrival, node v holds blocks [v, v+low(v)).
	var buf []float64
	if me == root {
		buf = newLike(a.Data, p*a.Count)
		for w := 0; w < p; w++ {
			copy(chunk(a, buf, w), chunk(a, a.Data, rrank(w, root, p)))
		}
		chargeCopy(a, p*a.Count)
	} else {
		low := v & (-v)
		parent := rrank(v^low, root, p)
		m := a.R.Recv(parent, a.Tag)
		buf = newLike(m.Data, p*a.Count)
		copy(seg(buf, v*a.Count, p*a.Count), m.Data)
	}
	highBit := nearestPow2LE(maxInt(1, p-1))
	for b := highBit; b >= 1; b >>= 1 {
		if v&(2*b-1) == 0 {
			cv := v + b
			if cv < p {
				hiC := minInt(cv+b, p)
				a.R.Send(rrank(cv, root, p), a.Tag, clonev(seg(buf, cv*a.Count, hiC*a.Count)), a.Bytes((hiC-cv)*a.Count))
			}
		}
	}
	return clonev(chunk(a, buf, v)), nil
}

// allgatherLinear: gather to rank 0 then broadcast (coll_basic).
func allgatherLinear(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	sub := subArgs(a, a.Data, 0)
	sub.Root = 0
	gathered, err := gatherLinear(sub)
	if err != nil {
		return nil, err
	}
	bc := subArgs(a, gathered, tagSpan/2)
	bc.Root = 0
	bc.Count = a.Count * a.size()
	return bcastBinomial(bc)
}

// allgatherBruck: log2(p) rounds, doubling the gathered prefix each round.
func allgatherBruck(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	// blocks[k] = block of rank (me+k) mod p, filled progressively.
	blocks := newLike(a.Data, p*a.Count)
	copy(blocks, a.Data)
	have := 1
	for bit := 1; bit < p; bit <<= 1 {
		dst := (me - bit + p) % p
		src := (me + bit) % p
		n := minInt(have, p-have) // blocks still missing may be fewer
		m := a.R.Sendrecv(dst, a.Tag+bit, clonev(seg(blocks, 0, n*a.Count)), a.Bytes(n*a.Count), src, a.Tag+bit)
		copy(seg(blocks, have*a.Count, (have+n)*a.Count), m.Data)
		have += n
	}
	// Unrotate: blocks[k] belongs to rank (me+k) mod p.
	res := newLike(a.Data, p*a.Count)
	for k := 0; k < p; k++ {
		copy(chunk(a, res, (me+k)%p), chunk(a, blocks, k))
	}
	chargeCopy(a, p*a.Count)
	return res, nil
}

// allgatherRecursiveDoubling: power-of-two butterfly; non-power-of-two
// sizes fall back to ring.
func allgatherRecursiveDoubling(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p&(p-1) != 0 {
		return allgatherRing(a)
	}
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), a.Data)
	haveLo, haveHi := me, me+1
	for b := 1; b < p; b <<= 1 {
		peer := me ^ b
		lo, hi := haveLo*a.Count, haveHi*a.Count
		m := a.R.Sendrecv(peer, a.Tag+b, clonev(seg(res, lo, hi)), a.Bytes(hi-lo), peer, a.Tag+b)
		if peer < me {
			copy(seg(res, (haveLo-b)*a.Count, haveLo*a.Count), m.Data)
			haveLo -= b
		} else {
			copy(seg(res, haveHi*a.Count, (haveHi+b)*a.Count), m.Data)
			haveHi += b
		}
	}
	return res, nil
}

// allgatherRing: p-1 steps, each forwarding the block received last step.
func allgatherRing(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), a.Data)
	next, prev := (me+1)%p, (me-1+p)%p
	cur := me
	for s := 0; s < p-1; s++ {
		m := a.R.Sendrecv(next, a.Tag+s, clonev(chunk(a, res, cur)), a.Bytes(a.Count), prev, a.Tag+s)
		cur = (cur - 1 + p) % p
		copy(chunk(a, res, cur), m.Data)
	}
	return res, nil
}
