package coll

import (
	"fmt"

	"collsel/internal/mpi"
)

// Reduce_scatter algorithms (Open MPI 4.1.x coll_tuned ids):
//   1 non-overlapping (reduce + scatter), 2 recursive halving, 3 ring.
// The paper's composite algorithms (Rabenseifner reduce/allreduce) embed
// the same schedules; exposing MPI_Reduce_scatter as a first-class
// collective lets the harness study it directly.
//
// Semantics (regular, equal counts): every rank contributes Count*p
// elements; rank r receives the element-wise reduction of block r.

func init() {
	register(Algorithm{Coll: ReduceScatter, ID: 1, Name: "nonoverlapping", Abbrev: "Non-ovlp", Run: reduceScatterNonOverlapping})
	register(Algorithm{Coll: ReduceScatter, ID: 2, Name: "recursive_halving", Abbrev: "Rec-Halv", Run: reduceScatterRecursiveHalving})
	register(Algorithm{Coll: ReduceScatter, ID: 3, Name: "ring", Abbrev: "Ring", Run: reduceScatterRing})
}

func checkReduceScatterArgs(a *Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("coll: count must be positive, got %d", a.Count)
	}
	if a.Data != nil && len(a.Data) != a.Count*a.size() {
		return fmt.Errorf("coll: rank %d reduce_scatter data length %d != count*p = %d",
			a.me(), len(a.Data), a.Count*a.size())
	}
	return nil
}

// reduceScatterNonOverlapping: reduce the whole vector to rank 0, then
// scatter the blocks (Open MPI coll_basic).
func reduceScatterNonOverlapping(a *Args) ([]float64, error) {
	if err := checkReduceScatterArgs(a); err != nil {
		return nil, err
	}
	p := a.size()
	if p == 1 {
		out := clonev(seg(a.Data, 0, a.Count))
		chargeReduce(a, a.Count)
		return out, nil
	}
	red := subArgs(a, a.Data, 0)
	red.Root = 0
	red.Count = a.Count * p
	full, err := reduceBinomial(red)
	if err != nil {
		return nil, err
	}
	sc := subArgs(a, full, tagSpan/2)
	sc.Root = 0
	sc.Count = a.Count
	return scatterBinomial(sc)
}

// reduceScatterRecursiveHalving: MPICH's recursive halving for power-of-two
// groups; excess ranks fold in first and receive their block at the end.
func reduceScatterRecursiveHalving(a *Args) ([]float64, error) {
	if err := checkReduceScatterArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		out := clonev(seg(a.Data, 0, a.Count))
		chargeReduce(a, a.Count)
		return out, nil
	}
	pof2 := nearestPow2LE(p)
	rem := p - pof2
	buf := clonev(a.Data)
	total := a.Count * p

	newRank := -1
	if me < 2*rem {
		if me%2 == 0 {
			a.R.Send(me+1, a.Tag, buf, a.Bytes(total))
		} else {
			m := a.R.Recv(me-1, a.Tag)
			accumulate(a, buf, m.Data, total)
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

	// Block boundaries: group g owns the blocks of the real ranks it
	// represents. For regular counts we hand group g the contiguous element
	// range covering its real rank's block plus (for fold survivors) the
	// partner's block; to keep the schedule faithful and the data correct we
	// reduce over *element* ranges spanning whole blocks of the pof2 split.
	bounds := make([]int, pof2+1)
	per := total / pof2
	extra := total % pof2
	for i := 0; i < pof2; i++ {
		bounds[i+1] = bounds[i] + per
		if i < extra {
			bounds[i+1]++
		}
	}

	if newRank >= 0 {
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
	}

	// Group rank g now holds the reduced element range bounds[g]:bounds[g+1].
	// Redistribute to the real per-rank blocks: every rank r needs elements
	// [r*Count, (r+1)*Count). Owners send the overlapping pieces.
	redistTag := a.Tag + 2
	var sends []*mpi.Request
	if newRank >= 0 {
		lo, hi := bounds[newRank], bounds[newRank+1]
		for r := 0; r < p; r++ {
			blo, bhi := r*a.Count, (r+1)*a.Count
			olo, ohi := maxInt(lo, blo), minInt(hi, bhi)
			if olo >= ohi {
				continue
			}
			if r == me {
				continue // handled locally below
			}
			sends = append(sends, a.R.Isend(r, redistTag+olo%tagSpan8(), clonev(seg(buf, olo, ohi)), a.Bytes(ohi-olo)))
		}
	}
	out := newLike(a.Data, a.Count)
	blo, bhi := me*a.Count, (me+1)*a.Count
	// Collect the pieces of my block from their owners (including myself).
	for g := 0; g < pof2; g++ {
		olo, ohi := maxInt(bounds[g], blo), minInt(bounds[g+1], bhi)
		if olo >= ohi {
			continue
		}
		owner := toReal(g)
		if owner == me {
			copy(seg(out, olo-blo, ohi-blo), seg(buf, olo, ohi))
			continue
		}
		m := a.R.Recv(owner, redistTag+olo%tagSpan8())
		copy(seg(out, olo-blo, ohi-blo), m.Data)
	}
	waitall(sends)
	return out, nil
}

func tagSpan8() int { return tagSpan / 8 }

// reduceScatterRing: p-1 ring steps; in step s each rank forwards the
// partially reduced block that will finally land s hops behind it (the
// reduce-scatter phase of the ring allreduce, with per-rank output blocks).
func reduceScatterRing(a *Args) ([]float64, error) {
	if err := checkReduceScatterArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		out := clonev(seg(a.Data, 0, a.Count))
		chargeReduce(a, a.Count)
		return out, nil
	}
	buf := clonev(a.Data)
	next, prev := (me+1)%p, (me-1+p)%p
	// In step s, send the partial sum of block (me-s-1) mod p downstream and
	// fold the incoming partial into block (me-s-2) mod p. The last step
	// (s = p-2) accumulates block (me-p) mod p = me, so each rank finishes
	// holding the complete reduction of its own block.
	for s := 0; s < p-1; s++ {
		sc := (me - s - 1 + p) % p
		rc := (me - s - 2 + p) % p
		sLo := sc * a.Count
		rLo := rc * a.Count
		m := a.R.Sendrecv(next, a.Tag+s, clonev(seg(buf, sLo, sLo+a.Count)), a.Bytes(a.Count), prev, a.Tag+s)
		accumulate(a, seg(buf, rLo, rLo+a.Count), m.Data, a.Count)
	}
	return clonev(chunk(a, buf, me)), nil
}
