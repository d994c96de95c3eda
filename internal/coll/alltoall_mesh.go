package coll

import (
	"fmt"
	"sort"
)

// Mesh alltoall algorithms (SimGrid's 2dmesh / 3dmesh): ranks are arranged
// in a logical mesh and blocks are routed dimension by dimension, giving
// O(k * p^(1/k)) messages per rank instead of O(p) — a latency/bandwidth
// trade-off between Bruck and the flat algorithms.

func init() {
	register(Algorithm{Coll: Alltoall, Name: "2dmesh", SimGridName: "2dmesh", Run: alltoall2DMesh})
	register(Algorithm{Coll: Alltoall, Name: "3dmesh", SimGridName: "3dmesh", Run: alltoall3DMesh})
}

func alltoall2DMesh(a *Args) ([]float64, error) {
	return meshAlltoall(a, balancedFactors(a.size(), 2))
}

func alltoall3DMesh(a *Args) ([]float64, error) {
	return meshAlltoall(a, balancedFactors(a.size(), 3))
}

// balancedFactors splits p into k factors as close to p^(1/k) as possible
// (greedy largest-divisor search). Prime p degrades to {1,...,p}, making
// the mesh a single flat phase.
func balancedFactors(p, k int) []int {
	dims := make([]int, 0, k)
	rem := p
	for i := k; i > 1; i-- {
		target := int(root(float64(rem), i))
		d := 1
		for f := target; f >= 1; f-- {
			if rem%f == 0 {
				d = f
				break
			}
		}
		// Also consider the next divisor above target for balance.
		for f := target + 1; f <= rem; f++ {
			if rem%f == 0 {
				if abs64(float64(f)-root(float64(rem), i)) < abs64(float64(d)-root(float64(rem), i)) {
					d = f
				}
				break
			}
		}
		dims = append(dims, d)
		rem /= d
	}
	dims = append(dims, rem)
	sort.Ints(dims)
	return dims
}

func root(x float64, n int) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iteration is overkill; use exp/log via math-free loop:
	// binary search suffices for small integer use.
	lo, hi := 1.0, x
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		v := 1.0
		for j := 0; j < n; j++ {
			v *= mid
		}
		if v < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// meshBlock is one (origin, dst) block routed through the mesh; data is nil
// in timing mode.
type meshBlock struct {
	origin, dst int
	data        []float64
}

// meshAlltoall routes blocks through the mesh one dimension per phase: in
// phase i, a block moves to the rank whose dim-i coordinate matches the
// destination's, keeping all other coordinates.
func meshAlltoall(a *Args, dims []int) ([]float64, error) {
	if err := checkAlltoallArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	prod := 1
	for _, d := range dims {
		prod *= d
	}
	if prod != p {
		return nil, fmt.Errorf("coll: mesh dims %v do not cover %d ranks", dims, p)
	}

	coordOf := func(rank, dim int) int {
		for i := 0; i < dim; i++ {
			rank /= dims[i]
		}
		return rank % dims[dim]
	}
	withCoord := func(rank, dim, val int) int {
		stride := 1
		for i := 0; i < dim; i++ {
			stride *= dims[i]
		}
		cur := coordOf(rank, dim)
		return rank + (val-cur)*stride
	}

	// Initially this rank holds its own p blocks.
	held := make([]meshBlock, 0, p)
	for d := 0; d < p; d++ {
		held = append(held, meshBlock{origin: me, dst: d, data: clonev(chunk(a, a.Data, d))})
	}
	chargeCopy(a, p*a.Count)

	for dim := range dims {
		if dims[dim] == 1 {
			continue
		}
		myCoord := coordOf(me, dim)
		// Group held blocks by the destination's dim coordinate.
		groups := make([][]meshBlock, dims[dim])
		for _, b := range held {
			v := coordOf(b.dst, dim)
			groups[v] = append(groups[v], b)
		}
		keep := groups[myCoord]
		// Deterministic packing order.
		for v := range groups {
			sort.Slice(groups[v], func(i, j int) bool {
				if groups[v][i].dst != groups[v][j].dst {
					return groups[v][i].dst < groups[v][j].dst
				}
				return groups[v][i].origin < groups[v][j].origin
			})
		}
		// Exchange with every peer along this dimension.
		tag := a.Tag + dim + 1
		type pendingRecv struct {
			peer int
			req  *mpiRequest
		}
		var recvs []pendingRecv
		for v := 0; v < dims[dim]; v++ {
			if v == myCoord {
				continue
			}
			recvs = append(recvs, pendingRecv{peer: withCoord(me, dim, v), req: a.R.Irecv(withCoord(me, dim, v), tag)})
		}
		var sends []*mpiRequest
		for v := 0; v < dims[dim]; v++ {
			if v == myCoord {
				continue
			}
			peer := withCoord(me, dim, v)
			blocks := groups[v]
			// Wire format: [n, origin0, dst0, origin1, dst1, ..., payload...];
			// timing mode sends the routing header alone. Only the payload
			// is charged as wire bytes.
			msg := []float64{float64(len(blocks))}
			for _, b := range blocks {
				msg = append(msg, float64(b.origin), float64(b.dst))
			}
			for _, b := range blocks {
				msg = append(msg, b.data...)
			}
			chargeCopy(a, len(blocks)*a.Count)
			sends = append(sends, a.R.Isend(peer, tag, msg, a.Bytes(len(blocks)*a.Count)))
		}
		next := keep
		for _, pr := range recvs {
			m := pr.req.Wait()
			n := int(m.Data[0])
			hdr := m.Data[1 : 1+2*n]
			var payload []float64
			if a.Data != nil {
				payload = m.Data[1+2*n:]
			}
			for i := 0; i < n; i++ {
				next = append(next, meshBlock{
					origin: int(hdr[2*i]),
					dst:    int(hdr[2*i+1]),
					data:   clonev(chunk(a, payload, i)),
				})
			}
			chargeCopy(a, n*a.Count)
		}
		waitall(sends)
		held = next
	}

	res := newLike(a.Data, p*a.Count)
	for _, b := range held {
		if b.dst != me {
			return nil, fmt.Errorf("coll: mesh routing left a stray block (origin %d dst %d) at rank %d", b.origin, b.dst, me)
		}
		copy(chunk(a, res, b.origin), b.data)
	}
	chargeCopy(a, p*a.Count)
	return res, nil
}
