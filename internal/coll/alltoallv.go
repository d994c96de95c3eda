package coll

import (
	"fmt"

	"collsel/internal/mpi"
)

// Alltoallv: the irregular alltoall, where every (source, destination)
// pair may exchange a different element count. Open MPI ships two
// implementations (coll_basic linear and coll_tuned pairwise); both are
// reproduced here. Irregular exchanges are where arrival patterns meet
// data imbalance — the combination the paper's related work on PAP-aware
// scatter/gather (Proficz) targets.
//
// Args usage: Counts[d] is the element count this rank sends to rank d;
// Data holds the concatenated chunks (sum(Counts) elements). The result is
// the concatenation of the received chunks in source-rank order; since the
// runtime's messages are self-describing, receive counts need not be
// specified separately. Timing mode (nil Data) charges sends from Counts and
// returns nil.

func init() {
	register(Algorithm{Coll: Alltoallv, ID: 1, Name: "basic_linear", Abbrev: "Lin", Run: alltoallvBasicLinear})
	register(Algorithm{Coll: Alltoallv, ID: 2, Name: "pairwise", Abbrev: "Pair", Run: alltoallvPairwise})
}

func checkAlltoallvArgs(a *Args) error {
	p := a.size()
	if len(a.Counts) != p {
		return fmt.Errorf("coll: rank %d alltoallv needs %d counts, got %d", a.me(), p, len(a.Counts))
	}
	total := 0
	for d, c := range a.Counts {
		if c < 0 {
			return fmt.Errorf("coll: negative count %d for destination %d", c, d)
		}
		total += c
	}
	if a.Data != nil && len(a.Data) != total {
		return fmt.Errorf("coll: rank %d alltoallv data length %d != sum(counts) %d", a.me(), len(a.Data), total)
	}
	return nil
}

// vchunk returns the slice of Data destined to rank d under Counts.
func vchunk(a *Args, d int) []float64 {
	off := 0
	for i := 0; i < d; i++ {
		off += a.Counts[i]
	}
	return seg(a.Data, off, off+a.Counts[d])
}

// assembleV concatenates per-source chunks in rank order (nil in timing
// mode).
func assembleV(a *Args, chunks [][]float64) []float64 {
	if a.Data == nil {
		return nil
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]float64, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// alltoallvBasicLinear: post all receives and sends at once (coll_basic).
func alltoallvBasicLinear(a *Args) ([]float64, error) {
	if err := checkAlltoallvArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	chunks := make([][]float64, p)
	chunks[me] = clonev(vchunk(a, me))
	chargeCopy(a, a.Counts[me])
	if p == 1 {
		return assembleV(a, chunks), nil
	}
	recvs := make([]*mpi.Request, 0, p-1)
	srcs := make([]int, 0, p-1)
	for i := 1; i < p; i++ {
		src := (me + i) % p
		recvs = append(recvs, a.R.Irecv(src, a.Tag))
		srcs = append(srcs, src)
	}
	sends := make([]*mpi.Request, 0, p-1)
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		sends = append(sends, a.R.Isend(dst, a.Tag, clonev(vchunk(a, dst)), a.Bytes(a.Counts[dst])))
	}
	for i, q := range recvs {
		m := q.Wait()
		chunks[srcs[i]] = m.Data
	}
	waitall(sends)
	return assembleV(a, chunks), nil
}

// alltoallvPairwise: p-1 sendrecv rounds with (me+s)/(me-s) partners.
func alltoallvPairwise(a *Args) ([]float64, error) {
	if err := checkAlltoallvArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	chunks := make([][]float64, p)
	chunks[me] = clonev(vchunk(a, me))
	chargeCopy(a, a.Counts[me])
	for s := 1; s < p; s++ {
		sendTo := (me + s) % p
		recvFrom := (me - s + p) % p
		m := a.R.Sendrecv(sendTo, a.Tag+s, clonev(vchunk(a, sendTo)), a.Bytes(a.Counts[sendTo]), recvFrom, a.Tag+s)
		chunks[recvFrom] = m.Data
	}
	return assembleV(a, chunks), nil
}
