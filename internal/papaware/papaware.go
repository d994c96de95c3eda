// Package papaware implements process-arrival-pattern-aware collective
// algorithms from the paper's related work (Sec. VI) as library
// extensions: schedules that adapt to the order in which processes
// actually arrive, instead of a fixed rank-order schedule.
//
//   - "arrival_linear" reduce: the root consumes child contributions in
//     completion order (MPI_Waitany), overlapping reduction compute with
//     late arrivals — the flat variant of Marendić et al.'s
//     imbalance-robust reduction.
//   - "hierarchical_arrival" reduce: node leaders reduce their node's
//     contributions in arrival order, then a binomial tree combines the
//     leaders — the inter/intra-node split of Parsons & Pai.
//   - "arrival_redbcast" allreduce: arrival-ordered reduce to rank 0
//     followed by a binomial broadcast — a simple PAP-aware allreduce in
//     the spirit of Proficz.
//
// The algorithms register themselves under the same registry as the
// built-in Open MPI set, so every harness (micro-benchmarks, robustness
// studies, the selector) can evaluate them side by side.
package papaware

import (
	"fmt"

	"collsel/internal/coll"
	"collsel/internal/mpi"
)

func init() {
	mustRegister(coll.Algorithm{Coll: coll.Reduce, Name: "arrival_linear", Abbrev: "PAP-Lin", Run: reduceArrivalLinear})
	mustRegister(coll.Algorithm{Coll: coll.Reduce, Name: "hierarchical_arrival", Abbrev: "PAP-Hier", Run: reduceHierarchicalArrival})
	mustRegister(coll.Algorithm{Coll: coll.Allreduce, Name: "arrival_redbcast", Abbrev: "PAP-RB", Run: allreduceArrivalRedBcast})
}

func mustRegister(al coll.Algorithm) {
	if err := coll.Register(al); err != nil {
		panic(fmt.Sprintf("papaware: %v", err))
	}
}

// Algorithms returns the PAP-aware extension set for a collective.
func Algorithms(c coll.Collective) []coll.Algorithm {
	var out []coll.Algorithm
	for _, name := range []string{"arrival_linear", "hierarchical_arrival", "arrival_redbcast"} {
		if al, ok := coll.ByName(c, name); ok {
			out = append(out, al)
		}
	}
	return out
}

// reduceArrivalLinear: non-roots send to the root; the root accumulates
// contributions in the order they complete, so an early buffer never waits
// behind a late lower-ranked one (valid for commutative operators).
func reduceArrivalLinear(a *coll.Args) ([]float64, error) {
	p, me, root := a.R.Size(), a.R.ID(), a.Root
	if err := validateReduceArgs(a); err != nil {
		return nil, err
	}
	if p == 1 {
		return cloneVec(a.Data), nil
	}
	if me != root {
		a.R.Send(root, a.Tag, a.Data, a.Bytes(a.Count))
		return nil, nil
	}
	res := cloneVec(a.Data)
	reqs := make([]*mpi.Request, 0, p-1)
	for s := 0; s < p; s++ {
		if s != root {
			reqs = append(reqs, a.R.Irecv(s, a.Tag))
		}
	}
	remaining := len(reqs)
	for remaining > 0 {
		i, m := mpi.WaitAny(reqs)
		reqs[i] = nil
		remaining--
		accumulateVec(a, res, m.Data)
	}
	return res, nil
}

// reduceHierarchicalArrival: the lowest rank of each node acts as leader;
// node members send to their leader, who reduces in arrival order; leaders
// combine over a binomial tree rooted at the root's leader; the root's
// leader forwards to the root if they differ.
func reduceHierarchicalArrival(a *coll.Args) ([]float64, error) {
	p, me, root := a.R.Size(), a.R.ID(), a.Root
	if err := validateReduceArgs(a); err != nil {
		return nil, err
	}
	if p == 1 {
		return cloneVec(a.Data), nil
	}
	plat := a.R.World().Platform()
	nodeOf := func(r int) int { return plat.NodeOf(r) }
	leaderOf := func(node int) int {
		// Lowest rank on the node that exists in this communicator.
		l := node * plat.CoresPerNode
		if l >= p {
			l = p - 1
		}
		return l
	}
	myNode := nodeOf(me)
	myLeader := leaderOf(myNode)

	// Intra-node phase, arrival-ordered.
	buf := cloneVec(a.Data)
	if me != myLeader {
		a.R.Send(myLeader, a.Tag, buf, a.Bytes(a.Count))
	} else {
		var reqs []*mpi.Request
		for r := myNode * plat.CoresPerNode; r < (myNode+1)*plat.CoresPerNode && r < p; r++ {
			if r != me {
				reqs = append(reqs, a.R.Irecv(r, a.Tag))
			}
		}
		remaining := len(reqs)
		for remaining > 0 {
			i, m := mpi.WaitAny(reqs)
			reqs[i] = nil
			remaining--
			accumulateVec(a, buf, m.Data)
		}
	}

	// Inter-node phase: binomial over leaders, rooted at the root's leader.
	rootLeader := leaderOf(nodeOf(root))
	if me == myLeader {
		nLeaders := (p + plat.CoresPerNode - 1) / plat.CoresPerNode
		myIdx := myNode
		rootIdx := nodeOf(root)
		v := (myIdx - rootIdx + nLeaders) % nLeaders
		interTag := a.Tag + 1
		// Receive from children leaders (arrival-ordered), send to parent.
		var childReqs []*mpi.Request
		for bit := 1; bit < nLeaders; bit <<= 1 {
			if v&bit != 0 {
				break
			}
			cv := v | bit
			if cv < nLeaders {
				child := leaderOf((cv + rootIdx) % nLeaders)
				childReqs = append(childReqs, a.R.Irecv(child, interTag))
			}
		}
		remaining := len(childReqs)
		for remaining > 0 {
			i, m := mpi.WaitAny(childReqs)
			childReqs[i] = nil
			remaining--
			accumulateVec(a, buf, m.Data)
		}
		if v != 0 {
			low := v & (-v)
			parent := leaderOf(((v ^ low) + rootIdx) % nLeaders)
			a.R.Send(parent, interTag, buf, a.Bytes(a.Count))
		} else if me != root {
			a.R.Send(root, a.Tag+2, buf, a.Bytes(a.Count))
			return nil, nil
		} else {
			return buf, nil
		}
		return nil, nil
	}
	if me == root && rootLeader != root {
		m := a.R.Recv(rootLeader, a.Tag+2)
		return m.Data, nil
	}
	return nil, nil
}

// allreduceArrivalRedBcast: arrival-ordered reduce to rank 0, then a
// binomial broadcast back out.
func allreduceArrivalRedBcast(a *coll.Args) ([]float64, error) {
	if err := validateReduceArgs(a); err != nil {
		return nil, err
	}
	sub := *a
	sub.Root = 0
	red, err := reduceArrivalLinear(&sub)
	if err != nil {
		return nil, err
	}
	bcastAlg, ok := coll.ByID(coll.Bcast, 6)
	if !ok {
		return nil, fmt.Errorf("papaware: binomial bcast missing")
	}
	bc := *a
	bc.Root = 0
	bc.Data = red
	bc.Tag = a.Tag + 4096
	return bcastAlg.Run(&bc)
}

// --- small local helpers (the coll package keeps its own private) -----------

func validateReduceArgs(a *coll.Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("papaware: count must be positive")
	}
	if a.Data != nil && len(a.Data) != a.Count {
		return fmt.Errorf("papaware: rank %d data length %d != count %d", a.R.ID(), len(a.Data), a.Count)
	}
	if a.Root < 0 || a.Root >= a.R.Size() {
		return fmt.Errorf("papaware: root %d out of range", a.Root)
	}
	return nil
}

// cloneVec copies v; nil (timing mode, see package coll) stays nil.
func cloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// accumulateVec adds src into dst and charges the reduction cost of one
// Count-element vector; in timing mode (nil src) only the cost is charged.
func accumulateVec(a *coll.Args, dst, src []float64) {
	for i := range src {
		dst[i] += src[i]
	}
	plat := a.R.World().Platform()
	ns := int64(plat.ReduceNsPerByte * float64(a.Bytes(a.Count)))
	if ns > 0 {
		a.R.Compute(ns)
	}
}
