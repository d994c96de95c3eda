// Package cluster is the replication layer of the serving tier: a static
// peer list consistent-hashed over the (collective, procs, size-bin,
// factor) cell keyspace, a heartbeat-driven peer health state machine
// (alive → suspect → dead), hedged cold-query forwarding under a global
// retry/hedge budget, and peer cold-result sharing.
//
// The layer is an optimization, never a dependency: every routing decision
// degrades to "simulate locally through the existing cold path" when the
// owner is suspect, dead, partitioned or the budget is spent, so a failed
// replica can slow answers down but can never turn into a client-visible
// failure. All state transitions run on an injectable clock and every
// collaborator (transport, prober) is a seam, so the whole failover story
// is tested deterministically.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
)

// Ring is an immutable consistent-hash ring over the peer set. Every peer
// is hashed at vnodes points; a key is owned by the first peer point at or
// after the key's hash. All replicas build the ring from the same -peers
// list, so every replica computes the same owner for every cell without
// any coordination.
type Ring struct {
	points []ringPoint
	peers  []string
}

type ringPoint struct {
	hash uint64
	peer string
}

// DefaultVNodes is the virtual-node count per peer: enough to spread a
// handful of replicas evenly over the keyspace.
const DefaultVNodes = 64

// NewRing builds a ring over peers (order-insensitive: the ring depends
// only on the set). vnodes <= 0 uses DefaultVNodes.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		r.peers = append(r.peers, p)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", p, v)), peer: p})
		}
	}
	sort.Strings(r.peers)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// Peers returns the sorted peer set.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning key.
func (r *Ring) Owner(key string) string {
	return r.points[r.at(hash64(key))].peer
}

// Successors returns up to n distinct peers in ring order starting at the
// key's owner: the owner first, then the failover candidates in the order
// hedged forwards should try them.
func (r *Ring) Successors(key string, n int) []string {
	if n > len(r.peers) {
		n = len(r.peers)
	}
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := r.at(hash64(key)); len(out) < n; i = (i + 1) % len(r.points) {
		p := r.points[i].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// at finds the index of the first point at or after h, wrapping.
func (r *Ring) at(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// CellKey canonicalizes a query into its ownership key. Message sizes are
// folded into power-of-two bins (the same binning the feedback loop's skew
// profiles use), so every query landing in one table bin routes to one
// owner and the owner's table cells (compiled or promoted) serve it. The
// skew factor is part of the key: tables recompiled under a different
// empirical factor are different keyspaces.
func CellKey(collective string, procs, msgBytes int, factor float64) string {
	return fmt.Sprintf("%s|%d|%d|%g", collective, procs, sizeBin(msgBytes), factor)
}

// sizeBin returns the power-of-two bin index of msgBytes (0 for <=1).
func sizeBin(msgBytes int) int {
	if msgBytes <= 1 {
		return 0
	}
	return bits.Len64(uint64(msgBytes - 1))
}
