// Package netmodel describes simulated parallel platforms and their
// communication cost model.
//
// A platform is a two-level hierarchical cluster: Nodes compute nodes with
// CoresPerNode cores each, every node attached to a central switch. Ranks are
// mapped to nodes block-wise (rank r lives on node r / CoresPerNode), which
// matches the default "by node" placement used in the paper's experiments
// (32 nodes x 32 cores = 1024 processes).
//
// Message cost follows a LogGP-like model: a message occupies the sender's
// injection port for Bytes/Bandwidth, traverses the link with a fixed
// latency, and occupies the receiver's ejection port for Bytes/Bandwidth.
// Port serialization produces the incast and fan-out contention effects that
// distinguish collective algorithms from each other.
package netmodel

import (
	"fmt"
	"hash/fnv"
	"math"
)

// LinkClass identifies which latency/bandwidth tier a message traverses.
type LinkClass int

const (
	// LinkIntraNode connects two ranks on the same node (shared memory).
	LinkIntraNode LinkClass = iota
	// LinkInterNode connects two ranks on different nodes in the same group.
	LinkInterNode
	// LinkInterGroup connects ranks in different Dragonfly groups (used only
	// by platforms with GroupSize > 0, e.g. Discoverer).
	LinkInterGroup
)

func (c LinkClass) String() string {
	switch c {
	case LinkIntraNode:
		return "intra-node"
	case LinkInterNode:
		return "inter-node"
	case LinkInterGroup:
		return "inter-group"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// Link is one tier of the network.
type Link struct {
	// LatencyNs is the one-way wire latency in nanoseconds.
	LatencyNs int64
	// BandwidthBps is the sustained point-to-point bandwidth in bytes/second.
	BandwidthBps float64
}

// TransferNs returns the port occupancy time for bytes on this link.
func (l Link) TransferNs(bytes int) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(bytes) * 1e9 / l.BandwidthBps))
}

// Platform describes one parallel machine.
type Platform struct {
	// Name identifies the machine (e.g. "Hydra").
	Name string
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the number of ranks placed per node.
	CoresPerNode int
	// GroupSize, when > 0, is the number of nodes per Dragonfly group;
	// traffic between groups uses the InterGroup link tier.
	GroupSize int

	// Intra, Inter and InterGroup are the link tiers. InterGroup is ignored
	// when GroupSize == 0.
	Intra, Inter, InterGroup Link

	// OverheadNs is the per-message CPU send/receive overhead (the LogGP o
	// parameter): time a rank spends injecting or retiring one message,
	// independent of size.
	OverheadNs int64

	// EagerThresholdBytes is the protocol switch point: messages strictly
	// larger use the rendezvous protocol (sender waits for the receiver to
	// post a matching receive before moving data).
	EagerThresholdBytes int

	// MatchNsPerEntry models the receiver-side message-matching cost: each
	// arriving message pays this many nanoseconds per entry scanned in the
	// posted-receive queue (and each posted receive per unexpected-queue
	// entry). MPI matching is a linear scan, so algorithms that keep long
	// queues outstanding (e.g. linear alltoall at scale) pay an O(p) toll
	// per message that windowed or phased algorithms avoid. 0 disables.
	MatchNsPerEntry float64

	// ReduceNsPerByte models the cost of applying a reduction operator to a
	// received buffer (e.g. summing doubles), in nanoseconds per byte.
	ReduceNsPerByte float64

	// CopyNsPerByte models local memory copies (pack/unpack, self sends).
	CopyNsPerByte float64

	// FlopsPerRank is the per-core compute rate used by application models
	// (FT), in floating-point operations per second.
	FlopsPerRank float64

	// Noise is the machine's noise profile; the zero value means a noiseless,
	// perfectly reproducible machine (the simulation-study setting).
	Noise NoiseProfile

	// Clock is the machine's local-clock imperfection profile; the zero
	// value means perfectly synchronized clocks (the simulation setting).
	Clock ClockProfile
}

// NoiseProfile parameterizes system noise. All fields are dimensionless
// fractions unless stated otherwise. A zero profile disables noise.
type NoiseProfile struct {
	// Enabled turns noise on.
	Enabled bool
	// LinkJitterFrac is the std-dev of multiplicative lognormal jitter
	// applied to each message's latency (e.g. 0.08 = 8%).
	LinkJitterFrac float64
	// NodeImbalanceFrac is the std-dev of a per-node static compute-speed
	// imbalance factor, fixed for the lifetime of a run.
	NodeImbalanceFrac float64
	// RankImbalanceFrac is the std-dev of a per-rank static compute-speed
	// imbalance factor (core-to-core variation within a node).
	RankImbalanceFrac float64
	// OSJitterProb is the probability that any single compute phase is hit
	// by an OS noise event (daemon wakeup, page fault storm, ...).
	OSJitterProb float64
	// OSJitterMeanNs is the mean duration of one OS noise event.
	OSJitterMeanNs float64
	// Background is a constant fraction of network bandwidth consumed by
	// background traffic (reduces effective bandwidth).
	Background float64
}

// ClockProfile parameterizes local clock imperfection.
type ClockProfile struct {
	// Enabled turns imperfect clocks on; when false every rank reads true
	// global simulation time (the SimGrid setting).
	Enabled bool
	// MaxOffsetNs is the maximum initial offset magnitude between any local
	// clock and global time.
	MaxOffsetNs int64
	// MaxDriftPPM is the maximum clock drift in parts-per-million.
	MaxDriftPPM float64
}

// Size returns the total number of ranks the platform can host.
func (p *Platform) Size() int { return p.Nodes * p.CoresPerNode }

// NodeOf returns the node index hosting rank r (block placement).
func (p *Platform) NodeOf(r int) int { return r / p.CoresPerNode }

// GroupOf returns the Dragonfly group of rank r; 0 when groups are disabled.
func (p *Platform) GroupOf(r int) int {
	if p.GroupSize <= 0 {
		return 0
	}
	return p.NodeOf(r) / p.GroupSize
}

// Classify returns the link tier used between two ranks.
func (p *Platform) Classify(src, dst int) LinkClass {
	if p.NodeOf(src) == p.NodeOf(dst) {
		return LinkIntraNode
	}
	if p.GroupSize > 0 && p.GroupOf(src) != p.GroupOf(dst) {
		return LinkInterGroup
	}
	return LinkInterNode
}

// LinkFor returns the link parameters between two ranks, with background
// traffic already applied to the bandwidth.
func (p *Platform) LinkFor(src, dst int) Link {
	var l Link
	switch p.Classify(src, dst) {
	case LinkIntraNode:
		l = p.Intra
	case LinkInterGroup:
		l = p.InterGroup
	default:
		l = p.Inter
	}
	if p.Noise.Enabled && p.Noise.Background > 0 {
		l.BandwidthBps *= 1 - p.Noise.Background
	}
	return l
}

// Validate checks a platform for internally consistent parameters.
func (p *Platform) Validate() error {
	if p.Nodes <= 0 || p.CoresPerNode <= 0 {
		return fmt.Errorf("netmodel: %s: nodes (%d) and cores per node (%d) must be positive", p.Name, p.Nodes, p.CoresPerNode)
	}
	for _, l := range []struct {
		name string
		lk   Link
		used bool
	}{
		{"intra", p.Intra, true},
		{"inter", p.Inter, p.Nodes > 1},
		{"inter-group", p.InterGroup, p.GroupSize > 0},
	} {
		if !l.used {
			continue
		}
		if l.lk.BandwidthBps <= 0 {
			return fmt.Errorf("netmodel: %s: %s bandwidth must be positive", p.Name, l.name)
		}
		if l.lk.LatencyNs < 0 {
			return fmt.Errorf("netmodel: %s: %s latency must be non-negative", p.Name, l.name)
		}
	}
	if p.EagerThresholdBytes < 0 {
		return fmt.Errorf("netmodel: %s: eager threshold must be non-negative", p.Name)
	}
	if p.GroupSize > 0 && p.Nodes%p.GroupSize != 0 {
		return fmt.Errorf("netmodel: %s: nodes (%d) not divisible by group size (%d)", p.Name, p.Nodes, p.GroupSize)
	}
	return nil
}

// Fingerprint returns a stable content identity of the platform's full
// parameter set, "<name>#<16 hex digits>". Platform is a plain value struct
// (no pointers, no functions), so the printed form is a complete canonical
// serialization; two platforms with equal fingerprints behave identically
// in every simulation. The fingerprint ties decision-table artifacts to the
// machine model they were compiled for, so a drifted preset is detected
// instead of silently served.
func (p *Platform) Fingerprint() string {
	if p == nil {
		return "nil"
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *p)
	return fmt.Sprintf("%s#%016x", p.Name, h.Sum64())
}
