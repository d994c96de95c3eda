// Package coll implements the MPI collective communication algorithms the
// paper studies: every Open MPI 4.1.x algorithm from Table II (Reduce,
// Allreduce, Alltoall) plus the SimGrid-named variants used in the
// simulation study (Fig. 4) and the supporting collectives (Bcast, Gather,
// Scatter, Allgather, Barrier) they are built from.
//
// Algorithms are pure schedules over the mpi runtime's point-to-point
// operations. Every message is charged by element count (Args.Count and
// Args.ElemSize), never by the length of a payload, which lets experiments
// express the paper's 2 B ... 1 MiB message range. Each algorithm runs in
// one of two modes, chosen by its input:
//
//   - Timing mode (Args.Data == nil on every rank): the schedule runs on
//     sizes alone. Messages carry no payload, reductions charge their
//     compute cost without doing the arithmetic, and local copies are
//     charged without copying. The makespan is the same as in data mode,
//     so algorithm selection runs this way, without payload-sized memory.
//   - Data mode (non-nil inputs): the same schedule also moves real
//     payloads, so results are checkable — a reduce really sums vectors,
//     an alltoall really transposes chunks.
package coll

import (
	"fmt"
	"math"

	"collsel/internal/mpi"
)

// Collective enumerates the supported operations.
type Collective int

const (
	Reduce Collective = iota
	Allreduce
	Alltoall
	Bcast
	Allgather
	Gather
	Scatter
	Barrier
	ReduceScatter
	Alltoallv
)

var collNames = map[Collective]string{
	Reduce:        "reduce",
	Allreduce:     "allreduce",
	Alltoall:      "alltoall",
	Bcast:         "bcast",
	Allgather:     "allgather",
	Gather:        "gather",
	Scatter:       "scatter",
	Barrier:       "barrier",
	ReduceScatter: "reduce_scatter",
	Alltoallv:     "alltoallv",
}

func (c Collective) String() string {
	if n, ok := collNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Collective(%d)", int(c))
}

// CollectiveByName returns the collective with the given lowercase name.
func CollectiveByName(name string) (Collective, bool) {
	for c, n := range collNames {
		if n == name {
			return c, true
		}
	}
	return 0, false
}

// Args carries one rank's view of a collective invocation.
type Args struct {
	// R is the calling rank.
	R *mpi.Rank
	// Root is the root rank for rooted collectives (Reduce, Bcast, Gather,
	// Scatter); ignored otherwise.
	Root int
	// Data is this rank's input. Reduce/Allreduce/Bcast(root)/Gather: Count
	// elements. Alltoall/Scatter(root)/ReduceScatter: Count*p elements (p
	// chunks of Count). Ranks that only receive (non-root Bcast/Scatter)
	// pass nil. Algorithms treat Data as read-only, so callers may reuse
	// one buffer across invocations.
	//
	// A nil Data on every rank selects timing mode (see the package doc):
	// the algorithm runs the same schedule with the same charges and
	// returns a nil result. A non-nil Data of the wrong length is an error.
	Data []float64
	// Count is the number of elements per destination (Alltoall, Scatter,
	// Gather, Allgather) or the total vector length (Reduce, Allreduce,
	// Bcast).
	Count int
	// ElemSize is the wire size of one element in bytes; 0 defaults to 8.
	// The paper's message sizes map to Count*ElemSize (rooted/non-rooted
	// vectors) or Count*ElemSize per pair (Alltoall).
	ElemSize int
	// SegCount overrides the segment size (in elements) used by segmented
	// algorithms; 0 uses each algorithm's default.
	SegCount int
	// Counts carries per-destination element counts for irregular
	// collectives (Alltoallv); nil elsewhere.
	Counts []int
	// Tag is the base tag for this invocation; callers running collectives
	// back to back must use distinct bases (see NextTag).
	Tag int
}

func (a *Args) size() int { return a.R.Size() }
func (a *Args) me() int   { return a.R.ID() }

func (a *Args) elemSize() int {
	if a.ElemSize <= 0 {
		return 8
	}
	return a.ElemSize
}

// Bytes returns the wire size of n elements.
func (a *Args) Bytes(n int) int { return n * a.elemSize() }

// segCount returns the effective segment size given an algorithm default.
func (a *Args) segCount(def int) int {
	sc := a.SegCount
	if sc <= 0 {
		sc = def
	}
	if sc <= 0 || sc > a.Count {
		sc = a.Count
	}
	return sc
}

// tagSpan is the tag range reserved per collective invocation.
const tagSpan = 1 << 14

// NextTag returns a fresh base tag for a collective invocation on this
// world. All ranks call collectives in the same order (SPMD), so per-rank
// counters stay aligned.
func NextTag(r *mpi.Rank) int {
	return 1<<24 + r.NextCollSeq()*tagSpan
}

// Func runs one collective algorithm for the calling rank and returns the
// rank's output vector (nil where the operation has no local output, e.g.
// Reduce on a non-root).
type Func func(a *Args) ([]float64, error)

// Algorithm is one registered implementation.
type Algorithm struct {
	Coll Collective
	// ID is the Open MPI coll_tuned algorithm id from Table II (0 when the
	// algorithm is not part of the Table II set).
	ID int
	// Name is the canonical lowercase name, e.g. "binomial".
	Name string
	// Abbrev is the Table II abbreviation, e.g. "Binom".
	Abbrev string
	// SimGridName is the SMPI selector name used in the Fig. 4 study
	// (empty when the variant has no SimGrid counterpart).
	SimGridName string
	Run         Func
}

func (al Algorithm) String() string {
	if al.ID > 0 {
		return fmt.Sprintf("%s/%d:%s", al.Coll, al.ID, al.Name)
	}
	return fmt.Sprintf("%s/%s", al.Coll, al.Name)
}

var registry = map[Collective][]Algorithm{}

func register(al Algorithm) {
	registry[al.Coll] = append(registry[al.Coll], al)
}

// Algorithms returns the registered algorithms for c in registration order
// (Table II IDs first, ascending).
func Algorithms(c Collective) []Algorithm {
	out := make([]Algorithm, len(registry[c]))
	copy(out, registry[c])
	return out
}

// TableII returns only the algorithms with Open MPI Table II IDs, ascending.
func TableII(c Collective) []Algorithm {
	var out []Algorithm
	for _, al := range registry[c] {
		if al.ID > 0 {
			out = append(out, al)
		}
	}
	return out
}

// ByID returns the Table II algorithm with the given id.
func ByID(c Collective, id int) (Algorithm, bool) {
	for _, al := range registry[c] {
		if al.ID == id {
			return al, true
		}
	}
	return Algorithm{}, false
}

// ByName returns the algorithm with the given canonical or SimGrid name.
func ByName(c Collective, name string) (Algorithm, bool) {
	for _, al := range registry[c] {
		if al.Name == name || (al.SimGridName != "" && al.SimGridName == name) {
			return al, true
		}
	}
	return Algorithm{}, false
}

// Register adds a user-defined algorithm to the registry (the extension
// point exercised by examples/custom-algorithm). Registering a duplicate
// (Coll, Name) pair returns an error.
func Register(al Algorithm) error {
	if al.Run == nil {
		return fmt.Errorf("coll: algorithm %q has nil Run", al.Name)
	}
	if al.Name == "" {
		return fmt.Errorf("coll: algorithm must be named")
	}
	if _, dup := ByName(al.Coll, al.Name); dup {
		return fmt.Errorf("coll: %s algorithm %q already registered", al.Coll, al.Name)
	}
	register(al)
	return nil
}

// Istart launches a collective algorithm as a non-blocking operation on a
// progress actor (the simulator's MPI_Icollective): the schedule overlaps
// the caller's computation while competing for the same network ports.
// The caller must eventually Wait on the returned handle; the Args must
// use a dedicated tag base (NextTag) so concurrent operations cannot
// collide.
func Istart(al Algorithm, a *Args) *mpi.AsyncOp {
	return a.R.StartAsync("i"+al.Coll.String(), func() ([]float64, error) {
		return al.Run(a)
	})
}

// --- shared helpers ---------------------------------------------------------

// mpiRequest is a local alias to keep schedule code compact.
type mpiRequest = mpi.Request

// waitall waits for a slice of requests in order, like mpi.Waitall but
// without materializing the (discarded) message slice.
func waitall(reqs []*mpi.Request) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

// The helpers below keep timing mode payload-free: a nil buffer stands for
// a payload that is never materialized, and stays nil through slicing,
// cloning and allocation.

// seg returns v[lo:hi], or nil when v is nil.
func seg(v []float64, lo, hi int) []float64 {
	if v == nil {
		return nil
	}
	return v[lo:hi]
}

// newLike returns a zeroed n-element buffer, or nil when like is nil: a
// result or scratch buffer exists only in data mode.
func newLike(like []float64, n int) []float64 {
	if like == nil {
		return nil
	}
	return make([]float64, n)
}

// clonev returns a copy of v (nil for nil input, non-nil otherwise).
func clonev(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// accumulate adds src into dst element-wise and charges the reduction-op
// cost of n elements; in timing mode (nil src) only the cost is charged.
func accumulate(a *Args, dst, src []float64, n int) {
	for i := range src {
		dst[i] += src[i]
	}
	chargeReduce(a, n)
}

// chargeReduce advances the rank by the reduction-op cost of n elements.
func chargeReduce(a *Args, n int) {
	p := a.R.World().Platform()
	ns := int64(p.ReduceNsPerByte * float64(a.Bytes(n)))
	if ns > 0 {
		a.R.Compute(ns)
	}
}

// chargeCopy advances the rank by the local-copy cost of n elements.
func chargeCopy(a *Args, n int) {
	p := a.R.World().Platform()
	ns := int64(p.CopyNsPerByte * float64(a.Bytes(n)))
	if ns > 0 {
		a.R.SleepNs(ns)
	}
}

// checkReduceArgs validates the common argument shape for reduction-style
// collectives.
func checkReduceArgs(a *Args) error {
	if a.Count <= 0 {
		return fmt.Errorf("coll: count must be positive, got %d", a.Count)
	}
	if a.Data != nil && len(a.Data) != a.Count {
		return fmt.Errorf("coll: rank %d data length %d != count %d", a.me(), len(a.Data), a.Count)
	}
	if a.Root < 0 || a.Root >= a.size() {
		return fmt.Errorf("coll: root %d out of range", a.Root)
	}
	return nil
}

func ceilDiv(x, y int) int { return (x + y - 1) / y }

// nearestPow2LE returns the largest power of two <= n.
func nearestPow2LE(n int) int {
	return 1 << int(math.Floor(math.Log2(float64(n))))
}
