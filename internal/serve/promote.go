package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"collsel/internal/coll"
	"collsel/internal/store"
)

// A refinement, an exact forwarded peer answer and a /peer/cell payload
// all end in promote, which installs the cell into the current table
// inside store.Handle.Update. A refinement promotes its cell before it
// leaves the refinement gate, so nothing recomputes it.

const (
	// refineRetries is how many more times a cell whose refinement failed
	// is refined again; after that its remembered failure suppresses it.
	refineRetries = 2
	// maxNegative bounds the remembered refinement failures.
	maxNegative = 4096
)

// cellKey names one cell under one selection provenance: the refinement
// gate's key. It leaves out the table version, so promoting one cell does
// not re-key the others.
func cellKey(t *store.Table, c coll.Collective, procs, msgBytes int) string {
	return fmt.Sprintf("%s|%s|%d|%d", store.ProvenanceKey(t), c, procs, msgBytes)
}

// refineGate is the one gate in front of the live selection. cells holds
// every cell with a refinement in flight or a remembered failure; at most
// bound refinements are in flight, so a burst of distinct misses costs at
// most ColdWorkers running and ColdQueue waiting selections, and the rest
// are shed. sem holds one slot per running selection.
type refineGate struct {
	mu       sync.Mutex
	cells    map[string]gateCell
	inflight int
	bound    int
	sem      chan struct{}
	waiting  atomic.Int64 // refinements blocked on sem, for /metrics
}

// gateCell is one cell's entry: a refinement in flight, or a failed one
// that may still be refined retries more times.
type gateCell struct {
	running bool
	retries int
}

// admission is what the gate decided about one refinement.
type admission int

const (
	admitted admission = iota
	inFlight           // coalesced into the cell's running refinement
	spent              // a remembered failure with no retries left
	shedFull           // the in-flight bound is reached
)

func newRefineGate(workers, queue int) *refineGate {
	return &refineGate{cells: map[string]gateCell{}, bound: workers + queue, sem: make(chan struct{}, workers)}
}

// admit is the single check-and-insert of a refinement for key. A retry
// of a remembered failure burns one of its retries.
func (g *refineGate) admit(key string) admission {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.cells[key]
	switch {
	case e.running:
		return inFlight
	case ok && e.retries == 0:
		return spent
	case g.inflight >= g.bound:
		return shedFull
	}
	if ok {
		e.retries--
	} else {
		e.retries = refineRetries
	}
	e.running = true
	g.cells[key] = e
	g.inflight++
	return admitted
}

// acquire blocks until a worker slot is free. The in-flight bound caps
// how many refinements wait here.
func (g *refineGate) acquire() {
	g.waiting.Add(1)
	g.sem <- struct{}{}
	g.waiting.Add(-1)
}

func (g *refineGate) release() { <-g.sem }

// finish ends key's refinement: a success forgets the cell, a failure is
// remembered with the retries left. A full failure set drops an arbitrary
// other remembered failure.
func (g *refineGate) finish(key string, failed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if !failed {
		delete(g.cells, key)
		return
	}
	g.cells[key] = gateCell{retries: g.cells[key].retries}
	for k, e := range g.cells {
		if len(g.cells)-g.inflight <= maxNegative {
			break
		}
		if !e.running && k != key {
			delete(g.cells, k)
		}
	}
}

// refine is the body of a refinement: the live selection for one cell
// under t's provenance, on a context detached from any request, then its
// promotion. It reports whether the promotion changed the table, and the
// selection's error. A cell the current table already holds under that
// provenance is not recomputed, so a miss on an older snapshot does not
// redo a landed cell. The SelectTimeout deadline starts once a worker slot
// is held, so a failure, a timeout included, is the cell's own.
func (s *Server) refine(t *store.Table, c coll.Collective, procs, msgBytes int) (landed bool, err error) {
	cur := s.handle.Table() // never nil again once t was installed
	if lk, ok := cur.Get(c, procs, msgBytes); ok && lk.Exact && store.ProvenanceKey(cur) == store.ProvenanceKey(t) {
		return false, nil
	}
	s.gate.acquire()
	defer s.gate.release()
	ctx := context.Background()
	if s.cfg.SelectTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SelectTimeout)
		defer cancel()
	}
	s.metrics.inflightCold.Add(1)
	defer s.metrics.inflightCold.Add(-1)
	s.metrics.coldComputes.Add(1)
	s.logf("refine: %s %d procs %d B (table %s)", c, procs, msgBytes, t.Version)
	cell, err := s.cfg.Cold(ctx, t, c, procs, msgBytes)
	if err != nil {
		s.logf("refine %s %d procs %d B failed: %v", c, procs, msgBytes, err)
		return false, err
	}
	landed = s.promote(t, c, procs, cell) == promoted
	s.shareCold(t, c, procs, cell)
	return landed, nil
}

// promotion is what promote did with a cell.
type promotion int

const (
	promoted  promotion = iota // the cell entered the serving table
	unchanged                  // the table already held an identical cell
	dropped                    // the table's provenance changed, or the cell was unusable
)

// promote installs cell at (c, procs) into the current table if that table
// still has under's selection provenance; otherwise the cell answers for a
// different table and is dropped. A cell identical to the one already
// there changes nothing and keeps the version.
func (s *Server) promote(under *store.Table, c coll.Collective, procs int, cell store.Cell) promotion {
	res := dropped
	// WithCell fails only on non-positive coordinates, which no caller
	// passes; such a cell is dropped like one of another provenance.
	nt, _ := s.handle.Update(func(cur *store.Table) (*store.Table, error) {
		if store.ProvenanceKey(cur) != store.ProvenanceKey(under) {
			return nil, nil
		}
		nt, err := store.WithCell(cur, c, procs, cell)
		if err == nil && nt.Version == cur.Version {
			res, nt = unchanged, nil
		}
		return nt, err
	})
	if nt != nil {
		res = promoted
		s.metrics.promotions.Add(1)
		s.logf("promoted %s %d procs %d B into table %s", c, procs, cell.MsgBytes, nt.Version)
	}
	return res
}
