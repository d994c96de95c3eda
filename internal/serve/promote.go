package serve

import (
	"context"
	"fmt"
	"time"

	"collsel/internal/coll"
	"collsel/internal/store"
)

// A foreground cold compute, a model-tier refinement, an exact forwarded
// peer answer and a /peer/cell payload all end in promote, which installs
// the cell into the current table inside store.Handle.Update. A cold flight
// promotes its cell before it releases its key, so nothing recomputes it.

// maxNegative bounds the remembered cold failures.
const maxNegative = 4096

// cellKey names one cell under one selection provenance: the flight key
// and the negative-result key. It leaves out the table version, so
// promoting one cell does not re-key the others.
func cellKey(t *store.Table, c coll.Collective, procs, msgBytes int) string {
	return fmt.Sprintf("%s|%s|%d|%d", store.ProvenanceKey(t), c, procs, msgBytes)
}

// negEntry is a remembered cold failure and its remaining recompute budget.
type negEntry struct {
	errMsg  string
	retries int
}

// negativeHit reports whether key's remembered failure is to be served as
// is. A failure with retries left burns one and reports false, letting the
// caller recompute.
func (s *Server) negativeHit(key string) (string, bool) {
	s.negMu.Lock()
	defer s.negMu.Unlock()
	e, ok := s.negative[key]
	if ok && e.retries > 0 {
		e.retries--
		s.negative[key] = e
		return "", false
	}
	return e.errMsg, ok
}

// rememberFailure records a failure that says something durable about the
// cell (model drift, oversized procs), so that it does not re-occupy a
// worker on every repeat request. A full map drops an arbitrary entry.
func (s *Server) rememberFailure(key string, err error) {
	if s.cfg.NegativeRetries < 0 || isTransient(err) {
		return
	}
	s.negMu.Lock()
	defer s.negMu.Unlock()
	if _, ok := s.negative[key]; ok {
		return // a retry failed again: the budget keeps counting down
	}
	for k := range s.negative {
		if len(s.negative) < maxNegative {
			break
		}
		delete(s.negative, k)
	}
	s.negative[key] = negEntry{errMsg: err.Error(), retries: s.cfg.NegativeRetries}
}

// compute is the body of a cold flight: the cold selection for one cell
// under t's provenance, on a context detached from any request, then its
// promotion (landed: this call changed the table). A cell the current
// table already holds under that provenance is returned as is, so a query
// that missed on an older snapshot does not recompute a landed cell.
func (s *Server) compute(t *store.Table, c coll.Collective, procs, msgBytes int, key string) (cell store.Cell, landed bool, err error) {
	cur := s.handle.Table() // never nil again once t was installed
	if lk, ok := cur.Get(c, procs, msgBytes); ok && lk.Exact && store.ProvenanceKey(cur) == store.ProvenanceKey(t) {
		return lk.Cell, false, nil
	}
	ctx := context.Background()
	if s.cfg.SelectTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SelectTimeout)
		defer cancel()
	}
	release, err := s.cold.acquire(ctx)
	if err != nil {
		return store.Cell{}, false, err
	}
	defer release()
	// The breaker check sits after admission so an admitted probe is
	// guaranteed to run and be recorded — a probe refused by a full queue
	// would otherwise wedge the breaker in half-open.
	if !s.breaker.allow() {
		return store.Cell{}, false, errBreakerOpen
	}
	s.metrics.inflightCold.Add(1)
	defer s.metrics.inflightCold.Add(-1)
	s.metrics.coldComputes.Add(1)
	s.logf("cold select: %s %d procs %d B (table %s)", c, procs, msgBytes, t.Version)
	began := time.Now()
	cell, err = s.cfg.Cold(ctx, t, c, procs, msgBytes)
	s.breaker.record(time.Since(began), err)
	if err != nil {
		s.rememberFailure(key, err)
		return store.Cell{}, false, err
	}
	s.negMu.Lock()
	delete(s.negative, key)
	s.negMu.Unlock()
	landed = s.promote(t, c, procs, cell) == promoted
	s.shareCold(t, c, procs, cell)
	return cell, landed, nil
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
