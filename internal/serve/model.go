package serve

import (
	"collsel/internal/coll"
	"collsel/internal/model"
	"collsel/internal/store"
)

// The model rung answers every miss the peers leave: a /select query the
// table does not cover is answered at once from the analytical cost model
// (source "model", microseconds, never queued behind the simulation pool)
// while a background refinement runs the real simulation for the same
// cell and promotes the result into the hot table. The next query for the
// cell is a plain table hit; the model answer was only ever a bridge.
//
// The refinement is the only place the daemon simulates. One refinement
// gate (promote.go) decides whether it runs: it coalesces per cell, bounds
// the refinements in flight, remembers failures and holds the worker
// slots. It gates the work alone: a refused refinement is simply dropped —
// the client already has its model answer, and a later miss retriggers it.

// modelAnswer computes the analytical-model estimate for an uncovered
// cell under the table's provenance (machine, skew factor, seed). It
// refuses — leaving the query to the nearest compiled cell — when the
// table's machine is not a resolvable preset, has drifted from the
// compiled fingerprint, or cannot hold the requested communicator.
func (s *Server) modelAnswer(t *store.Table, c coll.Collective, procs, msgBytes int) (store.Cell, bool) {
	pl, err := t.Platform()
	if err != nil || procs > pl.Size() {
		return store.Cell{}, false
	}
	out, err := model.Select(model.Spec{
		Platform:   pl,
		Collective: c,
		MsgBytes:   msgBytes,
		Procs:      procs,
		Factor:     t.Factor,
		Seed:       t.Seed,
	})
	if err != nil || len(out.Ranking) == 0 {
		return store.Cell{}, false
	}
	return store.RankedCell(msgBytes, out.Ranking, out.Conventional), true
}

// refineAsync starts the background simulation that upgrades a model
// answer, if the refinement gate admits it. Nothing starts when
// simulation is disabled, when the cell is already being refined (one
// flight per cell key, so a burst of misses costs one simulation), when a
// remembered failure has spent its retries, or when the in-flight bound is
// reached (the refinement is shed). A /reload of a different artifact
// wins over the refinement, whose cell is dropped.
func (s *Server) refineAsync(t *store.Table, c coll.Collective, procs, msgBytes int) {
	if s.cfg.ColdDisabled {
		return
	}
	key := cellKey(t, c, procs, msgBytes)
	switch s.gate.admit(key) {
	case spent:
		s.metrics.negativeHits.Add(1)
		return
	case shedFull:
		s.metrics.shed.Add(1)
		return
	case inFlight:
		return
	}
	s.refineWG.Add(1)
	//collsel:goroutine one per admitted cell refinement, at most ColdWorkers+ColdQueue at once, joined by WaitBackground
	go func() {
		defer s.refineWG.Done()
		landed, err := s.refine(t, c, procs, msgBytes)
		s.gate.finish(key, err != nil)
		if landed {
			s.metrics.modelPromotions.Add(1)
		}
	}()
}

// WaitBackground blocks until every started background refinement has
// been promoted or dropped. Tests and orderly shutdown use it; the serving
// path never waits on it.
func (s *Server) WaitBackground() { s.refineWG.Wait() }
