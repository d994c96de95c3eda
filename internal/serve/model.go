package serve

import (
	"collsel/internal/coll"
	"collsel/internal/model"
	"collsel/internal/store"
)

// The model tier is the middle rung of the answer ladder: a /select query
// the table does not cover is answered instantly from the analytical cost
// model (source "model", microseconds, never queued behind the simulation
// pool) while a background refinement runs the real simulation for the
// same cell and promotes the result into the hot table. The next query for
// the cell is a plain table hit; the model answer was only ever a bridge.
//
// The refinement is a cold flight like a foreground compute — same flight
// key, admission pool, circuit breaker and promotion (promote.go) — so
// model-triggered background work competes for the same bounded resources
// as foreground cold selections and can never saturate the process. When
// the pool sheds or the breaker is open the refinement is simply dropped;
// the client already has its model answer, and a later query retriggers
// it.

// modelAnswer computes the analytical-model estimate for an uncovered
// cell under the table's provenance (machine, skew factor, seed). It
// refuses — sending the request down the ladder — when the table's
// machine is not a resolvable preset, has drifted from the compiled
// fingerprint, or cannot hold the requested communicator.
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
// answer, as the leader of key's flight; when a foreground compute or
// another refinement already leads it, nothing starts. A /reload of a
// different artifact wins over the refinement, whose cell is dropped.
func (s *Server) refineAsync(t *store.Table, c coll.Collective, procs, msgBytes int, key string) {
	f, leader := s.flights.join(key)
	if !leader {
		return
	}
	s.refineWG.Add(1)
	//collsel:goroutine one per cell flight, joined by WaitBackground; admission in compute borrows a cold worker slot
	go func() {
		defer s.refineWG.Done()
		cell, landed, err := s.compute(t, c, procs, msgBytes, key)
		if landed {
			s.metrics.modelPromotions.Add(1)
		}
		s.flights.finish(key, f, cell, err)
	}()
}

// WaitBackground blocks until every started background refinement has
// been promoted or dropped. Tests and orderly shutdown use it; the serving
// path never waits on it.
func (s *Server) WaitBackground() { s.refineWG.Wait() }
