package serve

import (
	"net/http"
	"sync/atomic"
)

// Health states, in degradation order. The state is derived, not stored:
// draining wins (the operator asked the process to go away), then no
// table, then degraded (the breaker is refusing refinements), then
// healthy. Deriving it from the underlying facts means the machine can
// never be left stale by a missed transition.
const (
	HealthHealthy  = "healthy"
	HealthDegraded = "degraded"
	HealthDraining = "draining"
)

// drainFlag is the one piece of health state that is an explicit input
// rather than derived: SIGTERM (or StartDrain) latches it.
type drainFlag struct{ v atomic.Bool }

func (d *drainFlag) start()       { d.v.Store(true) }
func (d *drainFlag) active() bool { return d.v.Load() }

// StartDrain moves the server into the draining state: /healthz flips to
// 503 so load balancers stop routing new traffic, while in-flight and
// straggler requests keep being answered. It is latched — there is no way
// back short of a restart, matching the SIGTERM contract.
func (s *Server) StartDrain() {
	if !s.drain.active() {
		s.drain.start()
		s.logf("drain started: /healthz now reports draining")
	}
}

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.drain.active() }

// healthState derives the current health state and the HTTP status code
// /healthz should answer with. healthy and degraded both return 200 — a
// degraded server still answers every query, it just refines no misses —
// while draining and no-table return 503 to pull the instance out of
// rotation.
func (s *Server) healthState() (state string, code int) {
	if s.drain.active() {
		return HealthDraining, http.StatusServiceUnavailable
	}
	if s.handle.Table() == nil {
		return "no table", http.StatusServiceUnavailable
	}
	if st, _ := s.breaker.snapshot(); st != breakerClosed {
		return HealthDegraded, http.StatusOK
	}
	return HealthHealthy, http.StatusOK
}
