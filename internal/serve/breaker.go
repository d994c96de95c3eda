package serve

import (
	"sync"
	"time"
)

// BreakerConfig parameterizes the circuit breaker in front of the
// refinements' live selection.
type BreakerConfig struct {
	// Failures is the number of consecutive failed (or slow) live
	// selections that trips the breaker open (default 5).
	Failures int
	// OpenFor is the cooldown after tripping; once it elapses the breaker
	// goes half-open and admits a single probe (default 10s).
	OpenFor time.Duration
	// SlowCall, when > 0, counts a successful selection slower than this as
	// a failure: a selection that technically succeeds but blows through
	// its latency budget is just as unservable (default 0: disabled).
	SlowCall time.Duration
}

func (c *BreakerConfig) fill() {
	if c.Failures <= 0 {
		c.Failures = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 10 * time.Second
	}
}

// Breaker states. The lifecycle is the classic three-state machine:
// closed (normal service) → open (refuse refinements) after Failures
// consecutive failures → half-open (one probe) after OpenFor → closed on a
// probe success, back to open on a probe failure.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

func breakerStateName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// breaker is the circuit breaker guarding the live selection.
// The clock is injectable (now) so the chaos harness can walk the
// open→half-open transition deterministically.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu          sync.Mutex
	state       int
	consecutive int       // consecutive failures while closed
	openedAt    time.Time // when the breaker last tripped
	probing     bool      // a half-open probe is in flight
	opens       int64     // cumulative trips, for metrics
}

func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	cfg.fill()
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg, now: now}
}

// allow reports whether a live selection may start. When the breaker is
// open past its cooldown it transitions to half-open and admits exactly one
// probe; every other open/half-open caller is refused and drops its
// refinement.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.refusingLocked() {
		return false
	}
	if b.state != breakerClosed {
		b.state = breakerHalfOpen
		b.probing = true
	}
	return true
}

// refusing reports, without changing any state, whether allow would
// refuse now: the breaker is cooling down, or its probe is in flight.
func (b *breaker) refusing() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refusingLocked()
}

// refusingLocked is refusing for callers that hold b.mu.
func (b *breaker) refusingLocked() bool {
	switch b.state {
	case breakerOpen:
		return b.now().Sub(b.openedAt) < b.cfg.OpenFor
	case breakerHalfOpen:
		return b.probing
	}
	return false
}

// record classifies one finished live selection. d is the selection's
// duration; err its outcome. Only genuine compute outcomes should be
// recorded — shed refinements say nothing about the live selection's
// health.
func (b *breaker) record(d time.Duration, err error) {
	failed := err != nil || (b.cfg.SlowCall > 0 && d >= b.cfg.SlowCall)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if !failed {
			b.consecutive = 0
			return
		}
		b.consecutive++
		if b.consecutive >= b.cfg.Failures {
			b.trip()
		}
	case breakerHalfOpen:
		b.probing = false
		if failed {
			b.trip()
			return
		}
		b.state = breakerClosed
		b.consecutive = 0
	case breakerOpen:
		// A selection that started before the trip finished late; its
		// outcome is stale, ignore it.
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.consecutive = 0
	b.probing = false
	b.opens++
}

// snapshot returns (state, cumulative opens) for metrics and health.
func (b *breaker) snapshot() (state int, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
