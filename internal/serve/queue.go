package serve

import (
	"context"
	"errors"
	"sync/atomic"
)

// errShed is returned by admission.acquire when the cold path's wait queue
// is full: the request is refused immediately (HTTP 429 + Retry-After)
// instead of queueing unboundedly behind a saturated worker pool.
var errShed = errors.New("serve: cold path overloaded, request shed")

// admission is the cold path's admission controller: a worker-pool
// semaphore fronted by a bounded wait queue. Up to cap(sem) selections run
// concurrently; up to maxWait more may block waiting for a slot; everyone
// beyond that is shed. Bounding the queue keeps worst-case latency at
// (queue length + 1) x selection time and the daemon's memory flat under
// any burst.
type admission struct {
	sem     chan struct{}
	waiting atomic.Int64
	maxWait int64
}

func newAdmission(workers int, maxWait int64) *admission {
	return &admission{sem: make(chan struct{}, workers), maxWait: maxWait}
}

// acquire claims a worker slot, waiting in the bounded queue if necessary.
// It returns errShed when the queue is full, or ctx's error when the caller
// gives up first. The returned release func must be called exactly once.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.sem <- struct{}{}:
		return func() { <-a.sem }, nil
	default:
	}
	if a.waiting.Add(1) > a.maxWait {
		a.waiting.Add(-1)
		return nil, errShed
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return func() { <-a.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// depth returns the current wait-queue occupancy.
func (a *admission) depth() int64 { return a.waiting.Load() }
