package serve

import (
	"context"
	"sync"

	"collsel/internal/store"
)

// flightGroup coalesces concurrent cold-path selections: while a selection
// for a key is in flight, every further request for that key waits on the
// leader's result instead of simulating the same grid again. The leader
// computes on a detached context, so a cancelled follower (or even a
// cancelled leader request) never aborts work that other waiters — or the
// table — will still use. Background refinements join the same flights
// (join/finish), so a cell is computed once whether a client or the model
// tier asked for it.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{} // closed when cell/err are populated
	cell store.Cell
	err  error
}

func newFlightGroup() *flightGroup { return &flightGroup{m: map[string]*flight{}} }

// do returns the result of fn for key, running fn exactly once per key at a
// time. coalesced reports whether this call waited on another's execution.
// A caller whose ctx expires before the leader finishes gets ctx.Err();
// the computation itself keeps running for the remaining waiters.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (store.Cell, error)) (cell store.Cell, err error, coalesced bool) {
	f, leader := g.join(key)
	if !leader {
		select {
		case <-f.done:
			return f.cell, f.err, true
		case <-ctx.Done():
			return store.Cell{}, ctx.Err(), true
		}
	}
	cell, err = fn()
	g.finish(key, f, cell, err)

	select {
	case <-ctx.Done():
		return store.Cell{}, ctx.Err(), false
	default:
	}
	return cell, err, false
}

// join returns key's flight, registering a new one when none is in the
// air; leader reports whether the caller registered it and so owes the
// matching finish.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's result to the waiters and releases key.
func (g *flightGroup) finish(key string, f *flight, cell store.Cell, err error) {
	f.cell, f.err = cell, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
