package store

import (
	"sync"
	"sync/atomic"
	"time"
)

// Handle is the serving table slot and its one writer. Readers call
// Table() on every request and work with the returned snapshot: a single
// atomic load, so lookups never block on a writer and every request is
// answered from exactly one table — old or new, never a mix. Every change
// goes through Update (promotions, feedback recompiles) or Swap (reloads);
// writers run one at a time, so each derives its table from the current
// one and no write is lost.
type Handle struct {
	p atomic.Pointer[Table]
	// mu serializes writers; readers never take it.
	mu sync.Mutex
	// swaps counts installs (including the initial one); loadedUnix is the
	// wall time of the latest install, for table-age metrics.
	swaps      atomic.Int64
	loadedUnix atomic.Int64
}

// NewHandle creates a handle, optionally pre-loaded (t may be nil).
func NewHandle(t *Table) *Handle {
	h := &Handle{}
	if t != nil {
		h.Swap(t)
	}
	return h
}

// Table returns the current table snapshot (nil when none is loaded). The
// result is immutable and remains valid after any number of swaps.
func (h *Handle) Table() *Table { return h.p.Load() }

// Swap installs t unconditionally and returns the previous table (nil on
// first install). In-flight requests holding the old snapshot finish on it.
func (h *Handle) Swap(t *Table) (old *Table) {
	h.Update(func(cur *Table) (*Table, error) {
		old = cur
		return t, nil
	})
	return old
}

// Update runs fn on the current table (nil when none is loaded) with every
// other writer excluded and installs the table fn returns, if any; it
// returns that table and fn's error. On an error nothing is installed. fn
// must not mutate cur (readers hold it) nor call the handle's writers.
func (h *Handle) Update(fn func(cur *Table) (*Table, error)) (*Table, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	nt, err := fn(h.p.Load())
	if err != nil || nt == nil {
		return nil, err
	}
	h.p.Store(nt)
	h.swaps.Add(1)
	//collsel:wallclock install time feeds the table-age gauge, operational metadata outside any artifact or simulation result
	h.loadedUnix.Store(time.Now().Unix())
	return nt, nil
}

// Swaps returns the number of installs so far.
func (h *Handle) Swaps() int64 { return h.swaps.Load() }

// AgeSeconds returns the seconds since the latest install (0 when empty).
func (h *Handle) AgeSeconds() float64 {
	lu := h.loadedUnix.Load()
	if lu == 0 {
		return 0
	}
	//collsel:wallclock table age is a scrape-time serving gauge, not simulation state
	return time.Since(time.Unix(lu, 0)).Seconds()
}
