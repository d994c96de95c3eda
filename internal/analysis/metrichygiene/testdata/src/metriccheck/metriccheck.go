// Package metriccheck seeds exposition-surface violations; the
// expectation comments are the analyzer's contract.
package metriccheck

import (
	"fmt"
	"io"
	"sync/atomic"
)

type metrics struct {
	hits  atomic.Int64
	depth atomic.Int64
}

func render(w io.Writer, m *metrics, dynName string) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	// Clean declarations: prefixed, kind-appropriate suffixes.
	counter("collseld_requests_total", "requests", 1)
	gauge("collseld_queue_depth", "depth", 2)

	// Counter missing _total: flagged, with a suggested rename.
	counter("collseld_hits", "hits", m.hits.Load()) // want `counter "collseld_hits" must end in _total`

	// Gauge pretending to be a counter.
	gauge("collseld_workers_total", "workers", 3) // want `gauge "collseld_workers_total" must not end in _total`

	// Wrong prefix and illegal characters.
	counter("other_requests_total", "requests", 4) // want `metric "other_requests_total" must match collseld_\[a-z0-9_\]\+`
	gauge("collseld_Depth", "depth", 5)            // want `metric "collseld_Depth" must match collseld_\[a-z0-9_\]\+`

	// Dynamic names make the exposition surface unknowable.
	counter(dynName, "dynamic", 6) // want `metric name must be a string literal`

	// Literal # TYPE lines register too.
	fmt.Fprintf(w, "# TYPE collseld_cold_latency histogram\n") // want `histogram "collseld_cold_latency" must end in _seconds`
	fmt.Fprintf(w, "# TYPE collseld_sim_seconds histogram\n")

	// Double registration of the same name.
	fmt.Fprintf(w, "# TYPE collseld_reloads_total counter\n")
	fmt.Fprintf(w, "# TYPE collseld_reloads_total counter\n") // want `metric "collseld_reloads_total" registered more than once`

	// Label keys must be literal: %s as a key breaks aggregation.
	fmt.Fprintf(w, "collseld_cells{%s=%q} %d\n", dynName, "x", 7) // want `dynamic label key "%s" in metric exposition`
	fmt.Fprintf(w, "collseld_cells{table=%q} %d\n", "x", 8)

	// A justified escape hatch keeps a legacy name alive.
	//collsel:metric the chaos harness greps for this exact pre-rename name
	counter("legacy_shed_events", "sheds", 9)

	// An unjustified directive guards nothing.
	//collsel:metric
	counter("legacy_drop_events", "drops", 10) // want `metric "legacy_drop_events" must match collseld_\[a-z0-9_\]\+`
}

// Methods (and declared functions) whose body prints the template are
// emitters too, called through a selector.
type expo struct{ w io.Writer }

func (e expo) counter(name, help string, v int64) {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func renderExpo(w io.Writer, dynName string) {
	e := expo{w}
	e.counter("collseld_method_requests_total", "requests", 1)
	e.counter("collseld_method_drops", "drops", 2) // want `counter "collseld_method_drops" must end in _total`

	e.counter(dynName, "dynamic", 3) // want `metric name must be a string literal`
}

// Counter-backing fields are monotonic: only Add with a positive delta.
func mutate(m *metrics) {
	m.hits.Add(1)
	m.hits.Add(-1)  // want `negative Add on counter-backing field for "collseld_hits"`
	m.hits.Store(0) // want `Store on counter-backing field for "collseld_hits"`
	m.hits.Swap(0)  // want `Swap on counter-backing field for "collseld_hits"`
	// depth backs a gauge, so resets are fine.
	m.depth.Store(0)
}
