package serve

import (
	"strings"
	"testing"
)

// TestMetricsRenderDeterministic pins the /metrics exposition order: the
// per-(endpoint, code) request counters live in a map, so render must sort
// the keys — a scrape is byte-identical no matter the insertion or map
// iteration order.
func TestMetricsRenderDeterministic(t *testing.T) {
	m := newMetrics()
	// Insertion order deliberately differs from the sorted output order.
	for _, rc := range []struct {
		endpoint string
		code     int
		n        int
	}{
		{"select", 404, 2},
		{"healthz", 200, 1},
		{"select", 200, 3},
		{"reload", 500, 1},
		{"metrics", 200, 1},
		{"select", 503, 1},
	} {
		for i := 0; i < rc.n; i++ {
			m.countRequest(rc.endpoint, rc.code)
		}
	}

	render := func() string {
		var b strings.Builder
		m.render(&b,
			func() (string, float64, int, int64) { return "v1", 0, 42, 1 },
			0)
		return b.String()
	}

	first := render()
	for i := 0; i < 32; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from first render:\n%s\nvs\n%s", i, got, first)
		}
	}

	wantLines := []string{
		`collseld_requests_total{endpoint="healthz",code="200"} 1`,
		`collseld_requests_total{endpoint="metrics",code="200"} 1`,
		`collseld_requests_total{endpoint="reload",code="500"} 1`,
		`collseld_requests_total{endpoint="select",code="200"} 3`,
		`collseld_requests_total{endpoint="select",code="404"} 2`,
		`collseld_requests_total{endpoint="select",code="503"} 1`,
	}
	var got []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "collseld_requests_total{") {
			got = append(got, line)
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("got %d requests_total lines, want %d:\n%s", len(got), len(wantLines), strings.Join(got, "\n"))
	}
	for i := range wantLines {
		if got[i] != wantLines[i] {
			t.Fatalf("requests_total line %d = %q, want %q (keys must render sorted)", i, got[i], wantLines[i])
		}
	}
}
