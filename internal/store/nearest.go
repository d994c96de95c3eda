package store

import (
	"math"

	"collsel/internal/coll"
)

// NearestLookup is the answer of a nearest-cell query: the compiled cell
// closest to the requested grid point, plus the coordinates it was actually
// compiled for so the caller can tell how far the approximation reached.
type NearestLookup struct {
	Cell Cell
	// Procs and MsgBytes are the compiled coordinates of the answering cell
	// (not the query's).
	Procs    int
	MsgBytes int
}

// ratioDistance measures how far apart two positive quantities are on a
// log scale: max(a,b)/min(a,b). Grid axes (message sizes, process counts)
// are decade/power-of-two ladders, so relative distance is the meaningful
// metric — 512 B is "closer" to 1 KiB than to 8 B even though the absolute
// gaps say otherwise.
func ratioDistance(a, b int) float64 {
	if a <= 0 || b <= 0 {
		return math.Inf(1)
	}
	if a > b {
		return float64(a) / float64(b)
	}
	return float64(b) / float64(a)
}

// Nearest answers a (collective, procs, msgBytes) query from the closest
// compiled cell of the same collective when Get misses: first the section
// with the nearest process count (ratio distance, smaller procs on a tie),
// then the cell with the nearest message size within it (smaller size on a
// tie). It is the serving layer's last answer for a miss, where the
// analytical model cannot answer (an unresolvable or drifted machine, more
// procs than the machine has): a nearby known-good answer beats an error,
// since collective algorithm rankings vary smoothly along both grid axes —
// the same locality argument the table's size bins already rely on. ok is
// false only when the table has no cells for the collective at all.
func (t *Table) Nearest(c coll.Collective, procs, msgBytes int) (NearestLookup, bool) {
	if procs <= 0 || msgBytes <= 0 {
		return NearestLookup{}, false
	}
	var best *Section
	bestD := math.Inf(1)
	for i := range t.Sections {
		s := &t.Sections[i]
		if s.Collective != c.String() || len(s.Cells) == 0 {
			continue
		}
		d := ratioDistance(s.Procs, procs)
		if d < bestD || (d == bestD && best != nil && s.Procs < best.Procs) {
			best, bestD = s, d
		}
	}
	if best == nil {
		return NearestLookup{}, false
	}
	bestCell := 0
	cellD := math.Inf(1)
	for i := range best.Cells {
		d := ratioDistance(best.Cells[i].MsgBytes, msgBytes)
		if d < cellD {
			bestCell, cellD = i, d
		}
	}
	return NearestLookup{
		Cell:     best.Cells[bestCell],
		Procs:    best.Procs,
		MsgBytes: best.Cells[bestCell].MsgBytes,
	}, true
}
