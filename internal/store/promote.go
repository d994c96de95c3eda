package store

import (
	"fmt"
	"sort"

	"collsel/internal/coll"
)

// WithCell returns a copy of t with cell installed at (collective, procs,
// cell.MsgBytes), replacing an existing cell with that exact compiled size
// or growing the section (or the table) with a new one. t is never mutated
// — tables are immutable and may be shared with concurrent readers — and
// the copy keeps t's CreatedUnix and provenance, so the result is the
// table the compiler would have produced had its grid included this point.
//
// It is the promotion primitive of the serving layer: every cell collseld
// computes, refines or receives from a peer is installed by applying
// WithCell to the current table inside Handle.Update, provided that
// table still has the cell's provenance (ProvenanceKey).
func WithCell(t *Table, c coll.Collective, procs int, cell Cell) (*Table, error) {
	if t == nil {
		return nil, fmt.Errorf("store: nil base table")
	}
	if cell.MsgBytes <= 0 || procs <= 0 {
		return nil, fmt.Errorf("store: cell coordinates must be positive (procs %d, msg_bytes %d)", procs, cell.MsgBytes)
	}
	nt := t.clone()
	name := c.String()
	s := nt.section(name, procs)
	if s == nil {
		nt.Sections = append(nt.Sections, Section{Collective: name, Procs: procs, Cells: []Cell{cell}})
	} else {
		i := sort.Search(len(s.Cells), func(i int) bool { return s.Cells[i].MsgBytes >= cell.MsgBytes })
		if i < len(s.Cells) && s.Cells[i].MsgBytes == cell.MsgBytes {
			s.Cells[i] = cell
		} else {
			s.Cells = append(s.Cells, Cell{})
			copy(s.Cells[i+1:], s.Cells[i:])
			s.Cells[i] = cell
		}
	}
	if err := nt.Finalize(); err != nil {
		return nil, err
	}
	return nt, nil
}

// ProvenanceKey identifies the selection provenance of t: the machine
// model and every table field SpecOf carries into a live selection, so
// tables with equal keys compute bit-identical cells. The content Version
// is left out: installing a cell re-versions a table without changing
// what any other cell computes.
func ProvenanceKey(t *Table) string {
	if t == nil {
		return "" // equal to no real table's key
	}
	return fmt.Sprintf("%s|%s|%d|%g|%d|%d|%d|%d|%+v", t.Machine, t.PlatformFingerprint,
		t.Seed, t.Factor, t.Reps, t.Warmup, t.WatchdogNs, t.PruneTopK, t.Faults)
}
