package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/runner"
)

// CellPatch names one table cell the feedback loop wants re-simulated
// under an empirical skew factor. MsgBytes must be the compiled size of an
// existing cell (the bin edge Get answers from), not an arbitrary query
// size — recompilation replaces cells, it does not grow the grid.
type CellPatch struct {
	Collective coll.Collective
	Procs      int
	MsgBytes   int
	// Factor is the empirical skew factor to re-select under, quantized by
	// the profile aggregation so equal observation sets always request
	// equal patches.
	Factor float64
}

// DeriveSeed maps (table seed, profile digest) to the selection seed of a
// feedback recompilation. The derivation is a pure hash, so a recompiled
// artifact is a function of exactly two inputs: the base table's
// provenance and the aggregated observation state — the same WAL folded in
// any order yields the same digest, hence the same seed, hence
// byte-identical cells.
func DeriveSeed(seed int64, profileDigest string) int64 {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte("|collsel-recompile|"))
	h.Write([]byte(profileDigest))
	sum := h.Sum(nil)
	return int64(binary.LittleEndian.Uint64(sum[:8]))
}

// RecompileConfig parameterizes a cell-subset recompilation.
type RecompileConfig struct {
	// ProfileDigest is the digest of the aggregated observation state the
	// patches were planned from; it seeds the recompilation (DeriveSeed)
	// and is stamped into the artifact's provenance.
	ProfileDigest string
	// Runner executes the selections (nil: runner.New()); every patched
	// cell's grid is simulated afresh.
	Runner *runner.Engine
}

// RecompileCells re-simulates only the patched cells of base under their
// empirical skew factors and returns a fresh table: every untouched cell
// is copied bit-for-bit, each patched cell is replaced by a selection with
// Factor = patch.Factor and Seed = DeriveSeed(base.Seed, ProfileDigest),
// and the artifact's provenance gains the profile digest. base is never
// mutated (tables are immutable); the result keeps base's CreatedUnix so
// that replaying the same WAL over the same base yields a byte-identical
// artifact.
func RecompileCells(ctx context.Context, base *Table, patches []CellPatch, cfg RecompileConfig) (*Table, error) {
	if base == nil {
		return nil, fmt.Errorf("store: nil base table")
	}
	if len(patches) == 0 {
		return nil, fmt.Errorf("store: no cells to recompile")
	}
	if cfg.ProfileDigest == "" {
		return nil, fmt.Errorf("store: recompile without a profile digest")
	}
	pl, err := base.Platform()
	if err != nil {
		return nil, err
	}

	// The base table is shared with concurrent readers and stays untouched.
	t := base.clone()

	// Deterministic work order regardless of how the planner produced the
	// patch list.
	patches = append([]CellPatch(nil), patches...)
	sort.Slice(patches, func(i, j int) bool {
		a, b := patches[i], patches[j]
		if a.Collective != b.Collective {
			return a.Collective.String() < b.Collective.String()
		}
		if a.Procs != b.Procs {
			return a.Procs < b.Procs
		}
		return a.MsgBytes < b.MsgBytes
	})

	seed := DeriveSeed(base.Seed, cfg.ProfileDigest)
	for _, p := range patches {
		if p.Factor <= 0 {
			return nil, fmt.Errorf("store: patch %v/%d procs/%d B: factor %g must be positive",
				p.Collective, p.Procs, p.MsgBytes, p.Factor)
		}
		cell := t.cellAt(p.Collective.String(), p.Procs, p.MsgBytes)
		if cell == nil {
			return nil, fmt.Errorf("store: patch %v/%d procs/%d B names no compiled cell",
				p.Collective, p.Procs, p.MsgBytes)
		}
		spec := SpecOf(t, pl, p.Collective, p.Procs, p.MsgBytes)
		spec.Factor = p.Factor
		spec.Seed = seed
		spec.Runner = cfg.Runner
		out, err := expt.SelectRobustCtx(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("store: recompile %v/%d procs/%d B: %w", p.Collective, p.Procs, p.MsgBytes, err)
		}
		fresh := CellFromOutcome(p.MsgBytes, out)
		fresh.Factor = p.Factor
		*cell = fresh
	}

	t.ProfileDigest = cfg.ProfileDigest
	if err := t.Finalize(); err != nil {
		return nil, err
	}
	return t, nil
}

// cellAt returns the addressable cell with exactly the compiled size
// msgBytes, or nil.
func (t *Table) cellAt(collective string, procs, msgBytes int) *Cell {
	s := t.section(collective, procs)
	if s == nil {
		return nil
	}
	i := sort.Search(len(s.Cells), func(i int) bool { return s.Cells[i].MsgBytes >= msgBytes })
	if i < len(s.Cells) && s.Cells[i].MsgBytes == msgBytes {
		return &s.Cells[i]
	}
	return nil
}
