// Package store compiles selection runs into compact, versioned,
// checksummed decision-table artifacts and serves O(log n) lookups from
// them — the offline half of the offline-compile/online-serve split.
//
// The expensive part of the paper's methodology is the measurement grid:
// every (collective, message size, process count) cell simulates a full
// pattern x algorithm micro-benchmark sweep. A Table freezes the outcome of
// that sweep — per cell, the pattern-robust winner, the runner-up and the
// margin between them — together with everything needed to reproduce or
// extend it: the platform fingerprint, the seed, the skew factor and the
// fault profile. Artifacts are plain JSON wrapped in a checksum envelope;
// Load verifies integrity before a single byte reaches the lookup path, and
// Handle (swap.go) atomically hot-swaps tables under live readers.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"collsel/internal/coll"
	"collsel/internal/fault"
)

// FormatVersion identifies the artifact layout; Load rejects artifacts
// written by an incompatible future format.
const FormatVersion = 1

// AlgoRef names one collective algorithm (the Open MPI Table II id and the
// canonical name) without carrying its implementation.
type AlgoRef struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// Ref converts a registry algorithm to its stored reference.
func Ref(al coll.Algorithm) AlgoRef { return AlgoRef{ID: al.ID, Name: al.Name} }

// Resolve looks the referenced algorithm up in the live registry.
func (a AlgoRef) Resolve(c coll.Collective) (coll.Algorithm, bool) {
	return coll.ByName(c, a.Name)
}

// Cell is one compiled decision: the selection outcome for a single
// (collective, procs, message size) grid point.
type Cell struct {
	// MsgBytes is the compiled message size, the lower edge of the bin this
	// cell answers for.
	MsgBytes int `json:"msg_bytes"`
	// Winner is the pattern-robust recommendation; Score its average
	// normalized runtime (1.0 = fastest under every pattern).
	Winner AlgoRef `json:"winner"`
	Score  float64 `json:"score"`
	// RunnerUp is the second-ranked algorithm and Margin its relative
	// distance (runnerUpScore/winnerScore - 1); both zero when only one
	// algorithm survived.
	RunnerUp AlgoRef `json:"runner_up,omitempty"`
	Margin   float64 `json:"margin,omitempty"`
	// Conventional is what a synchronized (no-delay) benchmark would pick.
	Conventional AlgoRef `json:"conventional"`
	// Factor, when non-zero, is the skew factor this cell was recompiled
	// with by the feedback loop, overriding the table-level Factor: live
	// observations said the deployment's real imbalance differs from the
	// compiled assumption, and the cell was re-simulated under the
	// empirical value. Zero means the cell still carries the table default.
	Factor float64 `json:"factor,omitempty"`
	// Degraded is true when fault injection failed at least one grid cell;
	// Excluded lists the algorithms dropped from the ranking.
	Degraded bool     `json:"degraded,omitempty"`
	Excluded []string `json:"excluded,omitempty"`
}

// Section holds the compiled cells of one (collective, procs) pair,
// ascending by MsgBytes.
type Section struct {
	Collective string `json:"collective"`
	Procs      int    `json:"procs"`
	Cells      []Cell `json:"cells"`
}

// Table is a complete decision-table artifact. Tables are immutable once
// built; every mutation path (Compile, Load) returns a fresh instance, so a
// *Table may be shared by any number of concurrent readers.
type Table struct {
	// Version is the content hash of the table payload (the checksum's
	// leading hex digits); two tables with equal versions answer every
	// lookup identically.
	//collsel:checksum Version IS the checksum — covering it would make the hash self-referential
	Version string `json:"version,omitempty"`
	// CreatedUnix is the artifact build time (Unix seconds). It is excluded
	// from the checksum so that rebuilding identical content yields an
	// identical version.
	//collsel:checksum build wall-clock is provenance metadata; covering it would give byte-identical content a different version per rebuild
	CreatedUnix int64 `json:"created_unix,omitempty"`

	// Machine and PlatformFingerprint tie the table to the machine model it
	// was compiled for (netmodel.Platform.Fingerprint).
	Machine             string `json:"machine"`
	PlatformFingerprint string `json:"platform_fingerprint"`

	// Seed, Factor, Reps, Warmup, Faults and WatchdogNs are the selection
	// provenance: a live SelectRobustCtx with these parameters reproduces
	// any cell bit-identically.
	Seed       int64         `json:"seed"`
	Factor     float64       `json:"factor,omitempty"`
	Reps       int           `json:"reps,omitempty"`
	Warmup     int           `json:"warmup,omitempty"`
	Faults     fault.Profile `json:"faults,omitempty"`
	WatchdogNs int64         `json:"watchdog_ns,omitempty"`

	// PruneTopK, when non-zero, records that the table was compiled with
	// model-guided grid pruning: every cell simulated only the analytical
	// model's top K candidates. Part of the reproduction provenance —
	// SpecOf carries it into live re-selections.
	PruneTopK int `json:"prune_topk,omitempty"`

	// ProfileDigest, when non-empty, records that this table was (partially)
	// recompiled by the feedback loop from an empirical skew profile: it is
	// the SHA-256 digest of the aggregated observation state, and the seed
	// of every recompiled cell is DeriveSeed(Seed, ProfileDigest). Together
	// with the per-cell Factor overrides it makes an autotuned artifact a
	// pure function of (base table, observation WAL).
	ProfileDigest string `json:"profile_digest,omitempty"`

	// Sections are sorted by (collective, procs) for binary search.
	Sections []Section `json:"sections"`
}

// Lookup is the answer of one table query.
type Lookup struct {
	Cell Cell
	// Exact is true when the queried message size equals the compiled
	// cell's size; false when the query fell into the cell's bin.
	Exact bool
}

// Cells returns the total number of compiled cells.
func (t *Table) Cells() int {
	n := 0
	for _, s := range t.Sections {
		n += len(s.Cells)
	}
	return n
}

// clone deep-copies t's section and cell storage, so the copy can be
// edited while readers keep using t.
func (t *Table) clone() *Table {
	nt := *t
	nt.Sections = make([]Section, len(t.Sections))
	for i, s := range t.Sections {
		nt.Sections[i] = s
		nt.Sections[i].Cells = append([]Cell(nil), s.Cells...)
	}
	return &nt
}

// normalize sorts sections and cells into canonical lookup order.
func (t *Table) normalize() {
	sort.Slice(t.Sections, func(i, j int) bool {
		a, b := &t.Sections[i], &t.Sections[j]
		if a.Collective != b.Collective {
			return a.Collective < b.Collective
		}
		return a.Procs < b.Procs
	})
	for i := range t.Sections {
		cells := t.Sections[i].Cells
		sort.Slice(cells, func(a, b int) bool { return cells[a].MsgBytes < cells[b].MsgBytes })
	}
}

// section finds the (collective, procs) section by binary search.
func (t *Table) section(collective string, procs int) *Section {
	i := sort.Search(len(t.Sections), func(i int) bool {
		s := &t.Sections[i]
		if s.Collective != collective {
			return s.Collective >= collective
		}
		return s.Procs >= procs
	})
	if i < len(t.Sections) && t.Sections[i].Collective == collective && t.Sections[i].Procs == procs {
		return &t.Sections[i]
	}
	return nil
}

// Get answers a (collective, procs, msgBytes) query from the table in
// O(log n): the section is found by binary search over (collective, procs)
// and the message size by binary search over the section's bins. A cell
// owns the half-open size range from its own MsgBytes up to the next
// cell's; queries below the smallest compiled size, above procs the table
// was never compiled for, or for an absent collective miss (ok == false) —
// the serving layer falls through to a live selection for those.
//
// Queries above the largest compiled size hit the last cell only within its
// own decade (10x the compiled size); beyond that the extrapolation is
// refused and the query misses.
func (t *Table) Get(c coll.Collective, procs, msgBytes int) (Lookup, bool) {
	if msgBytes <= 0 || procs <= 0 {
		return Lookup{}, false
	}
	s := t.section(c.String(), procs)
	if s == nil || len(s.Cells) == 0 {
		return Lookup{}, false
	}
	// First cell with MsgBytes > query; the owning bin is the one before.
	i := sort.Search(len(s.Cells), func(i int) bool { return s.Cells[i].MsgBytes > msgBytes })
	if i == 0 {
		return Lookup{}, false // below the table's size range
	}
	cell := s.Cells[i-1]
	if i == len(s.Cells) && msgBytes > 10*cell.MsgBytes {
		return Lookup{}, false // too far above the largest compiled size
	}
	return Lookup{Cell: cell, Exact: cell.MsgBytes == msgBytes}, true
}

// --- Artifact I/O ------------------------------------------------------------

// envelope is the on-disk artifact layout: the table payload wrapped with a
// format marker and its checksum.
type envelope struct {
	Format   int             `json:"format"`
	Checksum string          `json:"checksum"`
	Table    json.RawMessage `json:"table"`
}

// checksum hashes the canonical payload of a table: its JSON encoding with
// the derived fields (Version, CreatedUnix) cleared.
func checksum(t *Table) (string, error) {
	canon := *t
	canon.Version = ""
	canon.CreatedUnix = 0
	raw, err := json.Marshal(&canon)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// versionOf derives the short content version from a checksum string.
func versionOf(sum string) string {
	const hexLen = len("sha256:") + 12
	if len(sum) >= hexLen {
		return sum[len("sha256:"):hexLen]
	}
	return sum
}

// Finalize sorts the table into canonical order and stamps its content
// version. Compile and Load call it; hand-built tables (tests) should too.
func (t *Table) Finalize() error {
	t.normalize()
	sum, err := checksum(t)
	if err != nil {
		return err
	}
	t.Version = versionOf(sum)
	return nil
}

// BackupPath is the last-known-good location Save retains the previous
// artifact at: every successful write moves the old artifact aside
// (atomic rename) instead of destroying it, and LoadWithFallback reads it
// when the primary turns out corrupt or missing.
func BackupPath(path string) string { return path + ".bak" }

// Save writes the table as a checksummed artifact, atomically: the
// envelope is written to a temp file in the destination directory and
// renamed over path, so a reader (or a crashed writer) never observes a
// torn artifact. An existing artifact at path is retained as
// BackupPath(path) — the last-known-good a corrupted write or a bad
// promotion can be recovered from.
func (t *Table) Save(path string) error {
	t = t.clone() // finalize a copy: t may be serving, with readers on it
	if err := t.Finalize(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	sum, err := checksum(t)
	if err != nil {
		return err
	}
	env, err := json.Marshal(envelope{Format: FormatVersion, Checksum: sum, Table: raw})
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".store-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(env, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// Retain the previous artifact as the last-known-good. A crash between
	// the two renames leaves only the backup — LoadWithFallback covers
	// exactly that window.
	if _, statErr := os.Stat(path); statErr == nil {
		if err := os.Rename(path, BackupPath(path)); err != nil {
			return err
		}
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads, verifies and normalizes an artifact. Any mismatch — unknown
// format, corrupted payload, checksum disagreement — is an error; a loaded
// table is guaranteed internally consistent.
func Load(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("store: %s: not a decision-table artifact: %w", path, err)
	}
	if env.Format != FormatVersion {
		return nil, fmt.Errorf("store: %s: format %d, this build reads format %d", path, env.Format, FormatVersion)
	}
	var t Table
	if err := json.Unmarshal(env.Table, &t); err != nil {
		return nil, fmt.Errorf("store: %s: corrupt table payload: %w", path, err)
	}
	t.normalize()
	sum, err := checksum(&t)
	if err != nil {
		return nil, err
	}
	if sum != env.Checksum {
		return nil, fmt.Errorf("store: %s: checksum mismatch (artifact %s, content %s)", path, env.Checksum, sum)
	}
	t.Version = versionOf(sum)
	return &t, nil
}

// LoadWithFallback loads path, falling back to the retained
// last-known-good artifact (BackupPath) when the primary is corrupt,
// torn or missing. usedBackup tells the caller to log and count the
// recovery; on a double failure the returned error carries both causes,
// because "which copy is broken how" is the first thing an operator
// needs.
func LoadWithFallback(path string) (t *Table, usedBackup bool, err error) {
	t, err = Load(path)
	if err == nil {
		return t, false, nil
	}
	bak, bakErr := Load(BackupPath(path))
	if bakErr != nil {
		return nil, false, fmt.Errorf("store: primary artifact unusable (%v) and no last-known-good: %v", err, bakErr)
	}
	return bak, true, nil
}

// Verify checks an artifact's integrity without keeping the table.
func Verify(path string) error {
	_, err := Load(path)
	return err
}
