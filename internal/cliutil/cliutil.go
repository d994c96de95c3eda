// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"collsel/internal/coll"
	"collsel/internal/netmodel"
)

// ParseSizes parses a comma-separated list of positive byte sizes.
// An empty string yields nil (callers substitute their default ladder).
func ParseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad message size %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// Machine resolves a platform preset by name with a helpful error.
func Machine(name string) (*netmodel.Platform, error) {
	pl := netmodel.ByName(name)
	if pl == nil {
		names := make([]string, 0, 4)
		for _, p := range netmodel.Presets() {
			names = append(names, p.Name)
		}
		return nil, fmt.Errorf("unknown machine %q (available: %s)", name, strings.Join(names, ", "))
	}
	return pl, nil
}

// CheckProcs validates a tool's -procs flag against the machine model:
// the process count must be positive and no larger than the machine. The
// error message names both, so the user can immediately correct the flag.
func CheckProcs(procs int, pl *netmodel.Platform) error {
	if procs <= 0 {
		return fmt.Errorf("process count must be positive, got %d", procs)
	}
	if procs > pl.Size() {
		return fmt.Errorf("%d processes exceed machine %s (%d nodes x %d cores = %d processes)",
			procs, pl.Name, pl.Nodes, pl.CoresPerNode, pl.Size())
	}
	return nil
}

// ParseFloats parses a comma-separated list of floats in [0, 1] (used for
// probability sweeps). An empty string yields nil.
func ParseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("bad probability %q (want 0..1)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// ProgressPrinter returns a (done, total) callback that rewrites one
// status line on w ("<label>: 12/81 cells"), ending the line when done
// reaches total. A nil is returned when enabled is false, so the result
// can be assigned to a config's Progress field directly.
func ProgressPrinter(w io.Writer, label string, enabled bool) func(done, total int) {
	if !enabled {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(w, "\r%s: %d/%d cells", label, done, total)
		if done >= total {
			fmt.Fprintln(w)
		}
	}
}

// Collective resolves a collective by name with a helpful error listing
// the valid spellings.
func Collective(name string) (coll.Collective, error) {
	c, ok := coll.CollectiveByName(strings.TrimSpace(name))
	if !ok {
		return 0, fmt.Errorf("unknown collective %q (try reduce, allreduce, alltoall, bcast, ...)", name)
	}
	return c, nil
}

// Collectives parses a comma-separated collective list; empty yields def
// (so a tool's default set lives next to its flag definition).
func Collectives(s string, def []coll.Collective) ([]coll.Collective, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	var out []coll.Collective
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		c, err := Collective(f)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// SignalContext returns a context cancelled by SIGINT or SIGTERM, for
// plumbing clean cancellation through a tool's grid builds and servers.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Usage reports a flag-validation error on stderr and exits with the
// conventional usage status 2.
func Usage(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(2)
}

// Fatal reports a runtime error and exits. An error caused by context
// cancellation (the tool was interrupted) gets a clean one-line message
// and the conventional 130 (128+SIGINT) status instead of status 1.
func Fatal(tool string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", tool)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Machines resolves a comma-separated machine list; empty means the three
// paper machines.
func Machines(s string) ([]*netmodel.Platform, error) {
	if strings.TrimSpace(s) == "" {
		return []*netmodel.Platform{netmodel.Hydra(), netmodel.Galileo100(), netmodel.Discoverer()}, nil
	}
	var out []*netmodel.Platform
	for _, f := range strings.Split(s, ",") {
		pl, err := Machine(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, pl)
	}
	return out, nil
}
