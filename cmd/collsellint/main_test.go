package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkLintTree measures one full seven-analyzer sweep of the module —
// the cost `make lint` pays and the CI lint job amortizes through go vet's
// result cache. The vettool binary is built once outside the timed loop;
// iterations after the first measure the warm-cache path, so -benchtime 1x
// reports the cold sweep.
func BenchmarkLintTree(b *testing.B) {
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		b.Fatalf("resolving module root: %v", err)
	}
	tool := filepath.Join(b.TempDir(), "collsellint")
	build := exec.Command("go", "build", "-o", tool, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		b.Fatalf("building vettool: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
		cmd.Dir = strings.TrimSpace(string(root))
		if out, err := cmd.CombinedOutput(); err != nil {
			b.Fatalf("lint sweep failed: %v\n%s", err, out)
		}
	}
}
