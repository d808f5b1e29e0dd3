package study

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestStudyImportsOnlyModelPackages: the model half executes nothing, so
// the packages it depends on (what `go list -deps ./internal/study`
// lists) include no package of this repository but itself, ops, cpu,
// metrics, plot and obs — no kernel, mesh, pool, simulation, fabric or
// harness.
func TestStudyImportsOnlyModelPackages(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"study", "ops", "cpu", "metrics", "plot", "obs"} {
		allowed["repro/internal/"+p] = true
	}
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		if !allowed[path] {
			t.Errorf("study depends on %s", path)
		}
		pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, "repro/")), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, "repro/") {
				visit(imp)
			}
		}
	}
	visit("repro/internal/study")
	if len(seen) != len(allowed) {
		t.Errorf("study depends on %d packages of the repository, want all %d allowed ones: %v", len(seen), len(allowed), seen)
	}
}
