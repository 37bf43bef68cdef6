package lint

import (
	"testing"

	"scads/internal/lint/analysis"
	"scads/internal/lint/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, NewDeterminism([]string{"determ"}, nil), "determ")
}

// TestDeterminismFileScope checks the "pkgpath:basename" scoping used
// for the root package's elastic.go: only scoped.go is examined.
func TestDeterminismFileScope(t *testing.T) {
	analysistest.Run(t, NewDeterminism(nil, []string{"determfiles:scoped.go"}), "determfiles")
}

func TestRPCRetry(t *testing.T) {
	analysistest.Run(t, NewRPCRetry([]string{"retry"}), "retry")
}

func TestPanicDiscipline(t *testing.T) {
	analysistest.Run(t, NewPanicDiscipline(), "panics")
}

func TestLockSafety(t *testing.T) {
	analysistest.Run(t, NewLockSafety(), "locks")
}

// TestTreeClean runs every production analyzer over the whole module:
// the scads-vet gate enforced from go test itself, so a violation
// fails tier-1 even before CI runs the binary.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{}, "scads/...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, a := range Analyzers() {
		for _, pkg := range pkgs {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				t.Fatalf("%s: %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				t.Errorf("%s", d)
			}
		}
	}
}
