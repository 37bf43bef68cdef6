package scads

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestBenchmarkModuleCompiles pins the benchmark's frozen surface.
// benchmark/ is its own module (replace scads => ../), so go test ./...
// never builds it, and an exported name it compiles against could
// otherwise be deleted or changed with every package here green. go vet
// type-checks that module, test files included, without running it;
// with a warm build cache it takes well under a second. Any exported
// name in internal/ this test does not pin is free to change.
func TestBenchmarkModuleCompiles(t *testing.T) {
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		// go prints paths relative to benchmark/; name them from here.
		out = regexp.MustCompile(`(?m)(^|\s)\./`).ReplaceAll(out, []byte("${1}benchmark/"))
		t.Fatalf("benchmark/ no longer compiles against this module (go vet: %v):\n%s", err, out)
	}
}
