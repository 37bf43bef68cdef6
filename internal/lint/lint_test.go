package lint

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixtures is the import path of the fixture packages under
// testdata/src, the prefix of their scopes.
const fixtures = "scads/internal/lint/testdata/src/"

func TestDeterminism(t *testing.T) {
	checkFixture(t, NewDeterminism([]string{fixtures + "determ"}, nil), "determ")
}

// TestDeterminismFileScope checks the "pkgpath:basename" scoping used
// for the root package's elastic.go: only scoped.go is examined.
func TestDeterminismFileScope(t *testing.T) {
	checkFixture(t, NewDeterminism(nil, []string{fixtures + "determfiles:scoped.go"}), "determfiles")
}

func TestRPCRetry(t *testing.T) {
	checkFixture(t, NewRPCRetry([]string{fixtures + "retry"}), "retry")
}

func TestPanicDiscipline(t *testing.T) {
	checkFixture(t, NewPanicDiscipline(), "panics")
}

func TestLockSafety(t *testing.T) {
	checkFixture(t, NewLockSafety(), "locks")
}

// checkFixture loads the fixture package testdata/src/<fixture>, runs a
// over it and checks the findings against the fixture's want comments.
// A line expecting findings carries a trailing comment
//
//	time.Now() // want `time\.Now`
//
// with one Go-quoted regexp per expected finding on that line. Every
// finding must match a want on its line and every want a finding.
// Fixtures may import the module ("scads/internal/rpc"), so analyzers
// that key on its types are tested against the real ones.
func checkFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("%s: loaded %d packages, want 1", fixture, len(pkgs))
	}
	pkg := pkgs[0]
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, args, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for args = strings.TrimSpace(args); args != ""; args = strings.TrimSpace(args) {
					quoted, err := strconv.QuotedPrefix(args)
					if err != nil {
						t.Fatalf("%s: want arguments must be quoted regexps: %s", line, args)
					}
					args = args[len(quoted):]
					raw, _ := strconv.Unquote(quoted)
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", line, raw, err)
					}
					wants[line] = append(wants[line], &want{re: re})
				}
			}
		}
	}
	for _, d := range Run(a, pkg) {
		ws := wants[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)]
		i := slices.IndexFunc(ws, func(w *want) bool { return !w.matched && w.re.MatchString(d.Message) })
		if i < 0 {
			t.Errorf("%s: unexpected diagnostic at %s: %s", fixture, d.Pos, d.Message)
			continue
		}
		ws[i].matched = true
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic at %s matching %q", fixture, line, w.re)
			}
		}
	}
}

// TestCopyLocks runs go vet's copylocks over the whole module: a value
// holding a sync lock (Mutex, RWMutex, Once, WaitGroup, Cond, ...) is
// never copied — by value receivers, parameters, results, range values
// or assignments — for a copied mutex guards nothing.
func TestCopyLocks(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole module")
	}
	if out, err := exec.Command("go", "vet", "-copylocks", "scads/...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -copylocks: %v\n%s", err, out)
	}
}

// TestTreeClean runs every production analyzer over every package of
// this module and of the benchmark module, and fails on any finding.
// It prints findings as file:line:col: analyzer: message, with file
// paths relative to the repository root.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	listed := 0
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		loaded, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
		cmd := exec.Command("go", "list", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		listed += len(strings.Fields(string(out)))
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
	}
	for _, want := range []string{"scads", "scads/internal/partition", "scads/benchmark"} {
		if !slices.Contains(paths, want) {
			t.Errorf("%s was not analysed", want)
		}
	}
	if len(pkgs) != listed {
		t.Errorf("analysed %d packages, go list reports %d", len(pkgs), listed)
	}
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			for _, d := range Run(a, pkg) {
				d.Pos.Filename, _ = filepath.Rel(root, d.Pos.Filename)
				t.Errorf("%s", d)
			}
		}
	}
}
