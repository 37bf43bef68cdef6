package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // import path ("scads/internal/rpc")
	Fset      *token.FileSet
	Files     []*ast.File // non-test files, as the go command lists them
	Types     *types.Package
	TypesInfo *types.Info
}

// listed is the part of `go list -json` output Load reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
	Error                   *struct{ Err string }
}

// Load type-checks the packages the go command matches to patterns
// when run in dir, and returns them sorted by import path. The go
// command expands the patterns, applies build constraints and compiles
// every dependency; Load parses each matched package's non-test files
// and type-checks them against the dependencies' export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-export", "-deps"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	export := make(map[string]string)
	var roots []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		export[p.ImportPath] = p.Export
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	var pkgs []*Package
	for _, p := range roots {
		pkg := &Package{Path: p.ImportPath, Fset: fset, TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		conf := types.Config{Importer: imp}
		if pkg.Types, err = conf.Check(p.ImportPath, fset, pkg.Files, pkg.TypesInfo); err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
