package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // import path ("scads/internal/rpc")
	Dir       string // absolute directory
	Fset      *token.FileSet
	Files     []*ast.File // non-test files, in stable filename order
	Types     *types.Package
	TypesInfo *types.Info
}

// LoadConfig locates source for the importer. The zero value is
// completed by Load: ModRoot defaults to the enclosing module of the
// working directory and ModPath to its module path.
type LoadConfig struct {
	ModPath string // module path of the primary module
	ModRoot string // its root directory
	// FixtureRoot, when set, resolves single-segment import paths
	// ("a", "retryfix") against this directory — the analysistest
	// testdata/src universe. The primary module and the standard
	// library stay importable from fixtures.
	FixtureRoot string
}

// Load type-checks the packages matched by patterns and returns them
// in stable import-path order. Patterns are directories relative to
// the working directory ("./internal/rpc"), recursive forms
// ("./...", "./internal/..."), or import paths within the module.
// Test files are not loaded: the vet gate covers shipped code.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if cfg.ModRoot == "" {
		root, path, err := findModule()
		if err != nil {
			return nil, err
		}
		cfg.ModRoot, cfg.ModPath = root, path
	}
	l := newLoader(cfg)
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil { // directories with no non-test Go files are skipped
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks up from the working directory to go.mod.
func findModule() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

type loader struct {
	cfg  LoadConfig
	fset *token.FileSet
	std  types.Importer            // source-based stdlib importer
	pkgs map[string]*Package       // import path -> loaded module/fixture package
	busy map[string]bool           // import cycle guard
	stdc map[string]*types.Package // stdlib cache
}

func newLoader(cfg LoadConfig) *loader {
	fset := token.NewFileSet()
	return &loader{
		cfg:  cfg,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
		stdc: make(map[string]*types.Package),
	}
}

// expand resolves patterns to package directories (absolute, deduped,
// sorted).
func (l *loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			if l.cfg.ModPath != "" && (pat == l.cfg.ModPath || strings.HasPrefix(pat, l.cfg.ModPath+"/")) {
				dir = filepath.Join(l.cfg.ModRoot, strings.TrimPrefix(strings.TrimPrefix(pat, l.cfg.ModPath), "/"))
			} else {
				dir = filepath.Join(cwd, pat)
			}
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q: no such directory %s", pat, dir)
		}
		if !recursive {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// goFiles lists the directory's non-test Go files in sorted order,
// honouring build constraints (//go:build lines and GOOS/GOARCH
// filename suffixes) for the host platform — without this, paired
// files like the benchmark's pin_linux.go / pin_other.go would both
// load and redeclare each other's symbols.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// pathForDir maps a directory under a known root to its import path.
func (l *loader) pathForDir(dir string) (string, error) {
	// FixtureRoot first: testdata/src lives inside the module, and a
	// fixture package's identity is its single-segment path.
	for _, root := range []struct{ prefix, dir string }{
		{"", l.cfg.FixtureRoot},
		{l.cfg.ModPath, l.cfg.ModRoot},
	} {
		if root.dir == "" {
			continue
		}
		rel, err := filepath.Rel(root.dir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if rel == "." {
			return root.prefix, nil
		}
		return strings.TrimPrefix(root.prefix+"/"+filepath.ToSlash(rel), "/"), nil
	}
	return "", fmt.Errorf("directory %s is outside the module", dir)
}

func (l *loader) dirForPath(path string) (string, bool) {
	if l.cfg.ModPath != "" && (path == l.cfg.ModPath || strings.HasPrefix(path, l.cfg.ModPath+"/")) {
		return filepath.Join(l.cfg.ModRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.cfg.ModPath), "/")), true
	}
	if l.cfg.FixtureRoot != "" && !strings.Contains(path, ".") {
		dir := filepath.Join(l.cfg.FixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// loadDir parses and type-checks the package in dir (nil if the
// directory holds no non-test Go files).
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path, dir)
}

func (l *loader) loadPath(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: importerFunc(l.importPath)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, TypesInfo: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPath resolves an import for the type checker: module and
// fixture packages are type-checked from source recursively; anything
// else is treated as standard library and handed to the source
// importer.
func (l *loader) importPath(path string) (*types.Package, error) {
	if dir, ok := l.dirForPath(path); ok {
		pkg, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	if p, ok := l.stdc[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.stdc[path] = p
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
