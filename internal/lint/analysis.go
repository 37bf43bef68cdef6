package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Keys lists the suppression keys this analyzer honours (for most
	// analyzers a single key equal to Name).
	Keys []string
	// Run executes the check against one package.
	Run func(*Pass)
}

// A Diagnostic is one finding, positioned and ready to print.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suppressions map[suppKey]*suppression
	diags        []Diagnostic
}

type suppKey struct {
	file string
	line int
}

type suppression struct {
	key    string // "wallclock" in //lint:wallclock-ok
	reason string
	pos    token.Position
	used   bool
}

var suppRe = regexp.MustCompile(`^//lint:([a-z]+)-ok(?:[ \t]+(.*))?$`)

// newPass builds a Pass and indexes its suppression comments.
func newPass(a *Analyzer, pkg *Package) *Pass {
	p := &Pass{
		Analyzer:     a,
		Fset:         pkg.Fset,
		Files:        pkg.Files,
		Pkg:          pkg.Types,
		TypesInfo:    pkg.TypesInfo,
		suppressions: make(map[suppKey]*suppression),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				reason := strings.TrimSpace(m[2])
				// A trailing line comment after the suppression (the
				// fixture idiom `//lint:wallclock-ok x // want "..."`)
				// belongs to the next reader, not to the reason.
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = strings.TrimSpace(reason[:i])
				}
				pos := p.Fset.Position(c.Pos())
				p.suppressions[suppKey{pos.Filename, pos.Line}] = &suppression{
					key:    m[1],
					reason: reason,
					pos:    pos,
				}
			}
		}
	}
	return p
}

// Report records a finding with suppression key key at pos. If the
// flagged line (or the line above) carries a matching reasoned
// //lint:KEY-ok comment the finding is silenced; a matching bare
// suppression turns the finding into a missing-reason finding
// instead, so it still fails the gate.
func (p *Pass) Report(pos token.Pos, key, format string, args ...any) {
	where := p.Fset.Position(pos)
	if s := p.suppressionFor(where, key); s != nil {
		s.used = true
		if s.reason == "" {
			p.diags = append(p.diags, Diagnostic{
				Pos:      where,
				Analyzer: p.Analyzer.Name,
				Message: fmt.Sprintf(
					"bare //lint:%s-ok suppression: state the reason the invariant may be broken here (suppressed finding: %s)",
					key, fmt.Sprintf(format, args...)),
			})
		}
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      where,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressionFor(where token.Position, key string) *suppression {
	for _, line := range []int{where.Line, where.Line - 1} {
		if s, ok := p.suppressions[suppKey{where.Filename, line}]; ok && s.key == key {
			return s
		}
	}
	return nil
}

// CheckUnusedSuppressions reports every suppression comment in files
// that carries one of the analyzer's keys but silenced nothing.
// Analyzers call it at the end of Run with the files they actually
// examined (scoped analyzers skip files, and a suppression in a
// skipped file is not stale — it is simply out of scope).
func (p *Pass) CheckUnusedSuppressions(files []*ast.File) {
	keys := make(map[string]bool, len(p.Analyzer.Keys))
	for _, k := range p.Analyzer.Keys {
		keys[k] = true
	}
	examined := make(map[string]bool, len(files))
	for _, f := range files {
		examined[p.Fset.Position(f.Package).Filename] = true
	}
	var stale []*suppression
	for _, s := range p.suppressions {
		if keys[s.key] && !s.used && examined[s.pos.Filename] {
			stale = append(stale, s)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return posLess(stale[i].pos, stale[j].pos) })
	for _, s := range stale {
		p.diags = append(p.diags, Diagnostic{
			Pos:      s.pos,
			Analyzer: p.Analyzer.Name,
			Message:  fmt.Sprintf("unused //lint:%s-ok suppression: nothing to silence here, delete it", s.key),
		})
	}
}

// Run executes one analyzer over one loaded package and returns its
// findings sorted by position.
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	p := newPass(a, pkg)
	a.Run(p)
	sort.Slice(p.diags, func(i, j int) bool { return posLess(p.diags[i].Pos, p.diags[j].Pos) })
	return p.diags
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
