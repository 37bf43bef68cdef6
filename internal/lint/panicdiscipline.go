package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewPanicDiscipline builds the panicdiscipline analyzer. The repo's
// contract (PR 2's panic audit): library code never panics on dynamic
// data — a panic is legal only when its argument is a compile-time
// constant (programmer-error assertions like "unreachable") or inside
// a Must* function, the regexp.MustCompile convention for statically
// known inputs (keycodec.MustEncode, query.MustParse). Everything
// reached by caller- or wire-supplied values must return an error.
// Re-panicking a recovered value is allowed (the goroutine-join idiom).
//
// Suppression key: "panic".
func NewPanicDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "panicdiscipline",
		Keys: []string{"panic"},
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					return true
				}
				checkPanics(pass, fd)
				return true
			})
		}
		pass.CheckUnusedSuppressions(pass.Files)
	}
	return a
}

func checkPanics(pass *Pass, fd *ast.FuncDecl) {
	if strings.HasPrefix(fd.Name.Name, "Must") {
		return
	}
	// Objects assigned from recover(): re-panicking them propagates a
	// failure that already happened, it does not originate one.
	recovered := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "recover" {
			return true
		}
		if obj := assignedObject(pass, as.Lhs[0]); obj != nil {
			recovered[obj] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
			return true
		}
		arg := call.Args[0]
		if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
			return true // compile-time constant: a static assertion
		}
		if argID, ok := arg.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[argID]; obj != nil && recovered[obj] {
				return true // re-panic of a recovered value
			}
		}
		pass.Report(call.Pos(), "panic",
			"panic on non-constant data outside a Must* function: return an error (dynamic inputs must never panic library code)")
		return true
	})
}

// assignedObject resolves the object an assignment LHS binds or
// writes (Defs for :=, Uses for =; blank gives nil).
func assignedObject(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}
