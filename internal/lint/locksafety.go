package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"scads/internal/lint/analysis"
)

// NewLockSafety builds the locksafety analyzer, two checks in one
// pass over every package:
//
//   - lockcopy: a value containing a sync lock (Mutex, RWMutex, Once,
//     WaitGroup, Cond — directly or via embedded fields/arrays) must
//     never be copied: by-value parameters, receivers and results,
//     range-value copies, and plain value assignments/returns of
//     existing lock-bearing values are flagged. A copied mutex guards
//     nothing.
//
//   - deferunlock: a mu.Lock()/mu.RLock() call whose function body
//     contains no matching mu.Unlock()/mu.RUnlock() (deferred or
//     inline, same receiver expression) leaks the lock on every
//     return path.
//
// Suppression keys: "lockcopy", "deferunlock" (a lock deliberately
// handed off across functions must say where it is released).
func NewLockSafety() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "locksafety",
		Doc:  "flags copies of lock-bearing values and Lock() calls with no same-function Unlock path",
		Keys: []string{"lockcopy", "deferunlock"},
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			checkLockCopies(pass, f)
			checkDeferUnlock(pass, f)
		}
		pass.CheckUnusedSuppressions(pass.Files)
		return nil
	}
	return a
}

// --- lockcopy ---

func checkLockCopies(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Recv != nil {
				reportLockFields(pass, v.Recv, "receiver")
			}
			reportLockFields(pass, v.Type.Params, "parameter")
			reportLockFields(pass, v.Type.Results, "result")
		case *ast.FuncLit:
			reportLockFields(pass, v.Type.Params, "parameter")
			reportLockFields(pass, v.Type.Results, "result")
		case *ast.RangeStmt:
			if v.Value != nil && containsLock(pass.TypesInfo.TypeOf(v.Value)) {
				pass.Report(v.Value.Pos(), "lockcopy",
					"range copies a lock-bearing value per iteration (%s): range over indices or pointers", typeName(pass.TypesInfo.TypeOf(v.Value)))
			}
		case *ast.AssignStmt:
			for _, rhs := range v.Rhs {
				reportLockValueRead(pass, rhs, "assignment copies")
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				reportLockValueRead(pass, res, "return copies")
			}
		case *ast.CallExpr:
			if isBuiltinAppend(pass, v) {
				return true // append's first arg is the slice itself
			}
			for _, arg := range v.Args {
				reportLockValueRead(pass, arg, "call argument copies")
			}
		}
		return true
	})
}

func reportLockFields(pass *analysis.Pass, fl *ast.FieldList, what string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if containsLock(t) {
			pass.Report(field.Type.Pos(), "lockcopy",
				"%s passes lock-bearing %s by value: use a pointer", what, typeName(t))
		}
	}
}

// reportLockValueRead flags expressions that read an existing
// lock-bearing value as a copy source: identifiers, field selections,
// index expressions and pointer dereferences. Fresh values (composite
// literals, function calls) are births, not copies.
func reportLockValueRead(pass *analysis.Pass, e ast.Expr, what string) {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	// A type expression, as in new(T), names a type; it holds no value.
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.IsType() {
		return
	}
	t := pass.TypesInfo.TypeOf(e)
	if !containsLock(t) {
		return
	}
	// Method values / package selectors have no copyable value.
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if _, isVar := pass.TypesInfo.Uses[sel.Sel].(*types.Var); !isVar {
			if pass.TypesInfo.Selections[sel] == nil {
				return
			}
		}
	}
	pass.Report(e.Pos(), "lockcopy", "%s lock-bearing %s: use a pointer", what, typeName(t))
}

// containsLock reports whether t (by value) carries a sync lock.
func containsLock(t types.Type) bool {
	return containsLockRec(t, make(map[types.Type]bool))
}

var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "Once": true, "WaitGroup": true, "Cond": true, "Map": true, "Pool": true,
}

func containsLockRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		obj := v.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return true
		}
		return containsLockRec(v.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if containsLockRec(v.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockRec(v.Elem(), seen)
	}
	return false
}

func typeName(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return t.String()
}

// --- deferunlock ---

// lockSite is one mu.Lock()/mu.RLock() call, keyed by the printed
// receiver expression so `s.mu` in two statements matches.
type lockSite struct {
	pos    token.Pos
	recv   string // printed receiver expression
	unlock string // the matching release method name
	lockFn string
}

func checkDeferUnlock(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		var locks []lockSite
		unlocks := make(map[string]bool) // recv + "." + method
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isLockReceiver(pass, sel.X) {
				return true
			}
			recv := exprString(pass.Fset, sel.X)
			switch sel.Sel.Name {
			case "Lock":
				locks = append(locks, lockSite{pos: call.Pos(), recv: recv, unlock: "Unlock", lockFn: "Lock"})
			case "RLock":
				locks = append(locks, lockSite{pos: call.Pos(), recv: recv, unlock: "RUnlock", lockFn: "RLock"})
			case "Unlock", "RUnlock":
				unlocks[recv+"."+sel.Sel.Name] = true
			}
			return true
		})
		for _, ls := range locks {
			if !unlocks[ls.recv+"."+ls.unlock] {
				pass.Report(ls.pos, "deferunlock",
					"%s.%s() with no %s.%s() (deferred or inline) in this function: every return path leaks the lock",
					ls.recv, ls.lockFn, ls.recv, ls.unlock)
			}
		}
		return true
	})
}

// isLockReceiver reports whether expr is a sync lock (or pointer to
// one), including types embedding one — anything whose Lock/Unlock
// come from a sync primitive.
func isLockReceiver(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			return true // Mutex, RWMutex, Locker values
		}
	}
	return containsLock(t)
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
