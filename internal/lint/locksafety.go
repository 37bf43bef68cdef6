package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"scads/internal/lint/analysis"
)

// NewLockSafety builds the locksafety analyzer's deferunlock check: a
// mu.Lock()/mu.RLock() call whose function body contains no matching
// mu.Unlock()/mu.RUnlock() (deferred or inline, same receiver
// expression) leaks the lock on every return path. Copies of
// lock-bearing values are go vet's copylocks, which tier-1 runs over the
// module (TestCopyLocks).
//
// Suppression key: "deferunlock" (a lock deliberately handed off across
// functions must say where it is released).
func NewLockSafety() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "locksafety",
		Doc:  "flags Lock() calls with no same-function Unlock path",
		Keys: []string{"deferunlock"},
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			checkDeferUnlock(pass, f)
		}
		pass.CheckUnusedSuppressions(pass.Files)
		return nil
	}
	return a
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
