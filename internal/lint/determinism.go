package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Wall-clock and ambient-randomness functions forbidden in the
// deterministic control-plane packages. Everything time-dependent
// there must flow through an injected clock.Clock (virtual in
// simulations and experiments) and every random draw through a
// caller-seeded *rand.Rand, or the e16 bit-identical-metrics gate is
// one innocent call away from flaking.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// NewDeterminism builds the determinism analyzer. packages are the
// import paths checked in full; files are additional "pkgpath:base"
// entries for individual files of otherwise-unscoped packages (the
// root package's elastic.go, which holds LocalCluster.Resize).
//
// Suppression keys: "wallclock" for time/randomness findings
// (the sanctioned real-clock adapter and deliberately wall-clock data
// planes), "maporder" for map-iteration-order findings.
func NewDeterminism(packages, files []string) *Analyzer {
	pkgSet := stringSet(packages)
	fileSet := stringSet(files)
	a := &Analyzer{
		Name: "determinism",
		Keys: []string{"wallclock", "maporder"},
	}
	a.Run = func(pass *Pass) {
		var examined []*ast.File
		for _, f := range pass.Files {
			base := pass.Fset.Position(f.Package).Filename
			if i := strings.LastIndexByte(base, '/'); i >= 0 {
				base = base[i+1:]
			}
			if !pkgSet[pass.Pkg.Path()] && !fileSet[pass.Pkg.Path()+":"+base] {
				continue
			}
			examined = append(examined, f)
			checkWallClock(pass, f)
			checkMapOrder(pass, f)
		}
		pass.CheckUnusedSuppressions(examined)
	}
	return a
}

func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// checkWallClock flags every use (call or value reference) of a
// forbidden time function or of math/rand package-level state.
func checkWallClock(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return true // methods (time.Time.After, clock.Clock.Now) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTimeFuncs[fn.Name()] {
				pass.Report(sel.Pos(), "wallclock",
					"time.%s in a deterministic control-plane package: inject a clock.Clock instead", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			// Constructors for explicitly seeded generators are the
			// sanctioned route; everything else draws from ambient
			// process-global state.
			if !strings.HasPrefix(fn.Name(), "New") {
				pass.Report(sel.Pos(), "wallclock",
					"global math/rand state (rand.%s) in a deterministic control-plane package: draw from a caller-seeded *rand.Rand", fn.Name())
			}
		}
		return true
	})
}

// checkMapOrder flags range-over-map loops whose iteration order
// leaks into results: appending to a slice declared outside the loop
// (ordered output) unless the function later sorts it, and compound
// float/string accumulation (neither is associative, so the sum or
// concatenation is bit-dependent on map order).
func checkMapOrder(pass *Pass, f *ast.File) {
	// Walk function by function so absolution (a later sort call) can
	// be resolved within the enclosing function body.
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil {
			checkMapOrderFunc(pass, body)
		}
		return true
	})
}

func checkMapOrderFunc(pass *Pass, body *ast.BlockStmt) {
	sorted := sortedObjects(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		reported := false
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			if reported {
				return false
			}
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch as.Tok {
			case token.ASSIGN, token.DEFINE:
				// s = append(s, ...) where s outlives the loop: the
				// element order is the map's iteration order.
				for i, rhs := range as.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 || i >= len(as.Lhs) {
						continue
					}
					obj := exprObject(pass, as.Lhs[i])
					if obj == nil || !declaredOutside(obj, rs) {
						continue
					}
					if sorted[obj] {
						continue // function sorts it afterwards
					}
					pass.Report(rs.Pos(), "maporder",
						"map iteration order reaches ordered output (append to %q with no later sort): iterate sorted keys or sort the result", obj.Name())
					reported = true
					return false
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				// Float accumulation is not associative: summing in map
				// order makes the low bits run-dependent. String +=
				// concatenates in map order outright.
				lhs := as.Lhs[0]
				bt, ok := pass.TypesInfo.TypeOf(lhs).(*types.Basic)
				if !ok {
					return true
				}
				info := bt.Info()
				if info&types.IsFloat == 0 && (as.Tok != token.ADD_ASSIGN || info&types.IsString == 0) {
					return true
				}
				if obj := exprObject(pass, lhs); obj != nil && !declaredOutside(obj, rs) {
					return true // accumulator local to one iteration
				}
				kind := "float"
				if info&types.IsString != 0 {
					kind = "string"
				}
				pass.Report(rs.Pos(), "maporder",
					"%s accumulation (%s) inside map iteration is order-dependent: iterate sorted keys", kind, exprString(pass.Fset, lhs)+" "+as.Tok.String())
				reported = true
				return false
			}
			return true
		})
		return true
	})
}

// sortedObjects collects objects passed to a sort.*/slices.Sort* call
// anywhere in the function: their final order is imposed explicitly,
// so map-order appends into them are fine.
func sortedObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = u.X
			}
			if obj := exprObject(pass, arg); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// exprObject resolves the variable object a simple lvalue refers to
// (x, s.f — resolved to the root identifier's object for field
// selectors so `up.Rate += v` tracks `up`).
func exprObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[v]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement (so writes to it survive the loop).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}
