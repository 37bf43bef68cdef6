package lint

import (
	"go/ast"
	"go/types"
)

// rpcPkgPath is the transport package whose Request/Response types the
// retry contract is written against.
const rpcPkgPath = "scads/internal/rpc"

// NewRPCRetry builds the rpcretry analyzer for the coordinator
// packages in packages. The invariant: a fence, a dead node and an
// overloaded node delay a request, they never fail it — and one
// primitive (partition's retry.go) implements that, so the analyzer
// only has to keep every round trip inside it. Within the scoped
// packages a transport Call (signature func(string, rpc.Request)
// (rpc.Response, error)) may appear only in an attempt — a function
// literal passed where a parameter of the named type `attempt` is
// expected — and Response.Error() only there or in the primitive
// itself, a function that takes an attempt. Anything else is a
// coordinator path reading transport or node errors for itself.
//
// Suppression key: "rpcretry".
func NewRPCRetry(packages []string) *Analyzer {
	pkgSet := stringSet(packages)
	a := &Analyzer{
		Name: "rpcretry",
		Keys: []string{"rpcretry"},
	}
	a.Run = func(pass *Pass) {
		if !pkgSet[pass.Pkg.Path()] {
			return
		}
		for _, f := range pass.Files {
			checkRetryFile(pass, f)
		}
		pass.CheckUnusedSuppressions(pass.Files)
	}
	return a
}

func checkRetryFile(pass *Pass, f *ast.File) {
	attempts := make(map[*ast.FuncLit]bool)
	var stack []ast.Node // ancestors of the node being visited, outermost first
	// within reports whether the visited node sits inside an attempt
	// literal or, when primitiveToo, inside a function taking one.
	within := func(primitiveToo bool) bool {
		for _, n := range stack {
			switch fn := n.(type) {
			case *ast.FuncLit:
				if attempts[fn] {
					return true
				}
			case *ast.FuncDecl:
				if primitiveToo && takesAttempt(pass, fn) {
					return true
				}
			}
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Inspect visits a call before its arguments, so literals are
		// marked before the calls inside them are judged.
		if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok {
			for i, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok && i < sig.Params().Len() && isAttempt(sig.Params().At(i).Type()) {
					attempts[lit] = true
				}
			}
		}
		switch {
		case isTransportCall(pass, call) && !within(false):
			pass.Report(call.Pos(), "rpcretry",
				"transport Call outside an attempt: hand the round trip to the request-execution primitive so its errors are classified and retried under the shared budget")
		case isResponseError(pass, call) && !within(true):
			pass.Report(call.Pos(), "rpcretry",
				"Response.Error() outside the request-execution primitive: a node's error is classified there, once; callers get the answer or the give-up error")
		}
		return true
	})
}

// isAttempt reports whether t is the named type attempt.
func isAttempt(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "attempt"
}

func takesAttempt(pass *Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isAttempt(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isTransportCall reports whether call invokes a method named Call
// with the transport signature func(string, rpc.Request)
// (rpc.Response, error) — the rpc.Transport interface or any concrete
// transport.
func isTransportCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Call" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 2 {
		return false
	}
	if b, ok := sig.Params().At(0).Type().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	return isRPCNamed(sig.Params().At(1).Type(), "Request") &&
		isRPCNamed(sig.Results().At(0).Type(), "Response")
}

// isResponseError reports whether call is resp.Error() on an
// rpc.Response.
func isResponseError(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isRPCNamed(t, "Response")
}

func isRPCNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == rpcPkgPath
}
