package main

// pool-discipline: a sync.Pool.Get with no matching Put leaks the
// pooled object — the pool drains under load and every "hit" becomes
// a fresh allocation, which defeats the reason the hot paths
// (LZ tables, delta scratch buffers, decoded record batches) pool at all.
// The rule flags Get calls in functions that contain no Put on any
// path. Two shapes are recognized as transferring Put responsibility
// elsewhere and exempted:
//
//   - the function Puts somewhere (including inside a defer or a
//     nested function literal — path-sensitivity is approximated by
//     presence);
//   - the Get result is returned to the caller (directly, or via a
//     variable that appears in a return statement), the accessor
//     shape dataset's pools use: the caller owns the object and its
//     Put.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type poolRule struct{}

func (poolRule) Name() string { return "pool-discipline" }

func (r poolRule) Check(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		if pass.FileIsTest(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, r.checkFunc(pass, fd)...)
		}
	}
	return diags
}

func (r poolRule) checkFunc(pass *Pass, fd *ast.FuncDecl) []Diagnostic {
	info := pass.Pkg.Info
	var (
		gets    []*ast.CallExpr
		putSeen bool
		returns []*ast.ReturnStmt
	)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch poolMethod(info, n) {
			case "Get":
				gets = append(gets, n)
			case "Put":
				putSeen = true
			}
		case *ast.ReturnStmt:
			returns = append(returns, n)
		}
		return true
	})
	if len(gets) == 0 || putSeen {
		return nil
	}
	var diags []Diagnostic
	for _, get := range gets {
		if getEscapesViaReturn(info, fd.Body, get, returns) {
			continue
		}
		diags = append(diags, pass.Diag(r.Name(), get.Pos(),
			"sync.Pool.Get with no Put on any return path leaks the pooled object (Put it, return it to the caller, or move the Put here)"))
	}
	return diags
}

// poolMethod returns "Get"/"Put" when call invokes the corresponding
// sync.Pool method, else "".
func poolMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calledFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	if fn.Name() != "Get" && fn.Name() != "Put" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Pool" {
		return ""
	}
	return fn.Name()
}

// getEscapesViaReturn reports whether the Get result itself reaches a
// return statement: the returned expression is the Get call, or a
// variable the call was assigned to, possibly through a chain of
// derefs/slices/field selections/type assertions. Merely mentioning
// the variable inside a wider expression (return len(*b)) does not
// hand the object to the caller.
func getEscapesViaReturn(info *types.Info, body *ast.BlockStmt, get *ast.CallExpr, returns []*ast.ReturnStmt) bool {
	// Objects the Get result is bound to, from the assignment whose
	// RHS holds the call.
	var bound []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		rhsHasGet := false
		for _, rhs := range asg.Rhs {
			if containsNode(rhs, get) {
				rhsHasGet = true
				break
			}
		}
		if !rhsHasGet {
			return true
		}
		for _, lhs := range asg.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					bound = append(bound, obj)
				} else if obj := info.Uses[id]; obj != nil {
					bound = append(bound, obj)
				}
			}
		}
		return true
	})
	for _, ret := range returns {
		for _, res := range ret.Results {
			if exprYieldsGet(info, res, get, bound) {
				return true
			}
		}
	}
	return false
}

// exprYieldsGet reports whether e evaluates to the pooled object:
// the Get call or a bound variable, unwrapped through the value-
// preserving layers (deref, address-of, slice, index, field,
// type assertion, parens).
func exprYieldsGet(info *types.Info, e ast.Expr, get *ast.CallExpr, bound []types.Object) bool {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return false
			}
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		case *ast.CallExpr:
			return v == get
		case *ast.Ident:
			obj := info.Uses[v]
			for _, b := range bound {
				if obj == b {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
}

// containsNode reports whether node target occurs within root.
func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
