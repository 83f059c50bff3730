package main

// commutative-contract: registering an analyzer with
// AddCommutativeAnalyzer (the only registration call) authorizes the
// fused execution mode to split its stream arbitrarily and fold the
// replicas back — which is only sound if the type actually carries a
// fold. Every type passed to AddCommutativeAnalyzer (or its Filtered
// variant) in non-test code must implement Merge with a matching
// receiver — exactly one parameter of the registered type, so the
// method expression fits the fold signature func(into, from T).
//
// Test files may register throwaway doubles with inline folds, so only
// non-test registrations are held to the Merge requirement.

import (
	"go/ast"
	"go/types"
)

type commutativeRule struct{}

func (*commutativeRule) Name() string { return "commutative-contract" }

var commutativeAdders = map[string]bool{
	"AddCommutativeAnalyzer":         true,
	"AddCommutativeAnalyzerFiltered": true,
}

func (r *commutativeRule) Check(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if pass.FileIsTest(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if t, ok := registeredArgType(info, call); ok {
					if msg := mergeContractError(t); msg != "" {
						diags = append(diags, pass.Diag(r.Name(), call.Pos(), "%s", msg))
					}
				}
			}
			return true
		})
	}
	return diags
}

// registeredArgType returns the static type of the primary analyzer
// argument when call is an AddCommutativeAnalyzer{,Filtered}
// invocation (matched by name, so fixture frameworks qualify).
func registeredArgType(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	fn := calledFunc(info, call)
	if fn == nil || !commutativeAdders[fn.Name()] || len(call.Args) < 2 {
		return nil, false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Type == nil {
		return nil, false
	}
	return tv.Type, true
}

// mergeContractError checks the Merge half of the contract for a
// registered type and returns a diagnostic message, or "" when the
// contract holds.
func mergeContractError(t types.Type) string {
	named := namedOf(t)
	if named == nil {
		// Interface or anonymous type: nothing to pin a method on.
		return ""
	}
	name := named.Obj().Name()
	// The method set of the registered type must carry Merge: found on
	// *T only while T was registered means the receiver doesn't match
	// what the fold is handed.
	sel := types.NewMethodSet(t).Lookup(nil, "Merge")
	if sel == nil {
		if types.NewMethodSet(types.NewPointer(named)).Lookup(nil, "Merge") != nil {
			return name + " is registered with AddCommutativeAnalyzer by value but Merge has a pointer receiver; the fold would merge into a copy"
		}
		return name + " is registered with AddCommutativeAnalyzer but implements no Merge; the fused fold has nothing to call"
	}
	sig := sel.Obj().Type().(*types.Signature)
	if sig.Params().Len() != 1 || !types.Identical(sig.Params().At(0).Type(), t) {
		return name + " is registered with AddCommutativeAnalyzer but its Merge does not take exactly one " +
			types.TypeString(t, nil) + "; the method expression cannot serve as the fold"
	}
	return ""
}

// namedOf unwraps pointers down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
