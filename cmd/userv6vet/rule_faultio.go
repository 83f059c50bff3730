package main

// faultio-seam: mutating file I/O in the dataset layer must flow
// through the internal/faultio FS seam. A direct os.Create (or
// OpenFile/Rename/Remove/MkdirAll) in internal/dataset,
// internal/telemetry, cmd/userv6gen, or the root package (whose
// fillFile writes every exported, generated and resumed file) is
// invisible to the fault-injection harness: `gen -faults` and the crash-sweep tests
// would silently stop covering that write path, which is exactly the
// methodology drift PR 5 built the seam to prevent. The faultio
// package itself is the one place the os calls belong.

import "go/ast"

type faultioSeamRule struct{}

func (faultioSeamRule) Name() string { return "faultio-seam" }

// seamScopes are the module-relative package paths whose mutating
// I/O must use the seam ("." is the module's root package).
var seamScopes = []string{".", "internal/dataset", "internal/telemetry", "cmd/userv6gen"}

// seamFuncs maps the os functions the rule intercepts to the FS
// method that replaces them.
var seamFuncs = map[string]string{
	"Create":   "Create",
	"OpenFile": "Create",
	"Rename":   "Rename",
	"Remove":   "Remove",
	"MkdirAll": "MkdirAll",
}

func (r faultioSeamRule) Check(pass *Pass) []Diagnostic {
	rel := pass.RelPath()
	inScope := false
	for _, s := range seamScopes {
		if relPathMatches(rel, s) {
			inScope = true
			break
		}
	}
	if !inScope || relPathMatches(rel, "internal/faultio") {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		if pass.FileIsTest(f) {
			// Tests set up their own scratch files; only production
			// paths need the injectable seam.
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(pass.Pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
				return true
			}
			if seam, ok := seamFuncs[fn.Name()]; ok {
				diags = append(diags, pass.Diag(r.Name(), call.Pos(),
					"direct os.%s bypasses the fault-injection seam; use faultio.FS.%s (docs/FAULT_INJECTION.md)",
					fn.Name(), seam))
			}
			return true
		})
	}
	return diags
}
