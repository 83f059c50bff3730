package main

// The pass framework: a Rule inspects one type-checked unit at a time
// and returns diagnostics; the driver runs every rule over every unit,
// applies per-file suppression comments, and reports findings as
// file:line:col: rule-name: message.
//
// Adding a rule is three steps (docs/STATIC_ANALYSIS.md walks through
// them): implement Rule, add the value to allRules, and drop a fixture
// package under testdata/src/<rule-name>/ with // want expectations.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass is the per-unit context handed to each rule: the parsed files,
// the go/types results, the unit's import path, and the whole module
// (its file set and module-relative paths).
type Pass struct {
	Module *Module
	Pkg    *Package
}

// Fset returns the position table for the pass's files.
func (p *Pass) Fset() *token.FileSet { return p.Module.Fset }

// RelPath returns the unit's module-relative import path, the key
// rules scope themselves by.
func (p *Pass) RelPath() string { return p.Module.RelPath(p.Pkg) }

// FileIsTest reports whether f is a _test.go file.
func (p *Pass) FileIsTest(f *ast.File) bool {
	return strings.HasSuffix(p.Fset().Position(f.Pos()).Filename, "_test.go")
}

// Diag constructs a diagnostic for the rule at pos.
func (p *Pass) Diag(rule string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Fset().Position(pos), Rule: rule, Message: fmt.Sprintf(format, args...)}
}

// Rule is one invariant check.
type Rule interface {
	// Name is the identifier printed in findings and accepted by
	// //userv6vet:ignore comments.
	Name() string
	// Check inspects one unit and returns its findings.
	Check(*Pass) []Diagnostic
}

// allRules returns fresh instances of every shipped rule.
func allRules() []Rule {
	return []Rule{
		&faultioSeamRule{},
		&ctxSleepRule{},
		&commutativeRule{},
		&errorsIsRule{},
		&poolRule{},
	}
}

// suppressRule names the driver's own findings about suppression
// comments (unknown rule names, comments that no longer suppress
// anything). They are not themselves suppressible — a rotten
// suppression must be deleted, not ignored harder.
const suppressRule = "suppression"

const suppressPrefix = "userv6vet:ignore"

// runRules applies rules to every unit of m and returns the surviving
// diagnostics, sorted by position. Suppression comments of the form
//
//	//userv6vet:ignore rule-a,rule-b
//
// silence the named rules for the whole file they appear in; a
// comment naming an unknown rule, or one whose rules produced no
// findings in that file, is itself reported (that is what keeps the
// nightly lint run honest about suppression rot).
func runRules(m *Module, rules []Rule) []Diagnostic {
	known := map[string]bool{}
	for _, r := range rules {
		known[r.Name()] = true
	}

	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		pass := &Pass{Module: m, Pkg: pkg}
		for _, r := range rules {
			for _, d := range r.Check(pass) {
				// Test units re-check the base files; keep only what is
				// positioned in _test.go files so base findings surface
				// exactly once, from the base unit.
				if pkg.Test && !strings.HasSuffix(d.Pos.Filename, "_test.go") {
					continue
				}
				diags = append(diags, d)
			}
		}
	}

	// Per-file suppression. Directives are collected from every unit
	// (base files appear in two units; the map is idempotent).
	type directive struct {
		pos   token.Position
		rules []string
	}
	fileDirectives := map[string][]directive{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			name := m.Fset.Position(f.Pos()).Filename
			if _, seen := fileDirectives[name]; seen {
				continue
			}
			dirs := []directive{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, suppressPrefix)
					if !ok {
						continue
					}
					// Rule names, comma or space separated; an embedded
					// "//" starts trailing commentary (the place to
					// justify the suppression).
					var names []string
					for _, part := range strings.Fields(strings.ReplaceAll(rest, ",", " ")) {
						if strings.HasPrefix(part, "//") {
							break
						}
						names = append(names, part)
					}
					dirs = append(dirs, directive{pos: m.Fset.Position(c.Pos()), rules: names})
				}
			}
			fileDirectives[name] = dirs
		}
	}

	suppressed := map[string]map[string]bool{} // file -> rule -> suppressed
	var suppDiags []Diagnostic
	for file, dirs := range fileDirectives {
		for _, d := range dirs {
			if len(d.rules) == 0 {
				suppDiags = append(suppDiags, Diagnostic{Pos: d.pos, Rule: suppressRule,
					Message: "ignore directive names no rules (want //userv6vet:ignore rule-name)"})
				continue
			}
			for _, rn := range d.rules {
				if !known[rn] {
					suppDiags = append(suppDiags, Diagnostic{Pos: d.pos, Rule: suppressRule,
						Message: fmt.Sprintf("ignore directive names unknown rule %q", rn)})
					continue
				}
				if suppressed[file] == nil {
					suppressed[file] = map[string]bool{}
				}
				suppressed[file][rn] = true
			}
		}
	}

	kept := diags[:0]
	used := map[string]map[string]bool{} // file -> rule -> had findings
	for _, d := range diags {
		if used[d.Pos.Filename] == nil {
			used[d.Pos.Filename] = map[string]bool{}
		}
		used[d.Pos.Filename][d.Rule] = true
		if suppressed[d.Pos.Filename][d.Rule] {
			continue
		}
		kept = append(kept, d)
	}
	for file, dirs := range fileDirectives {
		for _, d := range dirs {
			for _, rn := range d.rules {
				if known[rn] && !used[file][rn] {
					suppDiags = append(suppDiags, Diagnostic{Pos: d.pos, Rule: suppressRule,
						Message: fmt.Sprintf("unused suppression: rule %q reports nothing in this file", rn)})
				}
			}
		}
	}
	kept = append(kept, suppDiags...)

	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	// Deduplicate: a base file can in principle yield the same finding
	// from two units.
	dedup := kept[:0]
	for i, d := range kept {
		if i > 0 && d == kept[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}

// calledFunc resolves the function or method a call expression
// invokes, seeing through parentheses and generic instantiation.
// Returns nil for calls through function-typed variables, conversions,
// and builtins.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.IndexExpr:
		id = instIdent(fn.X)
	case *ast.IndexListExpr:
		id = instIdent(fn.X)
	}
	if id == nil {
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

func instIdent(x ast.Expr) *ast.Ident {
	switch fn := ast.Unparen(x).(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}

// relPathMatches reports whether a module-relative package path is, or
// ends with, target (so fixtures under any module name hit the same
// scoping as the real tree).
func relPathMatches(rel, target string) bool {
	return rel == target || strings.HasSuffix(rel, "/"+target)
}
