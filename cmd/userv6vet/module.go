package main

// Module loading: userv6vet type-checks the whole module from source
// using only the standard library and the go command. `go list` names
// the packages, the order to check them in, and the files the go tool
// builds for each (build constraints and the _ and . file-name rules
// applied). The files are parsed and checked here, so every unit sees
// fully-resolved types for its module-internal imports. Everything
// else (the standard library — the module has no other dependencies)
// is resolved by go/importer's source-mode importer.
//
// Each package yields up to three compilation units, mirroring the go
// tool's test build:
//
//   - the base package (GoFiles) — cached for import resolution,
//   - the in-package test unit (GoFiles + TestGoFiles), and
//   - the external test unit (XTestGoFiles, the foo_test package).
//
// Rules see every unit; the driver keeps only _test.go-positioned
// diagnostics from test units so base-file findings are never
// reported twice.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one type-checked compilation unit.
type Package struct {
	// Path is the unit's import path (module path + directory).
	Path string
	// Dir is the absolute directory the unit's files live in.
	Dir string
	// Files holds the unit's parsed files, in deterministic order.
	Files []*ast.File
	// Types and Info are the go/types results for the unit.
	Types *types.Package
	Info  *types.Info
	// Test marks the in-package and external test units.
	Test bool
}

// Module is a loaded, fully type-checked module tree.
type Module struct {
	// Root is the absolute directory holding go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset positions every file in every unit.
	Fset *token.FileSet
	// Pkgs lists every unit: all base packages first (in dependency
	// order), then the test units.
	Pkgs []*Package
}

// RelPath returns a unit path relative to the module path ("." for
// the module root package). Rules scope themselves by these paths so
// fixtures under any module name exercise the same logic.
func (m *Module) RelPath(p *Package) string {
	if p.Path == m.Path {
		return "."
	}
	return strings.TrimPrefix(p.Path, m.Path+"/")
}

// The source-mode stdlib importer re-type-checks each standard
// library package it touches, which costs a second or two; one shared
// instance (and one shared FileSet) amortizes that across every
// loadModule call in a process — the fixture tests load many tiny
// modules and would otherwise re-check "os" and friends per fixture.
var (
	sharedMu   sync.Mutex
	sharedFset = token.NewFileSet()
	stdImport  = importer.ForCompiler(sharedFset, "source", nil)
)

// moduleImporter resolves module-internal imports from the units
// type-checked so far and defers everything else to the shared
// source importer.
type moduleImporter struct {
	module string
	cache  map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.cache[path]; ok {
		return p, nil
	}
	if path == mi.module || strings.HasPrefix(path, mi.module+"/") {
		return nil, fmt.Errorf("module package %s not loaded (import cycle?)", path)
	}
	return stdImport.Import(path)
}

// listedPackage is the part of a `go list -json` record the loader
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Module     *struct{ Path, Dir string }
	GoFiles    []string
	// TestGoFiles are the same-package _test.go files, XTestGoFiles
	// the package foo_test files.
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// loadModule parses and type-checks every package of the module whose
// root is root: the packages `go list ./...` matches there, which
// leaves out testdata, vendor, _- and .-prefixed directories and
// nested modules.
func loadModule(root string) (*Module, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()

	// -deps prints every package after the packages it imports.
	out, err := goList(root, "-e", "-deps", "-json=ImportPath,Dir,Standard,Module,GoFiles,TestGoFiles,XTestGoFiles,Error", "./...")
	if err != nil {
		return nil, err
	}
	m := &Module{Fset: sharedFset}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("reading go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard {
			continue
		}
		if lp.Module == nil {
			return nil, fmt.Errorf("%s is not in a module", lp.ImportPath)
		}
		m.Root, m.Path = lp.Module.Dir, lp.Module.Path
		listed = append(listed, lp)
	}
	if len(listed) == 0 {
		return nil, fmt.Errorf("no packages in %s", root)
	}

	imp := &moduleImporter{module: m.Path, cache: map[string]*types.Package{}}
	// unit parses the named files of dir, type-checks them after the
	// already parsed files base as one unit, and adds it to m.
	unit := func(path, dir string, base []*ast.File, names []string, test bool) (*Package, error) {
		files, err := parseFiles(m.Fset, dir, names)
		if err != nil {
			return nil, err
		}
		pkg, err := check(m, imp, path, dir, append(append([]*ast.File{}, base...), files...), test)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
		return pkg, nil
	}
	// Base units first, in dependency order, feeding the import cache.
	for _, lp := range listed {
		pkg, err := unit(lp.ImportPath, lp.Dir, nil, lp.GoFiles, false)
		if err != nil {
			return nil, err
		}
		imp.cache[lp.ImportPath] = pkg.Types
	}
	// Then the test units: every base package is now importable, so
	// order no longer matters. The in-package unit re-checks the base
	// files together with the _test.go files, exactly as `go test`
	// compiles them.
	for i, lp := range listed {
		if len(lp.TestGoFiles) > 0 {
			if _, err := unit(lp.ImportPath, lp.Dir, m.Pkgs[i].Files, lp.TestGoFiles, true); err != nil {
				return nil, err
			}
		}
		if len(lp.XTestGoFiles) > 0 {
			if _, err := unit(lp.ImportPath+"_test", lp.Dir, nil, lp.XTestGoFiles, true); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// goList runs `go list args...` in dir and returns its standard
// output; a failed run's error carries the go tool's message.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return nil, fmt.Errorf("go list: %s", bytes.TrimSpace(exit.Stderr))
	}
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	return out, nil
}

// parseFiles parses the named files of dir.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	return files, nil
}

// check type-checks one unit.
func check(m *Module, imp types.Importer, path, dir string, files []*ast.File, test bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Test: test}, nil
}
