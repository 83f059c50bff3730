package main

// Golden-fixture tests, analysistest-style but hand-rolled: each
// directory under testdata/src is a tiny self-contained module named
// after the rule it exercises, and every expected finding is marked
// on its line with a
//
//	// want `regex`
//
// comment. The harness loads the fixture module, runs the full rule
// suite over it, and demands an exact match in both directions: every
// diagnostic must land on a line with a matching want, and every want
// must be consumed. Flipping any fixture line — deleting a violation
// or adding one — fails the test.
//
// TestRealTreeClean is the self-check: the repo this tool ships in
// must satisfy its own invariants.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile("// want `([^`]+)`")

type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regex: %v", path, line, err)
				}
				abs, err := filepath.Abs(path)
				if err != nil {
					return err
				}
				wants = append(wants, &want{file: abs, line: line, pattern: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func TestFixtures(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no fixtures under testdata/src")
	}
	ruleNames := map[string]bool{suppressRule: true}
	for _, r := range allRules() {
		ruleNames[r.Name()] = true
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		t.Run(ent.Name(), func(t *testing.T) {
			if !ruleNames[ent.Name()] {
				t.Fatalf("fixture %q does not name a rule (have %v)", ent.Name(), ruleNames)
			}
			dir := filepath.Join("testdata", "src", ent.Name())
			mod, err := loadModule(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags := runRules(mod, allRules())
			wants := collectWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want expectations", ent.Name())
			}
			for _, d := range diags {
				if !claim(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// claim marks the first unconsumed want matching d and reports
// whether one existed. Wants match on file, line, and a regex over
// "rule: message".
func claim(wants []*want, d Diagnostic) bool {
	text := d.Rule + ": " + d.Message
	for _, w := range wants {
		if w.matched || w.line != d.Pos.Line || w.file != d.Pos.Filename {
			continue
		}
		if w.pattern.MatchString(text) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestRealTreeClean asserts the repository itself passes its own
// lint gate: zero findings over every package of the module,
// suppressions included. If this fails, either fix the finding or —
// when the code is right and the rule's approximation is wrong —
// add a //userv6vet:ignore with a justification and adjust the rule's
// fixture to cover the pattern.
func TestRealTreeClean(t *testing.T) {
	mod, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "userv6" {
		t.Fatalf("loaded module %q, want userv6 (wrong root?)", mod.Path)
	}
	if len(mod.Pkgs) < 20 {
		t.Fatalf("loaded only %d units — go list lost packages", len(mod.Pkgs))
	}
	diags := runRules(mod, allRules())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestRuleNamesUniqueAndStable(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range allRules() {
		name := r.Name()
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
		if name != strings.ToLower(name) || strings.ContainsAny(name, " \t") {
			t.Errorf("rule name %q is not kebab-case", name)
		}
		if name == suppressRule {
			t.Errorf("rule name %q collides with the driver's suppression findings", name)
		}
	}
	for _, expect := range []string{"faultio-seam", "ctx-sleep", "commutative-contract", "errors-is", "pool-discipline"} {
		if !seen[expect] {
			t.Errorf("shipped rule %q missing from allRules", expect)
		}
	}
}

// TestCommandLine: -rules lists the rule names and exits 0, and with
// package arguments (the shape of a rule subset, which the tool does
// not have) it exits 2 with a usage error instead of linting nothing;
// "." and "./..." both pick the module around the working directory.
func TestCommandLine(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-rules"}, &out, &errs); code != 0 {
		t.Fatalf("-rules exited %d: %s", code, errs.String())
	}
	var names []string
	for _, r := range allRules() {
		names = append(names, r.Name()+"\n")
	}
	if got, want := out.String(), strings.Join(names, ""); got != want {
		t.Errorf("-rules printed %q, want %q", got, want)
	}

	out.Reset()
	errs.Reset()
	if code := run([]string{"-rules", "ctx-sleep,errors-is", "./..."}, &out, &errs); code != 2 {
		t.Errorf("-rules with packages exited %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errs.String(), "usage:") {
		t.Errorf("-rules with packages printed %q and %q, want only a usage error", out.String(), errs.String())
	}

	want, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if root, err := moduleRoot([]string{".", "./..."}); err != nil || root != want {
		t.Errorf(`moduleRoot(".", "./...") = %q, %v; want %q`, root, err, want)
	}
}
