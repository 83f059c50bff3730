// Command userv6vet is the repo's static-analysis gate: a small
// go/ast + go/types pass framework enforcing the cross-cutting
// invariants the test suite cannot see locally — mutating file I/O
// flows through the internal/faultio seam, backoff sleeps stay
// ctx-aware via internal/retry, commutative-analyzer registrations
// carry a usable Merge, sentinel errors are matched with errors.Is,
// and sync.Pool Gets have Puts. Zero dependencies: `go list` names the
// module's packages and the files the go tool builds for them, those
// are type-checked here, and the standard library resolves through
// go/importer's source mode.
//
// Usage:
//
//	userv6vet [packages]
//	userv6vet -rules
//
// Package arguments, any pattern `go list` accepts in the working
// directory, select the module to analyze (the module holding the
// packages they name); analysis always covers the whole module,
// because the invariants are module-wide ("./..." and "." both mean
// the module around the working directory). Findings print as
// file:line:col: rule-name: message and any finding makes the exit
// status 1; a module that fails to load or type-check makes it 2.
// -rules prints the rule names and exits; it takes no packages.
//
// Per-file suppression: a //userv6vet:ignore rule-name comment
// anywhere in a file silences that rule for the file. Unknown rule
// names and suppressions that no longer match any finding are
// themselves findings, so stale comments rot loudly, not silently.
// See docs/STATIC_ANALYSIS.md for the rule catalog and how to add a
// rule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command line: it parses args, lints, writes findings to
// stdout and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("userv6vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("rules", false, "list the rules and exit (takes no packages)")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: userv6vet [packages]\n       userv6vet -rules\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	rules := allRules()
	if *list {
		if flags.NArg() > 0 {
			fmt.Fprintln(stderr, "userv6vet: -rules only lists the rules; it takes no packages")
			flags.Usage()
			return 2
		}
		for _, r := range rules {
			fmt.Fprintln(stdout, r.Name())
		}
		return 0
	}

	root, err := moduleRoot(flags.Args())
	if err != nil {
		fmt.Fprintln(stderr, "userv6vet:", err)
		return 2
	}
	mod, err := loadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "userv6vet:", err)
		return 2
	}
	diags := runRules(mod, rules)
	for _, d := range diags {
		fmt.Fprintln(stdout, relToCwd(d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "userv6vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot returns the root directory of the module holding the
// packages args name, as `go list` resolves them in the working
// directory. All of them must be in one module.
func moduleRoot(args []string) (string, error) {
	out, err := goList(".", append([]string{"-f", "{{.Module.Dir}}"}, args...)...)
	if err != nil {
		return "", err
	}
	dirs := strings.Split(strings.TrimSpace(string(out)), "\n")
	if dirs[0] == "" {
		return "", fmt.Errorf("no packages match %q", args)
	}
	for _, dir := range dirs[1:] {
		if dir != dirs[0] {
			return "", fmt.Errorf("arguments span two modules (%s and %s)", dirs[0], dir)
		}
	}
	return dirs[0], nil
}

// relToCwd renders a diagnostic with a working-directory-relative
// file path when that is shorter, matching go vet's output style.
func relToCwd(d Diagnostic) string {
	if cwd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
			d.Pos.Filename = rel
		}
	}
	return d.String()
}
