package main

// CLI tests run the real command in a child process: the test binary
// re-executes itself with USERV6_MAIN=1, and TestMain hands the child's
// arguments to main instead of running the tests.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("USERV6_MAIN") == "1" {
		os.Args = append([]string{"userv6"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "USERV6_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestUnknownExperimentPrintsUsage: an unknown experiment exits 2 with
// the usage text, which lists every experiment, before any simulation
// is built.
func TestUnknownExperimentPrintsUsage(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-users", "100", "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("stdout = %q, want nothing", stdout)
	}
	for _, want := range []string{`unknown experiment "fig99"`, "usage: userv6 [-users N] [-seed S] <experiment>", "run every experiment"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	for _, e := range experimentOrder {
		if !strings.Contains(stderr, "  "+e+" ") {
			t.Fatalf("usage does not list %s:\n%s", e, stderr)
		}
	}
}

// TestUsersMustBePositive: a population below one user is refused with
// exit 2 and an error naming the flag, instead of running the default
// population under a wrong header.
func TestUsersMustBePositive(t *testing.T) {
	for _, users := range []string{"-1", "0"} {
		stdout, stderr, code := runCLI(t, "-users", users, "fig3")
		if code != 2 || !strings.Contains(stderr, "-users must be at least 1") {
			t.Fatalf("-users %s: exit %d\nstderr: %s", users, code, stderr)
		}
		if stdout != "" {
			t.Fatalf("-users %s: stdout = %q, want nothing", users, stdout)
		}
	}
}

// TestAllPrintsEveryExperimentOnce: all prints the run header and then
// every experiment's "== name: description ==" header exactly once, in
// experimentOrder.
func TestAllPrintsEveryExperimentOnce(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-users", "1500", "all")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "# userv6: 1500 users, seed 1 ") {
		t.Fatalf("run header missing: %.80q", stdout)
	}
	var got []string
	for _, line := range strings.Split(stdout, "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			name, desc, _ := strings.Cut(name, ": ")
			if want := experiments[name].desc + " =="; desc != want {
				t.Errorf("header %q: description %q, want %q", line, desc, want)
			}
			got = append(got, name)
		}
	}
	if !slices.Equal(got, experimentOrder) {
		t.Fatalf("experiment headers\n got %v\nwant %v", got, experimentOrder)
	}
}
