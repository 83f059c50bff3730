package main

// CLI tests run the real command in a child process: the test binary
// re-executes itself with USERV6_MAIN=1, and TestMain hands the child's
// arguments to main instead of running the tests.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

// TestTinyPopulationPrintsNoNaN: at 2 users the /128, /64 and /56
// actioning curves have no negatives to rate, so they have no area;
// `all` prints "-" for their AUC, as the tables print "-" for a rate
// with nothing to divide by, and prints NaN nowhere.
func TestTinyPopulationPrintsNoNaN(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-users", "2", "all")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "NaN") {
		t.Fatalf("output prints NaN:\n%s", stdout)
	}
	for _, want := range []string{"AUC /128  -\n", "AUC /64   -\n", "AUC /56   -\n"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output lacks %q", want)
		}
	}
}

// TestAllPrintsEveryExperimentOnce: all prints the run header and then
// every experiment's "== name: description ==" header exactly once, in
// experimentOrder.
func TestAllPrintsEveryExperimentOnce(t *testing.T) {
	stdout := runAll(t, "1")
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

// allRuns caches the stdout of `all` at 1,500 users by seed, so the
// tests that read the same run share it.
var allRuns = map[string]string{}

// runAll returns the stdout of `userv6 -users 1500 -seed seed all`,
// failing the test unless it exits 0.
func runAll(t *testing.T, seed string) string {
	t.Helper()
	if out, ok := allRuns[seed]; ok {
		return out
	}
	stdout, stderr, code := runCLI(t, "-users", "1500", "-seed", seed, "all")
	if code != 0 {
		t.Fatalf("seed %s: exit %d\nstderr: %s", seed, code, stderr)
	}
	allRuns[seed] = stdout
	return stdout
}

// TestAllMatchesGolden pins the reproduction: `all` at 1,500 users
// prints exactly testdata/all-1500-seed<S>.txt at seeds 1 and 2. A
// mismatch prints the lines that differ. Changing a golden is a
// deliberate act: regenerate it with
//
//	go run ./cmd/userv6 -users 1500 -seed S all > cmd/userv6/testdata/all-1500-seedS.txt
//
// and name the changed lines in CHANGES.md and EXPERIMENTS.md.
func TestAllMatchesGolden(t *testing.T) {
	for _, seed := range []string{"1", "2"} {
		golden := filepath.Join("testdata", "all-1500-seed"+seed+".txt")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := runAll(t, seed); got != string(want) {
			t.Errorf("seed %s: output differs from %s:\n%s", seed, golden, lineDiff(string(want), got))
		}
	}
}

// TestExperimentAloneMatchesAll: each §8 and Appendix A extension
// prints, run alone at 1,500 users, exactly its section of the seed-1
// golden of all, below the run header. A registration that reads other
// days or populations alone than inside all fails it.
func TestExperimentAloneMatchesAll(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "all-1500-seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	header, sections, _ := strings.Cut(string(golden), "\n\n")
	for _, e := range []string{"segments", "blocklist-sweep", "ratelimit-sweep", "ttlcurve", "churn", "pandemic", "hijacks", "scrapers", "sketched"} {
		title := fmt.Sprintf("== %s: %s ==\n", e, experiments[e].desc)
		_, section, ok := strings.Cut(sections, title)
		if !ok {
			t.Fatalf("%s: no section in the golden", e)
		}
		// all prints a blank line after each section.
		if end := strings.Index(section, "\n== "); end >= 0 {
			section = section[:end+1]
		}
		want := header + "\n\n" + strings.TrimSuffix(section, "\n")
		stdout, stderr, code := runCLI(t, "-users", "1500", "-seed", "1", e)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstderr: %s", e, code, stderr)
		}
		if stdout != want {
			t.Errorf("%s alone differs from its section of all:\n%s", e, lineDiff(want, stdout))
		}
	}
}

// lineDiff shows where got departs from want: the lines between their
// common leading and trailing lines, want's marked "-" and got's "+",
// each with its line number and at most 40 of each.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	head := 0
	for head < len(w) && head < len(g) && w[head] == g[head] {
		head++
	}
	tail := 0
	for tail < len(w)-head && tail < len(g)-head && w[len(w)-1-tail] == g[len(g)-1-tail] {
		tail++
	}
	var b strings.Builder
	for _, side := range []struct {
		mark  string
		lines []string
	}{{"-", w[head : len(w)-tail]}, {"+", g[head : len(g)-tail]}} {
		for i, line := range side.lines {
			if i == 40 {
				fmt.Fprintf(&b, "%s ... %d more lines\n", side.mark, len(side.lines)-i)
				break
			}
			fmt.Fprintf(&b, "%s%4d  %s\n", side.mark, head+i+1, line)
		}
	}
	return b.String()
}
