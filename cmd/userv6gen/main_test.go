package main

// CLI tests run the real command in a child process: the test binary
// re-executes itself with USERV6GEN_MAIN=1, and TestMain hands the
// child's arguments to main instead of running the tests.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("USERV6GEN_MAIN") == "1" {
		os.Args = append([]string{"userv6gen"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// userv6gen runs the command with args and returns its stdout, stderr
// and exit code.
func userv6gen(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "USERV6GEN_MAIN=1")
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

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, code := userv6gen(t, args...)
	if code != 0 {
		t.Fatalf("userv6gen %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// flipSeedDigit alters one digit of the seed in a dataset file's JSON
// header, keeping the header parseable so only its checksum catches it.
func flipSeedDigit(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"seed":`)) + len(`"seed":`)
	if i < len(`"seed":`) || b[i] < '0' || b[i] > '9' {
		t.Fatalf("%s: no numeric seed in the header", path)
	}
	b[i] = '0' + (b[i]-'0'+1)%10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInfoReportsHeaderChecksum: info on a dataset whose header fails
// its checksum says so, like analyze and verify, instead of misreading
// the file as a headerless raw stream.
func TestInfoReportsHeaderChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "week.uv6")
	mustRun(t, "gen", "-users", "300", "-o", path)
	flipSeedDigit(t, path)

	for _, cmd := range []string{"info", "analyze", "verify"} {
		stdout, stderr, code := userv6gen(t, cmd, path)
		if code != 1 || !strings.Contains(stdout+stderr, "dataset: header checksum mismatch") {
			t.Fatalf("%s on a flipped header: exit %d\nstdout: %s\nstderr: %s", cmd, code, stdout, stderr)
		}
	}
}

// TestInfoReadsHeaderedAndRaw: info summarizes a dataset file, with its
// header line and block codec, and a headerless raw stream, which has
// neither.
func TestInfoReadsHeaderedAndRaw(t *testing.T) {
	dir := t.TempDir()
	headered := filepath.Join(dir, "week.uv6")
	raw := filepath.Join(dir, "week.bin")
	mustRun(t, "gen", "-users", "300", "-compress=lz", "-o", headered)
	mustRun(t, "gen", "-users", "300", "-format", "binary", "-o", raw)

	h := mustRun(t, "info", headered)
	r := mustRun(t, "info", raw)
	if !strings.Contains(h, "users=300") || !strings.Contains(h, "block codec") {
		t.Fatalf("info on a dataset file lacks its header line or codec:\n%s", h)
	}
	if strings.Contains(r, "users=") || strings.Contains(r, "block codec") {
		t.Fatalf("info on a raw stream printed header fields:\n%s", r)
	}
	obs := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "observations ") {
				return strings.Join(strings.Fields(line), " ")
			}
		}
		return ""
	}
	if obs(h) == "" || obs(h) != obs(r) {
		t.Fatalf("observation counts differ: dataset %q, raw %q", obs(h), obs(r))
	}
}

// TestMergePositionalTakesFirstValidHeader: without a manifest, merge
// takes the output's header from the first part whose header parses and
// passes its checksum, so a damaged first header still merges to the
// single-writer file.
func TestMergePositionalTakesFirstValidHeader(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.uv6")
	shards := filepath.Join(dir, "shards")
	merged := filepath.Join(dir, "merged.uv6")
	mustRun(t, "gen", "-users", "300", "-compress=lz", "-o", single)
	mustRun(t, "gen", "-users", "300", "-compress=lz", "-shards", "2", "-o", shards)
	parts, err := filepath.Glob(filepath.Join(shards, "part-*.uv6"))
	if err != nil || len(parts) != 3 {
		t.Fatalf("sharded export parts %v (err %v), want 2 benign + 1 abusive", parts, err)
	}
	flipSeedDigit(t, parts[0])

	mustRun(t, append([]string{"merge", "-o", merged}, parts...)...)
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("positional merge differs from the single-writer file (%d vs %d bytes)", len(got), len(want))
	}
}

// TestGenResumeAfterCrash: a gen killed by a crash failpoint in its
// temp file, then `gen -resume`, writes the file a plain gen writes,
// under a block-codec policy and a sampler alike.
func TestGenResumeAfterCrash(t *testing.T) {
	for _, c := range []struct {
		name  string
		flags []string
	}{
		{"auto", []string{"-compress=auto"}},
		{"sample", []string{"-sample", "user:0.5"}},
	} {
		dir := t.TempDir()
		plain := filepath.Join(dir, "plain.uv6")
		mustRun(t, append([]string{"gen", "-users", "300", "-o", plain}, c.flags...)...)
		want, err := os.ReadFile(plain)
		if err != nil {
			t.Fatal(err)
		}
		for cut, off := range map[string]int{"early": 3000, "mid": len(want) / 2} {
			t.Run(c.name+"-"+cut, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "week.uv6")
				args := append([]string{"gen", "-users", "300", "-o", out,
					"-faults", fmt.Sprintf("week.uv6.tmp:write:off=%d:crash", off)}, c.flags...)
				if _, stderr, code := userv6gen(t, args...); code == 0 || !strings.Contains(stderr, "injected crash") {
					t.Fatalf("gen across the crash failpoint: exit %d\n%s", code, stderr)
				}
				if stdout := mustRun(t, "gen", "-resume", "-o", out); !strings.HasPrefix(stdout, "resumed "+out) {
					t.Fatalf("gen -resume printed %q", stdout)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("resumed file differs from a plain gen (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}
