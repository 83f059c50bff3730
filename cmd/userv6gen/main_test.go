package main

// CLI tests run the real command in a child process: the test binary
// re-executes itself with USERV6GEN_MAIN=1, and TestMain hands the
// child's arguments to main instead of running the tests.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/telemetry"
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
	if obs := tableRow(h, "observations"); obs == "" || obs != tableRow(r, "observations") {
		t.Fatalf("observation counts differ: dataset %q, raw %q", obs, tableRow(r, "observations"))
	}
}

// TestInfoEmptyDatasetHasNoDays: a valid dataset with no records has no
// day range, and info prints "-" for it.
func TestInfoEmptyDatasetHasNoDays(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.uv6")
	mustRun(t, "gen", "-users", "1", "-from", "0", "-to", "0", "-benign-only", "-sample", "user:0.000001", "-o", empty)
	out := mustRun(t, "info", empty)
	if obs, days := tableRow(out, "observations"), tableRow(out, "days"); obs != "observations 0" || days != "days -" {
		t.Fatalf("info on an empty dataset: %q, %q\n%s", obs, days, out)
	}
}

// TestInfoReadsShardedExport: info on a sharded export, by its
// directory or by its manifest, prints exactly what it prints for the
// merged file.
func TestInfoReadsShardedExport(t *testing.T) {
	dir := t.TempDir()
	export, merged := filepath.Join(dir, "export"), filepath.Join(dir, "week.uv6")
	manifest := filepath.Join(export, dataset.ManifestName)
	mustRun(t, "gen", "-users", "300", "-shards", "2", "-compress=auto", "-o", export)
	mustRun(t, "merge", "-manifest", manifest, "-o", merged)

	want := mustRun(t, "info", merged)
	for _, in := range []string{export, manifest} {
		if got := mustRun(t, "info", in); got != want {
			t.Fatalf("info %s:\n%s\nwant (info on the merged file):\n%s", in, got, want)
		}
	}
}

// tableRow returns the row of a printed table whose first cell is
// metric, with its cells joined by single spaces, or "".
func tableRow(out, metric string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, metric+"  ") {
			return strings.Join(strings.Fields(line), " ")
		}
	}
	return ""
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

// TestGenWriteFailureLeavesTmp: a gen whose temp-file writes fail from
// the third on exits 1, reports how often the failpoint fired, and
// leaves its .tmp, not the target, and `gen -resume` finishes that .tmp
// into the file a plain gen writes.
func TestGenWriteFailureLeavesTmp(t *testing.T) {
	dir := t.TempDir()
	plain, out := filepath.Join(dir, "plain.uv6"), filepath.Join(dir, "week.uv6")
	mustRun(t, "gen", "-users", "300", "-o", plain)
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}

	_, stderr, code := userv6gen(t, "gen", "-users", "300", "-o", out, "-faults", "week.uv6.tmp:write:n=3:x=-1:err")
	if code != 1 || !strings.Contains(stderr, "injected transient error") ||
		!regexp.MustCompile(`(?m)^failpoint week\.uv6\.tmp:write: fired [1-9][0-9]* time\(s\)$`).MatchString(stderr) {
		t.Fatalf("gen under a persistent write error: exit %d, want 1 and the failpoint's hits\n%s", code, stderr)
	}
	if _, err := os.Stat(out + ".tmp"); err != nil {
		t.Fatalf("the failed gen left no .tmp to resume: %v", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the failed gen left %s behind (stat: %v)", out, err)
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
}

// TestGenReportsCloseError: when closing a `-format binary` or `jsonl`
// output fails, gen exits non-zero with the close error instead of
// reporting the observations written.
func TestGenReportsCloseError(t *testing.T) {
	for _, c := range []struct{ format, name string }{
		{"binary", "out.bin"},
		{"jsonl", "out.jsonl"},
	} {
		t.Run(c.format, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), c.name)
			stdout, stderr, code := userv6gen(t, "gen", "-users", "300", "-format", c.format,
				"-o", out, "-faults", c.name+":close:err")
			if code == 0 || !strings.Contains(stderr, "close "+out) || strings.Contains(stdout, "wrote ") {
				t.Fatalf("gen with a failing close: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
		})
	}
}

// TestGenReportsProfileCloseError: when closing the -cpuprofile or
// -memprofile file fails, gen still reports the failpoints, then exits
// 1 with each profile's close error.
func TestGenReportsProfileCloseError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	_, stderr, code := userv6gen(t, "gen", "-users", "200", "-o", filepath.Join(dir, "w.uv6"),
		"-cpuprofile", cpu, "-memprofile", mem, "-faults", "cpu.prof:close:err;mem.prof:close:err")
	for _, want := range []string{"close " + cpu + ":", "close " + mem + ":",
		"failpoint cpu.prof:close: fired 1", "failpoint mem.prof:close: fired 1"} {
		if code != 1 || !strings.Contains(stderr, want) {
			t.Fatalf("gen with failing profile closes: exit %d, stderr lacks %q:\n%s", code, want, stderr)
		}
	}
}

// TestGenRefusesNonPositiveUsers: gen refuses a population below one
// user with exit 2, naming the flag, and writes nothing. With -resume
// the population comes from the partial dataset's header, so -users is
// not checked there.
func TestGenRefusesNonPositiveUsers(t *testing.T) {
	dir := t.TempDir()
	for _, users := range []string{"-1", "0"} {
		out := filepath.Join(dir, "week"+users+".uv6")
		stdout, stderr, code := userv6gen(t, "gen", "-users", users, "-from", "81", "-to", "81", "-o", out)
		if code != 2 || !strings.Contains(stderr, "-users must be at least 1") {
			t.Fatalf("gen -users %s: exit %d\nstdout: %s\nstderr: %s", users, code, stdout, stderr)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("gen -users %s left %s behind (stat: %v)", users, out, err)
		}
	}

	out := filepath.Join(dir, "week.uv6")
	mustRun(t, "gen", "-users", "200", "-from", "81", "-to", "81", "-o", out)
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if stdout := mustRun(t, "gen", "-resume", "-users", "-1", "-o", out); !strings.HasPrefix(stdout, "resumed "+out) {
		t.Fatalf("gen -resume -users -1 printed %q", stdout)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("gen -resume -users -1 changed the complete dataset (read err %v)", err)
	}
}

// TestGenRefusesImpossibleWindow: gen refuses a window that starts
// before day 0 or after its last day with exit 2, naming the flag, on
// the single-file and the sharded path, and writes nothing. So it does
// a negative -shards, which would otherwise write a part per CPU. With
// -resume the window comes from the partial dataset's header, so
// -from and -to are not checked there.
func TestGenRefusesImpossibleWindow(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		from, to, want string
		shards         []string
	}{
		{"-1", "2", "-from must be at least 0, got -1", []string{"0", "2"}},
		{"10", "5", "-from must not exceed -to, got -from 10 -to 5", []string{"0", "2"}},
		{"81", "81", "-shards must be at least 0, got -2", []string{"-2"}},
	} {
		for _, shards := range c.shards {
			out := filepath.Join(dir, "week"+c.from+"_"+c.to+"_"+shards)
			stdout, stderr, code := userv6gen(t, "gen", "-users", "50", "-from", c.from, "-to", c.to, "-shards", shards, "-o", out)
			if code != 2 || !strings.Contains(stderr, c.want) {
				t.Fatalf("gen -from %s -to %s -shards %s: exit %d\nstdout: %s\nstderr: %s", c.from, c.to, shards, code, stdout, stderr)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("gen -from %s -to %s -shards %s left %s behind (stat: %v)", c.from, c.to, shards, out, err)
			}
		}
	}

	out := filepath.Join(dir, "week.uv6")
	mustRun(t, "gen", "-users", "50", "-from", "81", "-to", "81", "-o", out)
	if stdout := mustRun(t, "gen", "-resume", "-from", "10", "-to", "5", "-o", out); !strings.HasPrefix(stdout, "resumed "+out) {
		t.Fatalf("gen -resume -from 10 -to 5 printed %q", stdout)
	}
}

// TestMergeRetriesZeroMeansNone: `merge -retries 0` turns re-attempts
// off. Under its policy, a part whose reads always fail is read once,
// never slept on, and fails the merge after 0 retries; a negative
// -retries is refused with exit 2.
func TestMergeRetriesZeroMeansNone(t *testing.T) {
	dir := t.TempDir()
	part := filepath.Join(dir, "part-0000.uv6")
	mustRun(t, "gen", "-o", part, "-users", "50", "-from", "0", "-to", "1")
	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("stuck@part-0000.uv6:read:x=-1:err"); err != nil {
		t.Fatal(err)
	}
	pol := mergeRetry(0)
	slept := 0
	pol.Sleep = func(ctx context.Context, _ time.Duration) error { slept++; return ctx.Err() }
	_, err := dataset.MergeCtx(context.Background(), filepath.Join(dir, "merged.uv6"), dataset.Meta{}, []string{part},
		&dataset.MergeOptions{FS: in, Retry: pol})
	if !errors.Is(err, faultio.ErrTransient) || !strings.Contains(err.Error(), "after 0 retries") {
		t.Fatalf("merge error %v, want the read error after 0 retries", err)
	}
	if hits := in.Hits("stuck"); hits != 1 || slept != 0 {
		t.Fatalf("%d read attempts, %d sleeps; want one attempt and no sleep", hits, slept)
	}

	_, stderr, code := userv6gen(t, "merge", "-retries", "-1", "-o", filepath.Join(dir, "x.uv6"), part)
	if code != 2 || !strings.Contains(stderr, "-retries must be at least 0, got -1") {
		t.Fatalf("merge -retries -1: exit %d\nstderr: %s", code, stderr)
	}
}

// TestAnalyzeRefusesNegativeWorkers: analyze refuses a negative
// -workers with exit 2, naming the flag, instead of running it as 0
// (all CPUs).
func TestAnalyzeRefusesNegativeWorkers(t *testing.T) {
	week := filepath.Join(t.TempDir(), "week.uv6")
	mustRun(t, "gen", "-users", "50", "-from", "81", "-to", "81", "-o", week)
	stdout, stderr, code := userv6gen(t, "analyze", "-workers", "-3", week)
	if code != 2 || !strings.Contains(stderr, "-workers must be at least 0, got -3") {
		t.Fatalf("analyze -workers -3: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestAnalyzeOutputIndependentOfWorkersAndShape: analyze prints the
// same bytes for a week stored as one file and as a 3-shard auto
// export, at one worker and at two, and -tolerant's coverage line
// counts the records the header declares.
func TestAnalyzeOutputIndependentOfWorkersAndShape(t *testing.T) {
	dir := t.TempDir()
	file, export := filepath.Join(dir, "week.uv6"), filepath.Join(dir, "export")
	mustRun(t, "gen", "-users", "2000", "-o", file)
	mustRun(t, "gen", "-users", "2000", "-shards", "3", "-compress=auto", "-o", export)

	want := mustRun(t, "analyze", "-workers", "1", file)
	header, _, _ := strings.Cut(want, "\n")
	_, records, ok := strings.Cut(header, " records=")
	if !strings.HasPrefix(header, "dataset: ") || !ok {
		t.Fatalf("analyze printed no record count in its header line:\n%s", want)
	}
	for _, in := range []string{file, export} {
		for _, workers := range []string{"1", "2"} {
			if got := mustRun(t, "analyze", "-workers", workers, in); got != want {
				t.Fatalf("analyze -workers %s %s:\n%s\nwant (analyze -workers 1 %s):\n%s",
					workers, filepath.Base(in), got, filepath.Base(file), want)
			}
		}
		got := mustRun(t, "analyze", "-tolerant", in)
		head, rest, _ := strings.Cut(got, "\n\n")
		coverage, rest, _ := strings.Cut(rest, "\n\n")
		if !strings.HasPrefix(coverage, "tolerant read: ") ||
			!strings.Contains(coverage, " ("+records+" records; 0 corrupt blocks") || head+"\n\n"+rest != want {
			t.Fatalf("analyze -tolerant %s does not print a coverage line of %s records before the strict output:\n%s",
				filepath.Base(in), records, got)
		}
	}
}

// TestSalvageDropsUntrustedHeader: salvage of a file whose header fails
// its checksum recovers every record into a file that verifies, under a
// zero Meta rather than the damaged header's configuration.
func TestSalvageDropsUntrustedHeader(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "week.uv6"), filepath.Join(dir, "rec.uv6")
	mustRun(t, "gen", "-users", "300", "-o", in)
	flipSeedDigit(t, in)
	mustRun(t, "salvage", "-o", out, in)
	mustRun(t, "verify", out)

	scan, err := dataset.Scan(in)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewFileSource(out)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := src.Meta()
	want := dataset.Meta{Records: scan.Stream.Records, Format: dataset.FormatV2, Complete: true, HeaderCRC: got.HeaderCRC}
	if got != want {
		t.Fatalf("salvaged header %+v, want %+v", got, want)
	}
}

// TestSalvageKeepsHeaderOverDamagedSignature: a verified header over a
// damaged stream signature stays the header of what salvage and a
// positional merge write, while the strict readers still refuse the
// file.
func TestSalvageKeepsHeaderOverDamagedSignature(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "week.uv6")
	mustRun(t, "gen", "-users", "300", "-o", in)
	f, err := os.OpenFile(in, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The header is 256 bytes; byte 259 ends the stream signature uv6\x02.
	if _, err := f.WriteAt([]byte{0x01}, 259); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := dataset.Scan(in)
	if err != nil || !scan.HeaderOK || scan.HeaderErr != "" {
		t.Fatalf("damaged signature: scan %+v, %v; want a verified header", scan, err)
	}
	for _, cmd := range []string{"info", "analyze"} {
		stdout, stderr, code := userv6gen(t, cmd, in)
		if code != 1 || !strings.Contains(stderr, "stream signature does not match") {
			t.Fatalf("%s on a damaged signature: exit %d\nstdout: %s\nstderr: %s", cmd, code, stdout, stderr)
		}
	}
	for _, args := range [][]string{{"salvage", "-o"}, {"merge", "-o"}} {
		out := filepath.Join(dir, args[0]+".uv6")
		mustRun(t, append(args, out, in)...)
		r, err := dataset.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		m := r.Meta()
		r.Close()
		if m.Seed != scan.Meta.Seed || m.Users != scan.Meta.Users || m.FromDay != scan.Meta.FromDay || m.ToDay != scan.Meta.ToDay {
			t.Fatalf("%s: output header %+v does not keep the input's verified %+v", args[0], m, scan.Meta)
		}
	}
}

// TestSalvageMatchesDatasetSalvage: salvage of a file with two damaged
// blocks writes exactly the records dataset.Salvage recovers, keeps the
// input's verified header, and reports what it recovered.
func TestSalvageMatchesDatasetSalvage(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "week.uv6"), filepath.Join(dir, "rec.uv6")
	mustRun(t, "gen", "-users", "300", "-compress=auto", "-o", in)
	b, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0xff
	b[2*len(b)/3] ^= 0xff
	if err := os.WriteFile(in, b, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout := mustRun(t, "salvage", "-o", out, in)

	var want []telemetry.Observation
	rep, err := dataset.Salvage(in, func(o telemetry.Observation) { want = append(want, o) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stream.CorruptBlocks != 2 {
		t.Fatalf("damaged input: %+v, want 2 corrupt blocks", rep.Stream)
	}
	line := fmt.Sprintf("salvaged %d records (%d intact blocks, %d corrupt, %d bytes skipped) from %s to %s\n",
		rep.Stream.Records, rep.Stream.Blocks, rep.Stream.CorruptBlocks, rep.Stream.SkippedBytes, in, out)
	if stdout != line {
		t.Fatalf("salvage printed %q, want %q", stdout, line)
	}
	r, err := dataset.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []telemetry.Observation
	if err := r.ForEach(func(o telemetry.Observation) { got = append(got, o) }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("salvaged file holds %d records, dataset.Salvage recovers %d (or they differ)", len(got), len(want))
	}
	if m := r.Meta(); m.Seed != rep.Meta.Seed || m.Users != rep.Meta.Users || m.Codec != rep.Meta.Codec {
		t.Fatalf("salvaged header %+v does not keep the input's %+v", m, rep.Meta)
	}
}

// TestVerifyExport: verify on an intact export prints an INTACT verdict
// and exits 0; with two benign parts swapped, both rows print MISMATCH
// in the checksum column and verify exits 1.
func TestVerifyExport(t *testing.T) {
	export := filepath.Join(t.TempDir(), "export")
	mustRun(t, "gen", "-users", "300", "-shards", "2", "-compress=auto", "-o", export)
	if out := mustRun(t, "verify", export); !strings.Contains(out, "\nverdict: INTACT\n") {
		t.Fatalf("verify on an intact export:\n%s", out)
	}

	p0, p1 := filepath.Join(export, "part-0000.uv6"), filepath.Join(export, "part-0001.uv6")
	tmp := filepath.Join(export, "swap")
	for _, mv := range [][2]string{{p0, tmp}, {p1, p0}, {tmp, p1}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	stdout, stderr, code := userv6gen(t, "verify", export)
	if code != 1 {
		t.Fatalf("verify with swapped parts: exit %d\n%s%s", code, stdout, stderr)
	}
	for _, part := range []string{"part-0000.uv6", "part-0001.uv6"} {
		// part, blocks, records, corrupt, checksum, codec
		if row := strings.Fields(tableRow(stdout, part)); len(row) != 6 || row[4] != "MISMATCH" {
			t.Fatalf("verify with swapped parts: row %q, want MISMATCH in the checksum column\n%s", row, stdout)
		}
	}
}
