package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"userv6/internal/faultio"
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// genOrdered builds records in canonical generation order: users
// ascending, days ascending within a user, perBatch records per
// (user, day) batch, optionally followed by an abusive tail.
func genOrdered(users, days, perBatch, abusive int) []telemetry.Observation {
	var out []telemetry.Observation
	for u := 0; u < users; u++ {
		for d := 0; d < days; d++ {
			for k := 0; k < perBatch; k++ {
				o := telemetry.Observation{
					Day: simtime.Day(d), UserID: uint64(u),
					Addr:     netaddr.AddrFrom6(0x20010db8<<32, uint64(u*1000+d*10+k)),
					Requests: uint32(k + 1),
				}
				o.SetCountry("US")
				out = append(out, o)
			}
		}
	}
	for k := 0; k < abusive; k++ {
		o := telemetry.Observation{
			Day: simtime.Day(days - 1), UserID: uint64(1<<40) | uint64(k),
			Addr: netaddr.AddrFrom6(0x20010db9<<32, uint64(k)), Requests: 3, Abusive: true,
		}
		o.SetCountry("RU")
		out = append(out, o)
	}
	return out
}

var resumeMeta = Meta{Seed: 3, Users: 40, FromDay: 0, ToDay: 3, Sample: "all"}

// writeRecordsFile writes obs as a complete dataset file at path under
// meta and returns its bytes.
func writeRecordsFile(t *testing.T, path string, meta Meta, obs []telemetry.Observation) []byte {
	t.Helper()
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// benignUsers is a holds rule: benign users below hi, and abusive
// records when abusive is set.
func benignUsers(hi uint64, abusive bool) func(telemetry.Observation) bool {
	return func(o telemetry.Observation) bool {
		return o.Abusive && abusive || !o.Abusive && o.UserID < hi
	}
}

// resumeAndFinish resumes path from what is on disk, then writes the
// records from the frontier on (obs[keep:] when the walk kept keep)
// and closes the file, as fillFile does.
func resumeAndFinish(t *testing.T, path string, obs []telemetry.Observation, holds func(telemetry.Observation) bool) (Frontier, int) {
	t.Helper()
	w, front, keep, err := ResumeFS(context.Background(), faultio.OS, path, resumeMeta, obs[0], holds)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(w.Records()); got != keep {
		t.Fatalf("writer holds %d records, kept %d", got, keep)
	}
	for _, o := range obs[keep:] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return front, keep
}

// TestResumeFSTornTail: a .tmp torn mid-block keeps the runs of its
// intact blocks but the last, which is the frontier; the .tmp is moved
// aside while it is copied and the aside file removed after, and the
// finished file equals the uninterrupted one, byte for byte.
func TestResumeFSTornTail(t *testing.T) {
	defer func(n int) { headerFlushEvery = n }(headerFlushEvery)
	headerFlushEvery = 128 // many small blocks

	dir := t.TempDir()
	obs := genOrdered(40, 4, 5, 0) // 800 records, blocks of 128
	want := writeRecordsFile(t, filepath.Join(dir, "full.uv6"), resumeMeta, obs)

	path := filepath.Join(dir, "d.uv6")
	// Tear mid-way through a block: 3 blocks survive whole.
	if err := os.WriteFile(path+".tmp", want[:headerSize+4+3*(16+128*40)+700], 0o644); err != nil {
		t.Fatal(err)
	}
	front, keep := resumeAndFinish(t, path, obs, benignUsers(40, false))
	last := obs[3*128-1]
	if front.Restart || front.BenignDone || front.UserID != last.UserID || front.Day != last.Day {
		t.Fatalf("frontier = %+v, want (%d, %d)", front, last.UserID, last.Day)
	}
	if keep != 3*128-4 { // the last block ends 4 records into its run
		t.Fatalf("kept %d records, want %d", keep, 3*128-4)
	}
	requireFile(t, path, want)
	for _, p := range []string{path + ".aside", path + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s left behind (stat: %v)", p, err)
		}
	}
}

// TestResumeFSAbusiveTail: a source that reached the abusive stream
// keeps every benign record (the abusive stream regenerates whole), and
// in a file that cannot hold abusive records its prefix ends at the
// first one, holding back the last benign run.
func TestResumeFSAbusiveTail(t *testing.T) {
	obs := genOrdered(4, 2, 3, 5)
	for _, c := range []struct {
		name    string
		abusive bool
		front   Frontier
		keep    int
	}{
		{"abusive-file", true, Frontier{BenignDone: true}, 4 * 2 * 3},
		{"benign-file", false, Frontier{UserID: 3, Day: 1}, 4*2*3 - 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			want := writeRecordsFile(t, filepath.Join(dir, "full.uv6"), resumeMeta, obs)
			path := filepath.Join(dir, "d.uv6")
			writeRecordsFile(t, path, resumeMeta, obs[:len(obs)-2])
			front, keep := resumeAndFinish(t, path, obs, benignUsers(4, c.abusive))
			if front != c.front || keep != c.keep {
				t.Fatalf("frontier %+v kept %d, want %+v kept %d", front, keep, c.front, c.keep)
			}
			if c.abusive {
				requireFile(t, path, want)
			}
		})
	}
}

// TestResumeFSUntrustedSources: a source that cannot begin the file is
// passed over for the next one, and with none left the file restarts.
// Each case leaves an untrusted file at the target path and, when
// fallback is set, a trusted partial .tmp behind it.
func TestResumeFSUntrustedSources(t *testing.T) {
	obs := genOrdered(10, 2, 3, 0)
	other := resumeMeta
	other.Seed = 4
	for _, c := range []struct {
		name  string
		write func(t *testing.T, path string)
	}{
		{"empty-prefix", func(t *testing.T, path string) {
			raw := writeRecordsFile(t, path, resumeMeta, obs)
			os.WriteFile(path, raw[:headerSize+4+100], 0o644) // no whole block
		}},
		{"bad-header-crc", func(t *testing.T, path string) {
			raw := writeRecordsFile(t, path, resumeMeta, obs)
			flipSeedDigit(t, raw)
			os.WriteFile(path, raw, 0o644)
		}},
		{"raw-stream", func(t *testing.T, path string) {
			raw, err := os.ReadFile(writeRawStream(t, obs))
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(path, raw, 0o644)
		}},
		{"other-config", func(t *testing.T, path string) { writeRecordsFile(t, path, other, obs) }},
		{"other-first-record", func(t *testing.T, path string) { writeRecordsFile(t, path, resumeMeta, obs[6:]) }},
	} {
		for _, fallback := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fallback=%v", c.name, fallback), func(t *testing.T) {
				dir := t.TempDir()
				want := writeRecordsFile(t, filepath.Join(dir, "full.uv6"), resumeMeta, obs)
				path := filepath.Join(dir, "d.uv6")
				c.write(t, path)
				wantKeep := 0
				if fallback {
					os.WriteFile(path+".tmp", want, 0o644)
					wantKeep = len(obs) - 3 // all but its last run
				}
				front, keep := resumeAndFinish(t, path, obs, benignUsers(10, false))
				if front.Restart == fallback || keep != wantKeep {
					t.Fatalf("frontier %+v kept %d, want %d", front, keep, wantKeep)
				}
				requireFile(t, path, want)
			})
		}
	}
}

// TestResumeFSHoldsEndsPrefix: a source whose records run past the
// file's range (a part of another shard layout) is kept up to the first
// record the file cannot hold, the run before it held back.
func TestResumeFSHoldsEndsPrefix(t *testing.T) {
	dir := t.TempDir()
	obs := genOrdered(10, 2, 3, 0)
	path := filepath.Join(dir, "d.uv6")
	writeRecordsFile(t, path, resumeMeta, obs)
	part := obs[:6*2*3] // the file holds users [0, 6)
	want := writeRecordsFile(t, filepath.Join(dir, "part.uv6"), resumeMeta, part)
	front, keep := resumeAndFinish(t, path, part, benignUsers(6, false))
	if front != (Frontier{UserID: 5, Day: 1}) || keep != len(part)-3 {
		t.Fatalf("frontier %+v kept %d", front, keep)
	}
	requireFile(t, path, want)
}

// TestResumeFSReadFailure: a read that fails, whether on the probe of a
// source or mid-copy, fails the resume naming the file and leaves every
// source in place; the next resume keeps what a fault-free one keeps.
func TestResumeFSReadFailure(t *testing.T) {
	obs := genOrdered(400, 4, 20, 0) // 1.28 MB: the copy reads past the walker's first window
	for _, c := range []struct {
		name, src string
		off       int64
	}{
		{"probe-target", "d.uv6", 100},
		{"copy-target", "d.uv6", 1_200_000},
		{"probe-tmp", "d.uv6.tmp", headerSize + 20},
		{"copy-tmp", "d.uv6.tmp", 1_200_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			want := writeRecordsFile(t, filepath.Join(dir, "full.uv6"), resumeMeta, obs)
			path := filepath.Join(dir, "d.uv6")
			partial := want[:len(want)-1000] // torn in its last block
			if err := os.WriteFile(filepath.Join(dir, c.src), partial, 0o644); err != nil {
				t.Fatal(err)
			}
			in := faultio.New(faultio.OS, 1)
			if err := in.ArmPoint(faultio.Failpoint{Path: c.src, Op: faultio.OpRead, Offset: c.off, Action: faultio.ActionErr}); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := ResumeFS(context.Background(), in, path, resumeMeta, obs[0], benignUsers(400, false))
			if in.Hits(c.src+":read") != 1 || !errors.Is(err, faultio.ErrTransient) {
				t.Fatalf("resume under a read fault: %v", err)
			}
			// The source is where the next resume looks for it: in place,
			// or the .tmp moved aside once its copy began.
			src := filepath.Join(dir, c.src)
			if c.name == "copy-tmp" {
				src = path + ".aside"
			}
			if !strings.Contains(err.Error(), filepath.Base(src)) {
				t.Fatalf("the error does not name %s: %v", src, err)
			}
			if got, err := os.ReadFile(src); err != nil || !bytes.Equal(got, partial) {
				t.Fatalf("source %s not left in place (err %v)", src, err)
			}
			_, keep := resumeAndFinish(t, path, obs, benignUsers(400, false))
			intact := len(obs) / telemetry.DefaultBlockRecords * telemetry.DefaultBlockRecords
			if want := intact - intact%20; keep != want { // all but the run the torn block cuts
				t.Fatalf("the next resume kept %d records, want %d", keep, want)
			}
			requireFile(t, path, want)
		})
	}
}

func requireFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the uninterrupted file (%d vs %d bytes)", path, len(got), len(want))
	}
}
