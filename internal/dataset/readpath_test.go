package dataset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"userv6/internal/telemetry"
)

// readParallel reads path through OpenParallel and returns the records
// (in completion order), the coverage, and the read error. An open
// error is returned as the read error.
func readParallel(path string, workers int, tolerant bool) ([]telemetry.Observation, telemetry.SalvageReport, error) {
	pr, err := OpenParallel(path, ParallelOptions{Workers: workers, Tolerant: tolerant})
	if err != nil {
		return nil, telemetry.SalvageReport{}, err
	}
	defer pr.Close()
	perWorker := make([][]telemetry.Observation, pr.Workers())
	err = pr.ForEachWorker(context.Background(), func(w int) func(Batch) error {
		return func(b Batch) error {
			perWorker[w] = append(perWorker[w], b.Recs...)
			return nil
		}
	})
	rep, _ := pr.Coverage()
	var out []telemetry.Observation
	for _, recs := range perWorker {
		out = append(out, recs...)
	}
	return out, rep, err
}

// Every bit flip of the v2 signature behind a verified format-2 header
// turns "uv6\x02" into something else — "uv6\x01" among them, which a
// reader trusting the signature decodes as unframed v1 records. The
// header pins the version: Open and OpenParallel refuse the file,
// HeaderMeta still returns the verified header, and Scan and Salvage
// find every block by its marker, count the four signature bytes as
// skipped, and serve no damaged record.
func TestSignatureFlipPinnedByHeader(t *testing.T) {
	in := sample(3000)
	raw, err := os.ReadFile(writeDataset(t, in))
	if err != nil {
		t.Fatal(err)
	}
	// Every single-bit flip, and the two-bit flip of the version byte
	// that turns the signature into the v1 one.
	for bit := 0; bit <= 32; bit++ {
		mut := append([]byte(nil), raw...)
		if bit == 32 {
			mut[headerSize+3] ^= 0x03
		} else {
			mut[headerSize+bit/8] ^= 1 << (bit % 8)
		}
		path := filepath.Join(t.TempDir(), "flip.uv6")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(path); !errors.Is(err, ErrStreamSignature) {
			if err == nil {
				r.Close()
			}
			t.Fatalf("bit %d: Open: %v, want ErrStreamSignature", bit, err)
		}
		for _, workers := range []int{1, 2} {
			for _, tolerant := range []bool{false, true} {
				if got, _, err := readParallel(path, workers, tolerant); !errors.Is(err, ErrStreamSignature) || len(got) > 0 {
					t.Fatalf("bit %d workers=%d tolerant=%v: served %d records, err %v",
						bit, workers, tolerant, len(got), err)
				}
			}
		}
		rep, err := Scan(path)
		if err != nil {
			t.Fatal(err)
		}
		st := rep.Stream
		if rep.StreamErr != "" || st.Version != 2 || st.Records != 3000 || st.SkippedBytes != 4 || rep.Intact() {
			t.Fatalf("bit %d: Scan %+v", bit, rep)
		}
		if m, ok, err := HeaderMeta(path); err != nil || !ok || m != rep.Meta {
			t.Fatalf("bit %d: HeaderMeta %+v, %v, %v; want the verified header %+v", bit, m, ok, err, rep.Meta)
		}
		var got []telemetry.Observation
		if _, err := Salvage(path, func(o telemetry.Observation) { got = append(got, o) }); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, got, in)
	}
}

// A strict read, a tolerant read and Scan fill their reports from the
// same walker, so on one file they report the same thing: a v1 stream
// is one block however it is chunked, and a header with no stream bytes
// behind it — a v2 writer that crashed before its first flush, or a
// legacy writer that never wrote a record — is an empty stream of the
// version the header declares.
func TestReadModesAgreeOnCoverage(t *testing.T) {
	v1 := filepath.Join(t.TempDir(), "v1.bin")
	f, err := os.Create(v1)
	if err != nil {
		t.Fatal(err)
	}
	w1 := telemetry.NewWriter(f)
	for _, o := range sample(2100) {
		if err := w1.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	headerOnly := filepath.Join(t.TempDir(), "crashed.uv6")
	w, err := Create(headerOnly, Meta{Seed: 1, Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(sample(1)[0]); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // crash: the record never left the writer's buffer
	headerOnly += ".tmp"

	// A legacy (v1) dataset with no records: its writer wrote the
	// signature with the first record, so the header stands alone.
	legacyEmpty := filepath.Join(t.TempDir(), "legacy-empty.uv6")
	golden, err := os.ReadFile("testdata/golden_v1.uv6")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyEmpty, golden[:headerSize], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
		version    int
		blocks     int
		records    uint64
	}{
		{"golden-v1", "testdata/golden_v1.uv6", 1, 1, 64},
		{"v1-2100", v1, 1, 1, 2100},
		{"header-only", headerOnly, 2, 0, 0},
		{"legacy-header-only", legacyEmpty, 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scan, err := Scan(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			want := scan.Stream
			if scan.StreamErr != "" || want.Version != tc.version || want.Blocks != tc.blocks ||
				want.Records != tc.records || !want.Intact() {
				t.Fatalf("Scan %+v", scan)
			}
			for _, workers := range []int{1, 2} {
				for _, tolerant := range []bool{false, true} {
					_, rep, err := readParallel(tc.path, workers, tolerant)
					if err != nil {
						t.Fatalf("workers=%d tolerant=%v: %v", workers, tolerant, err)
					}
					if !rep.Equal(want) {
						t.Fatalf("workers=%d tolerant=%v: coverage %+v, Scan %+v", workers, tolerant, rep, want)
					}
				}
			}
		})
	}
}

// raceEnabled reports a -race build, in which allocation measurements
// mean nothing.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// A tolerant read streams the file through the frame walker: its
// allocation does not grow with the file, as a strict read's does not.
// Holding the stream in memory, as salvage and merge once did, costs
// the whole file on every read. Nor does the number of heap objects a
// read allocates grow with the number of blocks (about 40 and 157 of
// 1,024 records here): a steady-state read recycles its block buffers
// and allocates nothing per block. The collector is off during a read,
// so that it never empties the pools. A pool still misses now and then
// (a buffer put back on one processor is not in another's cache), so
// the check allows 64 objects more; an object per block would add 117.
func TestReadAllocationFlat(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	small, large := writeDataset(t, sample(40_000)), writeDataset(t, sample(160_000))
	type allocs struct{ bytes, objects uint64 }
	measure := func(read func(path string) error, path string) allocs {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.ReadMemStats(&before)
		if err := read(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return allocs{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}
	}
	forEach := func(tolerant bool) func(string) error {
		return func(path string) error {
			pr, err := OpenParallel(path, ParallelOptions{Workers: 2, Tolerant: tolerant})
			if err != nil {
				return err
			}
			defer pr.Close()
			return pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
				return func(Batch) error { return nil }
			})
		}
	}
	for name, read := range map[string]func(string) error{
		"strict":   forEach(false),
		"tolerant": forEach(true),
		"scan":     func(path string) error { _, err := Scan(path); return err },
		"merge": func(path string) error {
			_, err := MergeCtx(context.Background(), filepath.Join(t.TempDir(), "merged.uv6"), Meta{Seed: 3, Sample: "all"}, []string{path}, nil)
			return err
		},
	} {
		a, b := measure(read, small), measure(read, large)
		if b.bytes > a.bytes+2<<20 {
			t.Errorf("%s: allocated %.2f MB on 40k records, %.2f MB on 160k", name, float64(a.bytes)/1e6, float64(b.bytes)/1e6)
		}
		if b.objects > a.objects+64 {
			t.Errorf("%s: allocated %d objects on 40k records, %d on 160k", name, a.objects, b.objects)
		}
	}
}
