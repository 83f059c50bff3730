package dataset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"userv6/internal/telemetry"
)

// readSequential drains a dataset with the plain Reader.
func readSequential(t *testing.T, path string) []telemetry.Observation {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []telemetry.Observation
	if err := r.ForEach(func(o telemetry.Observation) { out = append(out, o) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// readOneWorker drains a dataset through a one-worker ForEachWorker —
// a one-worker analysis read — which delivers blocks in stream order.
func readOneWorker(t *testing.T, path string, tolerant bool) []telemetry.Observation {
	t.Helper()
	pr, err := OpenParallel(path, ParallelOptions{Workers: 1, Tolerant: tolerant})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	out, err := collectOneWorker(pr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// collectOneWorker appends every delivered record of a one-worker read
// and returns them with the read's error.
func collectOneWorker(pr *ParallelReader) ([]telemetry.Observation, error) {
	var out []telemetry.Observation
	err := pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
		return func(b Batch) error {
			out = append(out, b.Recs...) // value copies
			return nil
		}
	})
	return out, err
}

func sameRecords(t *testing.T, got, want []telemetry.Observation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func sortObs(obs []telemetry.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.UserID != b.UserID {
			return a.UserID < b.UserID
		}
		return a.Requests < b.Requests
	})
}

// A one-worker read reproduces the sequential reader record for record:
// the single worker takes the scanner's blocks in stream order.
func TestParallelReaderOrderedMatchesSequential(t *testing.T) {
	in := sample(5000) // ~5 default-size blocks
	path := writeDataset(t, in)
	sameRecords(t, readOneWorker(t, path, false), readSequential(t, path))
}

func TestParallelReaderMeta(t *testing.T) {
	path := writeDataset(t, sample(100))
	pr, err := OpenParallel(path, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if pr.Raw() {
		t.Fatal("headered dataset reported as raw")
	}
	if m := pr.Meta(); m.Seed != 3 || m.Records != 100 || !m.Complete {
		t.Fatalf("meta = %+v", m)
	}
}

func TestParallelReaderBatchIndexesOrdered(t *testing.T) {
	path := writeDataset(t, sample(4500))
	pr, err := OpenParallel(path, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	next := 0
	if err := pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
		return func(b Batch) error {
			if b.Index != next {
				t.Fatalf("batch index %d, want %d", b.Index, next)
			}
			next++
			return nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	if next != 5 {
		t.Fatalf("saw %d batches, want 5", next)
	}
}

func TestParallelReaderRawStream(t *testing.T) {
	// A headerless file produced by the raw telemetry writer.
	in := sample(2500)
	path := filepath.Join(t.TempDir(), "raw.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWriterV2(f)
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	pr, err := OpenParallel(path, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if !pr.Raw() {
		t.Fatal("raw stream not detected")
	}
	got, err := collectOneWorker(pr)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, in)
}

// A block failing its checksum in a strict one-worker read fails the
// read with a typed error, but only after every preceding block has
// been delivered in order — the exact behavior of the sequential
// reader.
func TestParallelReaderStrictCorruptBlock(t *testing.T) {
	in := sample(5000)
	path := writeDataset(t, in)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the stream: past the dataset header, the
	// stream signature, and two default-size blocks.
	off := headerSize + 4 + 2*(16+1024*40) + 16 + 200
	raw[off] ^= 0x01
	bad := filepath.Join(t.TempDir(), "bad.uv6")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Sequential reference: records recovered before the failure.
	var want []telemetry.Observation
	r, err := Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	serr := r.ForEach(func(o telemetry.Observation) { want = append(want, o) })
	r.Close()
	if !errors.Is(serr, telemetry.ErrCorrupt) {
		t.Fatalf("sequential reader: want ErrCorrupt, got %v", serr)
	}

	pr, err := OpenParallel(bad, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	got, perr := collectOneWorker(pr)
	if !errors.Is(perr, telemetry.ErrCorrupt) {
		t.Fatalf("parallel reader: want ErrCorrupt, got %v", perr)
	}
	var ce *telemetry.CorruptError
	if !errors.As(perr, &ce) || ce.Block != 2 {
		t.Fatalf("want *CorruptError for block 2, got %v", perr)
	}
	sameRecords(t, got, want)
}

// Tolerant one-worker reads must recover exactly what Salvage recovers,
// in the same order, and report identical coverage.
func TestParallelReaderTolerantMatchesSalvage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"intact", func(b []byte) []byte { return b }},
		{"corrupt-middle", func(b []byte) []byte {
			b[headerSize+4+(16+1024*40)+16+99] ^= 0x80
			return b
		}},
		{"torn-tail", func(b []byte) []byte { return b[:len(b)-41] }},
		// A tolerant read opens a file whose header is damaged, torn or
		// over a damaged stream signature, as Salvage does.
		{"header-byte", func(b []byte) []byte {
			b[20] = 'A'
			return b
		}},
		{"torn-header", func(b []byte) []byte { return b[:100] }},
		{"signature", func(b []byte) []byte {
			b[headerSize+3] = 1
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeDataset(t, sample(5000))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(t.TempDir(), "bad.uv6")
			if err := os.WriteFile(bad, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			var want []telemetry.Observation
			wantRep, err := Salvage(bad, func(o telemetry.Observation) { want = append(want, o) })
			if err != nil {
				t.Fatal(err)
			}

			pr, err := OpenParallel(bad, ParallelOptions{Workers: 1, Tolerant: true})
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			got, err := collectOneWorker(pr)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, got, want)

			// Coverage accounting must match the sequential salvage walk.
			rep, ok := pr.Coverage()
			if !ok {
				t.Fatal("no coverage after tolerant read")
			}
			if !rep.Equal(wantRep.Stream) {
				t.Fatalf("coverage differs:\nparallel: %+v\n salvage: %+v", rep, wantRep.Stream)
			}
		})
	}
}

// A callback error stops a one-worker read at that block: no later
// block reaches the callback.
func TestParallelReaderCallbackError(t *testing.T) {
	path := writeDataset(t, sample(5000))
	boom := errors.New("boom")
	pr, err := OpenParallel(path, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	calls := 0
	err = pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
		return func(Batch) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want callback error, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times, want the read to stop after the failing call", calls)
	}
}

func TestParallelReaderContextCancel(t *testing.T) {
	path := writeDataset(t, sample(5000))
	pr, err := OpenParallel(path, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	err = pr.ForEachWorker(ctx, func(int) func(Batch) error {
		return func(Batch) error {
			cancel() // fire mid-read
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// A reader is consumed by its first read even when that read failed: a
// second ForEachWorker must refuse rather than resume from wherever the
// failed read left the file.
func TestParallelReaderSingleUse(t *testing.T) {
	path := writeDataset(t, sample(5000))
	pr, err := OpenParallel(path, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	boom := errors.New("boom")
	if err := pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
		return func(Batch) error { return boom }
	}); !errors.Is(err, boom) {
		t.Fatalf("first read: want callback error, got %v", err)
	}
	if _, err := collectOneWorker(pr); err == nil {
		t.Fatal("second consume after a failed read must fail")
	}
}

// TestReadsChecksumWholeFile: Scan and a completed ParallelReader read,
// strict or tolerant, each checksum exactly the bytes FileCRC32C does —
// on a dataset file, a headerless raw stream and a damaged file — and a
// failed read reports no checksum.
func TestReadsChecksumWholeFile(t *testing.T) {
	in := sample(3000)
	file := writeDataset(t, in)
	bad := corruptCopy(t, file, blockPayload(1, 7))
	for _, path := range []string{file, writeRawStream(t, in), bad} {
		want, err := FileCRC32C(path)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := Scan(path)
		if err != nil {
			t.Fatal(err)
		}
		if scan.CRC32C != want {
			t.Fatalf("%s: Scan checksum %s, FileCRC32C %s", filepath.Base(path), scan.CRC32C, want)
		}
		for _, tolerant := range []bool{false, true} {
			pr, err := OpenParallel(path, ParallelOptions{Workers: 2, Tolerant: tolerant})
			if err != nil {
				t.Fatal(err)
			}
			err = pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
				return func(Batch) error { return nil }
			})
			pr.Close()
			if wantErr := path == bad && !tolerant; (err != nil) != wantErr {
				t.Fatalf("%s tolerant=%v: read error %v", filepath.Base(path), tolerant, err)
			}
			wantRead := want
			if err != nil {
				wantRead = ""
			}
			if got := pr.CRC32C(); got != wantRead {
				t.Fatalf("%s tolerant=%v: read checksum %q, want %q", filepath.Base(path), tolerant, got, wantRead)
			}
		}
	}
}
