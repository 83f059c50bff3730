package dataset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"userv6/internal/telemetry"
)

// readFused drains a dataset through ForEachWorker, returning the
// concatenated per-worker record copies. Each worker appends to its own
// slice with no locking — exactly the access pattern the fused analyze
// path relies on — so running this under -race doubles as the proof
// that a callback is never invoked from two goroutines.
func readFused(t *testing.T, path string, opts ParallelOptions) []telemetry.Observation {
	t.Helper()
	out, _ := readFusedCoverage(t, path, opts)
	return out
}

// readFusedCoverage is readFused that also returns the read's coverage
// report.
func readFusedCoverage(t *testing.T, path string, opts ParallelOptions) ([]telemetry.Observation, telemetry.SalvageReport) {
	t.Helper()
	pr, err := OpenParallel(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	perWorker := make([][]telemetry.Observation, pr.Workers())
	err = pr.ForEachWorker(context.Background(), func(w int) func(Batch) error {
		return func(b Batch) error {
			perWorker[w] = append(perWorker[w], b.Recs...) // value copies
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := pr.Coverage()
	if !ok {
		t.Fatal("no coverage after a completed fused read")
	}
	var out []telemetry.Observation
	for _, recs := range perWorker {
		out = append(out, recs...)
	}
	return out, rep
}

// blockPayload is the file offset of byte off inside the payload of
// default-size raw block k.
func blockPayload(k, off int) int {
	return headerSize + 4 + k*(16+1024*40) + 16 + off
}

// corruptCopy writes a copy of the dataset at path with the byte at each
// offset bit-flipped and returns the copy's path.
func corruptCopy(t *testing.T, path string, offsets ...int) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offsets {
		raw[off] ^= 0x80
	}
	bad := filepath.Join(t.TempDir(), "bad.uv6")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return bad
}

// assertTolerantMatchesSalvage checks that a tolerant fused read of path
// delivers exactly Salvage's records and reports Salvage's coverage.
func assertTolerantMatchesSalvage(t *testing.T, path string, workers int) telemetry.SalvageReport {
	t.Helper()
	var want []telemetry.Observation
	wantRep, err := Salvage(path, func(o telemetry.Observation) { want = append(want, o) })
	if err != nil {
		t.Fatal(err)
	}
	got, rep := readFusedCoverage(t, path, ParallelOptions{Workers: workers, Tolerant: true})
	if !rep.Equal(wantRep.Stream) {
		t.Fatalf("workers=%d: coverage differs:\n   fused: %+v\n salvage: %+v", workers, rep, wantRep.Stream)
	}
	sortObs(got)
	sortObs(want)
	sameRecords(t, got, want)
	return rep
}

func TestForEachWorkerMultisetEqual(t *testing.T) {
	in := sample(5000)
	path := writeDataset(t, in)
	want := readSequential(t, path)
	sortObs(want)
	for _, workers := range []int{1, 4} {
		got := readFused(t, path, ParallelOptions{Workers: workers})
		sortObs(got)
		sameRecords(t, got, want)
	}
}

// TestParallelReaderUnorderedMultisetEqual: whatever order blocks
// complete in, a multi-worker read delivers every record exactly once —
// including a single partial block, exact block multiples, a one-record
// tail block, and more workers than blocks.
func TestParallelReaderUnorderedMultisetEqual(t *testing.T) {
	for _, n := range []int{1, 1024, 1025, 4097} {
		in := sample(n)
		path := writeDataset(t, in)
		want := append([]telemetry.Observation(nil), in...)
		sortObs(want)
		for _, workers := range []int{2, 3, 8} {
			got, rep := readFusedCoverage(t, path, ParallelOptions{Workers: workers})
			if rep.Records != uint64(n) || rep.CorruptBlocks != 0 {
				t.Fatalf("n=%d workers=%d: coverage %+v", n, workers, rep)
			}
			sortObs(got)
			sameRecords(t, got, want)
		}
	}
}

// The factory must run serially, worker 0 first, before any worker
// goroutine starts — the guarantee that lets callers build shared
// state (e.g. a replica slice) without locks.
func TestForEachWorkerSerialFactories(t *testing.T) {
	path := writeDataset(t, sample(3000))
	pr, err := OpenParallel(path, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	var (
		mu        sync.Mutex
		order     []int
		delivered bool
	)
	err = pr.ForEachWorker(context.Background(), func(w int) func(Batch) error {
		// No lock here on purpose: factories are specified to run
		// serially, so -race must not flag this append.
		if delivered {
			t.Error("factory ran after a batch was delivered")
		}
		order = append(order, w)
		return func(Batch) error {
			mu.Lock()
			delivered = true
			mu.Unlock()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("factory ran %d times, want 4", len(order))
	}
	for w, got := range order {
		if got != w {
			t.Fatalf("factory order %v, want worker indexes in order", order)
		}
	}
}

func TestForEachWorkerTolerantMatchesSalvage(t *testing.T) {
	bad := corruptCopy(t, writeDataset(t, sample(5000)), blockPayload(1, 99))
	assertTolerantMatchesSalvage(t, bad, 4)
}

// TestParallelReaderTolerantUnordered: a tolerant multi-worker read of a
// file damaged at both ends — the first block and the partial last
// block — skips exactly the damaged blocks, whichever worker draws them,
// and accounts for them as Salvage does.
func TestParallelReaderTolerantUnordered(t *testing.T) {
	path := writeDataset(t, sample(5000)) // blocks 0-3 full, block 4 partial
	bad := corruptCopy(t, path, blockPayload(0, 7), blockPayload(4, 40))
	for _, workers := range []int{2, 8} {
		rep := assertTolerantMatchesSalvage(t, bad, workers)
		if rep.CorruptBlocks != 2 || rep.Records != 3*1024 {
			t.Fatalf("workers=%d: coverage %+v, want 2 corrupt blocks and %d records", workers, rep, 3*1024)
		}
	}
}

// A corrupt block in a strict multi-worker read fails the read like the
// sequential reader does (blocks complete out of order, so there is no
// prefix guarantee — only the error contract).
func TestForEachWorkerStrictCorruptBlock(t *testing.T) {
	bad := corruptCopy(t, writeDataset(t, sample(5000)), blockPayload(2, 200))
	pr, err := OpenParallel(bad, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	err = pr.ForEachWorker(context.Background(), func(int) func(Batch) error {
		return func(Batch) error { return nil }
	})
	if !errors.Is(err, telemetry.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestForEachWorkerCallbackError(t *testing.T) {
	path := writeDataset(t, sample(5000))
	boom := errors.New("boom")
	pr, err := OpenParallel(path, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	err = pr.ForEachWorker(context.Background(), func(w int) func(Batch) error {
		return func(b Batch) error {
			if b.Index == 2 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want callback error, got %v", err)
	}
}

// A panicking callback must surface as a typed *WorkerPanicError naming
// the worker, not crash the process or deadlock the pool.
func TestForEachWorkerPanic(t *testing.T) {
	for _, tolerant := range []bool{false, true} {
		pr, err := OpenParallel(writeDataset(t, sample(5000)), ParallelOptions{Workers: 4, Tolerant: tolerant})
		if err != nil {
			t.Fatal(err)
		}
		err = pr.ForEachWorker(context.Background(), func(w int) func(Batch) error {
			return func(b Batch) error {
				if b.Index >= 1 {
					panic("kaboom")
				}
				return nil
			}
		})
		pr.Close()
		var pe *WorkerPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("tolerant=%v: want *WorkerPanicError, got %v", tolerant, err)
		}
		if pe.Value != "kaboom" || pe.Worker < 0 || pe.Worker >= 4 {
			t.Fatalf("tolerant=%v: panic error %+v", tolerant, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("tolerant=%v: panic error carries no stack", tolerant)
		}
		if _, ok := pr.Coverage(); ok && !tolerant {
			t.Fatal("strict read reported coverage")
		}
	}
}

func TestForEachWorkerSingleUse(t *testing.T) {
	pr, err := OpenParallel(writeDataset(t, sample(100)), ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	noop := func(int) func(Batch) error { return func(Batch) error { return nil } }
	if err := pr.ForEachWorker(context.Background(), noop); err != nil {
		t.Fatal(err)
	}
	if err := pr.ForEachWorker(context.Background(), noop); err == nil {
		t.Fatal("second consume must fail")
	}
}

func TestForEachWorkerContextCancel(t *testing.T) {
	pr, err := OpenParallel(writeDataset(t, sample(5000)), ParallelOptions{Workers: 2})
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

// A raw (headerless) stream reads through the fused path too.
func TestForEachWorkerRawStream(t *testing.T) {
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

	got := readFused(t, path, ParallelOptions{Workers: 4})
	sortObs(got)
	want := append([]telemetry.Observation(nil), in...)
	sortObs(want)
	sameRecords(t, got, want)
}
