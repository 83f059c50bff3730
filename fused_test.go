package userv6

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// fusedTestUsers scales the generated population down under -short so
// the -race CI lane stays fast while the full sweep keeps real volume.
func fusedTestUsers() int {
	if testing.Short() {
		return 400
	}
	return 1_500
}

// writeAnalyzeDataset generates one analysis week of telemetry into a
// dataset file and returns its path.
func writeAnalyzeDataset(t *testing.T, sim *Sim, users int) string {
	t.Helper()
	from, to := AnalysisWeek()
	path := filepath.Join(t.TempDir(), "w.uv6")
	w, err := dataset.Create(path, dataset.Meta{Seed: 1, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	emit, errp := w.Emit()
	sim.Generate(from, to, emit)
	if *errp != nil {
		t.Fatal(*errp)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// analyzeFile runs AnalyzeSource over one dataset file.
func analyzeFile(path string, workers int, set *core.AnalyzerSet, tolerant bool) (telemetry.SalvageReport, error) {
	src, err := dataset.NewFileSource(path)
	if err != nil {
		return telemetry.SalvageReport{}, err
	}
	return AnalyzeSource(context.Background(), src, set, AnalyzeOptions{Workers: workers, Tolerant: tolerant})
}

// The fused path — worker-local replicas fed straight from the decode
// pool, folded once — must reproduce a sequential replay exactly for
// every analyzer in the default set, at any worker count, in strict and
// tolerant mode. Run under -race this is also the data-race proof for
// the whole fused pipeline.
func TestAnalyzeDatasetFusedMatchesSequential(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	seq := newAnalyzeSet()
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ForEach(seq.set.Observe); err != nil {
		t.Fatal(err)
	}
	r.Close()

	for _, workers := range []int{2, 4} {
		fused := newAnalyzeSet()
		rep, err := analyzeFile(path, workers, fused.set, false)
		if err != nil {
			t.Fatal(err)
		}
		fused.assertEqual(t, seq, "fused strict")
		if rep.Records == 0 || rep.CorruptBlocks != 0 {
			t.Fatalf("workers=%d: strict report %+v", workers, rep)
		}
	}

	// Tolerant fused on a damaged copy must match dataset.Salvage, both
	// in analyzer state and coverage accounting.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[256+4+16+2000] ^= 0x20 // corrupt block 0
	bad := filepath.Join(t.TempDir(), "bad.uv6")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tseq := newAnalyzeSet()
	srep, err := dataset.Salvage(bad, tseq.set.Observe)
	if err != nil {
		t.Fatal(err)
	}
	tfused := newAnalyzeSet()
	frep, err := analyzeFile(bad, 4, tfused.set, true)
	if err != nil {
		t.Fatal(err)
	}
	tfused.assertEqual(t, tseq, "fused tolerant")
	if !frep.Equal(srep.Stream) {
		t.Fatalf("tolerant coverage %+v, want %+v", frep, srep.Stream)
	}
	if frep.CorruptBlocks != 1 {
		t.Fatalf("expected 1 corrupt block, got %+v", frep)
	}
}

// TestAnalyzeDatasetParallelMatchesSequential compares worker counts
// through AnalyzeSource alone: a multi-worker run must reproduce the
// one-worker run, which reads in stream order, in analyzer state and
// in the coverage report, strict and tolerant, including worker counts
// that do not divide the block count.
func TestAnalyzeDatasetParallelMatchesSequential(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[256+4+16+100] ^= 0x04 // corrupt block 0
	bad := filepath.Join(t.TempDir(), "bad.uv6")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path     string
		tolerant bool
		corrupt  int
	}{
		{path, false, 0},
		{path, true, 0},
		{bad, true, 1},
	} {
		seq := newAnalyzeSet()
		seqRep, err := analyzeFile(tc.path, 1, seq.set, tc.tolerant)
		if err != nil {
			t.Fatal(err)
		}
		if seqRep.CorruptBlocks != tc.corrupt {
			t.Fatalf("tolerant=%v: sequential report %+v, want %d corrupt blocks", tc.tolerant, seqRep, tc.corrupt)
		}
		for _, workers := range []int{3, 8} {
			par := newAnalyzeSet()
			rep, err := analyzeFile(tc.path, workers, par.set, tc.tolerant)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("tolerant=%v corrupt=%d workers=%d", tc.tolerant, tc.corrupt, workers)
			par.assertEqual(t, seq, label)
			if !rep.Equal(seqRep) {
				t.Fatalf("%s: report %+v, want %+v", label, rep, seqRep)
			}
		}
	}
}

// bombAnalyzer panics partway into the stream, exercising the decode
// workers' fault isolation.
type bombAnalyzer struct{ n int }

func (b *bombAnalyzer) Observe(telemetry.Observation) {
	if b.n++; b.n > 100 {
		panic("bomb")
	}
}

// A panic inside an analyzer must surface as a typed
// *dataset.WorkerPanicError at one worker and at four, not crash the
// caller, and leave the set's primaries unfolded — no partial fold
// masquerading as a result.
func TestAnalyzeDatasetFusedWorkerPanic(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)

	for _, workers := range []int{1, 4} {
		s := newAnalyzeSet()
		core.AddCommutativeAnalyzer(s.set, &bombAnalyzer{},
			func() *bombAnalyzer { return &bombAnalyzer{} },
			func(into, from *bombAnalyzer) {})
		_, err := analyzeFile(path, workers, s.set, false)
		var pe *dataset.WorkerPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *dataset.WorkerPanicError, got %v", workers, err)
		}
		if pe.Value != "bomb" {
			t.Fatalf("workers=%d: panic value %v, want bomb", workers, pe.Value)
		}
		if got := s.uc.Users(); got != 0 {
			t.Fatalf("workers=%d: primaries folded after failure: %d users", workers, got)
		}
		if got := s.churn.Breakdown(); got.Total != 0 {
			t.Fatalf("workers=%d: churn primary folded after failure: %+v", workers, got)
		}
	}
}

// TestAnalyzeStrictOneWorkerCorruptLastBlock: a strict one-worker
// analysis of a file whose last block is corrupt fails naming the file
// and the block, and leaves the primaries as empty as a fresh set's,
// though every block before the corrupt one was read and analyzed.
func TestAnalyzeStrictOneWorkerCorruptLastBlock(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	path := writeAnalyzeDataset(t, sim, users)
	scan, err := dataset.Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	last := scan.Stream.Blocks - 1
	if last < 1 {
		t.Fatalf("%s holds %d blocks; the test needs blocks before the corrupt one", path, last+1)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // the last block's last payload byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got := newAnalyzeSet()
	_, err = analyzeFile(path, 1, got.set, false)
	var ce *telemetry.CorruptError
	if !errors.As(err, &ce) || ce.Block != last || !strings.Contains(err.Error(), "w.uv6") {
		t.Fatalf("strict one-worker read of a corrupt block %d: err = %v, want a corrupt-block error naming w.uv6", last, err)
	}
	got.assertEqual(t, newAnalyzeSet(), "primaries after a failed strict read")
}
