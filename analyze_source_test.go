package userv6

// Parity matrix for the source/plan/execute stack: both source shapes
// (merged file, manifest) at one worker and at four, strict and
// tolerant, must produce analyzer state identical to the sequential
// replay of the merged file — and analyzing a manifest directly must
// account coverage exactly like merging it first.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// exportShardedWeek writes a 4-shard analysis-week export and returns
// the directory, the manifest, and a strict merge of it.
func exportShardedWeek(t *testing.T, sim *Sim, users int) (dir, merged string, man *dataset.Manifest) {
	t.Helper()
	from, to := AnalysisWeek()
	dir = t.TempDir()
	meta := dataset.Meta{Seed: 1, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}
	man, err := sim.ExportShardedCtx(context.Background(), dir, 4, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged = filepath.Join(t.TempDir(), "merged.uv6")
	if _, _, err := dataset.MergeManifest(merged, filepath.Join(dir, dataset.ManifestName), &dataset.MergeOptions{Strict: true}); err != nil {
		t.Fatal(err)
	}
	return dir, merged, man
}

func sequentialBaseline(t *testing.T, path string) analyzeSet {
	t.Helper()
	base := newAnalyzeSet()
	r, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ForEach(base.set.Observe); err != nil {
		t.Fatal(err)
	}
	return base
}

// analyzeModes are a worker count under each plan label.
var analyzeModes = []struct {
	name    string
	workers int
	want    core.Mode
}{
	{"seq", 1, core.ModeSequential},
	{"fused", 4, core.ModeFused},
}

// TestAnalyzeSourceParityMatrix sweeps source {file, manifest} ×
// workers {1, 4} × {strict, tolerant} against the merged-file
// sequential-reader baseline. Inputs are intact here;
// damage is TestAnalyzeManifestTolerantCorruptPart's job.
func TestAnalyzeSourceParityMatrix(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	dir, merged, man := exportShardedWeek(t, sim, users)
	base := sequentialBaseline(t, merged)

	sources := []struct {
		name string
		open func() (dataset.Source, error)
	}{
		{"file", func() (dataset.Source, error) { return dataset.NewFileSource(merged) }},
		{"manifest", func() (dataset.Source, error) { return dataset.OpenManifestSource(dir) }},
	}
	for _, srcCase := range sources {
		for _, mode := range analyzeModes {
			for _, tolerant := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/tolerant=%v", srcCase.name, mode.name, tolerant)
				t.Run(label, func(t *testing.T) {
					src, err := srcCase.open()
					if err != nil {
						t.Fatal(err)
					}
					got := newAnalyzeSet()
					opts := AnalyzeOptions{Workers: mode.workers, Tolerant: tolerant}
					plan, _ := PlanSource(src, got.set, opts)
					if plan.Mode != mode.want {
						t.Fatalf("%s: planned %v, want %v", label, plan.Mode, mode.want)
					}
					rep, err := AnalyzeSource(context.Background(), src, got.set, opts)
					if err != nil {
						t.Fatal(err)
					}
					got.assertEqual(t, base, label)
					if rep.Records != man.TotalRecords() {
						t.Fatalf("%s: coverage %d records, want %d", label, rep.Records, man.TotalRecords())
					}
					if rep.CorruptBlocks != 0 || rep.Blocks == 0 {
						t.Fatalf("%s: coverage %+v, want intact blocks only", label, rep)
					}
					// Merging re-packs records into new block boundaries, so
					// block counts are only comparable for the manifest.
					if srcCase.name == "manifest" && rep.Blocks != int(man.TotalBlocks()) {
						t.Fatalf("%s: coverage %d blocks, manifest declares %d", label, rep.Blocks, man.TotalBlocks())
					}
				})
			}
		}
	}
}

// FuzzAnalyzeParity: AnalyzeSource over a stored dataset folds to the
// state the same analyzers reach fed in memory from Sim.Generate, and
// reads every generated record, whatever the seed, the population
// (1–300 users), the window inside the analysis week, the block codec,
// the shape (one dataset file, or a sharded export of 1–6 parts read
// through its manifest), the worker count (1–4) and the read mode.
func FuzzAnalyzeParity(f *testing.F) {
	codecs := []string{"", "lz", "delta", "auto"} // "" is none
	for i := range codecs {
		f.Add(uint64(i+1), uint16(200), uint8(i), uint8(2), uint8(i), uint8(0), uint8(i), i%2 == 1)
		f.Add(uint64(i+5), uint16(280), uint8(i+1), uint8(3), uint8(i), uint8(i+2), uint8(i+1), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, users uint16, start, span, codec, shards, workers uint8, tolerant bool) {
		weekFrom, weekTo := AnalysisWeek()
		from := weekFrom + simtime.Day(start)%(weekTo-weekFrom+1)
		to := from + simtime.Day(span)%(weekTo-from+1)
		n := int(users)%300 + 1
		sim := NewSim(DefaultScenario(n).WithSeed(seed))
		meta := dataset.Meta{Seed: seed, Users: n, FromDay: int(from), ToDay: int(to), Sample: "all",
			Codec: codecs[int(codec)%len(codecs)]}
		opts := AnalyzeOptions{Workers: int(workers)%4 + 1, Tolerant: tolerant}
		parts := int(shards) % 7
		label := fmt.Sprintf("seed %d, %d users, days %d-%d, codec %q, %d parts, %+v", seed, n, from, to, meta.Codec, parts, opts)

		// OpenSource reads a directory as the sharded export in it.
		stored := t.TempDir()
		if parts == 0 {
			stored = filepath.Join(stored, "w.uv6")
			w, err := dataset.Create(stored, meta)
			if err != nil {
				t.Fatal(err)
			}
			emit, errp := w.Emit()
			sim.Generate(from, to, emit)
			if err := errors.Join(*errp, w.Close()); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sim.ExportShardedCtx(context.Background(), stored, parts, meta, nil); err != nil {
			t.Fatal(err)
		}
		src, err := dataset.OpenSource(stored)
		if err != nil {
			t.Fatal(err)
		}

		want, records := newAnalyzeSet(), uint64(0)
		sim.Generate(from, to, func(o telemetry.Observation) {
			records++
			want.set.Observe(o)
		})
		got := newAnalyzeSet()
		rep, err := AnalyzeSource(context.Background(), src, got.set, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got.assertEqual(t, want, label)
		if rep.Records != records || !rep.Intact() {
			t.Fatalf("%s: coverage %+v, want %d records, intact", label, rep, records)
		}
	})
}

// Direct manifest analysis must account coverage exactly like a
// tolerant merge: a corrupt part costs the same blocks/records in the
// aggregated report as in the merge's per-part coverage rows, and the
// analyzer state must match replaying the tolerant-merged output.
func TestAnalyzeManifestTolerantCorruptPart(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	dir, _, man := exportShardedWeek(t, sim, users)

	// Corrupt one payload byte in block 0 of the first part.
	damagePart(t, dir, man.Parts[0].Name, func(b []byte) []byte {
		b[256+4+16+2000] ^= 0x20
		return b
	})
	checkTolerantMatchesMerge(t, dir, man.Parts[0].Name, 1, 4)
}

// TestAnalyzeManifestTolerantDamagedPart: a tolerant analysis reads a
// part whose header is damaged, torn or over a damaged stream signature
// as a tolerant merge reads it, at one worker and at two.
func TestAnalyzeManifestTolerantDamagedPart(t *testing.T) {
	users := fusedTestUsers()
	sim := NewSim(DefaultScenario(users))
	for _, c := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"header-byte", func(b []byte) []byte {
			b[20] = 'A'
			return b
		}},
		{"torn-header", func(b []byte) []byte { return b[:100] }},
		{"signature", func(b []byte) []byte {
			b[259] = 1
			return b
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, _, man := exportShardedWeek(t, sim, users)
			damagePart(t, dir, man.Parts[1].Name, c.damage)
			checkTolerantMatchesMerge(t, dir, man.Parts[1].Name, 1, 2)
		})
	}
}

// damagePart rewrites the part named part of the export in dir through
// damage.
func damagePart(t *testing.T, dir, part string, damage func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, part)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkTolerantMatchesMerge checks a tolerant analysis of the export in
// dir, whose part named part is damaged, at each worker count against a
// tolerant merge of it: the analyzer state must equal the replay of the
// merged file, and the aggregated coverage the sums of the merge's
// per-part rows. A strict analysis must fail naming the part, with
// nothing folded.
func checkTolerantMatchesMerge(t *testing.T, dir, part string, workers ...int) {
	t.Helper()
	merged := filepath.Join(t.TempDir(), "merged-bad.uv6")
	_, mrep, err := dataset.MergeManifest(merged, filepath.Join(dir, dataset.ManifestName), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Complete {
		t.Fatal("merge of a damaged part reported complete")
	}
	base := sequentialBaseline(t, merged)

	var want telemetry.SalvageReport
	for _, cov := range mrep.Parts {
		want.Blocks += cov.BlocksRecovered
		want.CorruptBlocks += cov.CorruptBlocks
		want.Records += cov.Records
		want.SkippedBytes += cov.SkippedBytes
	}
	for _, w := range workers {
		src, err := dataset.OpenManifestSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := newAnalyzeSet()
		rep, err := AnalyzeSource(context.Background(), src, got.set, AnalyzeOptions{Workers: w, Tolerant: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got.assertEqual(t, base, fmt.Sprintf("workers=%d", w))
		if rep.Blocks != want.Blocks || rep.CorruptBlocks != want.CorruptBlocks ||
			rep.Records != want.Records || rep.SkippedBytes != want.SkippedBytes {
			t.Fatalf("workers=%d: aggregated coverage %+v, want %d blocks / %d corrupt / %d records / %d bytes skipped (merge per-part sums)",
				w, rep, want.Blocks, want.CorruptBlocks, want.Records, want.SkippedBytes)
		}
	}

	// The damage fails a strict read before the part's checksum is
	// compared with the manifest's (TestAnalyzeManifestStrictSwappedPart
	// covers that).
	src, err := dataset.OpenManifestSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	strict := newAnalyzeSet()
	_, err = AnalyzeSource(context.Background(), src, strict.set, AnalyzeOptions{Workers: workers[len(workers)-1]})
	if err == nil || !strings.Contains(err.Error(), part) {
		t.Fatalf("strict analysis of damaged part: err = %v, want an error naming %s", err, part)
	}
	strict.assertEqual(t, newAnalyzeSet(), "primaries after the strict refusal")
}

// TestAnalyzeManifestStrictSwappedPart: a manifest part replaced by
// another valid part has an intact header and intact frames, so only
// the manifest's whole-file checksum tells it apart. Strict analysis
// must fail naming the part, at one worker and at two, and leave the
// primaries empty though the parts before it were read.
func TestAnalyzeManifestStrictSwappedPart(t *testing.T) {
	users := 500
	sim := NewSim(DefaultScenario(users))
	dir, _, man := exportShardedWeek(t, sim, users)
	last := -1
	for i, p := range man.Parts {
		if p.Kind == dataset.PartKindBenign {
			last = i
		}
	}
	if last < 1 {
		t.Fatalf("export lists %d benign parts, want at least 2", last+1)
	}
	first, err := os.ReadFile(filepath.Join(dir, man.Parts[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	swapped := man.Parts[last].Name
	if err := os.WriteFile(filepath.Join(dir, swapped), first, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2} {
		src, err := dataset.OpenManifestSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := newAnalyzeSet()
		_, err = AnalyzeSource(context.Background(), src, got.set, AnalyzeOptions{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "part "+swapped+": file checksum") {
			t.Fatalf("workers=%d: strict analysis with %s swapped: err = %v, want its checksum mismatch", workers, swapped, err)
		}
		got.assertEqual(t, newAnalyzeSet(), fmt.Sprintf("workers=%d: primaries after the refusal", workers))
	}
}

// TestPlanModeSelection: PlanSource resolves Workers <= 0 to GOMAXPROCS,
// keeps any other count, and labels a one-worker plan sequential and
// any other fused.
func TestPlanModeSelection(t *testing.T) {
	src, err := dataset.NewFileSource(writeAnalyzeDataset(t, NewSim(DefaultScenario(50)), 50))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		workers int
		want    int // resolved workers; 0 = GOMAXPROCS
	}{
		{"auto one worker", 1, 1},
		{"auto commutative", 4, 4},
		{"auto default workers", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := PlanSource(src, newAnalyzeSet().set, AnalyzeOptions{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == 0 {
				want = runtime.GOMAXPROCS(0)
			}
			// On a one-CPU machine "all CPUs" is one worker, so sequential.
			mode := core.ModeFused
			if want == 1 {
				mode = core.ModeSequential
			}
			if p.Workers != want || p.Mode != mode || p.Parts != 1 {
				t.Fatalf("PlanSource(Workers %d) = %+v, want %d workers, mode %v, 1 part", tc.workers, p, want, mode)
			}
		})
	}
}

// The aggregated strict coverage of a manifest must carry the same
// per-codec block counts as verifying the parts individually — the
// detail `verify` prints across parts.
func TestAnalyzeManifestAggregatesCodecBlocks(t *testing.T) {
	users := 600
	sim := NewSim(DefaultScenario(users))
	from, to := AnalysisWeek()
	dir := t.TempDir()
	meta := dataset.Meta{Seed: 3, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all", Codec: "auto"}
	man, err := sim.ExportShardedCtx(context.Background(), dir, 3, meta, nil)
	if err != nil {
		t.Fatal(err)
	}

	want := map[telemetry.CodecID]uint64{}
	for _, p := range man.Parts {
		scan, err := dataset.Scan(filepath.Join(dir, p.Name))
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range scan.Stream.CodecBlocks {
			want[id] += n
		}
	}

	src, err := dataset.OpenManifestSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := newAnalyzeSet()
	rep, err := AnalyzeSource(context.Background(), src, got.set, AnalyzeOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CodecBlocks) == 0 {
		t.Fatal("aggregated report carries no per-codec block counts")
	}
	for id, n := range want {
		if rep.CodecBlocks[id] != n {
			t.Fatalf("codec %s: aggregated %d blocks, parts hold %d", id, rep.CodecBlocks[id], n)
		}
	}
}

// OpenSource resolves an export directory to its manifest, and the
// default options (all CPUs) analyze it like the merged file.
func TestSimAnalyzeManifest(t *testing.T) {
	users := 500
	sim := NewSim(DefaultScenario(users))
	dir, merged, _ := exportShardedWeek(t, sim, users)
	base := sequentialBaseline(t, merged)

	src, err := dataset.OpenSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Kind() != "manifest" {
		t.Fatalf("OpenSource(%q) resolved to %s, want manifest", dir, src.Kind())
	}
	got := newAnalyzeSet()
	if _, err := AnalyzeSource(context.Background(), src, got.set, AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	got.assertEqual(t, base, "AnalyzeSource(manifest)")
}
