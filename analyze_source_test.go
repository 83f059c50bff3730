package userv6

// Parity matrix for the source/plan/execute stack: both source shapes
// (merged file, manifest) under both execution modes, strict and
// tolerant, must produce analyzer state identical to the sequential
// replay of the merged file — and analyzing a manifest directly must
// account coverage exactly like merging it first.

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

// analyzeModes are the two execution modes, selected by worker count.
var analyzeModes = []struct {
	name    string
	workers int
	want    core.Mode
}{
	{"seq", 1, core.ModeSequential},
	{"fused", 4, core.ModeFused},
}

// TestAnalyzeSourceParityMatrix sweeps source {file, manifest} ×
// mode {sequential, fused} × {strict, tolerant} against the merged-file
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
	p0 := filepath.Join(dir, man.Parts[0].Name)
	raw, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	raw[256+4+16+2000] ^= 0x20
	if err := os.WriteFile(p0, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	mergedBad := filepath.Join(t.TempDir(), "merged-bad.uv6")
	_, mrep, err := dataset.MergeManifest(mergedBad, filepath.Join(dir, dataset.ManifestName), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Complete {
		t.Fatal("merge of a corrupted part reported complete")
	}
	base := sequentialBaseline(t, mergedBad)

	var wantBlocks, wantCorrupt int
	var wantRecords uint64
	for _, cov := range mrep.Parts {
		wantBlocks += cov.BlocksRecovered
		wantCorrupt += cov.CorruptBlocks
		wantRecords += cov.Records
	}

	for _, mode := range analyzeModes {
		src, err := dataset.OpenManifestSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := newAnalyzeSet()
		rep, err := AnalyzeSource(context.Background(), src, got.set,
			AnalyzeOptions{Workers: mode.workers, Tolerant: true})
		if err != nil {
			t.Fatal(err)
		}
		got.assertEqual(t, base, mode.name)
		if rep.Blocks != wantBlocks || rep.CorruptBlocks != wantCorrupt || rep.Records != wantRecords {
			t.Fatalf("%s: aggregated coverage %+v, want %d blocks / %d corrupt / %d records (merge per-part sums)",
				mode.name, rep, wantBlocks, wantCorrupt, wantRecords)
		}
	}

	// Strict mode must refuse up front: the part's bytes no longer match
	// the manifest checksum, and nothing should be analyzed or folded.
	src, err := dataset.OpenManifestSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	strict := newAnalyzeSet()
	_, err = AnalyzeSource(context.Background(), src, strict.set,
		AnalyzeOptions{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), man.Parts[0].Name) {
		t.Fatalf("strict analysis of corrupted part: err = %v, want checksum mismatch naming %s", err, man.Parts[0].Name)
	}
	if strict.uc.Users() != 0 {
		t.Fatalf("primaries touched after strict refusal: %d users", strict.uc.Users())
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
