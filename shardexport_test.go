package userv6

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/telemetry"
)

// writeSingle runs the canonical single-writer export and returns the
// file bytes plus every observation in emission order.
func writeSingle(t *testing.T, sim *Sim, path string, meta dataset.Meta) ([]byte, []telemetry.Observation) {
	t.Helper()
	w, err := dataset.Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	var obs []telemetry.Observation
	emit, errp := w.Emit()
	from, to := meta.Window()
	generate := sim.GenerateCtx
	if meta.BenignOnly {
		generate = sim.Benign.GenerateCtx
	}
	if err := generate(context.Background(), from, to, func(o telemetry.Observation) {
		obs = append(obs, o)
		emit(o)
	}); err != nil {
		t.Fatal(err)
	}
	if *errp != nil {
		t.Fatal(*errp)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, obs
}

// TestShardedMergeByteIdentical: the acceptance bar for sharded export
// — four shards merged through their manifest reproduce the
// single-writer file byte for byte.
func TestShardedMergeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sim := NewSim(DefaultScenario(1_200).WithSeed(21))
	from, to := AnalysisWeek()
	meta := dataset.Meta{
		Seed: 21, Users: 1_200, FromDay: int(from), ToDay: int(to), Sample: "all",
	}

	want, obs := writeSingle(t, sim, filepath.Join(dir, "single.uv6"), meta)

	shardDir := filepath.Join(dir, "shards")
	man, err := sim.ExportShardedCtx(context.Background(), shardDir, 4, meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.Shards != 4 || len(man.Parts) != 5 {
		t.Fatalf("manifest: %d shards, %d parts", man.Shards, len(man.Parts))
	}
	if man.ConfigHash != dataset.ConfigHash(meta) {
		t.Fatalf("manifest config hash %q", man.ConfigHash)
	}
	// Benign parts partition [0, users) contiguously; the abusive
	// stream rides in one trailing part.
	next := 0
	for i, p := range man.Parts[:4] {
		if p.Kind != dataset.PartKindBenign || p.Name != PartName(i) {
			t.Fatalf("part %d = %+v", i, p)
		}
		if p.UserLo != next || p.UserHi <= p.UserLo {
			t.Fatalf("part %d range [%d,%d), want lo %d", i, p.UserLo, p.UserHi, next)
		}
		next = p.UserHi
	}
	if next != 1_200 {
		t.Fatalf("benign parts cover [0,%d), want [0,1200)", next)
	}
	if last := man.Parts[4]; last.Kind != dataset.PartKindAbusive {
		t.Fatalf("trailing part = %+v", last)
	}
	if man.TotalRecords() != uint64(len(obs)) {
		t.Fatalf("manifest totals %d records, single writer emitted %d", man.TotalRecords(), len(obs))
	}

	merged := filepath.Join(dir, "merged.uv6")
	_, rep, err := dataset.MergeManifest(merged, filepath.Join(shardDir, dataset.ManifestName), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Records != uint64(len(obs)) {
		t.Fatalf("merge report: complete=%v records=%d", rep.Complete, rep.Records)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged sharded export differs from single-writer run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestShardedMergeReportsDamagedPart: a flipped byte in one part file
// fails that part's manifest checksum and surfaces as partial coverage
// — the merge still recovers every intact block.
func TestShardedMergeReportsDamagedPart(t *testing.T) {
	dir := t.TempDir()
	sim := NewSim(DefaultScenario(900).WithSeed(4))
	from, to := AnalysisWeek()
	meta := dataset.Meta{
		Seed: 4, Users: 900, FromDay: int(from), ToDay: int(to), Sample: "all",
	}
	man, err := sim.ExportShardedCtx(context.Background(), dir, 3, meta, nil)
	if err != nil {
		t.Fatal(err)
	}

	victim := filepath.Join(dir, man.Parts[1].Name)
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 0x01 // inside the final block's payload
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rep, err := dataset.MergeManifest(filepath.Join(dir, "merged.uv6"), filepath.Join(dir, dataset.ManifestName), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("merge with a damaged part reported complete")
	}
	cov := rep.Parts[1]
	if cov.ChecksumOK {
		t.Fatal("damaged part passed its manifest checksum")
	}
	if cov.CorruptBlocks == 0 || uint64(cov.BlocksRecovered+cov.CorruptBlocks) != man.Parts[1].Blocks {
		t.Fatalf("damaged part coverage = %+v (manifest: %d blocks)", cov, man.Parts[1].Blocks)
	}
	for _, i := range []int{0, 2, 3} {
		if !rep.Parts[i].Intact() {
			t.Fatalf("intact part %d coverage = %+v", i, rep.Parts[i])
		}
	}
}

// TestResumeByteIdentical: Sim.ResumeFileFS on a finalized partial
// dataset keeps the verified prefix, restarts generation at the derived
// frontier, and reproduces the uninterrupted run byte for byte, both
// mid-benign and mid-abusive. The resumed header keeps the run's block
// codec (the auto cases) and its benign-only flag.
func TestResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sim := NewSim(DefaultScenario(600).WithSeed(9))
	from, to := AnalysisWeek()
	meta := dataset.Meta{
		Seed: 9, Users: 600, FromDay: int(from), ToDay: int(to), Sample: "all",
	}
	auto, benignOnly := meta, meta
	auto.Codec = "auto"
	benignOnly.BenignOnly, benignOnly.Codec = true, "lz"

	for _, run := range []struct {
		prefix string
		meta   dataset.Meta
	}{{"", meta}, {"auto-", auto}, {"benign-only-", benignOnly}} {
		want, obs := writeSingle(t, sim, filepath.Join(dir, run.prefix+"full.uv6"), run.meta)

		benign := 0
		for _, o := range obs {
			if !o.Abusive {
				benign++
			}
		}
		cuts := map[string]int{"mid-benign": benign * 2 / 5}
		if !run.meta.BenignOnly {
			if benign == len(obs) {
				t.Fatal("scenario produced no abusive records; resume test needs both phases")
			}
			cuts["mid-abusive"] = benign + (len(obs)-benign)/2
		}
		for name, cut := range cuts {
			t.Run(run.prefix+name, func(t *testing.T) {
				// An interrupted run finalizes whatever it has: a valid,
				// complete-framed dataset holding a prefix of the stream.
				path := filepath.Join(dir, run.prefix+name+".uv6")
				w, err := dataset.Create(path, run.meta)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range obs[:cut] {
					if err := w.Write(o); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}

				front, kept, records, err := sim.ResumeFileFS(context.Background(), faultio.OS, path, run.meta, nil)
				if err != nil {
					t.Fatal(err)
				}
				if front.Restart || front.BenignDone != (cut > benign) || kept == 0 || kept > cut {
					t.Fatalf("frontier %+v keeping %d of a %d-record prefix", front, kept, cut)
				}
				if records != uint64(len(obs)) {
					t.Fatalf("resumed file holds %d records, uninterrupted run %d", records, len(obs))
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("resumed run differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}
