package userv6

// Fault-injection tests for resumable sharded export: every test kills
// an export at an injected fault (exact-byte crash, torn manifest
// rewrite, cancellation), resumes the directory, and requires the
// result to be byte-identical to an uninterrupted run — parts and
// manifest both.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/sampling"
	"userv6/internal/telemetry"
)

const shardHeaderSize = 256 // dataset header length, mirrored for offset math

// exportPristine runs an uninterrupted sharded export and returns its
// manifest plus the bytes of every file it wrote (parts and manifest).
func exportPristine(t *testing.T, sim *Sim, dir string, shards int, meta dataset.Meta, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Manifest, map[string][]byte) {
	t.Helper()
	man, err := sim.ExportShardedCtx(context.Background(), dir, shards, meta, wrap)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, p := range man.Parts {
		raw, err := os.ReadFile(filepath.Join(dir, p.Name))
		if err != nil {
			t.Fatal(err)
		}
		want[p.Name] = raw
	}
	raw, err := os.ReadFile(filepath.Join(dir, dataset.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	want[dataset.ManifestName] = raw
	return man, want
}

// requireIdentical compares every pristine file against the resumed
// directory byte for byte.
func requireIdentical(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	for name, wantRaw := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Fatalf("%s differs from uninterrupted run (%d vs %d bytes)", name, len(got), len(wantRaw))
		}
	}
}

// TestShardedResumeTruncationSweep is the exhaustive crash sweep: for
// every frame boundary of every part (plus mid-header and mid-payload
// cuts), a crash failpoint tears the part's temp file at exactly that
// byte mid-export, and the resumed directory must be byte-identical to
// an uninterrupted run. -short subsamples the cut list.
func TestShardedResumeTruncationSweep(t *testing.T) {
	const users, shards = 300, 2
	sim := NewSim(DefaultScenario(users).WithSeed(33))
	from, to := AnalysisWeek()
	meta := dataset.Meta{Seed: 33, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}

	pristine := t.TempDir()
	man, want := exportPristine(t, sim, pristine, shards, meta, nil)

	// Cut points per part: the start of every frame (a tear exactly on a
	// block boundary), inside every frame header, inside one payload,
	// and through the stream signature.
	type cut struct {
		part string
		off  int64
	}
	var cuts []cut
	for _, p := range man.Parts {
		stream := want[p.Name][shardHeaderSize:]
		if _, err := telemetry.SalvageRawBlocks(stream, func(b telemetry.RawBlock, _ []byte) {
			cuts = append(cuts,
				cut{p.Name, shardHeaderSize + b.Offset},     // frame boundary
				cut{p.Name, shardHeaderSize + b.Offset + 7}, // torn frame header
			)
			if b.Index == 0 {
				cuts = append(cuts, cut{p.Name, shardHeaderSize + b.Offset + 16 + 3}) // torn payload
			}
		}); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		cuts = append(cuts, cut{p.Name, shardHeaderSize + 2}) // torn signature
	}
	if len(cuts) < 2*len(man.Parts) {
		t.Fatalf("sweep found only %d cut points across %d parts", len(cuts), len(man.Parts))
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}

	for i := 0; i < len(cuts); i += stride {
		c := cuts[i]
		t.Run(fmt.Sprintf("%s@%d", c.part, c.off), func(t *testing.T) {
			dir := t.TempDir()
			in := faultio.New(faultio.OS, uint64(c.off))
			if err := in.ArmPoint(faultio.Failpoint{
				Path: c.part + ".tmp", Op: faultio.OpWrite, Offset: c.off, Action: faultio.ActionCrash,
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.ExportShardedFS(context.Background(), in, dir, shards, meta, nil); err == nil {
				t.Fatal("export across an armed crash failpoint succeeded")
			}
			if !in.Crashed() {
				t.Fatalf("crash failpoint at %s@%d never fired", c.part, c.off)
			}
			if _, err := dataset.ReadManifest(filepath.Join(dir, dataset.ManifestName)); err != nil {
				t.Fatalf("crashed export left no readable manifest: %v", err)
			}
			man2, err := sim.ResumeShardedCtx(context.Background(), dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !man2.Complete {
				t.Fatal("resumed manifest not marked complete")
			}
			requireIdentical(t, dir, want)
		})
	}
}

// TestShardedResumeManifestCrashConsistency kills the export at every
// manifest rewrite — including the window between a part's finalize
// and its manifest update — and requires a plain resume (no tolerant
// mode anywhere) to reproduce the uninterrupted run, with a strict
// merge accepting the result.
func TestShardedResumeManifestCrashConsistency(t *testing.T) {
	const users, shards = 240, 2
	sim := NewSim(DefaultScenario(users).WithSeed(7))
	from, to := AnalysisWeek()
	meta := dataset.Meta{Seed: 7, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}

	pristine := t.TempDir()
	man, want := exportPristine(t, sim, pristine, shards, meta, nil)

	single := filepath.Join(t.TempDir(), "single.uv6")
	wantSingle, _ := writeSingle(t, sim, single, meta)

	// Manifest creates during an export: 1 provisional, one per part
	// finalize, 1 final Complete rewrite. Crashing the n-th (n >= 2)
	// lands between a part finalize and its manifest update, or on the
	// final rewrite itself.
	for n := 2; n <= len(man.Parts)+2; n++ {
		t.Run(fmt.Sprintf("crash-manifest-write-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			in := faultio.New(faultio.OS, uint64(n))
			if err := in.Arm(fmt.Sprintf("manifest.uv6m.tmp:create:n=%d:crash", n)); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.ExportShardedFS(context.Background(), in, dir, shards, meta, nil); err == nil {
				t.Fatal("export across an armed crash failpoint succeeded")
			}
			if !in.Crashed() {
				t.Fatalf("manifest crash failpoint n=%d never fired", n)
			}
			if _, err := sim.ResumeShardedCtx(context.Background(), dir, nil); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, dir, want)

			merged := filepath.Join(dir, "merged.uv6")
			_, rep, err := dataset.MergeManifest(merged, filepath.Join(dir, dataset.ManifestName),
				&dataset.MergeOptions{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete {
				t.Fatal("strict merge of resumed export reported incomplete")
			}
			got, err := os.ReadFile(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantSingle) {
				t.Fatal("merge of resumed export differs from single-writer run")
			}
		})
	}
}

// TestShardedResumeAfterCancel interrupts an export by context
// cancellation mid-generation (the SIGINT path) and resumes it; a
// deterministic sampler rides along to prove wrap-decorated runs
// resume byte-identically too.
func TestShardedResumeAfterCancel(t *testing.T) {
	const users, shards = 300, 3
	sim := NewSim(DefaultScenario(users).WithSeed(12))
	from, to := AnalysisWeek()
	meta := dataset.Meta{Seed: 12, Users: users, FromDay: int(from), ToDay: int(to), Sample: "user:0.5"}
	sampler, err := sampling.Parse(meta.Sample, meta.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		return sampling.Filter(sampler, emit)
	}

	pristine := t.TempDir()
	_, want := exportPristine(t, sim, pristine, shards, meta, wrap)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	countingWrap := func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		emit = wrap(emit)
		return func(o telemetry.Observation) {
			if seen.Add(1) == 500 {
				cancel()
			}
			emit(o)
		}
	}
	if _, err := sim.ExportShardedCtx(ctx, dir, shards, meta, countingWrap); err == nil {
		t.Fatal("cancelled export succeeded")
	}
	if _, err := sim.ResumeShardedCtx(context.Background(), dir, wrap); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, dir, want)
}

// TestShardedResumeIdempotent: resuming a directory that already holds
// a complete export regenerates nothing and leaves every byte alone.
func TestShardedResumeIdempotent(t *testing.T) {
	const users, shards = 200, 2
	sim := NewSim(DefaultScenario(users).WithSeed(5))
	from, to := AnalysisWeek()
	meta := dataset.Meta{Seed: 5, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}

	dir := t.TempDir()
	_, want := exportPristine(t, sim, dir, shards, meta, nil)

	// A create fault on any part temp file would fire if resume opened
	// a writer for a part it should recognize as finalized by checksum.
	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("part-*.uv6.tmp:create:x=-1:err"); err != nil {
		t.Fatal(err)
	}
	man, err := sim.ResumeShardedFS(context.Background(), in, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Complete {
		t.Fatal("resumed manifest not marked complete")
	}
	requireIdentical(t, dir, want)
	if hits := in.TotalHits(); hits != 0 {
		t.Fatalf("idempotent resume touched part contents (%d injected faults fired)", hits)
	}
}

// TestResumeTruncationSweep is the single-file counterpart of
// TestShardedResumeTruncationSweep: a crash failpoint tears a dataset
// run's temp file at every frame boundary (plus inside every frame
// header, inside one payload and through the stream signature), and
// Sim.ResumeFileFS must turn what survives into the uninterrupted file,
// byte for byte. -short subsamples the cut list.
func TestResumeTruncationSweep(t *testing.T) {
	const users = 300
	sim := NewSim(DefaultScenario(users).WithSeed(33))
	from, to := AnalysisWeek()
	meta := dataset.Meta{Seed: 33, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}
	want, _ := writeSingle(t, sim, filepath.Join(t.TempDir(), "week.uv6"), meta)

	var cuts []int64
	if _, err := telemetry.SalvageRawBlocks(want[shardHeaderSize:], func(b telemetry.RawBlock, _ []byte) {
		cuts = append(cuts, shardHeaderSize+b.Offset, shardHeaderSize+b.Offset+7) // frame boundary, torn frame header
		if b.Index == 0 {
			cuts = append(cuts, shardHeaderSize+b.Offset+16+3) // torn payload
		}
	}); err != nil {
		t.Fatal(err)
	}
	cuts = append(cuts, shardHeaderSize+2) // torn signature
	if len(cuts) < 8 {
		t.Fatalf("sweep found only %d cut points", len(cuts))
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}

	for i := 0; i < len(cuts); i += stride {
		off := cuts[i]
		t.Run(fmt.Sprintf("week.uv6@%d", off), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "week.uv6")
			in := faultio.New(faultio.OS, uint64(off))
			if err := in.ArmPoint(faultio.Failpoint{
				Path: "week.uv6.tmp", Op: faultio.OpWrite, Offset: off, Action: faultio.ActionCrash,
			}); err != nil {
				t.Fatal(err)
			}
			w, err := dataset.CreateFS(in, path, meta)
			if err != nil {
				t.Fatal(err)
			}
			emit, _ := w.Emit()
			if err := sim.GenerateCtx(context.Background(), from, to, emit); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err == nil || !in.Crashed() {
				t.Fatalf("crash failpoint at %d never fired (close: %v)", off, err)
			}

			if _, _, _, err := sim.ResumeFileFS(context.Background(), faultio.OS, path, nil); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed file differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestShardedResumeIgnoresStalePart: a directory reused by a run of
// another configuration (other-seed) or another shard layout
// (other-layout) holds finished parts the new run never wrote. After
// the new run crashes, resume must not keep any of their records: the
// result equals the new run's uninterrupted export, byte for byte.
func TestShardedResumeIgnoresStalePart(t *testing.T) {
	const users = 300
	from, to := AnalysisWeek()
	metaFor := func(seed uint64) dataset.Meta {
		return dataset.Meta{Seed: seed, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}
	}
	sim := NewSim(DefaultScenario(users).WithSeed(2))
	_, want := exportPristine(t, sim, t.TempDir(), 2, metaFor(2), nil)

	for _, c := range []struct {
		name   string
		stale  *Sim
		shards int
		fault  string
	}{
		{"other-seed", NewSim(DefaultScenario(users).WithSeed(1)), 2, "part-0000.uv6.tmp:write:off=2000:crash"},
		{"other-layout", sim, 3, "part-0001.uv6.tmp:write:off=2000:crash"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := c.stale.ExportShardedCtx(context.Background(), dir, c.shards, metaFor(c.stale.Scenario.Seed), nil); err != nil {
				t.Fatal(err)
			}
			in := faultio.New(faultio.OS, 1)
			if err := in.Arm(c.fault); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.ExportShardedFS(context.Background(), in, dir, 2, metaFor(2), nil); err == nil || !in.Crashed() {
				t.Fatalf("export across %s did not crash (err %v)", c.fault, err)
			}
			man, err := sim.ResumeShardedCtx(context.Background(), dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !man.Complete || man.Seed != 2 {
				t.Fatalf("resumed manifest: complete=%v seed=%d", man.Complete, man.Seed)
			}
			requireIdentical(t, dir, want)
		})
	}
}
