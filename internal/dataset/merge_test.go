package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"userv6/internal/faultio"
	"userv6/internal/retry"
	"userv6/internal/telemetry"
)

// writePart writes obs into a new dataset at path and returns the
// part description a sharded exporter would record for it.
func writePart(t testing.TB, path string, meta Meta, obs []telemetry.Observation) PartInfo {
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
	crc, err := FileCRC32C(path)
	if err != nil {
		t.Fatal(err)
	}
	return PartInfo{
		Name: filepath.Base(path), Kind: PartKindBenign,
		Records: w.Records(), Blocks: w.Blocks(), CRC32C: crc,
	}
}

// TestMergeByteIdenticalToSingleWriter: folding four shards must
// reproduce the single-writer file exactly — the acceptance bar for
// sharded export.
func TestMergeByteIdenticalToSingleWriter(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 11, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(5000)

	single := filepath.Join(dir, "single.uv6")
	writePart(t, single, meta, obs)

	var parts []string
	per := len(obs) / 4
	for i := 0; i < 4; i++ {
		lo, hi := i*per, (i+1)*per
		if i == 3 {
			hi = len(obs)
		}
		p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
		writePart(t, p, meta, obs[lo:hi])
		parts = append(parts, p)
	}

	merged := filepath.Join(dir, "merged.uv6")
	rep, err := Merge(merged, meta, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("merge of intact parts reported incomplete: %+v", rep.Parts)
	}
	if rep.Records != uint64(len(obs)) {
		t.Fatalf("merged %d records, want %d", rep.Records, len(obs))
	}

	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("merged dataset differs from single-writer output (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMergeRecoversDamagedPart: one part with a flipped payload byte
// loses exactly its corrupt block; every intact block of every part is
// recovered and the coverage report says so.
func TestMergeRecoversDamagedPart(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 5, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(5000) // 1250 records per part: blocks of 1024 + 226

	var parts []string
	expected := map[string]PartInfo{}
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
		info := writePart(t, p, meta, obs[i*1250:(i+1)*1250])
		if info.Blocks != 2 {
			t.Fatalf("part %d has %d blocks, test expects 2", i, info.Blocks)
		}
		expected[info.Name] = info
		parts = append(parts, p)
	}

	// Flip one byte inside part 2's first block payload.
	victim := parts[2]
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+4+16+37] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(dir, "merged.uv6")
	rep, err := Merge(merged, meta, parts, &MergeOptions{Expected: expected})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("merge with a damaged part reported complete")
	}
	// 4 parts x 2 blocks, one lost: 7 of 8 blocks, 5000-1024 records.
	if rep.Records != 5000-1024 {
		t.Fatalf("merged %d records, want %d", rep.Records, 5000-1024)
	}
	for i, cov := range rep.Parts {
		if i == 2 {
			if cov.BlocksRecovered != 1 || cov.BlocksExpected != 2 || cov.CorruptBlocks != 1 {
				t.Fatalf("damaged part coverage = %+v", cov)
			}
			if cov.Coverage() != 0.5 {
				t.Fatalf("damaged part coverage fraction = %v", cov.Coverage())
			}
			if cov.ChecksumOK {
				t.Fatal("damaged part passed its whole-file checksum")
			}
			continue
		}
		if !cov.Intact() || cov.BlocksRecovered != 2 || cov.Records != 1250 {
			t.Fatalf("intact part %d coverage = %+v", i, cov)
		}
	}

	// Every record of every intact block is in the merged output, in
	// order: parts 0, 1, 3 complete plus part 2's trailing 226.
	r, err := Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := append(append([]telemetry.Observation{}, obs[:2*1250]...), obs[2*1250+1024:]...)
	i := 0
	if err := r.ForEach(func(o telemetry.Observation) {
		if o != want[i] {
			t.Fatalf("record %d mismatch after merge", i)
		}
		i++
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("merged output has %d records, want %d", i, len(want))
	}

	// Strict mode refuses the damaged part.
	if _, err := Merge(filepath.Join(dir, "strict.uv6"), meta, parts, &MergeOptions{Expected: expected, Strict: true}); err == nil {
		t.Fatal("strict merge of a damaged part should fail")
	}
}

// TestMergeRetriesTransientIO: transient read errors injected through
// faultio are retried under the shared policy with capped exponential
// backoff and never duplicate records.
func TestMergeRetriesTransientIO(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(600)
	p0 := filepath.Join(dir, "part-0000.uv6")
	p1 := filepath.Join(dir, "part-0001.uv6")
	writePart(t, p0, meta, obs[:300])
	writePart(t, p1, meta, obs[300:])

	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("flaky@part-0001.uv6:read:n=1:x=2:err"); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	pol := retry.Policy{
		Base: 10 * time.Millisecond, Max: 15 * time.Millisecond, NoJitter: true,
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}

	merged := filepath.Join(dir, "merged.uv6")
	rep, err := Merge(merged, meta, []string{p0, p1}, &MergeOptions{FS: in, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Records != 600 {
		t.Fatalf("retried merge: complete=%v records=%d", rep.Complete, rep.Records)
	}
	if rep.Parts[0].Retries != 0 || rep.Parts[1].Retries != 2 {
		t.Fatalf("retry counts = %d, %d", rep.Parts[0].Retries, rep.Parts[1].Retries)
	}
	// Exponential backoff, capped: 10ms then min(20ms, 15ms).
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 15*time.Millisecond {
		t.Fatalf("backoff schedule = %v", slept)
	}

	// A part that never stops failing exhausts its retries and fails
	// the merge.
	in2 := faultio.New(faultio.OS, 1)
	if err := in2.Arm("part-0001.uv6:read:x=-1:err"); err != nil {
		t.Fatal(err)
	}
	pol.MaxRetries = 2
	if _, err := Merge(filepath.Join(dir, "fail.uv6"), meta, []string{p0, p1}, &MergeOptions{FS: in2, Retry: pol}); err == nil {
		t.Fatal("persistently failing part should fail the merge")
	}
	// A missing part fails immediately, without retries.
	slept = nil
	if _, err := Merge(filepath.Join(dir, "missing.uv6"), meta, []string{filepath.Join(dir, "nope.uv6")}, &MergeOptions{Retry: pol}); err == nil {
		t.Fatal("missing part should fail the merge")
	} else if len(slept) != 0 {
		t.Fatalf("missing part slept %v before failing", slept)
	}
}

// TestMergeOutputWriteFault: a write error on the merged output while
// the second part is being written fails the merge with the injected
// error, names the part, and leaves nothing behind: no output file and
// no temp file.
func TestMergeOutputWriteFault(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 10000, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(10000)
	p0 := filepath.Join(dir, "part-0000.uv6")
	p1 := filepath.Join(dir, "part-0001.uv6")
	writePart(t, p0, meta, obs[:5000])
	writePart(t, p1, meta, obs[5000:])

	// The output holds 10000 identity records of 40 bytes after its
	// header, so byte 300000 lies inside part 1's records, and the
	// stream writer's 64 KiB buffer flushes past it while part 1 is
	// still merging, not at Close.
	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("merged.uv6.tmp:write:off=300000:err"); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "merged.uv6")
	_, err := Merge(out, meta, []string{p0, p1}, &MergeOptions{FS: in})
	if !errors.Is(err, faultio.ErrTransient) {
		t.Fatalf("merge error = %v, want faultio.ErrTransient", err)
	}
	if !strings.Contains(err.Error(), "part-0001.uv6") {
		t.Fatalf("merge error %q does not name the part being merged", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("failed merge left output %s (stat err %v)", out, err)
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed merge left temp file %s.tmp (stat err %v)", out, err)
	}
}

// TestMergeCtxCancelled: a cancelled context aborts the merge instead
// of sitting out its backoff schedule.
func TestMergeCtxCancelled(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"}
	obs := sample(100)
	p0 := filepath.Join(dir, "part-0000.uv6")
	writePart(t, p0, meta, obs)

	in := faultio.New(faultio.OS, 1)
	if err := in.Arm("part-0000.uv6:read:x=-1:err"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := MergeCtx(ctx, filepath.Join(dir, "out.uv6"), meta, []string{p0},
		&MergeOptions{FS: in, Retry: retry.Policy{MaxRetries: 10, Base: time.Hour}})
	if err == nil {
		t.Fatal("cancelled merge succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled merge blocked %v", elapsed)
	}
}
