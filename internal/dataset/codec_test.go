package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"userv6/internal/telemetry"
)

// TestDatasetCompressedRoundTrip: a dataset written under the lz codec
// must read back identically through every reader mode, and the file
// must be at least 2x smaller than its identity twin.
func TestDatasetCompressedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	obs := sample(5000)
	meta := Meta{Seed: 3, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all"}

	plain := filepath.Join(dir, "plain.uv6")
	writePart(t, plain, meta, obs)
	lzMeta := meta
	lzMeta.Codec = "lz"
	packed := filepath.Join(dir, "packed.uv6")
	writePart(t, packed, lzMeta, obs)

	ps, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := os.Stat(packed)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Size()*2 > ps.Size() {
		t.Fatalf("compressed dataset %d bytes vs %d plain, want >= 2x smaller", ls.Size(), ps.Size())
	}

	r, err := Open(packed)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta().Codec; got != "lz" {
		t.Fatalf("header codec = %q, want lz", got)
	}
	r.Close()

	sameRecords(t, readSequential(t, packed), obs)
	sameRecords(t, readOneWorker(t, packed, false), obs)
	sameRecords(t, readOneWorker(t, packed, true), obs)

	fused := readFused(t, packed, ParallelOptions{Workers: 4})
	want := append([]telemetry.Observation{}, obs...)
	sortObs(fused)
	sortObs(want)
	sameRecords(t, fused, want)
}

func TestCreateRejectsUnknownCodec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.uv6")
	if _, err := Create(path, Meta{Codec: "zstd"}); err == nil {
		t.Fatal("Create accepted an unknown codec name")
	}
}

// TestMergeCompressedByteIdentical: merging compressed parts must
// reproduce the single-writer compressed file exactly — with
// block-aligned parts (where the passthrough fast path carries whole
// stored frames) and misaligned ones (where records re-encode). The
// workers axis is the GOMAXPROCS the merge runs under: its scanner
// goroutine and writer share one thread at 1 and run side by side at 4,
// and the output bytes must not depend on which.
func TestMergeCompressedByteIdentical(t *testing.T) {
	obs := sample(5000)
	meta := Meta{Seed: 11, Users: 5000, FromDay: 0, ToDay: 6, Sample: "all", Codec: "lz"}

	for name, cuts := range map[string][]int{
		"aligned":    {2048, 4096}, // part boundaries on whole 1024-record blocks
		"misaligned": {1250, 2500, 3750},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				dir := t.TempDir()
				single := filepath.Join(dir, "single.uv6")
				writePart(t, single, meta, obs)

				var parts []string
				lo := 0
				for i, hi := range append(append([]int{}, cuts...), len(obs)) {
					p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
					writePart(t, p, meta, obs[lo:hi])
					parts = append(parts, p)
					lo = hi
				}

				merged := filepath.Join(dir, "merged.uv6")
				rep, err := MergeCtx(context.Background(), merged, meta, parts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Complete || rep.Records != uint64(len(obs)) {
					t.Fatalf("complete=%v records=%d", rep.Complete, rep.Records)
				}
				for _, cov := range rep.Parts {
					if !cov.CodecOK {
						t.Fatalf("part %s flagged for codec mismatch", cov.Name)
					}
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
					t.Fatalf("merged compressed dataset differs from single-writer output (%d vs %d bytes)",
						len(got), len(want))
				}
			})
		}
	}
}

// TestMergeCompressedDamagedPart: a flipped byte inside a compressed
// part costs exactly that block; the merge recovers every sibling.
func TestMergeCompressedDamagedPart(t *testing.T) {
	dir := t.TempDir()
	obs := sample(4096)
	meta := Meta{Seed: 5, Users: 4096, FromDay: 0, ToDay: 6, Sample: "all", Codec: "lz"}

	var parts []string
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
		writePart(t, p, meta, obs[i*2048:(i+1)*2048])
		parts = append(parts, p)
	}
	raw, err := os.ReadFile(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+4+16+21] ^= 0x01 // inside part 1's first stored payload
	if err := os.WriteFile(parts[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(dir, "merged.uv6")
	rep, err := MergeCtx(context.Background(), merged, meta, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.Records != 4096-1024 {
		t.Fatalf("complete=%v records=%d, want incomplete with %d records", rep.Complete, rep.Records, 4096-1024)
	}
	cov := rep.Parts[1]
	if cov.CorruptBlocks != 1 || cov.BlocksRecovered != 1 || !cov.CodecOK {
		t.Fatalf("damaged part coverage = %+v", cov)
	}
	want := append(append([]telemetry.Observation{}, obs[:2048]...), obs[3072:]...)
	sameRecords(t, readSequential(t, merged), want)
}

// TestMergeCodecMismatch: a part whose intact frames carry a codec the
// manifest does not declare is refused outside tolerant mode; identity
// frames inside a declared-lz part stay legitimate (writer fallback).
func TestMergeCodecMismatch(t *testing.T) {
	dir := t.TempDir()
	obs := sample(2000)
	lzMeta := Meta{Seed: 2, Users: 2000, FromDay: 0, ToDay: 6, Sample: "all", Codec: "lz"}

	part := filepath.Join(dir, "part-0000.uv6")
	info := writePart(t, part, lzMeta, obs)
	info.Codec = "lz" // what a sharded exporter records (see ExportShardedCtx)

	// The manifest says identity, the frames say lz.
	lie := info
	lie.Codec = ""
	expected := map[string]PartInfo{info.Name: lie}

	_, err := MergeCtx(context.Background(), filepath.Join(dir, "refused.uv6"), lzMeta, []string{part}, &MergeOptions{Expected: expected})
	if !errors.Is(err, ErrCodecMismatch) {
		t.Fatalf("mislabeled part gave %v, want ErrCodecMismatch", err)
	}

	// An unknown declared codec is a mismatch too: the frames cannot be
	// checked against a codec this build cannot name.
	bogus := info
	bogus.Codec = "zstd"
	_, err = MergeCtx(context.Background(), filepath.Join(dir, "bogus.uv6"), lzMeta, []string{part},
		&MergeOptions{Expected: map[string]PartInfo{info.Name: bogus}})
	if !errors.Is(err, ErrCodecMismatch) {
		t.Fatalf("unknown declared codec gave %v, want ErrCodecMismatch", err)
	}

	// Tolerant mode proceeds, records the mismatch, loses nothing.
	rep, err := MergeCtx(context.Background(), filepath.Join(dir, "tolerant.uv6"), lzMeta, []string{part},
		&MergeOptions{Expected: expected, Tolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parts[0].CodecOK {
		t.Fatal("tolerant merge did not record the codec mismatch")
	}
	if rep.Records != uint64(len(obs)) {
		t.Fatalf("tolerant merge kept %d records, want %d", rep.Records, len(obs))
	}

	// Truthful manifest: no error, CodecOK stays set. Identity frames
	// would also be fine under a declared-lz part.
	rep, err = MergeCtx(context.Background(), filepath.Join(dir, "ok.uv6"), lzMeta, []string{part},
		&MergeOptions{Expected: map[string]PartInfo{info.Name: info}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Parts[0].CodecOK || !rep.Complete {
		t.Fatalf("truthful manifest merge: %+v", rep.Parts[0])
	}

	// Without a manifest the part's own header declares lz; a plain
	// identity part under a declared-lz merge target is also legal.
	plainMeta := lzMeta
	plainMeta.Codec = ""
	plainPart := filepath.Join(dir, "part-plain.uv6")
	writePart(t, plainPart, plainMeta, obs)
	rep, err = MergeCtx(context.Background(), filepath.Join(dir, "mixed.uv6"), lzMeta, []string{part, plainPart}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Parts[0].CodecOK || !rep.Parts[1].CodecOK {
		t.Fatalf("self-declared parts flagged: %+v", rep.Parts)
	}
}

// TestManifestCodecInConfigHash: the codec participates in the config
// hash (a compressed and an uncompressed run are different artifacts),
// while an empty codec hashes exactly as before the field existed.
func TestManifestCodecInConfigHash(t *testing.T) {
	base := Meta{Seed: 1, Users: 10, FromDay: 0, ToDay: 6}
	lz := base
	lz.Codec = "lz"
	if ConfigHash(base) == ConfigHash(lz) {
		t.Fatal("codec does not affect the config hash")
	}
	identity := base
	identity.Codec = ""
	if ConfigHash(base) != ConfigHash(identity) {
		t.Fatal("empty codec changed the config hash")
	}
}
