package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"userv6/internal/faultio"
	"userv6/internal/telemetry"
)

// mergeRecords builds n stored records in user order, about one in four
// holding bytes no writer stores: a family byte outside {1, 2} over a
// nonzero address, an abusive byte of 2 or more, or an IPv4 record with
// nonzero bytes among 12–21. Record layout: docs/DATASET_FORMAT.md.
func mergeRecords(rng *rand.Rand, n int) []byte {
	p := make([]byte, n*telemetry.RecordSize)
	for i := 0; i < n; i++ {
		r := p[i*telemetry.RecordSize : (i+1)*telemetry.RecordSize]
		binary.LittleEndian.PutUint32(r[0:], uint32(81+i%7))
		binary.LittleEndian.PutUint64(r[4:], uint64(i/5))
		if rng.Intn(3) == 0 {
			r[22], r[23] = 0xff, 0xff
			binary.BigEndian.PutUint32(r[24:], rng.Uint32())
			r[28] = 1
		} else {
			binary.BigEndian.PutUint64(r[12:], 0x20010db8<<32|uint64(rng.Intn(4)))
			binary.BigEndian.PutUint64(r[20:], rng.Uint64())
			r[28] = 2
		}
		if rng.Intn(7) == 0 {
			r[29] = 1
		}
		r[30], r[31] = 'U', 'S'
		binary.LittleEndian.PutUint32(r[32:], uint32(64500+rng.Intn(3)))
		binary.LittleEndian.PutUint32(r[36:], uint32(1+rng.Intn(40)))
		switch rng.Intn(12) {
		case 0:
			r[28] = []byte{0, 3, 0x80, 0xff}[rng.Intn(4)]
			r[12+rng.Intn(16)] = byte(1 + rng.Intn(255))
		case 1:
			r[29] = byte(2 + rng.Intn(254))
		case 2:
			r[28] = 1
			r[12+rng.Intn(10)] = byte(1 + rng.Intn(255))
		}
	}
	return p
}

// writeRawPart writes recs, stored records kept byte for byte, as a
// dataset part under meta's policy: blocks of perBlock records, each
// stored under the chain codec that encodes it smallest (identity when
// none shrinks it). Only a foreign or damaged writer stores records
// WriterV2 would not; the merge must treat them as today's per-record
// path does.
func writeRawPart(t *testing.T, path string, meta Meta, recs []byte, perBlock int) {
	t.Helper()
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // the header and the stream signature
		t.Fatal(err)
	}
	chain, _ := telemetry.CodecChainByName(meta.Codec)
	var stream []byte
	for len(recs) > 0 {
		payload := recs[:min(len(recs), perBlock*telemetry.RecordSize)]
		recs = recs[len(payload):]
		stored, codec := payload, telemetry.CodecIdentity
		for _, c := range chain {
			if enc, ok := c.AppendEncode(nil, payload, len(stored)); ok {
				stored, codec = enc, c.ID()
			}
		}
		count := len(payload) / telemetry.RecordSize
		stream = append(stream, "blk\x01"...)
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(stored)))
		stream = binary.LittleEndian.AppendUint32(stream, uint32(count)|uint32(codec)<<24)
		stream = binary.LittleEndian.AppendUint32(stream, crc32.Checksum(stored, headerCastagnoli))
		stream = append(stream, stored...)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// referenceMerge merges parts into out as merges wrote blocks before
// stored records went into the output as bytes: sequentially, each
// intact block's stored frame when the writer takes it through, and
// otherwise its records, decoded and written one at a time.
func referenceMerge(t *testing.T, out string, meta Meta, parts []string) {
	t.Helper()
	w, err := Create(out, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range parts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		br := telemetry.NewBlockReaderVersion(bytes.NewReader(data[headerSize:]), FormatV2)
		for {
			raw, dec, err := br.NextIntact(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := w.writeEncodedBlock(raw); err != nil {
				t.Fatal(err)
			} else if ok {
				continue
			}
			for _, o := range telemetry.AppendRecords(nil, dec) {
				if err := w.Write(o); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesRecordWrites: on random record streams with
// non-canonical records, cut into 1–6 parts at random record counts,
// under every policy, with header refreshes every 2^16, 2,048 or 1,000
// records, and in a third of the cases one corrupt block, MergeCtx at
// GOMAXPROCS 1, 2 and 4 writes exactly the reference merge's bytes.
func TestMergeMatchesRecordWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(n int) { headerFlushEvery = n }(headerFlushEvery)
	policies := []string{"none", "lz", "delta", "auto"}
	cases := 24
	if testing.Short() {
		cases = 8
	}
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		policy := policies[seed%len(policies)]
		headerFlushEvery = []int{1 << 16, 2048, 1000}[rng.Intn(3)]
		meta := Meta{Seed: uint64(seed), Users: 1500, FromDay: 81, ToDay: 87, Sample: "all", Codec: policy}
		dir := t.TempDir()

		n := 1 + rng.Intn(7000)
		recs := mergeRecords(rng, n)
		cuts := []int{0, n}
		for k := rng.Intn(6); k > 0; k-- {
			cuts = append(cuts, rng.Intn(n+1))
		}
		slices.Sort(cuts)
		var parts []string
		for i := 0; i+1 < len(cuts); i++ {
			perBlock := telemetry.DefaultBlockRecords
			if rng.Intn(4) == 0 {
				perBlock = 512
			}
			p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
			rs := telemetry.RecordSize
			writeRawPart(t, p, meta, recs[cuts[i]*rs:cuts[i+1]*rs], perBlock)
			parts = append(parts, p)
		}
		corrupt := ""
		if seed%3 == 2 {
			corrupt = corruptOneBlock(t, rng, parts)
		}

		want := filepath.Join(dir, "reference.uv6")
		referenceMerge(t, want, meta, parts)
		ref, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			out := filepath.Join(dir, fmt.Sprintf("merged-%d.uv6", procs))
			if _, err := MergeCtx(context.Background(), out, meta, parts, nil); err != nil {
				t.Fatalf("seed %d (%s): merge at GOMAXPROCS %d: %v", seed, policy, procs, err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("seed %d (%s, %d records in %d parts, refresh every %d%s): merge at GOMAXPROCS %d wrote %d bytes, the reference %d, first difference at byte %d",
					seed, policy, n, len(parts), headerFlushEvery, corrupt, procs, len(got), len(ref), firstByteDiff(got, ref))
			}
		}
	}
}

// corruptOneBlock flips a payload byte of the first block of a random
// part that has one, and says which.
func corruptOneBlock(t *testing.T, rng *rand.Rand, parts []string) string {
	t.Helper()
	for _, i := range rng.Perm(len(parts)) {
		data, err := os.ReadFile(parts[i])
		if err != nil {
			t.Fatal(err)
		}
		// The first frame's payload starts after the header, the stream
		// signature and the 16-byte frame header.
		off := headerSize + 4 + 16
		if len(data) <= off {
			continue
		}
		data[off] ^= 0xff
		if err := os.WriteFile(parts[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(", first block of %s corrupt", filepath.Base(parts[i]))
	}
	return ""
}

// firstByteDiff is the first index at which a and b differ.
func firstByteDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestMergeWriteFaultStopsGoroutines: with blocks encoded concurrently,
// an output write failing past the first frames fails the merge with
// the injected error, leaves nothing at the target path, and leaves no
// goroutine running.
func TestMergeWriteFaultStopsGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dir := t.TempDir()
	meta := Meta{Seed: 9, Users: 40000, FromDay: 0, ToDay: 6, Sample: "all", Codec: "auto"}
	rng := rand.New(rand.NewSource(9))
	recs := mergeRecords(rng, 40000)
	cut := 15000 * telemetry.RecordSize
	parts := []string{filepath.Join(dir, "part-0000.uv6"), filepath.Join(dir, "part-0001.uv6")}
	writeRawPart(t, parts[0], meta, recs[:cut], telemetry.DefaultBlockRecords)
	writeRawPart(t, parts[1], meta, recs[cut:], telemetry.DefaultBlockRecords)
	out := filepath.Join(dir, "merged.uv6")
	referenceMerge(t, out, meta, parts)
	fi, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	// Fail a write a little past the middle of the output, well past its
	// first frames and before Close.
	off := fi.Size() * 3 / 5
	if off < 2*(64<<10) {
		t.Fatalf("the output is %d bytes, too small to fail past its first buffered writes", fi.Size())
	}

	before := runtime.NumGoroutine()
	in := faultio.New(faultio.OS, 1)
	if err := in.Arm(fmt.Sprintf("merged.uv6.tmp:write:off=%d:err", off)); err != nil {
		t.Fatal(err)
	}
	_, err = MergeCtx(context.Background(), out, meta, parts, &MergeOptions{FS: in})
	if !errors.Is(err, faultio.ErrTransient) {
		t.Fatalf("merge error = %v, want faultio.ErrTransient", err)
	}
	for _, p := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("failed merge left %s (stat err %v)", p, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the failed merge, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
