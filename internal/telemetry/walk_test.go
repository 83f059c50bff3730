package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"
)

// rawBlocks drains a tolerant BlockReader over data, handing visit
// every intact block as stored and decoded.
func rawBlocks(data []byte, visit func(b RawBlock, decoded []byte)) (SalvageReport, error) {
	return walkReader(NewBlockReader(bytes.NewReader(data)), visit)
}

func walkReader(br *BlockReader, visit func(b RawBlock, decoded []byte)) (SalvageReport, error) {
	var dst []byte
	for {
		blk, decoded, err := br.NextIntact(dst)
		if err == io.EOF {
			return br.Report(), nil
		}
		if err != nil {
			return br.Report(), err
		}
		visit(blk, decoded)
		dst = decoded
	}
}

// walked is everything a tolerant walk delivered: each intact block's
// position, header fields and stored bytes, and the decoded records.
type walked struct {
	blocks []string
	recs   []Observation
}

func (w *walked) visit(b RawBlock, decoded []byte) {
	w.blocks = append(w.blocks, fmt.Sprintf("%d %d %d %08x %d %d %x",
		b.Index, b.Offset, b.Count, b.Sum, b.Codec, b.version, b.Payload))
	w.recs = AppendRecords(w.recs, decoded)
}

// assertMatchesReference walks data with the frame walker — whole, one
// byte per read and half a buffer per read, so window refills land
// inside signatures, frame headers and payloads — and requires the
// reference salvageWalk's report, error, blocks and records every time.
func assertMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	var want walked
	wantRep, wantErr := salvageWalk(data, want.visit)
	for _, rd := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(data)},
		{"one-byte", iotest.OneByteReader(bytes.NewReader(data))},
		{"half", iotest.HalfReader(bytes.NewReader(data))},
	} {
		var got walked
		gotRep, gotErr := walkReader(NewBlockReader(rd.r), got.visit)
		if gotErr != wantErr {
			t.Fatalf("%s: error %v, reference %v", rd.name, gotErr, wantErr)
		}
		if !gotRep.Equal(wantRep) {
			t.Fatalf("%s: report %+v, reference %+v", rd.name, gotRep, wantRep)
		}
		if len(got.blocks) != len(want.blocks) {
			t.Fatalf("%s: %d blocks, reference %d", rd.name, len(got.blocks), len(want.blocks))
		}
		for i := range want.blocks {
			if got.blocks[i] != want.blocks[i] {
				t.Fatalf("%s: block %d differs from the reference", rd.name, i)
			}
		}
		if len(got.recs) != len(want.recs) {
			t.Fatalf("%s: %d records, reference %d", rd.name, len(got.recs), len(want.recs))
		}
		for i := range want.recs {
			if got.recs[i] != want.recs[i] {
				t.Fatalf("%s: record %d differs from the reference", rd.name, i)
			}
		}
	}
}

// TestWalkerMatchesReference runs the corruption and truncation cases of
// frame_test.go, frame_codec_test.go and block_test.go through the
// walker and the reference walk.
func TestWalkerMatchesReference(t *testing.T) {
	flip := func(b []byte, off int, mask byte) []byte {
		b = bytes.Clone(b)
		b[off] ^= mask
		return b
	}
	v2 := encodeV2(t, frameObs(500), 100)
	blockLen := blockHeaderSize + 100*recordSize
	lz := encodeV2LZ(t, frameObs(5*64), 64)
	v1 := v1Stream(t, frameObs(2*DefaultBlockRecords+100))
	big := v2Stream(t, frameObs(maxBlockRecords+100), maxBlockRecords)
	undecodable := func() []byte {
		payload := lzAppendEncode(nil, make([]byte, 10*recordSize))
		hdr := make([]byte, blockHeaderSize)
		copy(hdr, blockMagic[:])
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[8:], packCountFlags(16, CodecLZ))
		binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload, castagnoli))
		return append(append(append([]byte{}, magicV2[:]...), hdr...), payload...)
	}()
	junk := make([]byte, 4096)
	rand.New(rand.NewSource(42)).Read(junk)

	cases := map[string][]byte{
		"intact":                v2,
		"corrupt-middle":        flip(v2, 4+2*blockLen+blockHeaderSize+55, 0x80),
		"destroyed-marker":      flip(v2, 4+blockLen, 0xff),
		"damaged-signature":     flip(v2, 0, 0xff),
		"v1-signature-on-v2":    flip(v2, 3, 0x03),
		"truncated-mid-block":   v2[:4+3*blockLen+blockLen/2],
		"torn-header":           v2[:4+blockLen+7],
		"signature-only":        v2[:4],
		"torn-signature":        v2[:2],
		"empty":                 {},
		"garbage":               junk,
		"unknown-codec":         flip(lz, 4+8+3, byte(CodecLZ)^7),
		"lz-corrupt-payload":    flip(lz, 4+blockHeaderSize+20, 0xff),
		"crc-valid-undecodable": undecodable,
		"bad-marker":            append(append([]byte{}, v2[:4]...), append([]byte("junk"), v2[8:]...)...),
		"v1":                    v1,
		"v1-torn-tail":          v1[:len(v1)-recordSize/2],
		"v1-short":              v1[:4+recordSize-1],
		"max-frame":             big,
		"max-frame-truncated":   big[:len(big)/2],
		"max-frame-corrupt":     flip(big, 4+blockHeaderSize+1<<20, 0x01),
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		cases["random-flip-"+string(rune('a'+i))] = flip(v2, rnd.Intn(len(v2)), byte(1+rnd.Intn(255)))
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { assertMatchesReference(t, data) })
	}
}

// A header that pins v2 makes any other signature a damaged v2
// signature: its bytes are skipped and every block is still found by
// its marker — where detection alone would decode the frames as v1
// records.
func TestBlockReaderPinnedV2(t *testing.T) {
	in := frameObs(300)
	data := encodeV2(t, in, 100)
	// Every single-bit flip of the signature, and the two-bit flip that
	// turns its version byte from 2 into 1.
	for bit := 0; bit <= 32; bit++ {
		mut := bytes.Clone(data)
		if bit == 32 {
			mut[3] ^= 0x03
		} else {
			mut[bit/8] ^= 1 << (bit % 8)
		}
		var got []Observation
		rep, err := NewBlockReaderVersion(bytes.NewReader(mut), 2).Salvage(func(o Observation) { got = append(got, o) })
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if rep.Version != 2 || rep.Blocks != 3 || rep.Records != 300 || rep.SkippedBytes != 4 || rep.Intact() {
			t.Fatalf("bit %d: report %+v", bit, rep)
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("bit %d: record %d differs", bit, i)
			}
		}
	}
	rep, err := NewBlockReaderVersion(bytes.NewReader(nil), 2).Salvage(nil)
	if err != nil || rep.Version != 2 || !rep.Intact() || rep.Blocks != 0 {
		t.Fatalf("pinned empty stream: %+v, %v", rep, err)
	}
	if _, err := Salvage(bytes.NewReader(nil), nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("unpinned empty stream: %v, want ErrBadMagic", err)
	}
}

// The strict face fills the same report the tolerant face does on an
// intact stream, as a scan (Salvage delivering no records) reads it: a
// v1 stream counts as one block however many pseudo-blocks it is cut
// into.
func TestBlockReaderReportMatchesScan(t *testing.T) {
	for name, data := range map[string][]byte{
		"v1":       v1Stream(t, frameObs(2100)),
		"v2":       v2Stream(t, frameObs(2100), 1000),
		"lz":       encodeV2LZ(t, frameObs(2100), 256),
		"v2-empty": v2Stream(t, nil, 1000),
		"empty":    {},
	} {
		t.Run(name, func(t *testing.T) {
			br := NewBlockReader(bytes.NewReader(data))
			for {
				blk, err := br.Next(nil)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := blk.Verify(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := Salvage(bytes.NewReader(data), nil)
			if name == "empty" {
				// A raw stream has nothing to pin: a scan cannot call an
				// empty input v2, the strict read has nothing to refuse.
				if !errors.Is(err, ErrBadMagic) || br.Report().Version != 2 {
					t.Fatalf("empty: scan %v, strict %+v", err, br.Report())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := br.Report(); !got.Equal(want) {
				t.Fatalf("strict report %+v, scan %+v", got, want)
			}
		})
	}
}

// A read error is returned as one, not mistaken for a torn stream.
func TestWalkerReadError(t *testing.T) {
	boom := errors.New("boom")
	data := v2Stream(t, frameObs(3000), 1024)
	r := io.MultiReader(bytes.NewReader(data[:50000]), iotest.ErrReader(boom))
	if _, err := Salvage(r, nil); !errors.Is(err, boom) {
		t.Fatalf("tolerant: %v, want the read error", err)
	}
	br := NewBlockReader(io.MultiReader(bytes.NewReader(data[:50000]), iotest.ErrReader(boom)))
	for {
		if _, err := br.Next(nil); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("strict: %v, want the read error", err)
			}
			break
		}
	}
}

// One BlockReader Reset from stream to stream reads each exactly as a
// fresh reader does, whatever the stream before it left behind (a
// sticky error, a grown window, another version), and keeps the window
// it grew for the largest frame.
func TestBlockReaderReset(t *testing.T) {
	v2 := v2Stream(t, frameObs(3000), 1024)
	flipped := bytes.Clone(v2)
	flipped[3] ^= 0x03
	junk := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(junk)
	streams := []struct {
		name string
		data []byte
		pin  int
	}{
		{"big-frame", v2Stream(t, frameObs(40000), 40000), 0},
		{"garbage", junk, 0},
		{"lz", encodeV2LZ(t, frameObs(5*64), 64), 0},
		{"v1", v1Stream(t, frameObs(2100)), 1},
		{"pinned-empty", nil, 2},
		{"pinned-flipped-signature", flipped, 2},
		{"truncated", v2[:len(v2)-100], 0},
		{"v2", v2, 0},
	}
	var br BlockReader
	var win *byte
	for _, s := range streams {
		var want, got walked
		wantRep, wantErr := walkReader(NewBlockReaderVersion(bytes.NewReader(s.data), s.pin), want.visit)
		br.Reset(bytes.NewReader(s.data), s.pin)
		gotRep, gotErr := walkReader(&br, got.visit)
		if gotErr != wantErr || !gotRep.Equal(wantRep) {
			t.Fatalf("%s: reset reader %+v, %v; fresh reader %+v, %v", s.name, gotRep, gotErr, wantRep, wantErr)
		}
		if !slices.Equal(got.blocks, want.blocks) || !slices.Equal(got.recs, want.recs) {
			t.Fatalf("%s: reset reader delivered other blocks or records than a fresh one", s.name)
		}
		if win == nil {
			win = &br.w.win[0]
		} else if &br.w.win[0] != win {
			t.Fatalf("%s: Reset gave up the window", s.name)
		}
	}
}
