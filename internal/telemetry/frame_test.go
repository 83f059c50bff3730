package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
)

// frameObs builds n distinct observations with UserID == index, so
// recovered subsequences can be mapped back to their originals.
func frameObs(n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		o := Observation{
			Day:      simtime.Day(i % 7),
			UserID:   uint64(i),
			Addr:     netaddr.AddrFrom6(0x20010db8<<32|uint64(i%97), uint64(i)),
			Requests: uint32(i%100 + 1),
			Abusive:  i%11 == 0,
		}
		o.SetCountry([]string{"US", "IN", "DE", "BR"}[i%4])
		out[i] = o
	}
	return out
}

// encodeV2 writes obs into a v2 stream with the given block size.
func encodeV2(t *testing.T, obs []Observation, perBlock int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterV2Blocks(&buf, perBlock)
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(obs)) {
		t.Fatalf("count = %d, want %d", w.Count(), len(obs))
	}
	return buf.Bytes()
}

func readAllV2(data []byte) ([]Observation, error) {
	r := NewReader(bytes.NewReader(data))
	var out []Observation
	for {
		o, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
}

func TestV2RoundTrip(t *testing.T) {
	in := frameObs(3000)
	data := encodeV2(t, in, 256)
	got, err := readAllV2(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("read %d records, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], in[i])
		}
	}
}

func TestV2EmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 4 {
		t.Fatalf("empty v2 stream is %d bytes, want 4 (magic only)", buf.Len())
	}
	if _, err := NewReader(&buf).Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// Flush mid-stream emits a valid partial block; writing continues in a
// fresh block and readers see one seamless stream.
func TestV2PartialBlockFlush(t *testing.T) {
	in := frameObs(10)
	var buf bytes.Buffer
	w := NewWriterV2Blocks(&buf, 256)
	for _, o := range in[:4] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, o := range in[4:] {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAllV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("read %d records, want %d", len(got), len(in))
	}
}

// Every single-byte flip in a v2 stream must surface as a typed error
// from the strict reader — never a silent mis-decode and never a panic.
func TestV2EveryByteFlipDetected(t *testing.T) {
	in := frameObs(300)
	data := encodeV2(t, in, 64)
	for off := range data {
		mut := bytes.Clone(data)
		mut[off] ^= 0xff
		got, err := readAllV2(mut)
		if err == nil {
			t.Fatalf("flip at offset %d: stream read cleanly", off)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) &&
			!errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("flip at offset %d: untyped error %v", off, err)
		}
		// Records decoded before the corrupt block must be pristine.
		for i, o := range got {
			if o != in[i] {
				t.Fatalf("flip at offset %d: record %d damaged before error", off, i)
			}
		}
	}
}

func TestV2CorruptErrorAttribution(t *testing.T) {
	in := frameObs(200)
	data := encodeV2(t, in, 50) // 4 blocks of 50
	// Flip one payload byte in the third block: 4-byte magic, then
	// blocks of 16+50*40 = 2016 bytes each.
	off := 4 + 2*2016 + blockHeaderSize + 123
	mut := bytes.Clone(data)
	mut[off] ^= 0x01
	_, err := readAllV2(mut)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Block != 2 {
		t.Fatalf("block = %d, want 2", ce.Block)
	}
	if want := int64(4 + 2*2016); ce.Offset != want {
		t.Fatalf("offset = %d, want %d", ce.Offset, want)
	}
}

func TestV2OversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicV2[:])
	buf.Write(blockMagic[:])
	// Length far over the cap: reader must reject before allocating.
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	buf.Write(make([]byte, 8))
	_, err := readAllV2(buf.Bytes())
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
}

func TestV2TruncatedMidBlock(t *testing.T) {
	data := encodeV2(t, frameObs(100), 25)
	got, err := readAllV2(data[:len(data)-7])
	if err == nil {
		t.Fatal("truncated stream read cleanly")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if len(got) != 75 {
		t.Fatalf("decoded %d records before truncation, want 75", len(got))
	}
}

func TestUnsupportedVersion(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte{'u', 'v', '6', 3, 0, 0})).Read()
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("want ErrUnsupportedVersion, got %v", err)
	}
}

func TestSalvageIntactV2(t *testing.T) {
	in := frameObs(500)
	data := encodeV2(t, in, 100)
	var got []Observation
	rep, err := Salvage(bytes.NewReader(data), func(o Observation) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || rep.Version != 2 || rep.Blocks != 5 || rep.Records != 500 {
		t.Fatalf("report = %+v", rep)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// A corrupt middle block costs exactly that block: every other block's
// records come back, in order.
func TestSalvageCorruptMiddleBlock(t *testing.T) {
	in := frameObs(500)
	data := encodeV2(t, in, 100)
	blockLen := blockHeaderSize + 100*recordSize
	mut := bytes.Clone(data)
	mut[4+2*blockLen+blockHeaderSize+55] ^= 0x80 // payload of block 2

	var got []Observation
	rep, err := Salvage(bytes.NewReader(mut), func(o Observation) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 4 || rep.CorruptBlocks != 1 || rep.Records != 400 {
		t.Fatalf("report = %+v", rep)
	}
	want := append(append([]Observation{}, in[:200]...), in[300:]...)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered record %d differs", i)
		}
	}
}

// A destroyed block marker hides that block from the frame walk; the
// scanner resynchronizes on the next marker and recovers the rest.
func TestSalvageDestroyedMarker(t *testing.T) {
	data := encodeV2(t, frameObs(500), 100)
	blockLen := blockHeaderSize + 100*recordSize
	mut := bytes.Clone(data)
	mut[4+1*blockLen] ^= 0xff // first marker byte of block 1

	rep, err := Salvage(bytes.NewReader(mut), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 4 || rep.Records != 400 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SkippedBytes != int64(blockLen) {
		t.Fatalf("skipped = %d, want %d", rep.SkippedBytes, blockLen)
	}
}

// Even the stream signature is expendable: intact blocks are found by
// their markers.
func TestSalvageDamagedSignature(t *testing.T) {
	data := encodeV2(t, frameObs(300), 100)
	mut := bytes.Clone(data)
	mut[0] ^= 0xff
	rep, err := Salvage(bytes.NewReader(mut), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 2 || rep.Records != 300 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSalvageTruncated(t *testing.T) {
	data := encodeV2(t, frameObs(500), 100)
	blockLen := blockHeaderSize + 100*recordSize
	// Cut mid-way through block 3: blocks 0-2 survive.
	rep, err := Salvage(bytes.NewReader(data[:4+3*blockLen+blockLen/2]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 3 || rep.Records != 300 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSalvageV1(t *testing.T) {
	in := frameObs(41)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Torn tail: half a record.
	data := buf.Bytes()[:buf.Len()-recordSize/2]
	var got []Observation
	rep, err := Salvage(bytes.NewReader(data), func(o Observation) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.Records != 40 || rep.SkippedBytes != recordSize/2 {
		t.Fatalf("report = %+v", rep)
	}
	for i := range got {
		if got[i] != in[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestSalvageGarbage(t *testing.T) {
	junk := make([]byte, 4096)
	rnd := rand.New(rand.NewSource(42))
	rnd.Read(junk)
	_, err := Salvage(bytes.NewReader(junk), nil)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

// Random single-byte flips anywhere in the stream: salvage must always
// recover all blocks the flip did not touch.
func TestSalvageRandomFlips(t *testing.T) {
	const perBlock = 100
	in := frameObs(1000)
	data := encodeV2(t, in, perBlock)
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		off := rnd.Intn(len(data))
		mut := bytes.Clone(data)
		mut[off] ^= byte(1 + rnd.Intn(255))
		var got []Observation
		rep, err := Salvage(bytes.NewReader(mut), func(o Observation) { got = append(got, o) })
		if err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		if rep.Records < uint64(len(in)-perBlock) {
			t.Fatalf("flip at %d: only %d records recovered", off, rep.Records)
		}
		// Every recovered record must be one of the originals, at its
		// original position (UserID encodes the index).
		for _, o := range got {
			if o != in[o.UserID] {
				t.Fatalf("flip at %d: corrupt record slipped through salvage: %+v", off, o)
			}
		}
	}
}
