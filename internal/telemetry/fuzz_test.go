package telemetry

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// fuzzSeeds returns representative streams: valid v1, valid v2, empty,
// and structured garbage, so the fuzzer starts near the format.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	obs := frameObs(70)
	var v1 bytes.Buffer
	w1 := NewWriter(&v1)
	for _, o := range obs {
		if err := w1.Write(o); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		tb.Fatal(err)
	}
	var v2 bytes.Buffer
	w2 := NewWriterV2Blocks(&v2, 16)
	for _, o := range obs {
		if err := w2.Write(o); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w2.Flush(); err != nil {
		tb.Fatal(err)
	}
	var v2lz bytes.Buffer
	wlz, err := NewWriterV2Policy(&v2lz, 16, "lz")
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range obs {
		if err := wlz.Write(o); err != nil {
			tb.Fatal(err)
		}
	}
	if err := wlz.Flush(); err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		v1.Bytes(),
		v2.Bytes(),
		v2lz.Bytes(),
		{},
		magicV2[:],
		append(append([]byte{}, magicV2[:]...), blockMagic[:]...),
		[]byte("uv6\x03not-a-version"),
		bytes.Repeat([]byte{0xa5}, 300),
	}
}

// FuzzReader: arbitrary input must never panic the strict Reader, and
// it must agree with the reference walk (assertStrictMatchesReference).
func FuzzReader(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// A torn tail and a flipped middle byte of each intact v1, v2 and LZ
	// stream, so the seeds alone reach the reader's failure paths.
	for _, s := range seeds[:3] {
		flipped := bytes.Clone(s)
		flipped[len(s)/2] ^= 0xff
		f.Add(s[:len(s)-7])
		f.Add(flipped)
	}
	f.Fuzz(assertStrictMatchesReference)
}

// assertStrictMatchesReference reads data with the strict Reader, which
// must deliver exactly the records of the reference walk's intact
// blocks that follow the signature back to back, end with io.EOF if and
// only if those blocks reach the end of the stream, and otherwise fail
// with a typed error. Every record it delivers must also survive an
// encode/decode round trip: the decoder only ever produces
// representable observations.
func assertStrictMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, end := strictChain(data)
	var got []Observation
	err := NewReader(bytes.NewReader(data)).ForEach(func(o Observation) { got = append(got, o) })
	switch {
	case end == int64(len(data)) && err != nil:
		t.Fatalf("the reference's intact blocks reach the end of the stream, reader failed: %v", err)
	case end < int64(len(data)) && err == nil:
		t.Fatalf("the reference's intact blocks end at %d of %d bytes, reader reached EOF", end, len(data))
	case err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) &&
		!errors.Is(err, ErrUnsupportedVersion):
		t.Fatalf("untyped reader error: %v", err)
	case !slices.Equal(got, want):
		t.Fatalf("reader delivered %d records, the reference's intact blocks hold %d", len(got), len(want))
	}
	var rec [recordSize]byte
	for _, o := range got {
		encodeRecord(rec[:], o)
		if back := decodeRecord(rec[:]); back != o {
			t.Fatalf("round trip diverged: %+v vs %+v", back, o)
		}
	}
}

// strictChain is what a strict read of data must deliver, by the
// reference walk: the records of the intact blocks that follow the
// stream signature back to back, and the offset where that run of
// blocks ends. Without a v1 or v2 signature the run is empty and ends
// at 0.
func strictChain(data []byte) (recs []Observation, end int64) {
	if len(data) < 4 || [4]byte(data) != magic && [4]byte(data) != magicV2 {
		return nil, 0
	}
	end = 4
	salvageWalk(data, func(b RawBlock, decoded []byte) {
		if b.Offset != end {
			return // past a gap: the strict read has already failed
		}
		recs = AppendRecords(recs, decoded)
		end += int64(len(b.Payload))
		if b.version == 2 {
			end += blockHeaderSize
		}
	})
	return recs, end
}

// FuzzSalvage: salvage must never panic, never error except for
// unrecognizable input, and never recover more than the input could
// possibly hold; and the frame walker must agree with the reference
// walk on every input, however the reads split it.
func FuzzSalvage(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		assertMatchesReference(t, data)
		var n uint64
		rep, err := Salvage(bytes.NewReader(data), func(Observation) { n++ })
		if err != nil {
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("unexpected salvage error: %v", err)
			}
			return
		}
		if rep.Records != n {
			t.Fatalf("report says %d records, emitted %d", rep.Records, n)
		}
		// LZ frames expand on decode, but never past ~44x (a 3-byte match
		// token yields at most lzMaxMatch bytes), so records per stored
		// byte stay comfortably under 2.
		if rep.Records > uint64(2*len(data)) {
			t.Fatalf("recovered %d records from %d bytes", rep.Records, len(data))
		}
	})
}
