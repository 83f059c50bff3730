package telemetry

import (
	"bytes"
	"errors"
	"io"
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

// FuzzReader: arbitrary input must never panic the reader; every
// successfully decoded record must survive an encode/decode round trip
// (i.e. the decoder only ever produces representable observations), and
// failures must be one of the typed errors.
func FuzzReader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			o, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) &&
					!errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("untyped reader error: %v", err)
				}
				break
			}
			var buf bytes.Buffer
			w := NewWriterV2(&buf)
			if err := w.Write(o); err != nil || w.Flush() != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			got, err := NewReader(&buf).Read()
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if got != o {
				t.Fatalf("round trip diverged: %+v vs %+v", got, o)
			}
		}
	})
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
