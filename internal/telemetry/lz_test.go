package telemetry

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// lzRecordPayload serializes obs into a block-style payload.
func lzRecordPayload(obs []Observation) []byte {
	payload := make([]byte, len(obs)*recordSize)
	for i, o := range obs {
		encodeRecord(payload[i*recordSize:], o)
	}
	return payload
}

// lzEncodeAll is lzEncode with no limit: the whole encoding.
func lzEncodeAll(src []byte) []byte {
	enc, _ := lzEncode(nil, src, math.MaxInt)
	return enc
}

// lzRoundTrip encodes src, decodes the result, and fails unless the
// decode reproduces src exactly within the exact bound.
func lzRoundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := lzEncodeAll(src)
	dec, err := lzAppendDecode(nil, enc, len(src))
	if err != nil {
		t.Fatalf("decode failed for %d-byte input: %v", len(src), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip diverged for %d-byte input", len(src))
	}
	return enc
}

func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 3000)
	rng.Read(random)

	payload := lzRecordPayload(frameObs(200))

	cases := map[string][]byte{
		"empty":       {},
		"one byte":    {0x42},
		"short":       []byte("abc"),
		"all zero":    make([]byte, 500),
		"all same":    bytes.Repeat([]byte{0xee}, 1000),
		"period 3":    bytes.Repeat([]byte{1, 2, 3}, 400),
		"random":      random,
		"records":     payload,
		"max literal": random[:lzMaxLiteral+1],
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { lzRoundTrip(t, src) })
	}
}

// TestLZRoundTripBase: decoding into a non-empty dst must treat the
// prior content as out of bounds for match distances, and the appended
// region must still round-trip.
func TestLZRoundTripBase(t *testing.T) {
	src := bytes.Repeat([]byte("userv6"), 100)
	enc := lzEncodeAll(src)
	prefix := []byte("prior block payload, not part of the window")
	dec, err := lzAppendDecode(append([]byte{}, prefix...), enc, len(src))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec[:len(prefix)], prefix) {
		t.Fatal("decode clobbered prior dst content")
	}
	if !bytes.Equal(dec[len(prefix):], src) {
		t.Fatal("appended region diverged from source")
	}
}

// TestLZCompressesRecords: the target is a >= 2x smaller dataset at the
// default config. Real telemetry emits several records per (user, day)
// — same user ID, country, ASN, adjacent addresses — so shape the
// payload that way rather than using fully-distinct frameObs records.
func TestLZCompressesRecords(t *testing.T) {
	base := frameObs(DefaultBlockRecords / 4)
	obs := make([]Observation, 0, DefaultBlockRecords)
	for _, o := range base {
		for k := 0; k < 4; k++ {
			v := o
			v.Requests = o.Requests + uint32(k)
			obs = append(obs, v)
		}
	}
	payload := lzRecordPayload(obs)
	enc := lzRoundTrip(t, payload)
	if len(enc)*2 > len(payload) {
		t.Fatalf("record payload compressed %d -> %d bytes, want >= 2x", len(payload), len(enc))
	}
}

func TestLZEncodeDeterministic(t *testing.T) {
	payload := lzRecordPayload(frameObs(500))
	a := lzEncodeAll(payload)
	b := lzEncodeAll(payload)
	if !bytes.Equal(a, b) {
		t.Fatal("encoder is not deterministic; merge passthrough depends on it")
	}
}

func TestLZDecodeRejectsAdversarial(t *testing.T) {
	cases := map[string]struct {
		src    []byte
		maxLen int
		want   error
	}{
		"truncated literal run": {src: []byte{0x05, 'a', 'b'}, maxLen: 100, want: errLZTruncated},
		"bare match control":    {src: []byte{0x80}, maxLen: 100, want: errLZTruncated},
		"half match distance":   {src: []byte{0x00, 'x', 0x80, 0x01}, maxLen: 100, want: errLZTruncated},
		"zero distance":         {src: []byte{0x00, 'x', 0x80, 0x00, 0x00}, maxLen: 100, want: errLZBadDistance},
		"distance before base":  {src: []byte{0x00, 'x', 0x80, 0x02, 0x00}, maxLen: 100, want: errLZBadDistance},
		"literal over bound":    {src: []byte{0x03, 'a', 'b', 'c', 'd'}, maxLen: 3, want: errLZTooLong},
		"match over bound":      {src: []byte{0x00, 'x', 0xff, 0x01, 0x00}, maxLen: 10, want: errLZTooLong},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := lzAppendDecode(nil, tc.src, tc.maxLen)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLZDecodeOverlap: distances shorter than the match length copy
// from the output being produced (RLE-style); check the exact expansion.
func TestLZDecodeOverlap(t *testing.T) {
	// One literal 'a', then a 7-byte match at distance 1: "aaaaaaaa".
	src := []byte{0x00, 'a', 0x80 | (7 - lzMinMatch), 0x01, 0x00}
	dec, err := lzAppendDecode(nil, src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, bytes.Repeat([]byte{'a'}, 8)) {
		t.Fatalf("overlap copy produced %q", dec)
	}
}

// TestCodecByNameAliases: an unknown codec ID neither resolves nor
// gets a name. The name aliases resolve through CodecChainByName and
// are covered by TestCodecChainByName.
func TestCodecByNameAliases(t *testing.T) {
	if _, ok := CodecByID(CodecID(9)); ok {
		t.Fatal("unknown codec ID resolved")
	}
	if got := CodecID(9).String(); got != "codec(9)" {
		t.Fatalf("unknown codec String() = %q", got)
	}
}

func TestCodecSet(t *testing.T) {
	var s CodecSet
	if s.Has(CodecIdentity) {
		t.Fatal("zero CodecSet holds identity")
	}
	s.Add(CodecLZ)
	s.Add(CodecIdentity)
	if !s.Has(CodecIdentity) || !s.Has(CodecLZ) || s.Has(CodecID(5)) {
		t.Fatalf("membership wrong: %b", s)
	}
}

// FuzzLZRoundTrip: every input must encode and decode back to itself
// within the exact output bound, and under a limit the encoder must
// succeed exactly when the reference encoding is shorter, with the
// reference's bytes.
func FuzzLZRoundTrip(f *testing.F) {
	payload := lzRecordPayload(frameObs(64))
	f.Add([]byte{}, 0)
	f.Add([]byte{0x00}, 2)
	f.Add(bytes.Repeat([]byte{0x7f}, 300), 9)
	f.Add(payload, 700)
	f.Add(lzRecordPayload(noisyObs(8)), 320)
	f.Fuzz(func(t *testing.T, src []byte, limit int) {
		ref := lzAppendEncode(nil, src)
		limit = int(uint(limit) % uint(2*len(ref)+2))
		for _, lim := range []int{limit, len(ref), len(ref) + 1} {
			enc, ok := lzEncode(nil, src, lim)
			if ok != (len(ref) < lim) {
				t.Fatalf("limit %d: ok=%v, reference encoding is %d bytes", lim, ok, len(ref))
			}
			if ok && !bytes.Equal(enc, ref) {
				t.Fatalf("limit %d: encoding diverged from the reference", lim)
			}
		}
		enc := lzEncodeAll(src)
		if !bytes.Equal(enc, ref) {
			t.Fatal("unlimited encoding diverged from the reference")
		}
		dec, err := lzAppendDecode(nil, enc, len(src))
		if err != nil {
			t.Fatalf("own output failed to decode: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatal("round trip diverged")
		}
	})
}

// FuzzLZDecode: arbitrary bytes fed to the decoder must never panic,
// read out of bounds, grow the output past the caller's bound, or fail
// with anything but the typed sentinels.
func FuzzLZDecode(f *testing.F) {
	f.Add([]byte{}, 40)
	f.Add([]byte{0x00, 'x', 0x80, 0x01, 0x00}, 10)
	f.Add(lzAppendEncode(nil, bytes.Repeat([]byte{1, 2, 3, 4}, 100)), 400)
	f.Add(bytes.Repeat([]byte{0xff}, 64), 1<<16)
	f.Fuzz(func(t *testing.T, src []byte, maxLen int) {
		if maxLen < 0 || maxLen > DefaultBlockRecords*recordSize {
			maxLen = DefaultBlockRecords * recordSize
		}
		dec, err := lzAppendDecode(nil, src, maxLen)
		if len(dec) > maxLen {
			t.Fatalf("decoded %d bytes past bound %d", len(dec), maxLen)
		}
		if err != nil &&
			!errors.Is(err, errLZTruncated) &&
			!errors.Is(err, errLZBadDistance) &&
			!errors.Is(err, errLZTooLong) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
