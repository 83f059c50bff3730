package telemetry

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"userv6/internal/netmodel"
)

// deltaEncodeAll is deltaEncode with no limit: the whole encoding.
func deltaEncodeAll(src []byte) []byte {
	enc, _ := deltaEncode(nil, src, math.MaxInt)
	return enc
}

// deltaRoundTrip encodes src, decodes the result, and fails unless the
// decode reproduces src exactly within the exact bound.
func deltaRoundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := deltaEncodeAll(src)
	dec, err := deltaAppendDecode(nil, enc, len(src))
	if err != nil {
		t.Fatalf("decode failed for %d-byte input: %v", len(src), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip diverged for %d-byte input", len(src))
	}
	return enc
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 37*recordSize)
	rng.Read(random)

	cases := map[string][]byte{
		"empty":         {},
		"one byte":      {0x42},
		"half a record": bytes.Repeat([]byte{7}, recordSize/2),
		"all zero":      make([]byte, 10*recordSize),
		"records":       lzRecordPayload(frameObs(200)),
		"noisy records": lzRecordPayload(noisyObs(200)),
		"random bytes":  random,
		"record + tail": append(lzRecordPayload(frameObs(3)), 'x', 'y'),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { deltaRoundTrip(t, src) })
	}
}

// TestDeltaRoundTripExtremes: the per-column running values must wrap
// exactly like the encoder's per-record reads, so payloads holding
// extreme or descending values still round-trip.
func TestDeltaRoundTripExtremes(t *testing.T) {
	obs := []Observation{
		{Day: 1 << 30, UserID: ^uint64(0), ASN: netmodel.ASN(^uint32(0)), Requests: ^uint32(0)},
		{Day: -(1 << 30), UserID: 0, ASN: 0, Requests: 0},
		{Day: 0, UserID: 1, ASN: 1, Requests: 1},
		{Day: -1, UserID: ^uint64(0) - 1, ASN: 42, Requests: 7},
	}
	deltaRoundTrip(t, lzRecordPayload(obs))
}

// TestDeltaBeatsLZOnSortedRecords: the codec's whole reason to exist —
// on (user, day)-sorted record payloads the columnar delta form must be
// smaller than what the generic LZ stage manages.
func TestDeltaBeatsLZOnSortedRecords(t *testing.T) {
	payload := lzRecordPayload(benchObs(DefaultBlockRecords))
	delta := deltaRoundTrip(t, payload)
	lz := lzEncodeAll(payload)
	if len(delta) >= len(lz) {
		t.Fatalf("delta %d bytes >= lz %d bytes on sorted records", len(delta), len(lz))
	}
	if len(delta)*4 > len(payload) {
		t.Fatalf("delta compressed %d -> %d bytes, want >= 4x on sorted records",
			len(payload), len(delta))
	}
}

func TestDeltaEncodeDeterministic(t *testing.T) {
	payload := lzRecordPayload(benchObs(500))
	a := deltaEncodeAll(payload)
	b := deltaEncodeAll(payload)
	if !bytes.Equal(a, b) {
		t.Fatal("encoder is not deterministic; merge passthrough depends on it")
	}
}

func TestDeltaDecodeRejectsAdversarial(t *testing.T) {
	cases := map[string]struct {
		src    []byte
		maxLen int
		want   error
	}{
		"empty payload":     {src: []byte{}, maxLen: 100, want: errDeltaEmpty},
		"unknown flag bits": {src: []byte{0x02, 0x00}, maxLen: 100, want: errDeltaFlags},
		"missing count":     {src: []byte{0x00}, maxLen: 100, want: errDeltaTruncated},
		"oversized count": {src: []byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x0f},
			maxLen: 2 * recordSize, want: errDeltaCount},
		"truncated column": {src: []byte{0x00, 0x02, 0x00}, maxLen: 100, want: errDeltaTruncated},
		"tail over bound":  {src: []byte{0x00, 0x00, 'a', 'b', 'c'}, maxLen: 2, want: errDeltaTooLong},
		"bad lz cascade":   {src: []byte{0x01, 0x80}, maxLen: 100, want: errLZTruncated},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := deltaAppendDecode(nil, tc.src, tc.maxLen)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCodecChainByName(t *testing.T) {
	ids := func(chain []BlockCodec) []CodecID {
		out := make([]CodecID, len(chain))
		for i, c := range chain {
			out[i] = c.ID()
		}
		return out
	}
	for name, want := range map[string][]CodecID{
		"":         nil,
		"identity": nil,
		"none":     nil,
		"lz":       {CodecLZ},
		"delta":    {CodecDelta},
		"auto":     {CodecDelta, CodecLZ},
		"AUTO":     {CodecDelta, CodecLZ},
	} {
		chain, ok := CodecChainByName(name)
		if !ok {
			t.Fatalf("CodecChainByName(%q) unknown", name)
		}
		got := ids(chain)
		if len(got) != len(want) {
			t.Fatalf("CodecChainByName(%q) = %v, want %v", name, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("CodecChainByName(%q) = %v, want %v", name, got, want)
			}
		}
	}
	if _, ok := CodecChainByName("zstd"); ok {
		t.Fatal("unknown policy resolved")
	}
	for in, want := range map[string]string{
		"": "", "identity": "", "NONE": "", "lz": "lz", "Auto": "auto", "zstd": "zstd",
	} {
		if got := CanonicalPolicy(in); got != want {
			t.Fatalf("CanonicalPolicy(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWriterV2PolicyAuto: sorted records must land under delta, noisy
// records under whatever wins per block (never larger than identity),
// and the stream must read back exactly under every reader.
func TestWriterV2PolicyAuto(t *testing.T) {
	obs := append(benchObs(3*DefaultBlockRecords/2), noisyObs(DefaultBlockRecords/2)...)
	var buf bytes.Buffer
	w, err := NewWriterV2Policy(&buf, DefaultBlockRecords, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if w.Codec() != CodecDelta {
		t.Fatalf("auto writer Codec() = %v, want delta", w.Codec())
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ids := blockCodecs(t, buf.Bytes())
	if len(ids) == 0 || ids[0] != CodecDelta {
		t.Fatalf("first (sorted) block stored under %v, want delta", ids)
	}
	got, err := readAllV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("read %d of %d records", len(got), len(obs))
	}
	for i := range obs {
		if got[i] != obs[i] {
			t.Fatalf("record %d diverged", i)
		}
	}
}

func TestWriterV2PolicyUnknown(t *testing.T) {
	if _, err := NewWriterV2Policy(io.Discard, DefaultBlockRecords, "zstd"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestCodecCompatible(t *testing.T) {
	ident := NewWriterV2(io.Discard)
	if !ident.CodecCompatible(CodecIdentity) || ident.CodecCompatible(CodecLZ) {
		t.Fatal("identity writer compatibility wrong")
	}
	lzw, err := NewWriterV2Policy(io.Discard, DefaultBlockRecords, "lz")
	if err != nil {
		t.Fatal(err)
	}
	if !lzw.CodecCompatible(CodecLZ) || lzw.CodecCompatible(CodecIdentity) || lzw.CodecCompatible(CodecDelta) {
		t.Fatal("lz writer compatibility wrong")
	}
	auto, err := NewWriterV2Policy(io.Discard, DefaultBlockRecords, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if !auto.CodecCompatible(CodecDelta) || !auto.CodecCompatible(CodecLZ) || auto.CodecCompatible(CodecIdentity) {
		t.Fatal("auto writer compatibility wrong")
	}
}

// TestSalvageReportCodecBlocks: the per-codec block counts must agree
// with the codec set and sum to the intact block total.
func TestSalvageReportCodecBlocks(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV2Policy(&buf, 64, "auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range append(benchObs(128), noisyObs(64)...) {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := Salvage(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for id, n := range rep.CodecBlocks {
		if !rep.Codecs.Has(id) {
			t.Fatalf("CodecBlocks has %v, Codecs does not", id)
		}
		if n == 0 {
			t.Fatalf("CodecBlocks[%v] = 0", id)
		}
		sum += n
	}
	if sum != uint64(rep.Blocks) {
		t.Fatalf("per-codec counts sum to %d, report has %d blocks", sum, rep.Blocks)
	}
	if rep.CodecBlocks[CodecDelta] == 0 {
		t.Fatalf("no delta blocks in an auto stream: %+v", rep.CodecBlocks)
	}
}

// FuzzDeltaRoundTrip: every input must encode and decode back to itself
// within the exact output bound, and under a limit the encoder must
// succeed exactly when the reference encoding is shorter, with the
// reference's bytes.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add([]byte{0x00}, 3)
	f.Add(lzRecordPayload(frameObs(64)), 400)
	f.Add(append(lzRecordPayload(benchObs(16)), 1, 2, 3), 90)
	f.Add(lzRecordPayload(noisyObs(8)), 330)
	f.Fuzz(func(t *testing.T, src []byte, limit int) {
		ref := deltaAppendEncode(nil, src)
		limit = int(uint(limit) % uint(2*len(ref)+2))
		for _, lim := range []int{limit, len(ref), len(ref) + 1} {
			enc, ok := deltaEncode(nil, src, lim)
			if ok != (len(ref) < lim) {
				t.Fatalf("limit %d: ok=%v, reference encoding is %d bytes", lim, ok, len(ref))
			}
			if ok && !bytes.Equal(enc, ref) {
				t.Fatalf("limit %d: encoding diverged from the reference", lim)
			}
		}
		enc := deltaEncodeAll(src)
		if !bytes.Equal(enc, ref) {
			t.Fatal("unlimited encoding diverged from the reference")
		}
		dec, err := deltaAppendDecode(nil, enc, len(src))
		if err != nil {
			t.Fatalf("own output failed to decode: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatal("round trip diverged")
		}
	})
}

// FuzzDeltaDecode: arbitrary bytes fed to the decoder must never panic,
// read out of bounds, grow the output past the caller's bound, or fail
// with anything but the typed sentinels (its own, or the LZ stage's
// when the cascade flag is set).
func FuzzDeltaDecode(f *testing.F) {
	f.Add([]byte{}, 40)
	f.Add([]byte{0x00, 0x01}, 40)
	f.Add(deltaAppendEncode(nil, lzRecordPayload(frameObs(32))), 32*recordSize)
	f.Add([]byte{0x01, 0x00, 0x05}, 1<<12)
	f.Fuzz(func(t *testing.T, src []byte, maxLen int) {
		if maxLen < 0 || maxLen > DefaultBlockRecords*recordSize {
			maxLen = DefaultBlockRecords * recordSize
		}
		dec, err := deltaAppendDecode(nil, src, maxLen)
		if len(dec) > maxLen {
			t.Fatalf("decoded %d bytes past bound %d", len(dec), maxLen)
		}
		if err != nil &&
			!errors.Is(err, errDeltaEmpty) &&
			!errors.Is(err, errDeltaFlags) &&
			!errors.Is(err, errDeltaTruncated) &&
			!errors.Is(err, errDeltaCount) &&
			!errors.Is(err, errDeltaTooLong) &&
			!errors.Is(err, errLZTruncated) &&
			!errors.Is(err, errLZBadDistance) &&
			!errors.Is(err, errLZTooLong) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}

// BenchmarkWriterV2Delta is BenchmarkWriterV2 under the delta policy:
// the cost of the delta transpose plus its LZ cascade per block.
func BenchmarkWriterV2Delta(b *testing.B) { benchWriterV2Policy(b, "delta") }

// BenchmarkWriterV2Auto is BenchmarkWriterV2 under the auto policy: the
// delta trial, then an LZ trial of the raw payload that stops once it
// cannot beat delta's size, and the smallest-wins choice per block.
func BenchmarkWriterV2Auto(b *testing.B) { benchWriterV2Policy(b, "auto") }

// BenchmarkReaderV2Delta measures CRC-verify + delta-decode + record
// decode throughput. SetBytes uses the decoded size, so the number is
// directly comparable to BenchmarkReaderV2 and BenchmarkReaderV2LZ.
func BenchmarkReaderV2Delta(b *testing.B) { benchReaderV2Policy(b, "delta") }
