package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
)

// encodeV2LZ writes obs into a v2 stream under the LZ codec.
func encodeV2LZ(t *testing.T, obs []Observation, perBlock int) []byte {
	t.Helper()
	return encodeV2Policy(t, obs, perBlock, "lz")
}

// encodeV2Policy writes obs into a v2 stream under a compression
// policy.
func encodeV2Policy(t testing.TB, obs []Observation, perBlock int, policy string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2Policy(&buf, perBlock, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// noisyObs builds observations whose encoded records are almost all
// random bytes, so LZ cannot shrink the block payload.
func noisyObs(n int) []Observation {
	return noisyObsFrom(rand.New(rand.NewSource(99)), n)
}

// noisyObsFrom is noisyObs drawing from rng.
func noisyObsFrom(rng *rand.Rand, n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		o := Observation{
			Day:      simtime.Day(rng.Int31()),
			UserID:   rng.Uint64(),
			Addr:     netaddr.AddrFrom6(rng.Uint64(), rng.Uint64()),
			Requests: rng.Uint32(),
			ASN:      netmodel.ASN(rng.Uint32()),
			Abusive:  rng.Intn(2) == 0,
		}
		o.SetCountry(string([]byte{byte('A' + rng.Intn(26)), byte('A' + rng.Intn(26))}))
		out[i] = o
	}
	return out
}

// blockCodecs reads every frame in a v2 stream and returns its codecs
// in order.
func blockCodecs(t *testing.T, stream []byte) []CodecID {
	t.Helper()
	br := NewBlockReader(bytes.NewReader(stream))
	var ids []CodecID
	for {
		b, err := br.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b.Codec)
	}
	return ids
}

func TestWriterV2LZRoundTrip(t *testing.T) {
	obs := frameObs(1000)
	lz := encodeV2LZ(t, obs, 128)
	plain := encodeV2(t, obs, 128)
	if len(lz) >= len(plain) {
		t.Fatalf("LZ stream %d bytes, identity stream %d", len(lz), len(plain))
	}
	got, err := readAllV2(lz)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(obs))
	}
	for i := range got {
		if got[i] != obs[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], obs[i])
		}
	}
	for i, id := range blockCodecs(t, lz) {
		if id != CodecLZ {
			t.Fatalf("block %d stored as %v, want lz", i, id)
		}
	}
}

// TestWriterV2LZFallbackIdentity: when encoding does not shrink a block
// the writer must store it under identity, and readers must accept the
// mixed stream.
func TestWriterV2LZFallbackIdentity(t *testing.T) {
	obs := noisyObs(256)
	stream := encodeV2LZ(t, obs, 64)
	ids := blockCodecs(t, stream)
	if len(ids) != 4 {
		t.Fatalf("got %d blocks, want 4", len(ids))
	}
	for i, id := range ids {
		if id != CodecIdentity {
			t.Fatalf("noisy block %d stored as %v, want identity fallback", i, id)
		}
	}
	got, err := readAllV2(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(obs))
	}
}

// TestReaderRejectsUnknownCodec: a frame whose flags byte names a codec
// this build does not implement is corrupt, not skippable garbage the
// reader should guess at.
func TestReaderRejectsUnknownCodec(t *testing.T) {
	obs := frameObs(128)
	stream := append([]byte{}, encodeV2LZ(t, obs, 64)...)
	// The flags byte is the high byte of the little-endian count word at
	// header offset 8 — byte 11 of the first frame, which starts right
	// after the 4-byte stream magic.
	off := 4 + 8 + 3
	if stream[off] != byte(CodecLZ) {
		t.Fatalf("flags byte at %d is %d, want %d", off, stream[off], CodecLZ)
	}
	stream[off] = 7
	_, err := readAllV2(stream)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown codec gave %v, want ErrCorrupt", err)
	}
	var n uint64
	rep, err := Salvage(bytes.NewReader(stream), func(Observation) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 || rep.Records != 64 {
		t.Fatalf("salvage recovered %d records, want the 64 from the intact block", n)
	}
	if rep.CorruptBlocks != 1 {
		t.Fatalf("CorruptBlocks = %d, want 1", rep.CorruptBlocks)
	}
	if !rep.Codecs.Has(CodecLZ) || rep.Codecs.Has(CodecID(7)) {
		t.Fatalf("salvage codec set %b wrong", rep.Codecs)
	}
}

// TestSalvageCRCValidButUndecodable: a frame can checksum clean while
// its payload fails to decode to count*recordSize bytes (the checksum
// covers stored bytes). Salvage must drop the whole frame, not emit a
// short block.
func TestSalvageCRCValidButUndecodable(t *testing.T) {
	payload := lzAppendEncode(nil, make([]byte, 10*recordSize))
	var stream []byte
	stream = append(stream, magicV2[:]...)
	stream = append(stream, blockMagic[:]...)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], packCountFlags(16, CodecLZ))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(payload, castagnoli))
	stream = append(stream, hdr[:]...)
	stream = append(stream, payload...)

	if _, err := readAllV2(stream); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("undecodable frame gave %v, want ErrCorrupt", err)
	}
	var n uint64
	rep, err := Salvage(bytes.NewReader(stream), func(Observation) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || rep.Records != 0 {
		t.Fatalf("salvage emitted %d records from an undecodable frame", n)
	}
	if rep.CorruptBlocks != 1 {
		t.Fatalf("CorruptBlocks = %d, want 1", rep.CorruptBlocks)
	}
}

// TestSalvageCompressedCorruption is the flip-a-byte drill from the
// format docs, on a compressed stream: one damaged byte inside a
// block's stored payload must cost exactly that block, with every
// sibling recovered and the reports agreeing across Salvage, a scan
// (Salvage delivering no records), and a tolerant BlockReader walk.
func TestSalvageCompressedCorruption(t *testing.T) {
	const perBlock = 64
	obs := frameObs(perBlock * 5)
	stream := append([]byte{}, encodeV2LZ(t, obs, perBlock)...)

	// Locate block 2's stored payload via a clean raw walk.
	var offsets []int64
	var lengths []int
	if _, err := rawBlocks(stream, func(b RawBlock, decoded []byte) {
		offsets = append(offsets, b.Offset)
		lengths = append(lengths, len(b.Payload))
	}); err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 5 {
		t.Fatalf("got %d blocks, want 5", len(offsets))
	}
	stream[int(offsets[2])+blockHeaderSize+lengths[2]/2] ^= 0xff

	var got []Observation
	rep, err := Salvage(bytes.NewReader(stream), func(o Observation) { got = append(got, o) })
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Observation{}, obs[:2*perBlock]...), obs[3*perBlock:]...)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d diverged", i)
		}
	}
	if rep.Blocks != 4 || rep.CorruptBlocks != 1 || rep.Intact() {
		t.Fatalf("report %+v: want 4 intact blocks, 1 corrupt, not intact", rep)
	}
	if rep.SkippedBytes != int64(blockHeaderSize+lengths[2]) {
		t.Fatalf("SkippedBytes = %d, want the whole damaged frame (%d)",
			rep.SkippedBytes, blockHeaderSize+lengths[2])
	}

	// A scan and the raw-block walk must report identical coverage.
	scan, err := Salvage(bytes.NewReader(stream), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rawRecs uint64
	raw, err := rawBlocks(stream, func(b RawBlock, decoded []byte) {
		if len(decoded) != b.Count*recordSize {
			t.Fatalf("decoded %d bytes for a %d-record block", len(decoded), b.Count)
		}
		rawRecs += uint64(b.Count)
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]SalvageReport{"scan": scan, "NextIntact": raw} {
		if other.Blocks != rep.Blocks || other.CorruptBlocks != rep.CorruptBlocks ||
			other.Records != rep.Records || other.SkippedBytes != rep.SkippedBytes ||
			other.Codecs != rep.Codecs {
			t.Fatalf("%s coverage %+v disagrees with Salvage %+v", name, other, rep)
		}
	}
	if rawRecs != rep.Records {
		t.Fatalf("raw walk visited %d records, report says %d", rawRecs, rep.Records)
	}
}

func TestWriteEncodedBlockPassthrough(t *testing.T) {
	obs := frameObs(512)
	orig := encodeV2LZ(t, obs, 64)

	var buf bytes.Buffer
	w, err := NewWriterV2Policy(&buf, 64, "lz")
	if err != nil {
		t.Fatal(err)
	}
	br := NewBlockReader(bytes.NewReader(orig))
	for {
		b, err := br.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ok, err := w.WriteEncodedBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("writer declined an aligned same-codec block (index %d)", b.Index)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), orig) {
		t.Fatal("passthrough re-emission diverged from the original stream")
	}
	if w.Count() != uint64(len(obs)) || w.Blocks() != 8 {
		t.Fatalf("counters: %d records / %d blocks", w.Count(), w.Blocks())
	}
}

func TestWriteEncodedBlockDeclines(t *testing.T) {
	obs := frameObs(128)
	stream := encodeV2LZ(t, obs, 64)
	br := NewBlockReader(bytes.NewReader(stream))
	blk, err := br.Next(nil)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(perBlock int, codec CodecID) *WriterV2 {
		w, err := NewWriterV2Policy(io.Discard, perBlock, codec.String())
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	cases := map[string]func() (*WriterV2, RawBlock){
		"codec mismatch": func() (*WriterV2, RawBlock) {
			return mk(64, CodecIdentity), blk
		},
		"count below perBlock": func() (*WriterV2, RawBlock) {
			return mk(128, CodecLZ), blk
		},
		"writer mid-block": func() (*WriterV2, RawBlock) {
			w := mk(64, CodecLZ)
			if err := w.Write(obs[0]); err != nil {
				t.Fatal(err)
			}
			return w, blk
		},
		"v1 block": func() (*WriterV2, RawBlock) {
			var v1 bytes.Buffer
			w1 := NewWriter(&v1)
			for _, o := range obs[:64] {
				if err := w1.Write(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := w1.Flush(); err != nil {
				t.Fatal(err)
			}
			b1, err := NewBlockReader(bytes.NewReader(v1.Bytes())).Next(nil)
			if err != nil {
				t.Fatal(err)
			}
			return mk(64, CodecLZ), b1
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			w, b := setup()
			ok, err := w.WriteEncodedBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("writer accepted a block it must re-encode")
			}
		})
	}
}

func TestFrameShapeValid(t *testing.T) {
	cases := []struct {
		length, count uint32
		codec         CodecID
		want          bool
	}{
		{40, 1, CodecIdentity, true},
		{41, 1, CodecIdentity, false},
		{0, 0, CodecIdentity, false},
		{39, 1, CodecLZ, true},
		{40, 1, CodecLZ, false}, // not strictly smaller: writer would have fallen back
		{0, 1, CodecLZ, false},
		{39, 1, CodecID(7), false}, // unknown codec
		{40 * (maxBlockRecords + 1), maxBlockRecords + 1, CodecIdentity, false},
	}
	for _, tc := range cases {
		if got := frameShapeValid(tc.length, tc.count, tc.codec); got != tc.want {
			t.Errorf("frameShapeValid(%d, %d, %v) = %v, want %v",
				tc.length, tc.count, tc.codec, got, tc.want)
		}
	}
}

// TestBlockAppendDecoded: the block-level decode used by the parallel
// reader must handle both stored forms and reject unknown codecs.
func TestBlockAppendDecoded(t *testing.T) {
	obs := frameObs(64)
	stream := encodeV2LZ(t, obs, 64)
	blk, err := NewBlockReader(bytes.NewReader(stream)).Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Codec != CodecLZ {
		t.Fatalf("block codec %v, want lz", blk.Codec)
	}
	recs, scratch, err := blk.AppendDecoded(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 64 {
		t.Fatalf("decoded %d records, want 64", len(recs))
	}
	for i := range recs {
		if recs[i] != obs[i] {
			t.Fatalf("record %d diverged", i)
		}
	}
	// Scratch reuse must reproduce the same result.
	recs2, _, err := blk.AppendDecoded(nil, scratch)
	if err != nil || len(recs2) != 64 {
		t.Fatalf("scratch-reuse decode: %d records, err %v", len(recs2), err)
	}

	bad := blk
	bad.Codec = CodecID(9)
	if _, _, err := bad.AppendDecoded(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown codec decode gave %v, want ErrCorrupt", err)
	}
}

func TestPackSplitCountFlags(t *testing.T) {
	for _, count := range []int{1, 1024, maxBlockRecords} {
		for _, codec := range []CodecID{CodecIdentity, CodecLZ, CodecID(200)} {
			word := packCountFlags(count, codec)
			c, id := splitCountFlags(word)
			if int(c) != count || id != codec {
				t.Fatalf("pack/split(%d, %v) -> (%d, %v)", count, codec, c, id)
			}
		}
	}
	if _, id := splitCountFlags(1024); id != CodecIdentity {
		t.Fatal("pre-codec count word must read as identity")
	}
}

// goldenPolicyObs is the fixture TestWriterPolicyGolden pins, four
// blocks at the default block size: sorted records, three noisy
// records cycled (repeats only LZ sees), noisy records nothing
// shrinks, and a sorted partial block. Under auto each of its
// outcomes (delta, lz, identity) is stored at least once.
func goldenPolicyObs() []Observation {
	noisy := noisyObs(DefaultBlockRecords)
	obs := frameObs(DefaultBlockRecords)
	for i := 0; i < DefaultBlockRecords; i++ {
		obs = append(obs, noisy[i%3])
	}
	obs = append(obs, noisy...)
	return append(obs, frameObs(100)...)
}

// TestWriterPolicyGolden pins every policy's stored bytes. Merge copies
// a part's encoded frames through unchanged, so merging one build's
// parts with another build reproduces the single-writer file only if
// both builds encode alike: encoder output is frozen, and changing it
// takes a new codec ID.
func TestWriterPolicyGolden(t *testing.T) {
	const I, L, D = CodecIdentity, CodecLZ, CodecDelta
	obs := goldenPolicyObs()
	for _, tc := range []struct {
		policy string
		size   int
		crc    uint32
		blocks []CodecID
	}{
		{"identity", 126948, 0x668de1fb, []CodecID{I, I, I, I}},
		{"lz", 65093, 0xd68f1796, []CodecID{L, L, I, L}},
		{"delta", 49101, 0x1eb412da, []CodecID{D, D, I, D}},
		{"auto", 48939, 0x6096add1, []CodecID{D, L, I, D}},
	} {
		stream := encodeV2Policy(t, obs, DefaultBlockRecords, tc.policy)
		crc := crc32.Checksum(stream, castagnoli)
		if len(stream) != tc.size || crc != tc.crc {
			t.Errorf("%s: %d B, CRC32C %08x; want %d B, %08x", tc.policy, len(stream), crc, tc.size, tc.crc)
		}
		if got := blockCodecs(t, stream); !slices.Equal(got, tc.blocks) {
			t.Errorf("%s: blocks stored as %v, want %v", tc.policy, got, tc.blocks)
		}
	}
}

// policyFuzzObs builds up to about 8k records from fuzz input. Each
// byte of shape appends a run of up to 64 records whose kind its low
// two bits pick: one user's (user, day)-sorted records on a stable
// /64, the next user's, random records, or repeats cycling the last
// few records.
func policyFuzzObs(seed int64, shape []byte) []Observation {
	rng := rand.New(rand.NewSource(seed))
	var obs []Observation
	user := rng.Uint64() >> 16
	for _, b := range shape {
		if len(obs) >= 8192 {
			break
		}
		n := 1 + int(b>>2)
		switch b & 3 {
		case 0, 1:
			user += uint64(b & 1)
			hi := 0x20010db8<<32 | user%997<<8
			for i := 0; i < n; i++ {
				o := Observation{
					Day:      simtime.Day(i * 7 / n),
					UserID:   user,
					Addr:     netaddr.AddrFrom6(hi, uint64(rng.Intn(4))<<32|uint64(i)),
					ASN:      netmodel.ASN(64500 + user%16),
					Requests: uint32(1 + rng.Intn(40)),
					Abusive:  user%13 == 0,
				}
				o.SetCountry([]string{"US", "IN", "DE", "BR"}[user%4])
				obs = append(obs, o)
			}
		case 2:
			obs = append(obs, noisyObsFrom(rng, n)...)
		case 3:
			k := min(len(obs), 1+rng.Intn(3))
			if k == 0 {
				continue
			}
			cycle := obs[len(obs)-k:]
			for i := 0; i < n; i++ {
				obs = append(obs, cycle[i%k])
			}
		}
	}
	return obs
}

// FuzzWriterPolicyMatchesReference: under every policy the writer must
// store exactly the stream the reference writer produces by encoding
// each block under every chain member unbounded and keeping the
// strictly smallest. Block sizes run from 1 to 2048 records, and the
// last block is usually partial.
func FuzzWriterPolicyMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0xfc, 0xfd, 0x7e, 0xff}, uint16(63))
	f.Add(int64(2), []byte{0xfe, 0xfe, 0xfc, 0xff, 0x13}, uint16(63))
	f.Add(int64(3), bytes.Repeat([]byte{0xfc, 0xfd, 0x7f, 0x32}, 16), uint16(1023))
	f.Add(int64(4), []byte{0x10, 0x23, 0x03, 0x41}, uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, perBlock uint16) {
		obs := policyFuzzObs(seed, shape)
		n := 1 + int(perBlock)%2048
		for _, policy := range []string{"identity", "lz", "delta", "auto"} {
			got := encodeV2Policy(t, obs, n, policy)
			if want := referencePolicyStream(obs, n, policy); !bytes.Equal(got, want) {
				t.Fatalf("%s, %d records in blocks of %d: stream differs from the reference (%d vs %d B)",
					policy, len(obs), n, len(got), len(want))
			}
		}
	})
}
