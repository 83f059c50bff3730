package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// The decoders below are the ones production used before overlapping
// LZ matches were copied a period at a time and the delta columns were
// decoded without a closure per value, kept verbatim as the decode
// reference: FuzzLZDecodeMatchesReference, FuzzDeltaDecodeMatchesReference
// and TestLZDecodeOverlapTable require the production decoders to
// return their bytes on every input and bound, and to fail exactly when
// and how they fail.

// lzAppendDecodeRef appends the decoded form of src to dst, refusing to
// grow the decoded portion past maxLen bytes. Match distances are
// relative to the start of this block's decoded output (base = the
// initial len(dst)), so dst may carry unrelated prior content.
func lzAppendDecodeRef(dst, src []byte, maxLen int) ([]byte, error) {
	base := len(dst)
	bound := base + maxLen
	for i := 0; i < len(src); {
		c := src[i]
		i++
		if c < 0x80 {
			n := int(c) + 1
			if i+n > len(src) {
				return dst, errLZTruncated
			}
			if len(dst)+n > bound {
				return dst, errLZTooLong
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		if i+2 > len(src) {
			return dst, errLZTruncated
		}
		mlen := int(c&0x7f) + lzMinMatch
		dist := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		pos := len(dst) - dist
		if dist == 0 || pos < base {
			return dst, errLZBadDistance
		}
		if len(dst)+mlen > bound {
			return dst, errLZTooLong
		}
		if dist >= mlen {
			dst = append(dst, dst[pos:pos+mlen]...)
			continue
		}
		// Overlapping match: the source window grows as we copy.
		for k := 0; k < mlen; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
	return dst, nil
}

// deltaDecodeBodyRef reverses deltaEncodeColumns, bounding the output at
// maxLen appended bytes.
func deltaDecodeBodyRef(dst, body []byte, maxLen int) ([]byte, error) {
	u, sz := binary.Uvarint(body)
	if sz <= 0 {
		return dst, errDeltaTruncated
	}
	body = body[sz:]
	if u > uint64(maxLen/recordSize) {
		return dst, errDeltaCount
	}
	n := int(u)

	// Grow dst by the record region once; columns fill it in place.
	base := len(dst)
	need := n * recordSize
	if cap(dst)-base < need {
		grown := make([]byte, base+need, base+need+recordSize)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+need]
	}
	out := dst[base:]

	varintCol := func(fill func(i int, v int64)) bool {
		for i := 0; i < n; i++ {
			u, sz := binary.Uvarint(body)
			if sz <= 0 {
				return false
			}
			body = body[sz:]
			fill(i, unzigzag(u))
		}
		return true
	}

	// day column: the running value is reduced to int32 each step,
	// mirroring the encoder's per-record reads, so arbitrary deltas
	// still round-trip.
	prevDay := int64(0)
	if !varintCol(func(i int, d int64) {
		prevDay = int64(int32(prevDay + d))
		binary.LittleEndian.PutUint32(out[i*recordSize:], uint32(prevDay))
	}) {
		return dst[:base], errDeltaTruncated
	}
	prevUser := uint64(0)
	if !varintCol(func(i int, d int64) {
		prevUser += uint64(d)
		binary.LittleEndian.PutUint64(out[i*recordSize+4:], prevUser)
	}) {
		return dst[:base], errDeltaTruncated
	}
	if len(body) < 16*n {
		return dst[:base], errDeltaTruncated
	}
	var prevAddr [16]byte
	for i := 0; i < n; i++ {
		a := out[i*recordSize+12 : i*recordSize+28]
		for j := 0; j < 16; j++ {
			prevAddr[j] ^= body[i*16+j]
			a[j] = prevAddr[j]
		}
	}
	body = body[16*n:]
	if len(body) < 4*n {
		return dst[:base], errDeltaTruncated
	}
	for i := 0; i < n; i++ {
		out[i*recordSize+28] = body[i]
		out[i*recordSize+29] = body[n+i]
		out[i*recordSize+30] = body[2*n+2*i]
		out[i*recordSize+31] = body[2*n+2*i+1]
	}
	body = body[4*n:]
	prevASN := int64(0)
	if !varintCol(func(i int, d int64) {
		prevASN = int64(uint32(prevASN + d))
		binary.LittleEndian.PutUint32(out[i*recordSize+32:], uint32(prevASN))
	}) {
		return dst[:base], errDeltaTruncated
	}
	for i := 0; i < n; i++ {
		u, sz := binary.Uvarint(body)
		if sz <= 0 {
			return dst[:base], errDeltaTruncated
		}
		body = body[sz:]
		binary.LittleEndian.PutUint32(out[i*recordSize+36:], uint32(u))
	}
	// Whatever remains is the sub-record tail.
	if need+len(body) > maxLen {
		return dst[:base], errDeltaTooLong
	}
	return append(dst, body...), nil
}

// decodeBound maps a fuzzed bound into [0, maxBlockPayload], the bounds
// the frame layer passes.
func decodeBound(maxLen int) int { return int(uint(maxLen) % uint(maxBlockPayload+1)) }

// FuzzLZDecodeMatchesReference: on any input, bound and prior content of
// dst, lzAppendDecode returns the reference decoder's bytes and error.
func FuzzLZDecodeMatchesReference(f *testing.F) {
	payload := lzRecordPayload(frameObs(64))
	f.Add([]byte{}, []byte{}, 40)
	f.Add([]byte("pre"), []byte{0x00, 'a', 0x80 | 127, 0x01, 0x00}, 132)
	f.Add([]byte{}, []byte{0x02, 'a', 'b', 'c', 0x85, 0x03, 0x00}, 11)
	f.Add([]byte{}, lzEncodeAll(payload), len(payload))
	f.Add([]byte{}, lzEncodeAll(payload), len(payload)-1)
	f.Add([]byte("xy"), lzEncodeAll(deltaEncodeColumns(nil, payload)), 1<<16)
	f.Add([]byte{}, lzEncodeAll(lzRecordPayload(noisyObs(8))), 320)
	f.Fuzz(func(t *testing.T, prefix, src []byte, maxLen int) {
		maxLen = decodeBound(maxLen)
		got, gerr := lzAppendDecode(bytes.Clone(prefix), src, maxLen)
		want, werr := lzAppendDecodeRef(bytes.Clone(prefix), src, maxLen)
		if !errors.Is(gerr, werr) {
			t.Fatalf("error %v, the reference fails with %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded %d bytes, the reference %d, first difference at %d", len(got), len(want), firstDifference(got, want))
		}
	})
}

// FuzzDeltaDecodeMatchesReference: on any body, bound and prior content
// of dst, deltaDecodeBody returns the reference decoder's bytes and
// error.
func FuzzDeltaDecodeMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{}, 40)
	f.Add([]byte{}, []byte{0x01}, 40)
	f.Add([]byte("pre"), deltaEncodeColumns(nil, lzRecordPayload(frameObs(32))), 32*recordSize)
	f.Add([]byte{}, deltaEncodeColumns(nil, lzRecordPayload(frameObs(32))), 32*recordSize-1)
	f.Add([]byte{}, deltaEncodeColumns(nil, append(lzRecordPayload(noisyObs(8)), 1, 2, 3)), 8*recordSize+3)
	f.Add([]byte{}, deltaEncodeColumns(nil, lzRecordPayload(benchObs(64))), 1<<16)
	f.Fuzz(func(t *testing.T, prefix, body []byte, maxLen int) {
		maxLen = decodeBound(maxLen)
		got, gerr := deltaDecodeBody(bytes.Clone(prefix), body, maxLen)
		want, werr := deltaDecodeBodyRef(bytes.Clone(prefix), body, maxLen)
		if !errors.Is(gerr, werr) {
			t.Fatalf("error %v, the reference fails with %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("decoded %d bytes, the reference %d, first difference at %d", len(got), len(want), firstDifference(got, want))
		}
	})
}

// firstDifference is the first index at which a and b differ.
func firstDifference(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestLZDecodeOverlapTable: every overlapping match shape the format can
// carry at short distances — distance 1 to 8, length 4 to 131 — after a
// literal run of one period, behind unrelated prior output, decodes to
// the period repeated and to the reference's bytes, with the bound at
// the match's last byte (it fits) and one byte short of it (it fails as
// the reference fails).
func TestLZDecodeOverlapTable(t *testing.T) {
	prefix := []byte("prior output")
	for dist := 1; dist <= 8; dist++ {
		for mlen := lzMinMatch; mlen <= lzMaxMatch; mlen++ {
			src := []byte{byte(dist - 1)}
			want := append([]byte{}, prefix...)
			for i := 0; i < dist; i++ {
				src = append(src, byte(0xa0+i))
				want = append(want, byte(0xa0+i))
			}
			src = append(src, 0x80|byte(mlen-lzMinMatch), byte(dist), 0)
			for i := 0; i < mlen; i++ {
				want = append(want, want[len(want)-dist])
			}
			for _, maxLen := range []int{dist + mlen, dist + mlen - 1} {
				got, err := lzAppendDecode(bytes.Clone(prefix), src, maxLen)
				ref, rerr := lzAppendDecodeRef(bytes.Clone(prefix), src, maxLen)
				if !errors.Is(err, rerr) || !bytes.Equal(got, ref) {
					t.Fatalf("dist %d len %d bound %d: got %x (%v), the reference %x (%v)",
						dist, mlen, maxLen, got, err, ref, rerr)
				}
				if maxLen == dist+mlen && (err != nil || !bytes.Equal(got, want)) {
					t.Fatalf("dist %d len %d: got %x (%v), want %x", dist, mlen, got, err, want)
				}
				if maxLen < dist+mlen && !errors.Is(err, errLZTooLong) {
					t.Fatalf("dist %d len %d: a bound one byte short gave %v, want %v", dist, mlen, err, errLZTooLong)
				}
			}
		}
	}
}
