package telemetry

// A frame-of-reference/delta codec for block payloads, exploiting the
// structure the generic LZ stage cannot see: v2 blocks hold fixed
// 40-byte records already sorted by (user, day), so the user column is
// a non-decreasing integer sequence (deltas of mostly 0 or 1), the day
// column cycles through a handful of small values per user, and
// consecutive addresses usually share their routing prefix. The codec
// transposes a block into columns and encodes each with the transform
// that fits it:
//
//	column    bytes/rec  transform
//	day       4          zigzag varint of the delta to the previous day
//	user      8          zigzag varint of the delta to the previous user
//	addr      16         XOR with the previous record's address, raw
//	family    1          raw
//	abusive   1          raw
//	country   2          raw
//	asn       4          zigzag varint of the delta to the previous ASN
//	requests  4          unsigned varint of the value
//
// The encoded body is
//
//	uvarint(n)  n = number of whole records in the payload
//	day column, user column, addr column, family column, abusive
//	column, country column, asn column, requests column
//	tail        payload bytes past the last whole record, raw
//
// prefixed by a one-byte cascade flag. The varint columns are
// self-delimiting, so the tail needs no length word. Columns of XORed
// addresses and near-constant flag bytes are long runs of zeros —
// exactly what the existing LZ stage compresses best — so the encoder
// optionally cascades the body through the LZ encoder and keeps
// whichever form is smaller (bit 0 of the flag byte records the
// choice). Both stages are deterministic, which the merge passthrough
// relies on.
//
// The decoder is total: arbitrary input either decodes or fails with a
// typed error; it never panics, reads out of bounds, or allocates past
// the caller-supplied output bound.

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
)

// deltaFlagLZ marks a body that was cascaded through the LZ stage.
const deltaFlagLZ = 0x01

// Decoder failure modes, package-level so the hot path never formats
// strings; the frame layer wraps them into a *CorruptError.
var (
	errDeltaEmpty     = errors.New("empty delta payload")
	errDeltaFlags     = errors.New("unknown delta flag bits")
	errDeltaTruncated = errors.New("truncated delta column")
	errDeltaCount     = errors.New("delta record count exceeds bound")
	errDeltaTooLong   = errors.New("delta output exceeds bound")
)

// deltaBodyPool recycles the column-transposed body scratch across
// blocks (encode builds the body before choosing the cascade; decode
// needs it to hold a cascaded body's expansion).
var deltaBodyPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// deltaBodyBound is the largest body a payload of rawLen decoded bytes
// can encode to: varint columns cost at most 45 bytes per 40-byte
// record (5+10+16+1+1+2+5+5), plus the count varint and a sub-record
// tail. The encoder reserves it once; the decoder bounds the LZ
// stage's expansion of a cascaded body by it.
func deltaBodyBound(rawLen int) int {
	return rawLen + rawLen/4 + 16
}

// zigzag maps a signed delta to an unsigned varint-friendly form.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// deltaEncode appends the delta encoding of src to dst if it is
// shorter than limit bytes, and returns false once it provably is not.
// The output is deterministic for a given src.
func deltaEncode(dst, src []byte, limit int) ([]byte, bool) {
	bp := deltaBodyPool.Get().(*[]byte)
	body := deltaEncodeColumns((*bp)[:0], src)
	// The cascade is kept only if it beats the plain body and, with the
	// flag byte, the limit; the plain body then still has to fit.
	lz, ok := lzEncode(body[len(body):], body, min(len(body), limit-1))
	if ok {
		dst = append(dst, deltaFlagLZ)
		dst = append(dst, lz...)
	} else if ok = 1+len(body) < limit; ok {
		dst = append(dst, 0)
		dst = append(dst, body...)
	}
	// body and lz share one backing buffer (lz appends past body's
	// length), so returning body keeps both for the next block.
	*bp = body[:cap(body)]
	deltaBodyPool.Put(bp)
	return dst, ok
}

// deltaEncodeColumns builds the column-transposed body of src in dst,
// reserving deltaBodyBound once.
func deltaEncodeColumns(dst, src []byte) []byte {
	dst = slices.Grow(dst, deltaBodyBound(len(src)))
	n := len(src) / recordSize
	dst = binary.AppendUvarint(dst, uint64(n))

	// day column: int32 deltas.
	prevDay := int64(0)
	for i := 0; i < n; i++ {
		v := int64(int32(binary.LittleEndian.Uint32(src[i*recordSize:])))
		dst = binary.AppendUvarint(dst, zigzag(v-prevDay))
		prevDay = v
	}
	// user column: uint64 ring deltas (two's-complement subtraction is
	// exact under wraparound, so arbitrary payloads still round-trip).
	prevUser := uint64(0)
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint64(src[i*recordSize+4:])
		dst = binary.AppendUvarint(dst, zigzag(int64(v-prevUser)))
		prevUser = v
	}
	// addr column: XOR with the previous record's address, word-wise.
	var prevHi, prevLo uint64
	for i := 0; i < n; i++ {
		hi := binary.LittleEndian.Uint64(src[i*recordSize+12:])
		lo := binary.LittleEndian.Uint64(src[i*recordSize+20:])
		dst = binary.LittleEndian.AppendUint64(dst, hi^prevHi)
		dst = binary.LittleEndian.AppendUint64(dst, lo^prevLo)
		prevHi, prevLo = hi, lo
	}
	// family, abusive, country columns: raw, filled in place.
	cols := dst[len(dst) : len(dst)+4*n]
	for i := 0; i < n; i++ {
		r := src[i*recordSize+28 : i*recordSize+32]
		cols[i], cols[n+i], cols[2*n+2*i], cols[2*n+2*i+1] = r[0], r[1], r[2], r[3]
	}
	dst = dst[:len(dst)+4*n]
	// asn column: uint32 deltas.
	prevASN := int64(0)
	for i := 0; i < n; i++ {
		v := int64(binary.LittleEndian.Uint32(src[i*recordSize+32:]))
		dst = binary.AppendUvarint(dst, zigzag(v-prevASN))
		prevASN = v
	}
	// requests column: plain varints of the values.
	for i := 0; i < n; i++ {
		dst = binary.AppendUvarint(dst, uint64(binary.LittleEndian.Uint32(src[i*recordSize+36:])))
	}
	// tail: payload bytes past the last whole record.
	return append(dst, src[n*recordSize:]...)
}

// deltaAppendDecode appends the decoded form of src to dst, refusing to
// grow the decoded portion past maxLen bytes.
func deltaAppendDecode(dst, src []byte, maxLen int) ([]byte, error) {
	if len(src) == 0 {
		return dst, errDeltaEmpty
	}
	flags, body := src[0], src[1:]
	if flags&^byte(deltaFlagLZ) != 0 {
		return dst, errDeltaFlags
	}
	if flags&deltaFlagLZ != 0 {
		bp := deltaBodyPool.Get().(*[]byte)
		defer deltaBodyPool.Put(bp)
		buf, err := lzAppendDecode((*bp)[:0], body, deltaBodyBound(maxLen))
		*bp = buf[:cap(buf)]
		if err != nil {
			return dst, err
		}
		body = buf
	}
	return deltaDecodeBody(dst, body, maxLen)
}

// deltaDecodeBody reverses deltaEncodeColumns, bounding the output at
// maxLen appended bytes.
func deltaDecodeBody(dst, body []byte, maxLen int) ([]byte, error) {
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

	// day column: the running value is reduced to int32 each step,
	// mirroring the encoder's per-record reads, so arbitrary deltas
	// still round-trip.
	prevDay := int64(0)
	for i := 0; i < n; i++ {
		if u, sz = binary.Uvarint(body); sz <= 0 {
			return dst[:base], errDeltaTruncated
		}
		body = body[sz:]
		prevDay = int64(int32(prevDay + unzigzag(u)))
		binary.LittleEndian.PutUint32(out[i*recordSize:], uint32(prevDay))
	}
	prevUser := uint64(0)
	for i := 0; i < n; i++ {
		if u, sz = binary.Uvarint(body); sz <= 0 {
			return dst[:base], errDeltaTruncated
		}
		body = body[sz:]
		prevUser += uint64(unzigzag(u))
		binary.LittleEndian.PutUint64(out[i*recordSize+4:], prevUser)
	}
	if len(body) < 16*n {
		return dst[:base], errDeltaTruncated
	}
	var prevHi, prevLo uint64
	for i := 0; i < n; i++ {
		prevHi ^= binary.LittleEndian.Uint64(body[i*16:])
		prevLo ^= binary.LittleEndian.Uint64(body[i*16+8:])
		binary.LittleEndian.PutUint64(out[i*recordSize+12:], prevHi)
		binary.LittleEndian.PutUint64(out[i*recordSize+20:], prevLo)
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
	for i := 0; i < n; i++ {
		if u, sz = binary.Uvarint(body); sz <= 0 {
			return dst[:base], errDeltaTruncated
		}
		body = body[sz:]
		prevASN = int64(uint32(prevASN + unzigzag(u)))
		binary.LittleEndian.PutUint32(out[i*recordSize+32:], uint32(prevASN))
	}
	for i := 0; i < n; i++ {
		if u, sz = binary.Uvarint(body); sz <= 0 {
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
