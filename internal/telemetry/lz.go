package telemetry

// A small byte-level LZ codec, baked in because the repo rule forbids
// new dependencies. The format is a single token stream:
//
//	control byte c < 0x80: literal run of c+1 bytes (1..128) follows
//	control byte c >= 0x80: match of (c&0x7f)+4 bytes (4..131) at a
//	    back-distance given by the following uint16 LE (1..65535)
//
// Matches may overlap their own output (distance < length), which is
// what makes runs of a repeated byte compress. Telemetry payloads are
// fixed 40-byte records whose high bytes are mostly zero and whose
// fields repeat across adjacent records (same user, same day, same
// /64), so even this greedy single-pass encoder lands well above the
// 2x target on generated datasets.
//
// The decoder is total: any input either decodes or fails with a typed
// error; it never panics, reads out of bounds, or allocates past the
// caller-supplied output bound.

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"sync"
)

const (
	lzMinMatch    = 4
	lzMaxMatch    = 0x7f + lzMinMatch
	lzMaxLiteral  = 128
	lzMaxDistance = 1<<16 - 1
	lzHashLog     = 14
)

// Decoder failure modes, all wrapped into a *CorruptError by the frame
// layer; package-level so the hot path never formats strings.
var (
	errLZTruncated   = errors.New("truncated lz token")
	errLZBadDistance = errors.New("lz match distance out of range")
	errLZTooLong     = errors.New("lz output exceeds bound")
)

// lzTablePool recycles the encoder's hash table (64 KiB) across blocks.
var lzTablePool = sync.Pool{
	New: func() any { return new([1 << lzHashLog]int32) },
}

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashLog)
}

// lzEncode appends the LZ encoding of src to dst if it is shorter
// than limit bytes. A trial that cannot win stops early and returns
// false, leaving a prefix to discard in dst: it has lost once the bytes
// written plus the pending literals reach limit, since each pending
// literal costs at least one output byte. The output is deterministic
// for a given src, which the merge passthrough relies on.
func lzEncode(dst, src []byte, limit int) ([]byte, bool) {
	// The encoding is at most 2*len(src) bytes, so clamping limit there
	// keeps the answer and keeps lim from overflowing.
	lim := len(dst) + min(limit, 2*len(src)+1)
	if len(src) < lzMinMatch {
		dst = lzAppendLiterals(dst, src)
		return dst, len(dst) < lim
	}
	table := lzTablePool.Get().(*[1 << lzHashLog]int32)
	clear(table[:])
	defer lzTablePool.Put(table)

	// Table entries store position+1 so the zero value means "empty".
	// The bound is checked only where a match starts, which leaves the
	// scan loop as tight as an unbounded one.
	s, lit := 0, 0
	last := len(src) - lzMinMatch
	for s <= last {
		seq := binary.LittleEndian.Uint32(src[s:])
		h := lzHash(seq)
		cand := int(table[h]) - 1
		table[h] = int32(s + 1)
		if cand < 0 || s-cand > lzMaxDistance ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			s++
			continue
		}
		if len(dst)+s-lit >= lim {
			return dst, false
		}
		// Extend the match 8 bytes per step (byte by byte within 8 of
		// the end), up to lzMaxMatch.
		mlen := lzMinMatch
		for mlen < lzMaxMatch {
			if s+mlen+8 > len(src) {
				for mlen < lzMaxMatch && s+mlen < len(src) && src[cand+mlen] == src[s+mlen] {
					mlen++
				}
				break
			}
			if x := binary.LittleEndian.Uint64(src[s+mlen:]) ^ binary.LittleEndian.Uint64(src[cand+mlen:]); x != 0 {
				mlen += bits.TrailingZeros64(x) / 8
				break
			}
			mlen += 8
		}
		mlen = min(mlen, lzMaxMatch)
		dst = lzAppendLiterals(dst, src[lit:s])
		dist := s - cand
		dst = append(dst, 0x80|byte(mlen-lzMinMatch), byte(dist), byte(dist>>8))
		s += mlen
		lit = s
	}
	dst = lzAppendLiterals(dst, src[lit:])
	return dst, len(dst) < lim
}

// lzAppendLiterals emits lit as a sequence of literal runs.
func lzAppendLiterals(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := min(len(lit), lzMaxLiteral)
		dst = append(dst, byte(n-1))
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

// lzAppendDecode appends the decoded form of src to dst, refusing to
// grow the decoded portion past maxLen bytes. Match distances are
// relative to the start of this block's decoded output (base = the
// initial len(dst)), so dst may carry unrelated prior content.
func lzAppendDecode(dst, src []byte, maxLen int) ([]byte, error) {
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
		// Overlapping match: the output repeats the dist bytes before it.
		// Every copy starts on a whole period, so it can take all the
		// periods written so far: the copied run doubles each step.
		end := len(dst) + mlen
		dst = slices.Grow(dst, mlen)[:end]
		for k := end - mlen; k < end; {
			k += copy(dst[k:end], dst[pos:k])
		}
	}
	return dst, nil
}
