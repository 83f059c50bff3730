package telemetry

import (
	"encoding/binary"
	"hash/crc32"
)

// The unbounded encoders below are the ones production used before a
// codec trial could stop early, kept verbatim as the encode reference:
// the differential tests (FuzzWriterPolicyMatchesReference,
// FuzzLZRoundTrip, FuzzDeltaRoundTrip) require the bounded encoders to
// produce their bytes whenever a trial finishes, and to stop exactly
// when their output would reach the limit.

// lzAppendEncode appends the LZ encoding of src to dst and returns the
// extended slice. The output is deterministic for a given src, which
// the merge passthrough relies on: re-encoding the same block payload
// reproduces the same bytes.
func lzAppendEncode(dst, src []byte) []byte {
	if len(src) < lzMinMatch {
		return lzAppendLiterals(dst, src)
	}
	table := lzTablePool.Get().(*[1 << lzHashLog]int32)
	clear(table[:])
	defer lzTablePool.Put(table)

	// Table entries store position+1 so the zero value means "empty".
	s, lit := 0, 0
	limit := len(src) - lzMinMatch
	for s <= limit {
		seq := binary.LittleEndian.Uint32(src[s:])
		h := lzHash(seq)
		cand := int(table[h]) - 1
		table[h] = int32(s + 1)
		if cand < 0 || s-cand > lzMaxDistance ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			s++
			continue
		}
		mlen := lzMinMatch
		for s+mlen < len(src) && mlen < lzMaxMatch && src[cand+mlen] == src[s+mlen] {
			mlen++
		}
		dst = lzAppendLiterals(dst, src[lit:s])
		dist := s - cand
		dst = append(dst, 0x80|byte(mlen-lzMinMatch), byte(dist), byte(dist>>8))
		s += mlen
		lit = s
	}
	return lzAppendLiterals(dst, src[lit:])
}

// deltaAppendEncode appends the delta encoding of src to dst. The
// output is deterministic for a given src: same payload, same bytes.
func deltaAppendEncode(dst, src []byte) []byte {
	bp := deltaBodyPool.Get().(*[]byte)
	body := deltaEncodeBody((*bp)[:0], src)
	lz := lzAppendEncode(body[len(body):], body)
	if len(lz) < len(body) {
		dst = append(dst, deltaFlagLZ)
		dst = append(dst, lz...)
	} else {
		dst = append(dst, 0)
		dst = append(dst, body...)
	}
	// body and lz share one backing buffer (lz appends past body's
	// length), so returning body keeps both for the next block.
	*bp = body[:cap(body)]
	deltaBodyPool.Put(bp)
	return dst
}

// deltaEncodeBody builds the column-transposed body of src in dst.
func deltaEncodeBody(dst, src []byte) []byte {
	n := len(src) / recordSize
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(n))]...)

	// day column: int32 deltas.
	prevDay := int64(0)
	for i := 0; i < n; i++ {
		v := int64(int32(binary.LittleEndian.Uint32(src[i*recordSize:])))
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], zigzag(v-prevDay))]...)
		prevDay = v
	}
	// user column: uint64 ring deltas (two's-complement subtraction is
	// exact under wraparound, so arbitrary payloads still round-trip).
	prevUser := uint64(0)
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint64(src[i*recordSize+4:])
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], zigzag(int64(v-prevUser)))]...)
		prevUser = v
	}
	// addr column: XOR with the previous record's address.
	var prevAddr [16]byte
	for i := 0; i < n; i++ {
		a := src[i*recordSize+12 : i*recordSize+28]
		for j := 0; j < 16; j++ {
			dst = append(dst, a[j]^prevAddr[j])
			prevAddr[j] = a[j]
		}
	}
	// family, abusive, country columns: raw.
	for i := 0; i < n; i++ {
		dst = append(dst, src[i*recordSize+28])
	}
	for i := 0; i < n; i++ {
		dst = append(dst, src[i*recordSize+29])
	}
	for i := 0; i < n; i++ {
		dst = append(dst, src[i*recordSize+30], src[i*recordSize+31])
	}
	// asn column: uint32 deltas.
	prevASN := int64(0)
	for i := 0; i < n; i++ {
		v := int64(binary.LittleEndian.Uint32(src[i*recordSize+32:]))
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], zigzag(v-prevASN))]...)
		prevASN = v
	}
	// requests column: plain varints of the values.
	for i := 0; i < n; i++ {
		v := uint64(binary.LittleEndian.Uint32(src[i*recordSize+36:]))
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	// tail: payload bytes past the last whole record.
	return append(dst, src[n*recordSize:]...)
}

// deltaAppendDecode appends the decoded form of src to dst, refusing to

// referencePolicyStream is the reference writer: it encodes every block
// under each codec of the policy's chain with the unbounded encoders
// and stores the strictly smallest result, identity included, with
// ties kept by the earlier entry.
func referencePolicyStream(obs []Observation, perBlock int, policy string) []byte {
	chain, ok := CodecChainByName(policy)
	if !ok {
		panic("unknown policy " + policy)
	}
	stream := append([]byte{}, magicV2[:]...)
	for len(obs) > 0 {
		n := min(perBlock, len(obs))
		payload := make([]byte, n*recordSize)
		for i, o := range obs[:n] {
			encodeRecord(payload[i*recordSize:], o)
		}
		obs = obs[n:]
		stored, codec := payload, CodecIdentity
		for _, c := range chain {
			var enc []byte
			switch c.ID() {
			case CodecLZ:
				enc = lzAppendEncode(nil, payload)
			case CodecDelta:
				enc = deltaAppendEncode(nil, payload)
			default:
				panic("no reference encoder for " + c.Name())
			}
			if len(enc) < len(stored) {
				stored, codec = enc, c.ID()
			}
		}
		stream = append(stream, blockMagic[:]...)
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(stored)))
		stream = binary.LittleEndian.AppendUint32(stream, packCountFlags(n, codec))
		stream = binary.LittleEndian.AppendUint32(stream, crc32.Checksum(stored, castagnoli))
		stream = append(stream, stored...)
	}
	return stream
}
