package telemetry

import (
	"encoding/binary"
	"hash/crc32"
)

// salvageWalk is the in-memory salvage walk that production salvage
// used before the frame walker, kept verbatim as the tolerant reference:
// the walker's differential tests (FuzzSalvage, TestWalkerMatchesReference)
// compare its reports and records against this one. It holds the whole
// stream and scans it byte by byte for block markers.
func salvageWalk(data []byte, visit func(b RawBlock, decoded []byte)) (SalvageReport, error) {
	var rep SalvageReport
	if len(data) >= 4 && [4]byte(data[0:4]) == magic {
		// v1: fixed records with no checksums — every complete record
		// is recoverable, a trailing partial record is dropped.
		rep.Version = 1
		body := data[4:]
		nrec := len(body) / recordSize
		rep.Records = uint64(nrec)
		if nrec > 0 {
			rep.Blocks = 1
		}
		rep.SkippedBytes = int64(len(body) - nrec*recordSize)
		if visit != nil {
			for i := 0; i < nrec; i += DefaultBlockRecords {
				n := min(DefaultBlockRecords, nrec-i)
				chunk := body[i*recordSize : (i+n)*recordSize]
				visit(RawBlock{
					Index:   i / DefaultBlockRecords,
					Offset:  4 + int64(i*recordSize),
					Count:   n,
					Payload: chunk,
					version: 1,
				}, chunk)
			}
		}
		return rep, nil
	}

	start := 0
	if len(data) >= 4 && [4]byte(data[0:4]) == magicV2 {
		rep.Version = 2
		start = 4
	}
	i, lastEnd := start, start
	for i+blockHeaderSize <= len(data) {
		if [4]byte(data[i:i+4]) != blockMagic {
			i++
			continue
		}
		length := binary.LittleEndian.Uint32(data[i+4:])
		count, codec := splitCountFlags(binary.LittleEndian.Uint32(data[i+8:]))
		sum := binary.LittleEndian.Uint32(data[i+12:])
		end := i + blockHeaderSize + int(length)
		if frameShapeValid(length, count, codec) && end <= len(data) {
			payload := data[i+blockHeaderSize : end]
			if crc32.Checksum(payload, castagnoli) == sum {
				decoded := payload
				if codec != CodecIdentity {
					// The checksum only vouches for the stored bytes; an
					// authentic-looking frame can still hold a payload
					// that does not decode (e.g. corruption that happens
					// to preserve the CRC of a garbage region promoted to
					// a frame). Decode failures mean the frame is corrupt:
					// skip the whole frame — resuming inside it could only
					// resynchronize on garbage.
					c, _ := CodecByID(codec) // shape-valid implies known
					raw := int(count) * recordSize
					buf, derr := c.AppendDecode(make([]byte, 0, raw), payload, raw)
					if derr != nil || len(buf) != raw {
						rep.CorruptBlocks++
						i = end
						continue
					}
					decoded = buf
				}
				rep.Blocks++
				rep.Records += uint64(count)
				rep.SkippedBytes += int64(i - lastEnd)
				rep.addCodecBlock(codec)
				if visit != nil {
					visit(RawBlock{
						Index:   rep.Blocks - 1,
						Offset:  int64(i),
						Count:   int(count),
						Sum:     sum,
						Codec:   codec,
						Payload: payload,
						version: 2,
					}, decoded)
				}
				i, lastEnd = end, end
				continue
			}
		}
		// Marker matched but the frame is invalid: count it once and
		// resume scanning just past the marker.
		rep.CorruptBlocks++
		i++
	}
	rep.SkippedBytes += int64(len(data) - lastEnd)
	if rep.Version == 0 {
		if rep.Blocks == 0 {
			return SalvageReport{SkippedBytes: int64(len(data))}, ErrBadMagic
		}
		// Damaged signature but intact v2 blocks: recoverable v2.
		rep.Version = 2
	}
	return rep, nil
}
