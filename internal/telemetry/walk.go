package telemetry

// The frame walker: the one production parser of the stream framing.
// BlockReader.Next is its strict face and BlockReader.NextIntact, which
// Salvage reads through, its tolerant face. It reads through a
// window that holds at most one maximum-size frame.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// walkWindow is the initial read window: one read brings in many
// 40 KiB frames. It grows only for a frame larger than itself, so never
// past blockHeaderSize + maxBlockPayload.
const walkWindow = 1 << 20

type walker struct {
	r        io.Reader
	win      []byte // win[pos:end] is read but not yet consumed
	pos, end int
	base     int64 // stream offset of win[0]
	eof      bool
	pin      int   // version a dataset header declares (NewBlockReaderVersion)
	version  int   // 0 until the signature is read
	idx      int   // index of the next frame or v1 pseudo-block
	lastEnd  int64 // tolerant: where the bytes not yet accounted for start
	rep      SalvageReport
	err      error // sticky: set once the walk has ended or failed
}

func (w *walker) off() int64 { return w.base + int64(w.pos) }

// fill makes n unconsumed bytes available in the window. It returns
// false when the stream ends first, keeping what is left.
func (w *walker) fill(n int) (bool, error) {
	for w.end-w.pos < n {
		if w.eof {
			return false, nil
		}
		if w.pos+n > len(w.win) {
			win := w.win
			if n > len(win) {
				win = make([]byte, max(n, walkWindow))
			}
			w.base += int64(w.pos)
			w.end = copy(win, w.win[w.pos:w.end])
			w.pos, w.win = 0, win
		}
		m, err := w.r.Read(w.win[w.end:])
		w.end += m
		if err == io.EOF {
			w.eof = true
		} else if err != nil {
			return false, fmt.Errorf("telemetry: read: %w", err)
		}
	}
	return true, nil
}

// signature reads the stream signature. A strict walk refuses a
// damaged one; a tolerant walk scans for block markers from byte zero.
func (w *walker) signature(tolerant bool) error {
	if _, err := w.fill(4); err != nil {
		return err
	}
	var m [4]byte
	n := copy(m[:], w.win[w.pos:w.end])
	w.version = 2
	switch {
	case n == 0 && tolerant:
		w.rep.Version = w.pin // unpinned, an empty stream is unrecognizable
		return nil
	case n == 0:
		w.rep.Version = cmp.Or(w.pin, 2) // nothing contradicts the newest format
		return io.EOF
	case m == magic && w.pin != 2:
		w.version = 1
	case m == magicV2:
	case tolerant:
		if w.pin == 2 {
			w.rep.Version = 2
		}
		return nil
	case n < 4:
		return fmt.Errorf("%w (truncated signature)", ErrBadMagic)
	case m[0] == 'u' && m[1] == 'v' && m[2] == '6':
		return fmt.Errorf("%w: %d", ErrUnsupportedVersion, m[3])
	default:
		return ErrBadMagic
	}
	w.pos += 4
	w.lastEnd = 4
	w.rep.Version = w.version
	return nil
}

// nextV1 copies the next pseudo-block of at most DefaultBlockRecords
// whole v1 records into buf; the stream counts as one block. A torn
// last record fails a strict walk and is skipped by a tolerant one.
func (w *walker) nextV1(buf []byte, tolerant bool) (RawBlock, error) {
	if _, err := w.fill(DefaultBlockRecords * recordSize); err != nil {
		return RawBlock{}, err
	}
	n := min(w.end-w.pos, DefaultBlockRecords*recordSize)
	count := n / recordSize
	if count == 0 {
		if n > 0 && !tolerant {
			return RawBlock{}, fmt.Errorf("%w (truncated record)", ErrCorrupt)
		}
		w.rep.SkippedBytes += int64(n)
		return RawBlock{}, io.EOF
	}
	buf = sliceFor(buf, count*recordSize)
	blk := RawBlock{Index: w.idx, Offset: w.off(), Count: count, Payload: buf, version: 1}
	w.pos += copy(buf, w.win[w.pos:])
	w.idx++
	w.rep.Blocks = 1
	w.rep.Records += uint64(count)
	return blk, nil
}

// frame parses the frame header that starts the window and makes the
// whole frame available: the block's Payload aliases the window. reason
// says why the frame is malformed, "" if it is not; the checksum is
// left to the caller.
func (w *walker) frame() (b RawBlock, reason string, err error) {
	h := w.win[w.pos:]
	length := binary.LittleEndian.Uint32(h[4:])
	count, codec := splitCountFlags(binary.LittleEndian.Uint32(h[8:]))
	b = RawBlock{Index: w.idx, Offset: w.off(), Count: int(count), Codec: codec,
		Sum: binary.LittleEndian.Uint32(h[12:]), version: 2}
	switch {
	case [4]byte(h) != blockMagic:
		return b, "bad block marker", nil
	case length > maxBlockPayload:
		return b, fmt.Sprintf("oversized frame (%d bytes)", length), nil
	case !frameShapeValid(length, count, codec):
		return b, fmt.Sprintf("frame length %d / record count %d mismatch (codec %s)", length, count, codec), nil
	}
	if ok, err := w.fill(blockHeaderSize + int(length)); !ok {
		return b, "short frame payload", err
	}
	b.Payload = w.win[w.pos+blockHeaderSize : w.pos+blockHeaderSize+int(length)]
	return b, "", nil
}

// next returns the next block. A strict walk returns every frame, its
// payload copied into buf and unverified, and fails on the first
// malformed one. A tolerant walk returns the blocks whose checksum
// verifies and whose payload decodes (into buf) and counts the rest:
// the checksum verdict decides whether the scan goes on past the frame
// or one byte past its marker; an undecodable frame is skipped whole.
func (w *walker) next(buf []byte, tolerant bool) (b RawBlock, decoded []byte, err error) {
	if w.err != nil {
		return RawBlock{}, nil, w.err
	}
	defer func() { w.err = err }()
	if w.version == 0 {
		if err := w.signature(tolerant); err != nil {
			return RawBlock{}, nil, err
		}
	}
	if w.version == 1 {
		b, err = w.nextV1(buf, tolerant)
		return b, b.Payload, err
	}
	for {
		ok, err := w.fill(blockHeaderSize)
		switch {
		case err != nil:
			return RawBlock{}, nil, err
		case !ok && tolerant:
			// Account for the bytes after the last intact block.
			total := w.base + int64(w.end)
			w.rep.SkippedBytes += total - w.lastEnd
			if w.rep.Version == 0 && w.rep.Blocks == 0 {
				w.rep = SalvageReport{SkippedBytes: total}
				return RawBlock{}, nil, ErrBadMagic
			}
			w.rep.Version = cmp.Or(w.rep.Version, 2) // intact blocks behind a damaged signature
			return RawBlock{}, nil, io.EOF
		case !ok && w.pos == w.end:
			return RawBlock{}, nil, io.EOF
		case !ok:
			return RawBlock{}, nil, &CorruptError{Block: w.idx, Offset: w.off(), Reason: "short frame header"}
		case tolerant && [4]byte(w.win[w.pos:]) != blockMagic:
			w.pos++
			continue
		}
		b, reason, err := w.frame()
		switch {
		case err != nil:
			return RawBlock{}, nil, err
		case !tolerant && reason != "":
			return RawBlock{}, nil, &CorruptError{Block: b.Index, Offset: b.Offset, Reason: reason}
		case !tolerant:
			b.Payload = append(buf[:0], b.Payload...)
			w.idx++
		case reason != "" || crc32.Checksum(b.Payload, castagnoli) != b.Sum:
			w.rep.CorruptBlocks++
			w.pos++
			continue
		}
		w.pos += blockHeaderSize + len(b.Payload)
		if tolerant {
			c, _ := CodecByID(b.Codec) // a valid frame shape implies a known codec
			decoded, err = c.AppendDecode(buf[:0], b.Payload, b.Count*recordSize)
			if err != nil || len(decoded) != b.Count*recordSize {
				w.rep.CorruptBlocks++
				continue
			}
			b.Index = w.rep.Blocks
			w.rep.SkippedBytes += b.Offset - w.lastEnd
			w.lastEnd = w.off()
		}
		w.rep.Blocks++
		w.rep.Records += uint64(b.Count)
		w.rep.addCodecBlock(b.Codec)
		return b, decoded, nil
	}
}
