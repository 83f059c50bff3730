package telemetry

// Block-granular stream access: the sequential-I/O half of a parallel
// decode pipeline. A BlockReader pulls raw frames off the stream
// through the frame walker's window, which holds at most one frame,
// and copies each payload out without checking it, so that the
// CPU-heavy work — CRC verification and record decoding — can be
// fanned out to a worker pool (dataset.ParallelReader). The v2 framing
// makes each block independently verifiable and decodable, which is
// exactly what makes it the unit of parallelism.

import (
	"fmt"
	"hash/crc32"
	"io"
)

// RawBlock is one undecoded unit of a telemetry stream: a v2 frame, or
// a pseudo-block of consecutive v1 records (v1 streams have no framing,
// so the reader chunks them to bound batch sizes). Verify or
// AppendDecoded it before trusting its payload.
type RawBlock struct {
	// Index is the 0-based position of the block in the stream.
	Index int
	// Offset is the byte offset of the frame start within the stream.
	Offset int64
	// Count is the number of records the frame header claims.
	Count int
	// Sum is the stored CRC32C of the payload (v2 only).
	Sum uint32
	// Codec is the block codec the payload is stored under (v2 only;
	// v1 pseudo-blocks are always identity).
	Codec CodecID
	// Payload holds the stored payload — Count records encoded under
	// Codec — unverified. The checksum covers these stored bytes.
	Payload []byte

	version byte
}

// Verify checks the payload against the stored checksum, returning a
// *CorruptError on mismatch. v1 pseudo-blocks verify vacuously.
func (b RawBlock) Verify() error {
	if b.version < 2 {
		return nil
	}
	if got := crc32.Checksum(b.Payload, castagnoli); got != b.Sum {
		return &CorruptError{Block: b.Index, Offset: b.Offset,
			Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", b.Sum, got)}
	}
	return nil
}

// AppendDecoded verifies the block's checksum, reverses its codec, and
// appends the records to dst. scratch holds the decoded payload for
// codec-encoded blocks; the (possibly grown) scratch is returned so a
// worker looping over blocks decodes with zero steady-state
// allocations. Any failure — checksum mismatch, unknown codec, payload
// that does not decode to exactly Count records — returns dst
// unchanged alongside a *CorruptError.
func (b RawBlock) AppendDecoded(dst []Observation, scratch []byte) ([]Observation, []byte, error) {
	recs, scratch, err := b.Decode(scratch)
	if err != nil {
		return dst, scratch, err
	}
	return AppendRecords(dst, recs), scratch, nil
}

// Decode verifies the block's checksum and reverses its codec,
// returning the decoded records, Count whole records in their stored
// form (the form WriterV2.WriteRecords takes), and the (possibly grown)
// scratch. The records alias Payload for a v1 or identity block and
// scratch otherwise. A failure is a *CorruptError, as for
// AppendDecoded.
func (b RawBlock) Decode(scratch []byte) (recs, grown []byte, err error) {
	if err := b.Verify(); err != nil {
		return nil, scratch, err
	}
	if b.version < 2 || b.Codec == CodecIdentity {
		return b.Payload, scratch, nil
	}
	c, ok := CodecByID(b.Codec)
	if !ok {
		return nil, scratch, &CorruptError{Block: b.Index, Offset: b.Offset,
			Reason: fmt.Sprintf("unknown codec %s", b.Codec)}
	}
	raw := b.Count * recordSize
	buf, err := c.AppendDecode(scratch[:0], b.Payload, raw)
	if err != nil {
		return nil, buf, &CorruptError{Block: b.Index, Offset: b.Offset,
			Reason: fmt.Sprintf("payload decode (%s): %v", b.Codec, err)}
	}
	if len(buf) != raw {
		return nil, buf, &CorruptError{Block: b.Index, Offset: b.Offset,
			Reason: fmt.Sprintf("decoded length %d, want %d", len(buf), raw)}
	}
	return buf, buf, nil
}

// AppendRecords decodes a verified payload — a whole number of records
// — appending each to dst and returning the extended slice. Callers
// that recycle dst across blocks decode with zero per-record
// allocations.
func AppendRecords(dst []Observation, payload []byte) []Observation {
	for off := 0; off+recordSize <= len(payload); off += recordSize {
		dst = append(dst, decodeRecord(payload[off:]))
	}
	return dst
}

// BlockReader reads a stream block by block through the frame walker
// (walk.go): strictly with Next or tolerantly with NextIntact, never
// both. The stream version is detected from the signature: v2 streams
// yield one RawBlock per frame, v1 streams pseudo-blocks of at most
// DefaultBlockRecords records.
type BlockReader struct {
	w walker
}

// NewBlockReader returns a BlockReader wrapping r.
func NewBlockReader(r io.Reader) *BlockReader { return NewBlockReaderVersion(r, 0) }

// NewBlockReaderVersion is NewBlockReader for a stream behind a dataset
// header that declares version (0: no header to pin against). An empty
// stream is then empty in that version, and a pinned v2 stream under
// another signature reads tolerantly as v2 with a damaged signature.
func NewBlockReaderVersion(r io.Reader, version int) *BlockReader {
	return &BlockReader{w: walker{r: r, pin: version}}
}

// Reset makes the reader read src from its start, as
// NewBlockReaderVersion(src, version) would, but keeps its window, so
// one reader walks stream after stream without allocating another. The
// zero BlockReader is ready for Reset.
func (r *BlockReader) Reset(src io.Reader, version int) {
	r.w = walker{r: src, pin: version, win: r.w.win}
}

// Next returns the next raw block. It checks only the frame header:
// the payload checksum is left to the caller (RawBlock.Verify) so
// verification can run concurrently across blocks. The payload is
// stored in buf when its capacity suffices (buf may be nil); a caller
// recycling buffers across calls reads the stream with zero
// steady-state allocations. io.EOF is returned only at a clean block
// boundary; a malformed frame header or torn payload yields a
// *CorruptError. Errors are sticky.
func (r *BlockReader) Next(buf []byte) (RawBlock, error) {
	blk, _, err := r.w.next(buf, false)
	return blk, err
}

// NextIntact returns the next intact block and its payload, verified
// and decoded into dst; everything else is skipped and counted as
// Salvage counts it. The stored Payload aliases the reader's window
// until the next call. io.EOF ends the stream; ErrBadMagic means it was
// unrecognizable. Errors are sticky.
func (r *BlockReader) NextIntact(dst []byte) (RawBlock, []byte, error) {
	return r.w.next(dst, true)
}

// Report returns the coverage of the blocks read so far. After a strict
// read whose blocks all verified, it equals a tolerant read's.
func (r *BlockReader) Report() SalvageReport { return r.w.rep }

// Salvage reads the rest of the stream with NextIntact, emitting every
// intact record in stream order (emit may be nil), and returns the
// final report.
func (r *BlockReader) Salvage(emit EmitFunc) (SalvageReport, error) {
	_, decoded, err := r.NextIntact(nil)
	for ; err == nil; _, decoded, err = r.NextIntact(decoded) {
		for off := 0; emit != nil && off < len(decoded); off += recordSize {
			emit(decodeRecord(decoded[off:]))
		}
	}
	if err == io.EOF {
		err = nil
	}
	return r.Report(), err
}

// sliceFor returns buf resized to n bytes, reallocating only when its
// capacity is insufficient.
func sliceFor(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}
