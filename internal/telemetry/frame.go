package telemetry

// Format v2: framed record blocks with per-block CRC32C checksums.
//
// A v2 stream is the 4-byte signature "uv6\x02" followed by a sequence
// of blocks. Each block is a 16-byte frame header and a stored payload:
//
//	offset size field
//	0      4    block marker "blk\x01"
//	4      4    stored payload length in bytes (uint32 LE)
//	8      3    record count (uint24 LE, > 0, <= maxBlockRecords)
//	11     1    flags: the block codec ID (0 = identity)
//	12     4    CRC32C (Castagnoli) of the stored payload (uint32 LE)
//	16     N    stored payload: count records, encoded under the codec
//
// The count and flags share one little-endian uint32: because
// maxBlockRecords is 1<<16, the word's high byte was always zero before
// codecs existed, so identity-codec frames are bit-for-bit the original
// v2 layout and every pre-codec stream still reads. Under the identity
// codec the stored length is exactly count*recordSize; under any other
// codec it is strictly smaller (writers fall back to identity when
// encoding does not pay), which gives readers a total validity check
// before they allocate.
//
// The checksum always covers the stored payload, not the decoded one:
// a frame is verifiable without decoding, salvage can accept or reject
// frames on bytes alone, and merge can pass already-encoded blocks
// through untouched.
//
// The design goals, in the spirit of the IPv6 Hitlists pipelines that
// must tolerate malformed input at scale: a single flipped bit anywhere
// in a block is detected by the checksum; the per-block marker lets
// Salvage resynchronize past a corrupt or truncated region and recover
// every other intact block; and the strict length/count bounds make the
// decoder total — arbitrary bytes either decode or fail with a typed
// error, never panic or allocate unbounded memory.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
)

const (
	blockHeaderSize = 16
	// DefaultBlockRecords is the records-per-block target for WriterV2:
	// 1024 records = 40 KiB payloads, small enough that one corrupt
	// block loses little, large enough that framing overhead is ~0.04%.
	DefaultBlockRecords = 1024
	// maxBlockRecords bounds the record count a reader accepts in one
	// frame, capping per-block allocation at 2.5 MiB. It must stay
	// below 1<<blockFlagsShift so the count and flags never collide.
	maxBlockRecords = 1 << 16
	maxBlockPayload = maxBlockRecords * recordSize
	// blockFlagsShift positions the codec flags byte within the frame
	// header's count word.
	blockFlagsShift = 24
	blockCountMask  = 1<<blockFlagsShift - 1
)

// packCountFlags builds the frame header's count word from a record
// count and a codec ID.
func packCountFlags(count int, codec CodecID) uint32 {
	return uint32(count) | uint32(codec)<<blockFlagsShift
}

// splitCountFlags splits the frame header's count word into the record
// count and the codec ID.
func splitCountFlags(word uint32) (count uint32, codec CodecID) {
	return word & blockCountMask, CodecID(word >> blockFlagsShift)
}

// frameShapeValid reports whether a frame header's (length, count,
// codec) triple is structurally possible. Identity frames must carry
// exactly count*recordSize bytes; encoded frames must carry at least
// one and strictly fewer (a writer never stores an encoding that did
// not shrink the payload). Unknown codecs are invalid: their payload
// cannot be interpreted, so readers treat such frames as corrupt.
func frameShapeValid(length, count uint32, codec CodecID) bool {
	if count == 0 || count > maxBlockRecords {
		return false
	}
	raw := uint64(count) * recordSize
	if codec == CodecIdentity {
		return uint64(length) == raw
	}
	if _, ok := CodecByID(codec); !ok {
		return false
	}
	return length > 0 && uint64(length) < raw
}

var (
	magicV2    = [4]byte{'u', 'v', '6', 2}
	blockMagic = [4]byte{'b', 'l', 'k', 1}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrCorrupt is the sentinel wrapped by every *CorruptError, so callers
// can test errors.Is(err, ErrCorrupt) without caring about the detail.
var ErrCorrupt = errors.New("telemetry: corrupt data")

// CorruptError reports a v2 frame that failed validation: a bad marker,
// an impossible length/count, a short read, or a checksum mismatch.
type CorruptError struct {
	Block  int    // 0-based index of the failing block
	Offset int64  // byte offset of the frame start within the stream
	Reason string // human-readable failure detail
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("telemetry: corrupt block %d at offset %d: %s", e.Block, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) true.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// WriterV2 streams observations in the framed v2 format. Records are
// buffered into blocks and emitted with a checksum when a block fills;
// Flush emits any partial block and drains the buffer, so it must be
// called before the stream is final (partial blocks are valid blocks —
// a stream may freely mix block sizes).
type WriterV2 struct {
	bw          *bufio.Writer
	payload     []byte
	encs        [][]byte // per-chain-codec scratch for encoded payloads
	hdr         [blockHeaderSize]byte
	rec         [recordSize]byte
	chain       []BlockCodec // empty means identity (no encode pass at all)
	perBlock    int
	count       int // records in the current (unflushed) block
	n           uint64
	blocks      uint64
	wroteHeader bool
	pool        *encoderPool // nil: blocks encode on the writing goroutine
}

// NewWriterV2 returns a v2 Writer with the default block size.
func NewWriterV2(w io.Writer) *WriterV2 { return NewWriterV2Blocks(w, DefaultBlockRecords) }

// NewWriterV2Blocks returns a v2 Writer emitting blocks of
// recordsPerBlock records (clamped to [1, maxBlockRecords]).
func NewWriterV2Blocks(w io.Writer, recordsPerBlock int) *WriterV2 {
	if recordsPerBlock <= 0 || recordsPerBlock > maxBlockRecords {
		recordsPerBlock = DefaultBlockRecords
	}
	return &WriterV2{
		bw:       bufio.NewWriterSize(w, 1<<16),
		payload:  make([]byte, 0, recordsPerBlock*recordSize),
		perBlock: recordsPerBlock,
	}
}

// NewWriterV2Policy returns a v2 Writer driven by a compression policy
// name (see CodecChainByName): every block is tried under each codec
// in the policy's chain and stored under whichever yields the smallest
// payload, identity included. A trial stops once it cannot beat the
// smallest so far, which changes no stored byte. With "auto" that
// makes the per-block selection a delta → lz → identity fallback; ties
// go to the earlier chain entry.
func NewWriterV2Policy(w io.Writer, recordsPerBlock int, policy string) (*WriterV2, error) {
	chain, ok := CodecChainByName(policy)
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown compression policy %q", policy)
	}
	wr := NewWriterV2Blocks(w, recordsPerBlock)
	wr.chain = chain
	wr.encs = make([][]byte, len(chain))
	return wr, nil
}

// Codec returns the preferred codec of the writer's chain (identity
// for writers created without one). Individual blocks may still be
// stored under a later chain entry or as identity when the preferred
// encoding did not pay.
func (w *WriterV2) Codec() CodecID {
	if len(w.chain) == 0 {
		return CodecIdentity
	}
	return w.chain[0].ID()
}

// CodecCompatible reports whether a stored block under codec id could
// have been produced by this writer's encode step: identity for a
// chain-less writer, any chain member otherwise. Identity blocks under
// a chained writer are NOT compatible — an identity frame could be an
// uncompressed source or an encoder fallback, and the two cannot be
// told apart without re-encoding. WriteEncodedBlock uses this as its
// codec gate.
func (w *WriterV2) CodecCompatible(id CodecID) bool {
	if len(w.chain) == 0 {
		return id == CodecIdentity
	}
	for _, c := range w.chain {
		if c.ID() == id {
			return true
		}
	}
	return false
}

// WriteRecords appends the records p holds in their stored form, whole
// RecordSize-byte records as a decoded block payload holds them, and
// stores exactly what Write would store for each record decoded: a
// record Write could not have produced is stored as Write stores its
// decoded value (see canonicalizeRecords). It lets a caller that reads
// stored records, the dataset merge, write them without decoding them.
func (w *WriterV2) WriteRecords(p []byte) error {
	if len(p)%recordSize != 0 {
		return fmt.Errorf("telemetry: WriteRecords: %d bytes is not a whole number of records", len(p))
	}
	if err := w.writeMagic(); err != nil {
		return err
	}
	for len(p) > 0 {
		n := min(len(p), (w.perBlock-w.count)*recordSize)
		start := len(w.payload)
		w.payload = append(w.payload, p[:n]...)
		canonicalizeRecords(w.payload[start:])
		w.count += n / recordSize
		w.n += uint64(n / recordSize)
		p = p[n:]
		if w.count >= w.perBlock {
			if err := w.emitBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Write appends one observation, emitting a block when full.
func (w *WriterV2) Write(o Observation) error {
	if err := w.writeMagic(); err != nil {
		return err
	}
	encodeRecord(w.rec[:], o)
	w.payload = append(w.payload, w.rec[:]...)
	w.count++
	w.n++
	if w.count >= w.perBlock {
		return w.emitBlock()
	}
	return nil
}

func (w *WriterV2) writeMagic() error {
	if w.wroteHeader {
		return nil
	}
	if _, err := w.bw.Write(magicV2[:]); err != nil {
		return fmt.Errorf("telemetry: write header: %w", err)
	}
	w.wroteHeader = true
	return nil
}

func (w *WriterV2) emitBlock() error {
	if w.count == 0 {
		return nil
	}
	if w.pool != nil {
		return w.submit()
	}
	stored, codec := selectEncoding(w.chain, w.payload, w.encs)
	if err := w.writeFrame(w.count, codec, crc32.Checksum(stored, castagnoli), stored); err != nil {
		return err
	}
	w.payload = w.payload[:0]
	w.count = 0
	return nil
}

// selectEncoding is the writer's per-block codec selection: payload is
// tried under each codec of chain and stored under whichever yields the
// strictly smallest result; on a tie the earlier chain entry (identity
// first) keeps the block, so selection is deterministic. A trial stops
// once it cannot beat the smallest so far. encs holds one scratch buffer
// per chain codec, grown in place; stored aliases payload or one of
// them.
func selectEncoding(chain []BlockCodec, payload []byte, encs [][]byte) (stored []byte, codec CodecID) {
	stored, codec = payload, CodecIdentity
	for i, c := range chain {
		enc, ok := c.AppendEncode(encs[i][:0], payload, len(stored))
		encs[i] = enc
		if ok {
			stored, codec = enc, c.ID()
		}
	}
	return stored, codec
}

// writeFrame writes one frame: its header, then the stored payload.
func (w *WriterV2) writeFrame(count int, codec CodecID, sum uint32, stored []byte) error {
	h := w.hdr[:]
	copy(h, blockMagic[:])
	binary.LittleEndian.PutUint32(h[4:], uint32(len(stored)))
	binary.LittleEndian.PutUint32(h[8:], packCountFlags(count, codec))
	binary.LittleEndian.PutUint32(h[12:], sum)
	if _, err := w.bw.Write(h); err != nil {
		return fmt.Errorf("telemetry: write frame: %w", err)
	}
	if _, err := w.bw.Write(stored); err != nil {
		return fmt.Errorf("telemetry: write frame payload: %w", err)
	}
	w.blocks++
	return nil
}

// WriteEncodedBlock re-emits an already-stored frame without decoding
// it, the merge fast path. It only applies when the result is provably
// byte-identical to feeding the block's records through Write: no
// partial block may be pending, the block must be exactly full, and
// its stored codec must be one this writer's chain could have chosen
// (an identity block under a chained writer could be either an
// uncompressed source or an encoder fallback — indistinguishable, so
// it is re-encoded via the slow path instead). For multi-codec chains
// the caller must additionally know the block came from a writer with
// the SAME chain — chain selection depends on every member's output
// size, so a block a single-codec writer stored under lz might lose to
// delta under "auto"; the dataset merge layer enforces this with its
// declared-policy cross-check before offering blocks here. Returns
// false, nil when the block does not qualify; the caller then decodes
// and writes records normally. Blocks still being encoded
// concurrently are written first.
func (w *WriterV2) WriteEncodedBlock(b RawBlock) (bool, error) {
	if b.version < 2 || b.Count != w.perBlock || w.count != 0 || !w.CodecCompatible(b.Codec) {
		return false, nil
	}
	if err := w.writeMagic(); err != nil {
		return false, err
	}
	if err := w.drain(); err != nil {
		return false, err
	}
	if err := w.writeFrame(b.Count, b.Codec, b.Sum, b.Payload); err != nil {
		return false, err
	}
	w.n += uint64(b.Count)
	return true, nil
}

// Count returns the number of records written.
func (w *WriterV2) Count() uint64 { return w.n }

// Blocks returns the number of frames written so far (the block in
// progress, and a block still with the encoders, is not counted until
// its frame is written; after Flush every block is). Sharded sinks
// record it per part so a merge can verify per-part coverage.
func (w *WriterV2) Blocks() uint64 { return w.blocks }

// Flush emits the partial block in progress (if any), writes the
// blocks still being encoded concurrently, and drains the buffer. An
// empty stream still gets its signature, so a zero-record v2 file is
// recognizable as v2.
func (w *WriterV2) Flush() error {
	if err := w.writeMagic(); err != nil {
		return err
	}
	if err := w.emitBlock(); err != nil {
		return err
	}
	if err := w.drain(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// SalvageReport summarizes what Salvage recovered from a possibly
// damaged stream.
type SalvageReport struct {
	// Version is the detected format (1 or 2). When the signature
	// itself is damaged but intact v2 blocks were found, or a dataset
	// header pins v2, Version is 2.
	Version int
	// Blocks is the number of intact blocks recovered. A v1 stream
	// counts as one pseudo-block when it yields any records.
	Blocks int
	// CorruptBlocks counts frames whose marker was found but which
	// failed validation or checksum (regions with a destroyed marker
	// show up in SkippedBytes instead).
	CorruptBlocks int
	// Records is the number of records recovered from intact blocks.
	Records uint64
	// SkippedBytes is the byte count not accounted for by the signature
	// or an intact block — corrupt frames, torn tails, garbage.
	SkippedBytes int64
	// Codecs records the codec of every intact block, so callers can
	// cross-check a stream's frames against its declared codec (a v1
	// stream or one with zero intact blocks leaves it empty).
	Codecs CodecSet
	// CodecBlocks counts intact blocks per codec, the per-codec
	// breakdown behind Codecs: with a fallback-chain writer a stream
	// legitimately mixes codecs, and the mix — how many blocks the
	// preferred codec actually won — is what a compression-ratio
	// regression shows up in. Nil for v1 streams and streams with zero
	// intact v2 blocks.
	CodecBlocks map[CodecID]uint64
}

// Equal reports whether two reports describe identical coverage,
// per-codec block counts included (the map makes the struct itself
// non-comparable).
func (r SalvageReport) Equal(o SalvageReport) bool {
	return r.Version == o.Version && r.Blocks == o.Blocks &&
		r.CorruptBlocks == o.CorruptBlocks && r.Records == o.Records &&
		r.SkippedBytes == o.SkippedBytes && r.Codecs == o.Codecs &&
		maps.Equal(r.CodecBlocks, o.CodecBlocks)
}

// addCodecBlock records one intact block stored under id.
func (r *SalvageReport) addCodecBlock(id CodecID) {
	r.Codecs.Add(id)
	if r.CodecBlocks == nil {
		r.CodecBlocks = make(map[CodecID]uint64, 2)
	}
	r.CodecBlocks[id]++
}

// Add folds another part's report into r — the cross-part aggregation a
// sharded source (manifest or explicit part list) presents as the
// coverage of the whole logical stream: counts sum, codec sets union,
// per-codec block counts add, and Version is the newest format seen.
// Summed this way over a manifest's parts, the totals match what a
// merge of the same parts reports per part (blocks recovered, records,
// corrupt blocks, skipped bytes).
func (r *SalvageReport) Add(o SalvageReport) {
	if o.Version > r.Version {
		r.Version = o.Version
	}
	r.Blocks += o.Blocks
	r.CorruptBlocks += o.CorruptBlocks
	r.Records += o.Records
	r.SkippedBytes += o.SkippedBytes
	r.Codecs |= o.Codecs
	for id, n := range o.CodecBlocks {
		if r.CodecBlocks == nil {
			r.CodecBlocks = make(map[CodecID]uint64, len(o.CodecBlocks))
		}
		r.CodecBlocks[id] += n
	}
}

// Intact reports whether the stream decoded end to end with nothing
// skipped or corrupt.
func (r SalvageReport) Intact() bool {
	return r.CorruptBlocks == 0 && r.SkippedBytes == 0
}

// Salvage recovers every intact record from a possibly corrupted or
// truncated stream, emitting recovered records in stream order. For v2
// streams it validates each frame's checksum and resynchronizes on the
// block marker after damage, so one corrupt block never hides the
// blocks behind it. For v1 streams (no checksums) it recovers all
// complete records and drops a torn tail. The stream is read through
// the frame walker's window, so at most one frame is held in memory.
//
// Salvage returns ErrBadMagic only when the input is unrecognizable:
// no valid signature and no intact v2 block anywhere.
func Salvage(r io.Reader, emit EmitFunc) (SalvageReport, error) {
	return NewBlockReader(r).Salvage(emit)
}

// SalvageBytes is Salvage over an in-memory stream.
func SalvageBytes(data []byte, emit EmitFunc) (SalvageReport, error) {
	return Salvage(bytes.NewReader(data), emit)
}
