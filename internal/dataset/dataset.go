// Package dataset persists windowed telemetry datasets with a metadata
// header: the scenario that produced them, the day range, and record
// counts. A dataset file is the unit of exchange between the generator
// (cmd/userv6gen) and offline analysis — the stand-in for the paper's
// "random sample datasets".
//
// File layout: a one-line JSON header padded to a fixed 256 bytes and
// terminated by '\n', followed by the binary telemetry stream. New
// files use the framed, checksummed v2 stream (telemetry.WriterV2) and
// are written crash-safely: records go to a temporary file alongside
// the target, the header is re-flushed periodically so an interrupted
// run is salvageable, and Close fsyncs and renames so readers only ever
// observe complete files. Legacy v1 files (unframed stream, no format
// field in the header) remain fully readable. See docs/DATASET_FORMAT.md.
package dataset

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"userv6/internal/faultio"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// FormatV2 is the current on-disk format: framed record blocks with
// per-block CRC32C checksums. Legacy files carry no format field and
// report Format 0.
const FormatV2 = 2

// Meta describes a dataset.
type Meta struct {
	// Seed and Users identify the producing scenario.
	Seed  uint64 `json:"seed"`
	Users int    `json:"users"`
	// FromDay and ToDay bound the window (inclusive).
	FromDay int `json:"from_day"`
	ToDay   int `json:"to_day"`
	// Sample describes the applied sampler ("all", "user:0.1", ...).
	Sample string `json:"sample"`
	// Records is filled at Close time (and refreshed periodically while
	// writing, so a torn file reports recent progress).
	Records uint64 `json:"records"`
	// BenignOnly marks datasets without abusive traffic.
	BenignOnly bool `json:"benign_only,omitempty"`
	// Format is the stream format version (FormatV2 for new files;
	// zero for legacy v1 files).
	Format int `json:"format,omitempty"`
	// Codec names the block codec the stream was written under ("lz";
	// empty means identity). Individual blocks may still be stored as
	// identity when encoding did not shrink them — the per-frame flags
	// are authoritative; this field only declares the writer's intent
	// so tooling can cross-check and reproduce the file.
	Codec string `json:"codec,omitempty"`
	// Complete is set when the writer finalized the file. A file with
	// Complete false was interrupted mid-write and may hold fewer
	// records than a finished run would have.
	Complete bool `json:"complete,omitempty"`
	// HeaderCRC is the self-excluding header checksum: CRC32C
	// (Castagnoli) of the full 256-byte padded header with these eight
	// hex digits replaced by "00000000", rendered as lowercase hex. It
	// closes the last silent-corruption gap — a bit-flipped seed digit
	// in the JSON header is now detected like any payload flip. Headers
	// written before the field existed omit it and are accepted
	// unchecked.
	HeaderCRC string `json:"header_crc,omitempty"`
}

// Window returns the day range as simtime values.
func (m Meta) Window() (from, to simtime.Day) {
	return simtime.Day(m.FromDay), simtime.Day(m.ToDay)
}

// headerFlushEvery is the record interval between mid-write header
// refreshes (variable so tests can force frequent flushes).
var headerFlushEvery = 1 << 16

// Writer writes a dataset file crash-safely: records stream to
// path+".tmp" and Close atomically renames the finished file into
// place, so a crash never leaves a half-written file at the target
// path (the temp file it leaves is salvageable with Salvage).
type Writer struct {
	f          faultio.File
	fsys       faultio.FS
	tw         *telemetry.WriterV2
	meta       Meta
	path       string
	tmpPath    string
	sinceFlush int
}

// Create opens path for writing with the given metadata. Records
// accumulate in a temporary file next to path until Close finalizes
// and renames it into place.
func Create(path string, meta Meta) (*Writer, error) {
	return CreateFS(faultio.OS, path, meta)
}

// CreateFS is Create over an explicit filesystem — the seam the
// fault-injection harness wraps. Production callers use Create.
func CreateFS(fsys faultio.FS, path string, meta Meta) (*Writer, error) {
	if _, ok := telemetry.CodecChainByName(meta.Codec); !ok {
		return nil, fmt.Errorf("dataset: unknown block codec %q", meta.Codec)
	}
	meta.Format = FormatV2
	meta.Complete = false
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("dataset: create: %w", err)
	}
	w := &Writer{f: f, fsys: fsys, meta: meta, path: path, tmpPath: tmp}
	if err := w.writeHeader(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	// Position the stream just past the header; later header refreshes
	// use WriteAt and do not disturb the append offset.
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, fmt.Errorf("dataset: seek: %w", err)
	}
	w.tw, err = telemetry.NewWriterV2Policy(f, telemetry.DefaultBlockRecords, meta.Codec)
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	return w, nil
}

// headerSize is the fixed on-disk header length: the JSON line is padded
// with spaces so the header can be rewritten in place as counts grow.
const headerSize = 256

// headerCRCKey is the JSON prefix of the checksum field inside the raw
// header bytes; the eight hex digits follow it immediately. Writing
// computes the CRC with the digits zeroed and patches them in; reading
// zeroes them again before recomputing, so the checksum excludes itself.
const headerCRCKey = `"header_crc":"`

// headerCRCZero is the placeholder over which the checksum is computed.
const headerCRCZero = "00000000"

var headerCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrHeaderCRC reports a dataset header whose self-excluding checksum
// does not match: some byte of the 256-byte JSON header was altered.
var ErrHeaderCRC = errors.New("dataset: header checksum mismatch")

func (w *Writer) writeHeader() error {
	m := w.meta
	m.HeaderCRC = headerCRCZero
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dataset: marshal header: %w", err)
	}
	if len(b) >= headerSize {
		return fmt.Errorf("dataset: header too large (%d bytes)", len(b))
	}
	buf := make([]byte, headerSize)
	for i := range buf {
		buf[i] = ' '
	}
	copy(buf, b)
	buf[headerSize-1] = '\n'
	i := bytes.Index(buf, []byte(headerCRCKey))
	if i < 0 {
		return fmt.Errorf("dataset: header checksum field missing after marshal")
	}
	crc := crc32.Checksum(buf, headerCastagnoli)
	copy(buf[i+len(headerCRCKey):], fmt.Sprintf("%08x", crc))
	if _, err := w.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	return nil
}

// verifyHeaderCRC checks the self-excluding header checksum of the raw
// 256-byte header against the parsed metadata. Headers without the
// field (v1 and early v2 files) pass unchecked.
func verifyHeaderCRC(hdr []byte, meta Meta) error {
	if meta.HeaderCRC == "" {
		return nil
	}
	i := bytes.Index(hdr, []byte(headerCRCKey))
	if i < 0 || i+len(headerCRCKey)+len(headerCRCZero) > len(hdr) {
		return fmt.Errorf("%w (field present in metadata but not in raw header)", ErrHeaderCRC)
	}
	tmp := make([]byte, len(hdr))
	copy(tmp, hdr)
	copy(tmp[i+len(headerCRCKey):], headerCRCZero)
	if got := fmt.Sprintf("%08x", crc32.Checksum(tmp, headerCastagnoli)); got != meta.HeaderCRC {
		return fmt.Errorf("%w (stored %s, computed %s)", ErrHeaderCRC, meta.HeaderCRC, got)
	}
	return nil
}

// Path returns the final path the dataset will occupy after Close.
func (w *Writer) Path() string { return w.path }

// Records returns the number of records written so far.
func (w *Writer) Records() uint64 { return w.tw.Count() }

// Blocks returns the number of stream frames emitted so far (final
// after Close). Sharded exports record it per part in the manifest.
func (w *Writer) Blocks() uint64 { return w.tw.Blocks() }

// Write appends one observation. Every headerFlushEvery records the
// stream is flushed and the header refreshed with the running count, so
// an interrupted run leaves a salvageable temp file with honest
// progress metadata.
func (w *Writer) Write(o telemetry.Observation) error {
	if err := w.tw.Write(o); err != nil {
		return err
	}
	w.sinceFlush++
	if w.sinceFlush >= headerFlushEvery {
		return w.refresh()
	}
	return nil
}

// writeRecords appends stored records (telemetry.WriterV2.WriteRecords),
// storing what Write stores for each record decoded and refreshing the
// header after the same records as Write would.
func (w *Writer) writeRecords(p []byte) error {
	for len(p) > 0 {
		n := min(len(p), (headerFlushEvery-w.sinceFlush)*telemetry.RecordSize)
		if err := w.tw.WriteRecords(p[:n]); err != nil {
			return err
		}
		p = p[n:]
		w.sinceFlush += n / telemetry.RecordSize
		if w.sinceFlush >= headerFlushEvery {
			if err := w.refresh(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeEncodedBlock forwards an already-stored frame to the stream
// writer when the passthrough preconditions hold (see
// telemetry.WriterV2.WriteEncodedBlock), keeping the same header-
// refresh cadence as record-at-a-time writes: sinceFlush advances by
// the whole block, and because passthrough only happens on block
// boundaries, a refresh triggered here flushes with no partial block
// pending — the stream bytes stay identical to a single-writer run.
func (w *Writer) writeEncodedBlock(b telemetry.RawBlock) (bool, error) {
	ok, err := w.tw.WriteEncodedBlock(b)
	if !ok || err != nil {
		return ok, err
	}
	w.sinceFlush += b.Count
	if w.sinceFlush >= headerFlushEvery {
		return true, w.refresh()
	}
	return true, nil
}

// refresh flushes the stream, the partial block in progress included,
// and rewrites the header with the running record count.
func (w *Writer) refresh() error {
	w.sinceFlush = 0
	if err := w.tw.Flush(); err != nil {
		return err
	}
	w.meta.Records = w.tw.Count()
	return w.writeHeader()
}

// Emit adapts Write to a telemetry.EmitFunc, recording the first error.
func (w *Writer) Emit() (telemetry.EmitFunc, *error) {
	var firstErr error
	return func(o telemetry.Observation) {
		if firstErr == nil {
			firstErr = w.Write(o)
		}
	}, &firstErr
}

// Close flushes the stream, writes the final header (record count,
// Complete flag), fsyncs, and renames the temp file to the target path.
// On error the temp file is left in place — whatever prefix reached
// disk is salvageable and a resumed run can rebuild from it — while the
// target path is never touched until the file is complete and durable.
// Call Abort to discard the temp file instead.
func (w *Writer) Close() error {
	if err := w.finalize(); err != nil {
		w.f.Close()
		return err
	}
	return nil
}

func (w *Writer) finalize() error {
	if err := w.tw.Flush(); err != nil {
		return err
	}
	w.meta.Records = w.tw.Count()
	w.meta.Complete = true
	if err := w.writeHeader(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dataset: sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("dataset: close: %w", err)
	}
	if err := w.fsys.Rename(w.tmpPath, w.path); err != nil {
		return fmt.Errorf("dataset: rename: %w", err)
	}
	return nil
}

// Abort discards the in-progress dataset, removing the temp file and
// leaving the target path untouched.
func (w *Writer) Abort() error {
	w.f.Close()
	if err := w.fsys.Remove(w.tmpPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dataset: abort: %w", err)
	}
	return nil
}

// Reader reads a dataset file (v1 or v2; the stream version is
// auto-detected from the telemetry signature) or a headerless raw
// telemetry stream.
type Reader struct {
	f    *os.File
	tr   *telemetry.Reader
	meta Meta
	raw  bool
}

// Open opens a dataset file for sequential reading, accepting exactly
// what a strict OpenParallel accepts: a headered file whose header parses and
// passes its checksum, or a headerless raw telemetry stream (Raw true,
// zero Meta).
func Open(path string) (*Reader, error) {
	f, h, err := openDataset(path, false, nil)
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, tr: telemetry.NewReader(h.stream), meta: h.meta, raw: h.raw}, nil
}

// openDataset opens path and reads its header through readHead,
// hashing every byte it reads into sum when sum is not nil. Unless
// tolerant, the header must pass the one accept rule Open, a strict
// OpenParallel and the source probes share: a file that starts with a
// telemetry stream signature is a headerless raw stream, and anything
// else must begin with a full headerSize-byte header that parses and
// passes its checksum; a format-2 header pins the stream version, so
// the stream must begin with the v2 signature.
func openDataset(path string, tolerant bool, sum io.Writer) (*os.File, fileHead, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fileHead{}, fmt.Errorf("dataset: open: %w", err)
	}
	var in io.Reader = f
	if sum != nil {
		in = io.TeeReader(f, sum)
	}
	h, err := readHead(in)
	if err == nil && !tolerant {
		err = h.hdrErr
		if err == nil && !h.raw {
			err = checkSignature(f, h.meta)
		}
	}
	if err != nil {
		f.Close()
		return nil, fileHead{}, err
	}
	return f, h, nil
}

// fileHead is what a read makes of the start of a file.
type fileHead struct {
	// raw marks a headerless raw stream, which has no header to judge.
	// Otherwise meta and hdrErr are the header's verdict: hdrErr is nil
	// when the header parses and passes its checksum, wraps ErrHeaderCRC
	// when it parses but fails it, and is a read or parse error when the
	// file is too short to hold a header or the header does not parse.
	raw    bool
	meta   Meta
	hdrErr error
	// stream is what a walk of the stream reads, pinned to version pin:
	// from byte zero for a raw stream, every byte of a file too short to
	// hold a header (so a tolerant walk counts them as skipped), and the
	// bytes past the header otherwise, pinned when the header verifies.
	stream io.Reader
	pin    int
}

// parsed reports whether the file has a header that parsed, whatever
// its checksum says.
func (h fileHead) parsed() bool {
	return !h.raw && (h.hdrErr == nil || errors.Is(h.hdrErr, ErrHeaderCRC))
}

// readHead reads the header at the start of in: the one header read of
// every open, probe and tolerant read. It fails only when in fails; a
// short, unparseable or failing header is left in hdrErr, for a strict
// open to refuse and a tolerant read to walk past.
func readHead(in io.Reader) (fileHead, error) {
	hdr := make([]byte, headerSize)
	n, err := io.ReadFull(in, hdr)
	if err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fileHead{}, fmt.Errorf("dataset: read header: %w", err)
	}
	hdr = hdr[:n]
	h := fileHead{raw: isRawStream(hdr), stream: in}
	switch {
	case h.raw:
		h.stream = io.MultiReader(bytes.NewReader(hdr), in)
	case n < headerSize:
		h.hdrErr = fmt.Errorf("dataset: read header: %w", io.ErrUnexpectedEOF)
		h.stream = bytes.NewReader(hdr)
	default:
		if h.meta, h.hdrErr = parseHeader(hdr); h.hdrErr == nil {
			h.pin = streamPin(h.meta)
		}
	}
	return h, nil
}

// checkSignature checks that the stream behind a format-2 header
// begins with the v2 signature. No stream bytes at all is an empty
// stream, and a torn signature is left to the stream readers, which
// report the truncation.
func checkSignature(f io.ReaderAt, meta Meta) error {
	if meta.Format != FormatV2 {
		return nil
	}
	sig := make([]byte, 4)
	n, err := f.ReadAt(sig, headerSize)
	if string(sig[:n]) != "uv6\x02"[:n] {
		return fmt.Errorf("%w (stream begins %q)", ErrStreamSignature, sig[:n])
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("dataset: read stream signature: %w", err)
	}
	return nil
}

// ErrStreamSignature reports a format-2 header over a stream with
// another signature, which read as v1 would serve damaged records.
var ErrStreamSignature = fmt.Errorf("dataset: stream signature does not match the header's format: %w", telemetry.ErrBadMagic)

// streamPin is the stream version a verified header declares to the
// frame walker; a legacy header has no format field and declares v1.
func streamPin(meta Meta) int { return cmp.Or(meta.Format, 1) }

// isRawStream reports whether b starts with a telemetry stream
// signature rather than a dataset header: a headerless raw stream
// (userv6gen -format binary output).
func isRawStream(b []byte) bool { return bytes.HasPrefix(b, []byte("uv6")) }

// parseHeader decodes a headerSize-byte dataset header and verifies its
// self-excluding checksum. A checksum failure returns the parsed Meta
// together with an ErrHeaderCRC error; any other error means the header
// did not parse.
func parseHeader(hdr []byte) (Meta, error) {
	var meta Meta
	if err := json.Unmarshal(trimHeader(hdr), &meta); err != nil {
		return Meta{}, fmt.Errorf("dataset: parse header: %w", err)
	}
	return meta, verifyHeaderCRC(hdr, meta)
}

// trimHeader strips padding from the fixed-size header line.
func trimHeader(b []byte) []byte {
	end := len(b)
	for end > 0 && (b[end-1] == ' ' || b[end-1] == '\n') {
		end--
	}
	return b[:end]
}

// Meta returns the dataset metadata (zero for raw streams).
func (r *Reader) Meta() Meta { return r.meta }

// Raw reports whether the file is a headerless telemetry stream.
func (r *Reader) Raw() bool { return r.raw }

// ForEach streams every record through fn.
func (r *Reader) ForEach(fn telemetry.EmitFunc) error {
	return r.tr.ForEach(fn)
}

// Read returns the next record or io.EOF.
func (r *Reader) Read() (telemetry.Observation, error) { return r.tr.Read() }

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// ScanReport is the integrity verdict for a dataset file: what the
// header claims, and what the stream actually holds.
type ScanReport struct {
	// HeaderOK reports that the JSON header parsed; Meta is only
	// meaningful when it did.
	HeaderOK bool
	// HeaderErr is set when the header parsed but failed its
	// self-excluding CRC check: the metadata cannot be trusted even
	// though it is syntactically valid.
	HeaderErr string
	Meta      Meta
	// Raw marks a headerless file that starts directly with a telemetry
	// stream signature (userv6gen -format binary output).
	Raw bool
	// Stream summarizes the salvageable content of the record stream.
	Stream telemetry.SalvageReport
	// StreamErr is set when the record stream is unrecognizable (no
	// signature and no intact block).
	StreamErr string
	// CRC32C is the whole-file checksum of the bytes the scan read,
	// rendered like FileCRC32C: every byte of the file, unless a read
	// failed part way.
	CRC32C string
}

// Intact reports whether the file verifies end to end: parseable or
// absent-by-design header, a stream with no corruption or slack, and —
// when the header carries a count — a matching record count and a
// Complete finalization flag for v2 files.
func (r ScanReport) Intact() bool {
	if r.StreamErr != "" || !r.Stream.Intact() {
		return false
	}
	if r.Raw {
		return true
	}
	if !r.HeaderOK || r.HeaderErr != "" || r.Stream.Records != r.Meta.Records {
		return false
	}
	// v1 files predate the Complete flag; only v2 promises it.
	return r.Meta.Format < FormatV2 || r.Meta.Complete
}

// Scan verifies path without extracting records: it parses the header,
// walks the stream checking every block checksum, and reports what a
// Salvage pass would recover. It never fails on corrupt content — only
// on I/O errors — so it is safe to point at torn temp files. A verified
// header pins the stream version, so a damaged v2 signature never reads
// as a v1 stream.
func Scan(path string) (ScanReport, error) {
	return salvage(path, nil)
}

// Salvage recovers every intact record from path, emitting them in
// stream order, and returns the same report as Scan. Use it to rescue
// the readable blocks of a corrupted or interrupted dataset.
func Salvage(path string, emit telemetry.EmitFunc) (ScanReport, error) {
	return salvage(path, emit)
}

func salvage(path string, emit telemetry.EmitFunc) (ScanReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanReport{}, fmt.Errorf("dataset: open: %w", err)
	}
	defer f.Close()

	sum := crc32.New(headerCastagnoli)
	h, err := readHead(io.TeeReader(f, sum))
	if err != nil {
		return ScanReport{}, err
	}
	rep := ScanReport{Raw: h.raw}
	if h.parsed() {
		rep.HeaderOK, rep.Meta = true, h.meta
		if h.hdrErr != nil {
			rep.HeaderErr = h.hdrErr.Error()
		}
	}
	sr, serr := telemetry.NewBlockReaderVersion(h.stream, h.pin).Salvage(emit)
	rep.Stream = sr
	if serr != nil {
		rep.StreamErr = serr.Error()
	}
	rep.CRC32C = fmt.Sprintf("%08x", sum.Sum32())
	return rep, nil
}
