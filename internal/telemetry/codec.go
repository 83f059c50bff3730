package telemetry

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
)

// Binary observation record layout (little endian, fixed 40 bytes):
//
//	offset size field
//	0      4    day (int32)
//	4      8    user id
//	12     16   address (16-byte canonical form)
//	28     1    family (1=IPv4, 2=IPv6)
//	29     1    abusive flag
//	30     2    country code
//	32     4    asn
//	36     4    requests
const recordSize = 40

// RecordSize is the size of one stored record: a block of n records
// decodes to n*RecordSize bytes, the form WriterV2.WriteRecords takes.
const RecordSize = recordSize

// magic is the v1 file signature; magicV2 (frame.go) marks the framed,
// checksummed v2 layout. The first three bytes identify the family, the
// fourth is the format version.
var magic = [4]byte{'u', 'v', '6', 1}

// ErrBadMagic is returned when a stream does not start with the
// telemetry file signature.
var ErrBadMagic = errors.New("telemetry: bad file magic")

// ErrUnsupportedVersion is returned when a stream carries the telemetry
// signature but a format version this build cannot decode.
var ErrUnsupportedVersion = errors.New("telemetry: unsupported format version")

// encodeRecord serializes o into b, which must hold recordSize bytes.
func encodeRecord(b []byte, o Observation) {
	binary.LittleEndian.PutUint32(b[0:], uint32(int32(o.Day)))
	binary.LittleEndian.PutUint64(b[4:], o.UserID)
	a16 := o.Addr.As16()
	copy(b[12:28], a16[:])
	switch o.Addr.Family() {
	case netaddr.IPv4:
		b[28] = 1
	case netaddr.IPv6:
		b[28] = 2
	default:
		b[28] = 0
	}
	if o.Abusive {
		b[29] = 1
	} else {
		b[29] = 0
	}
	b[30], b[31] = o.Country[0], o.Country[1]
	binary.LittleEndian.PutUint32(b[32:], uint32(o.ASN))
	binary.LittleEndian.PutUint32(b[36:], o.Requests)
}

// decodeRecord parses one record from b (at least recordSize bytes).
func decodeRecord(b []byte) Observation {
	var o Observation
	o.Day = simtime.Day(int32(binary.LittleEndian.Uint32(b[0:])))
	o.UserID = binary.LittleEndian.Uint64(b[4:])
	var a16 [16]byte
	copy(a16[:], b[12:28])
	switch b[28] {
	case 1:
		v4 := uint32(a16[12])<<24 | uint32(a16[13])<<16 | uint32(a16[14])<<8 | uint32(a16[15])
		o.Addr = netaddr.AddrFrom4(v4)
	case 2:
		o.Addr = netaddr.AddrFrom16(a16)
	}
	o.Abusive = b[29] == 1
	o.Country[0], o.Country[1] = b[30], b[31]
	o.ASN = netmodel.ASN(binary.LittleEndian.Uint32(b[32:]))
	o.Requests = binary.LittleEndian.Uint32(b[36:])
	return o
}

// canonicalizeRecords rewrites in place each whole record of p that
// encodeRecord could not have written to the bytes encodeRecord writes
// for its decoded value, so that storing p stores what encoding
// decodeRecord of each record would. Three fields do not round-trip as
// stored: a family byte other than 1 or 2 decodes to no address, stored
// as family 0 and a zero address; an IPv4 address decodes from its last
// four bytes and is stored as ::ffff:a.b.c.d; an abusive byte above 1
// decodes to false, stored as 0.
func canonicalizeRecords(p []byte) {
	for off := 0; off+recordSize <= len(p); off += recordSize {
		r := p[off : off+recordSize]
		switch r[28] {
		case 1:
			if binary.LittleEndian.Uint64(r[12:]) != 0 || binary.LittleEndian.Uint32(r[20:]) != 0xffff0000 {
				clear(r[12:22])
				r[22], r[23] = 0xff, 0xff
			}
		case 2:
		default:
			clear(r[12:29])
		}
		if r[29] > 1 {
			r[29] = 0
		}
	}
}

// Writer streams observations to an io.Writer in the legacy v1 binary
// format: raw fixed-size records with no framing or checksums. New
// files should use WriterV2, which detects corruption; Writer is kept
// for compatibility and as a fixture producer. Close (or Flush) must be
// called to drain the buffer.
type Writer struct {
	bw          *bufio.Writer
	buf         [recordSize]byte
	n           uint64
	wroteHeader bool
}

// NewWriter returns a v1-format Writer wrapping w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one observation.
func (w *Writer) Write(o Observation) error {
	if !w.wroteHeader {
		if _, err := w.bw.Write(magic[:]); err != nil {
			return fmt.Errorf("telemetry: write header: %w", err)
		}
		w.wroteHeader = true
	}
	encodeRecord(w.buf[:], o)
	if _, err := w.bw.Write(w.buf[:]); err != nil {
		return fmt.Errorf("telemetry: write record: %w", err)
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains the internal buffer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams observations from the binary format: a record cursor
// over the frame walker's strict face (BlockReader.Next). The format
// version is detected from the file signature, v1 records are served
// as the walker chunks them, and each v2 block is verified and decoded
// as RawBlock.AppendDecoded does before any of its records is served. A
// corrupt v2 frame yields a *CorruptError identifying the block and
// byte offset.
type Reader struct {
	br      *BlockReader
	stored  []byte // the current block's stored payload
	scratch []byte // decode scratch for codec-encoded payloads
	recs    []byte // the current block's records not yet served
}

// NewReader returns a Reader wrapping r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: NewBlockReader(r)}
}

// Read returns the next observation, or io.EOF at end of stream.
func (r *Reader) Read() (Observation, error) {
	for len(r.recs) == 0 {
		blk, err := r.br.Next(r.stored)
		if err != nil {
			return Observation{}, err
		}
		r.stored = blk.Payload
		if r.recs, r.scratch, err = blk.Decode(r.scratch); err != nil {
			return Observation{}, err
		}
	}
	o := decodeRecord(r.recs)
	r.recs = r.recs[recordSize:]
	return o, nil
}

// ForEach reads the whole stream, invoking fn per observation.
func (r *Reader) ForEach(fn EmitFunc) error {
	for {
		o, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(o)
	}
}

// jsonObs is the JSONL wire form, using textual addresses for
// interoperability with external tooling.
type jsonObs struct {
	Day      int    `json:"day"`
	User     uint64 `json:"user"`
	Addr     string `json:"addr"`
	ASN      uint32 `json:"asn"`
	Country  string `json:"country"`
	Requests uint32 `json:"requests"`
	Abusive  bool   `json:"abusive,omitempty"`
}

// JSONLWriter streams observations as JSON lines.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter returns a JSONLWriter wrapping w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one observation as a JSON line.
func (w *JSONLWriter) Write(o Observation) error {
	return w.enc.Encode(jsonObs{
		Day:      int(o.Day),
		User:     o.UserID,
		Addr:     o.Addr.String(),
		ASN:      uint32(o.ASN),
		Country:  o.CountryCode(),
		Requests: o.Requests,
		Abusive:  o.Abusive,
	})
}

// Flush drains the buffer.
func (w *JSONLWriter) Flush() error { return w.bw.Flush() }
