package telemetry

// Codec benchmarks: raw framed-stream encode/decode throughput, one of
// the hot paths (generation, codec, read, analysis) the CI bench-smoke
// gate watches for regressions.

import (
	"bytes"
	"io"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/simtime"
)

func benchObs(n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		o := Observation{
			Day:      simtime.Day(i % 7),
			UserID:   uint64(i),
			Addr:     netaddr.AddrFrom6(0x20010db8<<32, uint64(i)*0x9e3779b9),
			ASN:      netmodel.ASN(64500 + i%16),
			Requests: uint32(1 + i%40),
			Abusive:  i%97 == 0,
		}
		o.SetCountry("DE")
		out[i] = o
	}
	return out
}

// BenchmarkWriterV2 measures framed, checksummed encode throughput.
func BenchmarkWriterV2(b *testing.B) {
	obs := benchObs(64 * DefaultBlockRecords)
	b.SetBytes(int64(len(obs)) * recordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriterV2(io.Discard)
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaderV2 measures verify-then-decode throughput of the
// strict reader (per-block CRC32C checked before any record is served).
func BenchmarkReaderV2(b *testing.B) { benchReaderV2Policy(b, "none") }

// benchStream returns the benchmark records encoded under a
// compression policy, and their number.
func benchStream(b *testing.B, policy string) ([]byte, int) {
	obs := benchObs(64 * DefaultBlockRecords)
	var buf bytes.Buffer
	w, err := NewWriterV2Policy(&buf, DefaultBlockRecords, policy)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), len(obs)
}

// benchReaderV2Policy is BenchmarkReaderV2 over a stream written under
// a compression policy. SetBytes uses the decoded size, so the numbers
// of every policy compare directly.
func benchReaderV2Policy(b *testing.B, policy string) {
	stream, n := benchStream(b, policy)
	b.SetBytes(int64(n) * recordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(stream))
		got := 0
		if err := r.ForEach(func(Observation) { got++ }); err != nil {
			b.Fatal(err)
		}
		if got != n {
			b.Fatalf("read %d of %d records", got, n)
		}
	}
}

// The production read path: dataset.ParallelReader's scan and decode
// steps on one goroutine, over the fixtures BenchmarkReaderV2* read. A
// strict read takes each frame with BlockReader.Next and verifies and
// decodes it with AppendDecoded; a tolerant read takes each intact
// frame verified and decoded from NextIntact and decodes its records
// with AppendRecords. Buffers are recycled across blocks, as the
// reader's workers recycle them.

// BenchmarkBlockReaderStrict is the strict production read of
// identity-codec frames.
func BenchmarkBlockReaderStrict(b *testing.B) { benchBlockReader(b, "none", false) }

// BenchmarkBlockReaderStrictLZ is BenchmarkBlockReaderStrict over LZ
// frames.
func BenchmarkBlockReaderStrictLZ(b *testing.B) { benchBlockReader(b, "lz", false) }

// BenchmarkBlockReaderStrictDelta is BenchmarkBlockReaderStrict over
// delta frames.
func BenchmarkBlockReaderStrictDelta(b *testing.B) { benchBlockReader(b, "delta", false) }

// BenchmarkBlockReaderTolerant is the tolerant production read of
// identity-codec frames.
func BenchmarkBlockReaderTolerant(b *testing.B) { benchBlockReader(b, "none", true) }

// BenchmarkBlockReaderTolerantLZ is BenchmarkBlockReaderTolerant over
// LZ frames.
func BenchmarkBlockReaderTolerantLZ(b *testing.B) { benchBlockReader(b, "lz", true) }

// BenchmarkBlockReaderTolerantDelta is BenchmarkBlockReaderTolerant
// over delta frames.
func BenchmarkBlockReaderTolerantDelta(b *testing.B) { benchBlockReader(b, "delta", true) }

func benchBlockReader(b *testing.B, policy string, tolerant bool) {
	stream, n := benchStream(b, policy)
	b.SetBytes(int64(n) * recordSize)
	var payload, scratch []byte
	var recs []Observation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := NewBlockReader(bytes.NewReader(stream))
		got := 0
		for {
			var err error
			if tolerant {
				var decoded []byte
				if _, decoded, err = br.NextIntact(payload); err == nil {
					payload = decoded
					recs = AppendRecords(recs[:0], decoded)
				}
			} else {
				var blk RawBlock
				if blk, err = br.Next(payload); err == nil {
					payload = blk.Payload
					recs, scratch, err = blk.AppendDecoded(recs[:0], scratch)
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got += len(recs)
		}
		if got != n {
			b.Fatalf("read %d of %d records", got, n)
		}
	}
}

// BenchmarkWriterV2LZ is BenchmarkWriterV2 with per-block LZ: the extra
// cost of compressing each payload before checksumming it.
func BenchmarkWriterV2LZ(b *testing.B) { benchWriterV2Policy(b, "lz") }

// benchWriterV2Policy is BenchmarkWriterV2 under a compression policy.
func benchWriterV2Policy(b *testing.B, policy string) {
	obs := benchObs(64 * DefaultBlockRecords)
	b.SetBytes(int64(len(obs)) * recordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriterV2Policy(io.Discard, DefaultBlockRecords, policy)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range obs {
			if err := w.Write(o); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaderV2LZ measures CRC-verify + decompress + decode
// throughput over an LZ stream. SetBytes uses the decoded size, so the
// number is directly comparable to BenchmarkReaderV2.
func BenchmarkReaderV2LZ(b *testing.B) { benchReaderV2Policy(b, "lz") }
