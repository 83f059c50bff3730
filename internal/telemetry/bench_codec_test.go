package telemetry

// Codec benchmarks: raw framed-stream encode/decode throughput, one of
// the three hot paths (generation, codec, trie) the CI bench-smoke gate
// watches for regressions.

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
func BenchmarkReaderV2(b *testing.B) {
	obs := benchObs(64 * DefaultBlockRecords)
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(obs)) * recordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(buf.Bytes()))
		n := 0
		if err := r.ForEach(func(Observation) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n != len(obs) {
			b.Fatalf("read %d of %d records", n, len(obs))
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
func BenchmarkReaderV2LZ(b *testing.B) {
	obs := benchObs(64 * DefaultBlockRecords)
	var buf bytes.Buffer
	w, err := NewWriterV2Policy(&buf, DefaultBlockRecords, "lz")
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
	b.SetBytes(int64(len(obs)) * recordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(buf.Bytes()))
		n := 0
		if err := r.ForEach(func(Observation) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n != len(obs) {
			b.Fatalf("read %d of %d records", n, len(obs))
		}
	}
}
