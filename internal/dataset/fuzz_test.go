package dataset

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/telemetry"
)

// fuzzFile materializes fuzz input as a file, since the dataset API is
// path-based.
func fuzzFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.uv6")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzDatasetOpen: arbitrary file contents must never panic Open,
// Read, ForEach, or Scan — they either decode or return an error. And
// the read modes agree: whenever a strict one-worker read succeeds, a
// tolerant read of the same file delivers the same records, with the
// same coverage, and calls it intact.
func FuzzDatasetOpen(f *testing.F) {
	// Seed with a well-formed dataset and assorted malformations.
	dir, err := os.MkdirTemp("", "uv6fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.uv6")
	w, err := Create(seedPath, Meta{Seed: 1, Users: 10, Sample: "all"})
	if err != nil {
		f.Fatal(err)
	}
	for _, o := range sample(64) {
		if err := w.Write(o); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:headerSize])
	f.Add(seed[:len(seed)-13])
	f.Add([]byte{})
	f.Add([]byte("{}"))
	golden, err := os.ReadFile("testdata/golden_v1.uv6")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:headerSize]) // a legacy header with an empty stream

	f.Fuzz(func(t *testing.T, data []byte) {
		path := fuzzFile(t, data)
		r, err := Open(path)
		if err == nil {
			r.Meta()
			for {
				if _, err := r.Read(); err != nil {
					break // io.EOF or a decode error — both acceptable
				}
			}
			r.Close()
		}
		rep, err := Scan(path)
		if err != nil {
			t.Fatalf("Scan I/O error on in-memory file: %v", err)
		}
		var n uint64
		if _, err := Salvage(path, func(telemetry.Observation) { n++ }); err == nil {
			if rep.Stream.Records != n {
				t.Fatalf("scan reported %d records, salvage emitted %d", rep.Stream.Records, n)
			}
		}
		strict, strictRep, err := readParallel(path, 1, false)
		if err != nil {
			return
		}
		tolerant, tolerantRep, err := readParallel(path, 1, true)
		if err != nil {
			t.Fatalf("strict read succeeded, tolerant failed: %v", err)
		}
		if !tolerantRep.Equal(strictRep) || !tolerantRep.Intact() {
			t.Fatalf("coverage: strict %+v, tolerant %+v", strictRep, tolerantRep)
		}
		sameRecords(t, tolerant, strict)
	})
}

// FuzzDatasetRoundTrip: any mutation of a valid dataset either opens
// and decodes some prefix without panicking, or errors; and an
// unmutated round trip through Salvage preserves every record.
func FuzzDatasetRoundTrip(f *testing.F) {
	f.Add(uint16(0), byte(0xff))
	f.Add(uint16(300), byte(0x01))
	f.Add(uint16(2000), byte(0x80))
	// The stream signature's version byte: 2 becomes 1, and a reader
	// trusting the signature would serve every v2 frame as v1 records.
	f.Add(uint16(259), byte(0x03))
	f.Fuzz(func(t *testing.T, off uint16, mask byte) {
		path := filepath.Join(t.TempDir(), "d.uv6")
		w, err := Create(path, Meta{Sample: "all"})
		if err != nil {
			t.Fatal(err)
		}
		in := sample(100)
		for _, o := range in {
			if err := w.Write(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[int(off)%len(data)] ^= mask
		mut := fuzzFile(t, data)
		if r, err := Open(mut); err == nil {
			var got []telemetry.Observation
			for {
				o, err := r.Read()
				if err != nil {
					if err != io.EOF && mask == 0 {
						t.Fatalf("unmutated dataset failed: %v", err)
					}
					break
				}
				got = append(got, o)
			}
			r.Close()
			// The v2 checksum rejects a damaged block before serving any
			// of it, so every record that *was* served must be pristine,
			// no matter where the flip landed.
			for i, o := range got {
				if int(o.UserID) >= len(in) || o != in[o.UserID] {
					t.Fatalf("served record %d is damaged: %+v", i, o)
				}
			}
		}
	})
}
