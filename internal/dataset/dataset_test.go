package dataset

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func sample(n int) []telemetry.Observation {
	out := make([]telemetry.Observation, n)
	for i := range out {
		o := telemetry.Observation{
			Day:      simtime.Day(i % 7),
			UserID:   uint64(i),
			Addr:     netaddr.AddrFrom6(0x20010db8<<32, uint64(i)),
			Requests: uint32(i + 1),
			Abusive:  i%5 == 0,
		}
		o.SetCountry("US")
		out[i] = o
	}
	return out
}

func TestDatasetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.uv6")
	meta := Meta{Seed: 7, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"}
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	in := sample(500)
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Meta()
	if got.Seed != 7 || got.Users != 100 || got.Sample != "all" {
		t.Fatalf("meta = %+v", got)
	}
	if got.Records != 500 {
		t.Fatalf("records = %d", got.Records)
	}
	from, to := got.Window()
	if from != 0 || to != 6 {
		t.Fatalf("window = %v..%v", from, to)
	}
	i := 0
	if err := r.ForEach(func(o telemetry.Observation) {
		if o != in[i] {
			t.Fatalf("record %d mismatch", i)
		}
		i++
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(in) {
		t.Fatalf("read %d records", i)
	}
}

func TestDatasetEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.uv6")
	w, err := Create(path, Meta{Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	emit, errp := w.Emit()
	for _, o := range sample(10) {
		emit(o)
	}
	if *errp != nil {
		t.Fatal(*errp)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Meta().Records != 10 {
		t.Fatalf("records = %d", r.Meta().Records)
	}
}

func TestDatasetEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.uv6")
	w, err := Create(path, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Meta().Records != 0 {
		t.Fatalf("records = %d", r.Meta().Records)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestDatasetOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.uv6")); err == nil {
		t.Fatal("opened missing file")
	}
	// Garbage header.
	path := filepath.Join(t.TempDir(), "garbage.uv6")
	if err := writeFile(path, make([]byte, headerSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("parsed garbage header")
	}
	// Too-short file.
	short := filepath.Join(t.TempDir(), "short.uv6")
	if err := writeFile(short, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("opened truncated header")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// The golden fixture was written by the seed (pre-v2) code: a padded
// JSON header with no format field, followed by an unframed v1 stream
// of sample(64). It must keep decoding identically forever.
func TestGoldenV1Compat(t *testing.T) {
	r, err := Open("testdata/golden_v1.uv6")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Meta()
	if m.Seed != 7 || m.Users != 100 || m.Records != 64 || m.Sample != "all" {
		t.Fatalf("meta = %+v", m)
	}
	if m.Format != 0 || m.Complete {
		t.Fatalf("v1 meta gained v2 fields: %+v", m)
	}
	in := sample(64)
	i := 0
	if err := r.ForEach(func(o telemetry.Observation) {
		if o != in[i] {
			t.Fatalf("record %d decoded differently: %+v vs %+v", i, o, in[i])
		}
		i++
	}); err != nil {
		t.Fatal(err)
	}
	if i != 64 {
		t.Fatalf("decoded %d records, want 64", i)
	}
	// The integrity scanner must also accept v1 files as intact.
	rep, err := Scan("testdata/golden_v1.uv6")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || rep.Stream.Version != 1 || rep.Stream.Records != 64 {
		t.Fatalf("scan report = %+v", rep)
	}
}

// writeDataset writes records to a fresh dataset and returns its path.
func writeDataset(t *testing.T, in []telemetry.Observation) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.uv6")
	w, err := Create(path, Meta{Seed: 3, Users: len(in), Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRawStream writes records as a headerless v2 telemetry stream
// (userv6gen -format binary output) and returns its path.
func writeRawStream(t *testing.T, in []telemetry.Observation) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWriterV2(f)
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Acceptance: a dataset with any single corrupted byte is detected by
// the reader with a typed error, and Salvage recovers every record
// outside the damaged block.
func TestDatasetRandomFlipsDetectedAndSalvaged(t *testing.T) {
	in := sample(5000) // ~5 default-size blocks
	path := writeDataset(t, in)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		// Flip anywhere in the stream area (header flips are exercised
		// separately: JSON damage has no checksum to catch it).
		off := headerSize + rnd.Intn(len(orig)-headerSize)
		mut := append([]byte{}, orig...)
		mut[off] ^= byte(1 + rnd.Intn(255))
		p := filepath.Join(t.TempDir(), "bad.uv6")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}

		// Detection: the strict reader must fail with a typed error.
		r, err := Open(p)
		if err != nil {
			t.Fatalf("flip at %d: header refused: %v", off, err)
		}
		err = r.ForEach(func(telemetry.Observation) {})
		r.Close()
		if err == nil {
			t.Fatalf("flip at %d read cleanly", off)
		}
		if !errors.Is(err, telemetry.ErrCorrupt) && !errors.Is(err, telemetry.ErrBadMagic) &&
			!errors.Is(err, telemetry.ErrUnsupportedVersion) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
		var ce *telemetry.CorruptError
		if errors.As(err, &ce) && (ce.Offset < 0 || ce.Offset > int64(len(orig))) {
			t.Fatalf("flip at %d: implausible error offset %d", off, ce.Offset)
		}

		// Salvage: everything outside the damaged block comes back.
		var got []telemetry.Observation
		rep, err := Salvage(p, func(o telemetry.Observation) { got = append(got, o) })
		if err != nil {
			t.Fatalf("flip at %d: salvage: %v", off, err)
		}
		if rep.Stream.Records < uint64(len(in)-telemetry.DefaultBlockRecords) {
			t.Fatalf("flip at %d: only %d/%d records salvaged", off, rep.Stream.Records, len(in))
		}
		for _, o := range got {
			if int(o.UserID) >= len(in) || o != in[o.UserID] {
				t.Fatalf("flip at %d: salvage returned damaged record %+v", off, o)
			}
		}
	}
}

// Truncation at any point leaves every whole block recoverable.
func TestDatasetTruncationSalvage(t *testing.T) {
	in := sample(5000)
	path := writeDataset(t, in)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		cut := rnd.Intn(len(orig))
		p := filepath.Join(t.TempDir(), "cut.uv6")
		if err := os.WriteFile(p, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []telemetry.Observation
		rep, err := Salvage(p, func(o telemetry.Observation) { got = append(got, o) })
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if rep.Intact() && rep.HeaderOK && cut < len(orig) && rep.Stream.Records == uint64(len(in)) {
			t.Fatalf("cut at %d reported fully intact", cut)
		}
		// Recovered records are a strict prefix of the originals.
		for i, o := range got {
			if o != in[i] {
				t.Fatalf("cut at %d: recovered record %d differs", cut, i)
			}
		}
	}
}

// The bugfix satellite: Close must write temp-then-rename so a reader
// never observes a half-written dataset at the target path.
func TestDatasetAtomicClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.uv6")
	w, err := Create(path, Meta{Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sample(100) {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target path exists before Close (err=%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("temp file missing during write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after Close (err=%v)", err)
	}
	rep, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || !rep.Meta.Complete || rep.Meta.Format != FormatV2 {
		t.Fatalf("closed dataset not intact: %+v", rep)
	}
}

func TestDatasetAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.uv6")
	w, err := Create(path, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sample(10) {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("abort left files behind: %v", entries)
	}
}

// A run that dies mid-write (no Close) leaves a temp file whose header
// was refreshed at the last flush interval: Scan sees an incomplete
// file and Salvage recovers at least everything up to that flush.
func TestDatasetInterruptedRunSalvageable(t *testing.T) {
	old := headerFlushEvery
	headerFlushEvery = 1000
	defer func() { headerFlushEvery = old }()

	dir := t.TempDir()
	path := filepath.Join(dir, "d.uv6")
	w, err := Create(path, Meta{Seed: 9, Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	in := sample(3456)
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: drop the file descriptor without finalizing.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}

	tmp := path + ".tmp"
	rep, err := Scan(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HeaderOK || rep.Meta.Complete {
		t.Fatalf("torn file claims completeness: %+v", rep)
	}
	if rep.Meta.Records != 3000 {
		t.Fatalf("header records = %d, want 3000 (last flush)", rep.Meta.Records)
	}
	if rep.Intact() {
		t.Fatal("torn file reported intact")
	}
	var got []telemetry.Observation
	if _, err := Salvage(tmp, func(o telemetry.Observation) { got = append(got, o) }); err != nil {
		t.Fatal(err)
	}
	if len(got) < 3000 {
		t.Fatalf("salvaged %d records, want >= 3000", len(got))
	}
	for i, o := range got {
		if o != in[i] {
			t.Fatalf("salvaged record %d differs", i)
		}
	}
}

// Scan on a raw (headerless) telemetry stream.
func TestScanRawStream(t *testing.T) {
	path := writeRawStream(t, sample(50))
	rep, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Raw || !rep.Intact() || rep.Stream.Records != 50 {
		t.Fatalf("raw scan report = %+v", rep)
	}
}
