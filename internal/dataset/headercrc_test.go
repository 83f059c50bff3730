package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/telemetry"
)

// flipSeedDigit alters one digit of the seed value inside a raw header,
// the canonical silent-corruption case the header CRC exists to catch.
func flipSeedDigit(t *testing.T, raw []byte) {
	t.Helper()
	i := bytes.Index(raw[:headerSize], []byte(`"seed":`))
	if i < 0 {
		t.Fatal("no seed field in header")
	}
	i += len(`"seed":`)
	if raw[i] < '0' || raw[i] > '9' {
		t.Fatalf("seed field does not start with a digit: %q", raw[i])
	}
	// Flip to a different digit so the JSON stays valid and parseable.
	if raw[i] == '9' {
		raw[i] = '1'
	} else {
		raw[i]++
	}
}

// TestHeaderCRCDetectsSeedFlip: pre-CRC headers let a flipped seed
// digit pass silently; the self-excluding checksum closes that gap.
func TestHeaderCRCDetectsSeedFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.uv6")
	w, err := Create(path, Meta{Seed: 123456, Users: 100, FromDay: 0, ToDay: 6, Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sample(100) {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The pristine file opens and scans intact, with a CRC present.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta().HeaderCRC == "" {
		t.Fatal("new header carries no CRC")
	}
	r.Close()
	rep, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() || rep.HeaderErr != "" {
		t.Fatalf("pristine scan = %+v", rep)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipSeedDigit(t, raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path); !errors.Is(err, ErrHeaderCRC) {
		t.Fatalf("Open after seed flip: %v, want ErrHeaderCRC", err)
	}
	rep, err = Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HeaderErr == "" {
		t.Fatal("scan did not flag the flipped header")
	}
	if rep.Intact() {
		t.Fatal("scan reported a flipped header intact")
	}
	// The stream itself is untouched: salvage still recovers everything.
	if rep.Stream.Records != 100 || !rep.Stream.Intact() {
		t.Fatalf("stream after header flip = %+v", rep.Stream)
	}
}

// TestHeaderCRCLegacyHeadersStillReadable: headers written before the
// field existed carry no CRC and are accepted unchecked — v1 and early
// v2 files stay readable forever.
func TestHeaderCRCLegacyHeadersStillReadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.uv6")

	// Fabricate a pre-CRC header by writing a normal file and replacing
	// its header with a CRC-less one.
	w, err := Create(path, Meta{Seed: 7, Users: 50, FromDay: 0, ToDay: 6, Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	obs := sample(50)
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := Meta{Seed: 7, Users: 50, FromDay: 0, ToDay: 6, Sample: "all",
		Records: 50, Format: FormatV2, Complete: true}
	b, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("header_crc")) {
		t.Fatal("legacy fixture unexpectedly has a CRC field")
	}
	hdr := bytes.Repeat([]byte{' '}, headerSize)
	copy(hdr, b)
	hdr[headerSize-1] = '\n'
	copy(raw[:headerSize], hdr)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("legacy header rejected: %v", err)
	}
	defer r.Close()
	if r.Meta().HeaderCRC != "" {
		t.Fatal("legacy header grew a CRC")
	}
	n := 0
	if err := r.ForEach(func(telemetry.Observation) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("read %d records", n)
	}
	rep, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() {
		t.Fatalf("legacy scan = %+v", rep)
	}
}

// TestOpenersShareHeaderRule: Open, OpenParallel, NewFileSource and
// HeaderMeta read the header through one reader, so they accept and
// reject the same files: a headered file and a headerless raw stream
// open everywhere (the raw one with zero Meta), a flipped header digit
// fails everywhere with ErrHeaderCRC, and a garbage or short header
// fails everywhere.
func TestOpenersShareHeaderRule(t *testing.T) {
	dir := t.TempDir()
	headered := writeDataset(t, sample(100))
	b, err := os.ReadFile(headered)
	if err != nil {
		t.Fatal(err)
	}
	flipSeedDigit(t, b)
	flipped := filepath.Join(dir, "flipped.uv6")
	garbage := filepath.Join(dir, "garbage.uv6")
	short := filepath.Join(dir, "short.uv6")
	for path, data := range map[string][]byte{
		flipped: b, garbage: make([]byte, headerSize), short: []byte("tiny"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	openers := map[string]func(string) (meta Meta, raw bool, err error){
		"Open": func(p string) (Meta, bool, error) {
			r, err := Open(p)
			if err != nil {
				return Meta{}, false, err
			}
			defer r.Close()
			return r.Meta(), r.Raw(), nil
		},
		"OpenParallel": func(p string) (Meta, bool, error) {
			pr, err := OpenParallel(p, ParallelOptions{Workers: 1})
			if err != nil {
				return Meta{}, false, err
			}
			defer pr.Close()
			return pr.Meta(), pr.Raw(), nil
		},
		"NewFileSource": func(p string) (Meta, bool, error) {
			src, err := NewFileSource(p)
			if err != nil {
				return Meta{}, false, err
			}
			m, ok := src.Meta()
			return m, !ok, nil
		},
		"HeaderMeta": func(p string) (Meta, bool, error) {
			m, ok, err := HeaderMeta(p)
			return m, !ok && err == nil, err
		},
	}
	for name, open := range openers {
		meta, raw, err := open(headered)
		if err != nil || raw || meta.Records != 100 {
			t.Fatalf("%s(headered): meta %+v raw %v err %v", name, meta, raw, err)
		}
		meta, raw, err = open(writeRawStream(t, sample(50)))
		if err != nil || !raw || meta != (Meta{}) {
			t.Fatalf("%s(raw stream): meta %+v raw %v err %v", name, meta, raw, err)
		}
		if _, _, err := open(flipped); !errors.Is(err, ErrHeaderCRC) {
			t.Fatalf("%s(flipped header): err %v, want ErrHeaderCRC", name, err)
		}
		for _, bad := range []string{garbage, short} {
			if _, _, err := open(bad); err == nil || errors.Is(err, ErrHeaderCRC) {
				t.Fatalf("%s(%s): err %v, want a header read or parse error", name, filepath.Base(bad), err)
			}
		}
	}
}
