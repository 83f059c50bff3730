package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"userv6/internal/netaddr"
	"userv6/internal/netmodel"
	"userv6/internal/rng"
	"userv6/internal/simtime"
)

func sampleObs() []Observation {
	mk := func(uid uint64, addr string, day int, asn uint32, cc string, reqs uint32, abusive bool) Observation {
		o := Observation{
			Day:      simtime.Day(day),
			UserID:   uid,
			Addr:     netaddr.MustParseAddr(addr),
			ASN:      netmodel.ASN(asn),
			Requests: reqs,
			Abusive:  abusive,
		}
		o.SetCountry(cc)
		return o
	}
	return []Observation{
		mk(1, "10.0.0.1", 0, 7922, "US", 3, false),
		mk(281474976710656, "2001:db8::dead:beef", 87, 20057, "IN", 1, true),
		mk(42, "2002:102:304::1", 15, 64512, "ZZ", 1000000, false),
		mk(0, "255.255.255.255", 1, 0, "DE", 1, false),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := sampleObs()
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Fatalf("count = %d", w.Count())
	}

	r := NewReader(&buf)
	for i, want := range in {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	r := NewReader(bytes.NewBufferString("nope-not-telemetry"))
	if _, err := r.Read(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewBuffer(nil))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleObs()[0]); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewBuffer(trunc))
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record read succeeded")
	}
}

func TestForEach(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, o := range sampleObs() {
		w.Write(o)
	}
	w.Flush()
	n := 0
	if err := NewReader(&buf).ForEach(func(Observation) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != len(sampleObs()) {
		t.Fatalf("visited %d", n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	in := sampleObs()
	for _, o := range in {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for i, want := range in {
		if !jsonlLineIs(dec, want) {
			t.Fatalf("line %d does not decode to %+v", i, want)
		}
	}
	if dec.More() {
		t.Fatal("lines past the last record")
	}
}

// jsonlLineIs reports whether dec's next JSON line carries o's fields.
func jsonlLineIs(dec *json.Decoder, o Observation) bool {
	var j jsonObs
	if dec.Decode(&j) != nil {
		return false
	}
	addr, err := netaddr.ParseAddr(j.Addr)
	return err == nil && addr == o.Addr && simtime.Day(j.Day) == o.Day && j.User == o.UserID &&
		netmodel.ASN(j.ASN) == o.ASN && j.Country == o.CountryCode() && j.Requests == o.Requests && j.Abusive == o.Abusive
}

// Property: random observations survive both codecs.
func TestCodecRoundTripProperty(t *testing.T) {
	src := rng.New(99)
	f := func(uid uint64, hi, lo uint64, day uint8, asn uint32, reqs uint32, abusive, v4 bool) bool {
		var addr netaddr.Addr
		if v4 {
			addr = netaddr.AddrFrom4(uint32(lo))
		} else {
			addr = netaddr.AddrFrom6(hi, lo)
		}
		o := Observation{
			Day:      simtime.Day(day),
			UserID:   uid,
			Addr:     addr,
			ASN:      netmodel.ASN(asn),
			Requests: reqs,
			Abusive:  abusive,
		}
		o.SetCountry([]string{"US", "IN", "BR", "DE"}[src.Intn(4)])

		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(o) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).Read()
		if err != nil || got != o {
			return false
		}

		var jbuf bytes.Buffer
		jw := NewJSONLWriter(&jbuf)
		if jw.Write(o) != nil || jw.Flush() != nil {
			return false
		}
		return jsonlLineIs(json.NewDecoder(&jbuf), o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCountryCodeHelpers(t *testing.T) {
	var o Observation
	o.SetCountry("US")
	if o.CountryCode() != "US" {
		t.Fatalf("CountryCode = %q", o.CountryCode())
	}
	o.SetCountry("X") // too short: ignored
	if o.CountryCode() != "US" {
		t.Fatalf("short code overwrote: %q", o.CountryCode())
	}
}
