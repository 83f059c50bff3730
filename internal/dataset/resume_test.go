package dataset

import (
	"os"
	"path/filepath"
	"testing"

	"userv6/internal/netaddr"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// genOrdered builds records in canonical generation order: users
// ascending, days ascending within a user, perBatch records per
// (user, day) batch, optionally followed by an abusive tail.
func genOrdered(users, days, perBatch, abusive int) []telemetry.Observation {
	var out []telemetry.Observation
	for u := 0; u < users; u++ {
		for d := 0; d < days; d++ {
			for k := 0; k < perBatch; k++ {
				o := telemetry.Observation{
					Day: simtime.Day(d), UserID: uint64(u),
					Addr:     netaddr.AddrFrom6(0x20010db8<<32, uint64(u*1000+d*10+k)),
					Requests: uint32(k + 1),
				}
				o.SetCountry("US")
				out = append(out, o)
			}
		}
	}
	for k := 0; k < abusive; k++ {
		o := telemetry.Observation{
			Day: simtime.Day(days - 1), UserID: uint64(1<<40) | uint64(k),
			Addr: netaddr.AddrFrom6(0x20010db9<<32, uint64(k)), Requests: 3, Abusive: true,
		}
		o.SetCountry("RU")
		out = append(out, o)
	}
	return out
}

func TestDeriveFrontier(t *testing.T) {
	// Mid-benign interruption: the trailing (user, day) batch is
	// regenerated whole.
	obs := genOrdered(10, 3, 4, 0)
	cut := obs[:5*3*4+2*4+1] // user 5 complete, user... through (6, day 2) partial
	front, keep := DeriveFrontier(cut)
	if front.Restart || front.BenignDone {
		t.Fatalf("frontier = %+v", front)
	}
	last := cut[len(cut)-1]
	if front.UserID != last.UserID || front.Day != last.Day {
		t.Fatalf("frontier = %+v, want user %d day %d", front, last.UserID, last.Day)
	}
	if keep != 5*3*4+2*4 {
		t.Fatalf("keep = %d", keep)
	}
	for _, o := range cut[:keep] {
		if o.UserID == front.UserID && o.Day == front.Day {
			t.Fatal("kept prefix contains frontier-batch records")
		}
	}

	// Abusive tail: benign is complete; the abusive stream is dropped
	// and regenerated whole.
	obs = genOrdered(4, 2, 3, 5)
	front, keep = DeriveFrontier(obs[:len(obs)-2])
	if !front.BenignDone {
		t.Fatalf("frontier = %+v, want BenignDone", front)
	}
	if keep != 4*2*3 {
		t.Fatalf("keep = %d, want %d", keep, 4*2*3)
	}

	// Nothing recovered: restart from scratch.
	front, keep = DeriveFrontier(nil)
	if !front.Restart || keep != 0 {
		t.Fatalf("frontier = %+v keep=%d", front, keep)
	}
}

// TestLoadResumePrefixTruncated: a torn file yields the strictly
// verified prefix, and the frontier derived from it resumes at the
// right batch.
func TestLoadResumePrefixTruncated(t *testing.T) {
	defer func(n int) { headerFlushEvery = n }(headerFlushEvery)
	headerFlushEvery = 128 // force frequent flushes: many small blocks

	dir := t.TempDir()
	obs := genOrdered(40, 4, 5, 0) // 800 records, blocks of 128
	meta := Meta{Seed: 3, Users: 40, FromDay: 0, ToDay: 3, Sample: "all"}

	w, err := Create(filepath.Join(dir, "full.uv6"), meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "full.uv6"))
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through a block: 3 blocks survive whole.
	torn := filepath.Join(dir, "torn.uv6")
	cutBytes := headerSize + 4 + 3*(16+128*40) + 700
	if err := os.WriteFile(torn, raw[:cutBytes], 0o644); err != nil {
		t.Fatal(err)
	}

	gotMeta, prefix, err := LoadResumePrefix(torn)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Seed != 3 || gotMeta.Users != 40 {
		t.Fatalf("meta = %+v", gotMeta)
	}
	if len(prefix) != 3*128 {
		t.Fatalf("prefix = %d records, want %d", len(prefix), 3*128)
	}
	for i, o := range prefix {
		if o != obs[i] {
			t.Fatalf("prefix record %d mismatch", i)
		}
	}

	front, keep := DeriveFrontier(prefix)
	if front.Restart || front.BenignDone {
		t.Fatalf("frontier = %+v", front)
	}
	last := prefix[len(prefix)-1]
	if front.UserID != last.UserID || front.Day != last.Day {
		t.Fatalf("frontier = %+v, want (%d, %d)", front, last.UserID, last.Day)
	}
	// Re-emitting the kept prefix and regenerating from the frontier
	// reconstructs the full sequence exactly.
	rebuilt := append([]telemetry.Observation{}, prefix[:keep]...)
	for _, o := range obs[keep:] {
		rebuilt = append(rebuilt, o)
	}
	if len(rebuilt) != len(obs) {
		t.Fatalf("rebuilt %d records, want %d", len(rebuilt), len(obs))
	}
	for i := range rebuilt {
		if rebuilt[i] != obs[i] {
			t.Fatalf("rebuilt record %d mismatch", i)
		}
	}
}

// TestLoadResumePrefixRejectsBadHeader: a header that fails its CRC
// cannot seed a resume, and neither can a headerless raw stream, which
// Open accepts but which carries no run configuration.
func TestLoadResumePrefixRejectsBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.uv6")
	w, err := Create(path, Meta{Seed: 123456, Users: 10, FromDay: 0, ToDay: 1, Sample: "all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sample(10) {
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
	flipSeedDigit(t, raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadResumePrefix(path); err == nil {
		t.Fatal("resume from a CRC-failing header should fail")
	}
	if _, _, err := LoadResumePrefix(writeRawStream(t, sample(10))); err == nil {
		t.Fatal("resume from a raw stream should fail")
	}
}
