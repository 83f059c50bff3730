package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"userv6/internal/faultio"
	"userv6/internal/retry"
	"userv6/internal/telemetry"
)

// resumeFixture is a 4-part auto export of 6000 records, cut mid-block,
// and the single-writer file a merge of its parts must reproduce.
type resumeFixture struct {
	meta     Meta
	single   []byte
	parts    []string
	expected map[string]PartInfo
	frames   [][]resumeFrame // per part: every frame's file offset and payload length
	sizes    []int64
}

type resumeFrame struct {
	off     int64
	payload int
}

func newResumeFixture(t testing.TB) *resumeFixture {
	t.Helper()
	dir := t.TempDir()
	fx := &resumeFixture{
		meta:     Meta{Seed: 17, Users: 6000, FromDay: 0, ToDay: 6, Sample: "all", Codec: "auto"},
		expected: map[string]PartInfo{},
	}
	obs := sample(6000)
	single := filepath.Join(dir, "single.uv6")
	writePart(t, single, fx.meta, obs)
	var err error
	if fx.single, err = os.ReadFile(single); err != nil {
		t.Fatal(err)
	}
	lo := 0
	for i, hi := range []int{1500, 3100, 4600, 6000} {
		p := filepath.Join(dir, fmt.Sprintf("part-%04d.uv6", i))
		info := writePart(t, p, fx.meta, obs[lo:hi])
		info.Codec = fx.meta.Codec
		fx.expected[info.Name] = info
		fx.parts = append(fx.parts, p)
		lo = hi

		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fx.sizes = append(fx.sizes, int64(len(raw)))
		var frames []resumeFrame
		br := telemetry.NewBlockReaderVersion(bytes.NewReader(raw[headerSize:]), 2)
		for {
			b, err := br.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, resumeFrame{off: headerSize + b.Offset, payload: len(b.Payload)})
		}
		if len(frames) < 2 {
			t.Fatalf("part %d has %d frames, the fixture wants at least 2", i, len(frames))
		}
		fx.frames = append(fx.frames, frames)
	}
	return fx
}

// offset picks a byte of part i inside region r: 0 the dataset header,
// 1 a frame header, 2 a frame payload, 3 the last byte.
func (fx *resumeFixture) offset(i int, r uint8, pos uint32) int64 {
	frames := fx.frames[i]
	f := frames[int(pos)%len(frames)]
	switch r % 4 {
	case 0:
		return 1 + int64(pos)%(headerSize-1)
	case 1:
		return f.off + int64(pos)%16
	case 2:
		return f.off + 16 + int64(pos)%int64(f.payload)
	}
	return fx.sizes[i] - 1
}

// noSleep is a retry policy that backs off without waiting.
func noSleep(maxRetries int) retry.Policy {
	return retry.Policy{MaxRetries: maxRetries, NoJitter: true,
		Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }}
}

var resumeActions = []faultio.Action{faultio.ActionErr, faultio.ActionShort, faultio.ActionTorn}

// FuzzMergeResume tears every part's reads of a 4-part auto export: at
// an offset in each of the four regions (header, frame header, payload,
// last byte — one per part, rotating with the input), fired up to three
// times there, and on one counted read call that errs, reads short or
// tears. However the reads fail, the merge resumes each part at the
// byte it reached: the merged file is the single-writer file byte for
// byte, each part's Retries is the number of faults fired on it, and
// every part contributes exactly its records, none twice.
func FuzzMergeResume(f *testing.F) {
	fx := newResumeFixture(f)
	for r := uint8(0); r < 4; r++ {
		for a := uint8(0); a < 3; a++ {
			f.Add(r, a, uint32(r)*977+uint32(a)*31, uint8(a), uint8(r+a))
		}
	}
	f.Add(uint8(3), uint8(1), uint32(0), uint8(2), uint8(0))
	f.Add(uint8(1), uint8(2), uint32(1<<31), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, region, action uint8, pos uint32, times, nth uint8) {
		in := faultio.New(faultio.OS, uint64(pos))
		for i, p := range fx.parts {
			base := filepath.Base(p)
			if err := in.ArmPoint(faultio.Failpoint{
				Name: fmt.Sprintf("p%d", i), Path: base, Op: faultio.OpRead,
				Offset: fx.offset(i, region+uint8(i), pos+uint32(i)*7919),
				Times:  1 + int(times%3), Action: resumeActions[(int(action)+i)%3],
			}); err != nil {
				t.Fatal(err)
			}
			if err := in.ArmPoint(faultio.Failpoint{
				Name: fmt.Sprintf("p%d", i), Path: base, Op: faultio.OpRead, Offset: -1,
				Nth: 1 + int(nth+uint8(i))%4, Action: resumeActions[(int(action)+i+1)%3],
			}); err != nil {
				t.Fatal(err)
			}
		}
		out := filepath.Join(t.TempDir(), "merged.uv6")
		rep, err := MergeCtx(context.Background(), out, fx.meta, fx.parts, &MergeOptions{
			FS: in, Retry: noSleep(16), Expected: fx.expected, Strict: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, cov := range rep.Parts {
			// Every part's offset fault lies inside it, so fires.
			if fired := in.Hits(fmt.Sprintf("p%d", i)); cov.Retries != fired || fired == 0 {
				t.Errorf("part %d: %d retries, %d faults fired", i, cov.Retries, fired)
			}
			if want := fx.expected[cov.Name].Records; cov.Records != want || !cov.Intact() {
				t.Errorf("part %d: %d records (want %d), coverage %+v", i, cov.Records, want, cov)
			}
		}
		if rep.Records != 6000 {
			t.Errorf("merged %d records, want 6000", rep.Records)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fx.single) {
			t.Fatalf("merged file (%d bytes) differs from the single-writer file (%d bytes)", len(got), len(fx.single))
		}
	})
}

// TestMergeResumeFailures: the failures a resumed read must not paper
// over. A fault that never clears spends the part's retry budget and
// fails the merge naming the part; a part rewritten, touched or removed
// between attempts fails with *PartChangedError instead of splicing two
// files; a missing part fails at once; and failed opens draw on the
// same budget as failed reads.
func TestMergeResumeFailures(t *testing.T) {
	fx := newResumeFixture(t)
	victim := fx.parts[2]
	mid := fx.offset(2, 2, 3)
	type result struct {
		rep   MergeReport
		err   error
		slept int
		in    *faultio.Injector
	}
	run := func(t *testing.T, spec string, parts []string, onSleep func()) result {
		t.Helper()
		in := faultio.New(faultio.OS, 1)
		if err := in.Arm(spec); err != nil {
			t.Fatal(err)
		}
		res := result{in: in}
		pol := noSleep(3)
		pol.Sleep = func(ctx context.Context, _ time.Duration) error {
			res.slept++
			if onSleep != nil {
				onSleep()
			}
			return ctx.Err()
		}
		out := filepath.Join(t.TempDir(), "merged.uv6")
		res.rep, res.err = MergeCtx(context.Background(), out, fx.meta, parts, &MergeOptions{FS: in, Retry: pol, Expected: fx.expected})
		if res.err != nil {
			if _, err := os.Stat(out + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("failed merge left its temp file (stat err %v)", err)
			}
		}
		return res
	}
	// rewrite replaces the victim with a copy of itself changed by edit.
	rewrite := func(t *testing.T, edit func(path string, raw []byte) error) func() {
		raw, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := os.WriteFile(victim, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		return func() {
			if err := edit(victim, bytes.Clone(raw)); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("fault-never-clears", func(t *testing.T) {
		res := run(t, fmt.Sprintf("stuck@part-0002.uv6:read:off=%d:x=-1:torn", mid), fx.parts, nil)
		if !errors.Is(res.err, faultio.ErrTransient) || !strings.Contains(res.err.Error(), "part-0002.uv6") {
			t.Fatalf("merge error %v, want the transient read error naming part-0002.uv6", res.err)
		}
		if res.slept != 3 || res.in.Hits("stuck") != 4 {
			t.Fatalf("slept %d times over %d faults, want the budget of 3 retries spent", res.slept, res.in.Hits("stuck"))
		}
		if len(res.rep.Parts) != 2 {
			t.Fatalf("report holds %d parts; the unreadable part must not be reported as damage", len(res.rep.Parts))
		}
	})

	changed := map[string]func(path string, raw []byte) error{
		"grown": func(path string, raw []byte) error {
			return os.WriteFile(path, append(raw, 0), 0o644)
		},
		"touched": func(path string, raw []byte) error {
			return os.Chtimes(path, time.Time{}, time.Now().Add(time.Hour))
		},
		"rewritten": func(path string, raw []byte) error {
			raw[len(raw)-1] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				return err
			}
			return os.Chtimes(path, time.Time{}, time.Now().Add(2*time.Hour))
		},
		"vanished": func(path string, raw []byte) error { return os.Remove(path) },
	}
	for name, edit := range changed {
		t.Run(name, func(t *testing.T) {
			res := run(t, fmt.Sprintf("part-0002.uv6:read:off=%d:err", mid), fx.parts, rewrite(t, edit))
			var pce *PartChangedError
			if !errors.As(res.err, &pce) || pce.Part != victim {
				t.Fatalf("merge error %v, want *PartChangedError naming %s", res.err, victim)
			}
			if name == "vanished" && pce.Reason != "vanished" {
				t.Fatalf("reason %q, want vanished", pce.Reason)
			}
			if res.slept != 1 {
				t.Fatalf("slept %d times; a changed part must not be retried", res.slept)
			}
		})
	}

	t.Run("missing-part", func(t *testing.T) {
		missing := filepath.Join(filepath.Dir(victim), "part-0009.uv6")
		res := run(t, "", []string{fx.parts[0], missing}, nil)
		var pce *PartChangedError
		if !errors.Is(res.err, fs.ErrNotExist) || errors.As(res.err, &pce) {
			t.Fatalf("merge error %v, want the part's not-exist error", res.err)
		}
		if res.slept != 0 {
			t.Fatalf("missing part slept %d times before failing", res.slept)
		}
	})

	t.Run("open-faults-share-the-budget", func(t *testing.T) {
		res := run(t, fmt.Sprintf("part-0002.uv6:open:n=1:x=2:err;part-0002.uv6:read:off=%d:err", mid), fx.parts, nil)
		if res.err != nil {
			t.Fatal(res.err)
		}
		if got := res.rep.Parts[2].Retries; got != 3 || !res.rep.Complete {
			t.Fatalf("part-0002 retried %d times (want 3), complete=%v", got, res.rep.Complete)
		}
		res = run(t, fmt.Sprintf("part-0002.uv6:open:n=1:x=2:err;part-0002.uv6:read:off=%d:x=2:err", mid), fx.parts, nil)
		if !errors.Is(res.err, faultio.ErrTransient) {
			t.Fatalf("merge error %v, want the budget spent on two opens and two reads", res.err)
		}
	})
}
