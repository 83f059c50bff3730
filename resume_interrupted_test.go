package userv6

// A resume that is itself interrupted — by a crash while it copies its
// kept prefix, at the rename that moves its .tmp aside or just before
// it removes the aside file, by a read error mid-copy, or by a
// cancellation mid-copy — must leave what the next resume finishes into
// the uninterrupted run, byte for byte, from no fewer kept records.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/telemetry"
)

// cancelAtRead is faultio.OS, except that it cancels a context at the
// n-th Read of the file named name.
type cancelAtRead struct {
	faultio.FS
	name   string
	n      int64
	reads  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAtRead) Open(name string) (faultio.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || filepath.Base(name) != c.name {
		return f, err
	}
	return readHook{f, c}, nil
}

type readHook struct {
	faultio.File
	c *cancelAtRead
}

func (h readHook) Read(p []byte) (int, error) {
	if h.c.reads.Add(1) == h.c.n {
		h.c.cancel()
	}
	return h.File.Read(p)
}

// resumeInterruption is one way to interrupt a resume whose source is
// the .tmp named src: a failpoint spec, or a cancellation.
type resumeInterruption struct {
	name, fault string
	cancel      bool
}

// resumeInterruptions lists them. The stored records a resume copies
// reach its new file 64 KiB at a time, so a crash at its byte 1000 is
// mid-copy when it keeps more than that.
func resumeInterruptions(src string) []resumeInterruption {
	aside := src[:len(src)-len(".tmp")] + ".aside"
	return []resumeInterruption{
		{name: "crash-copy", fault: src + ":write:off=1000:crash"},
		{name: "crash-aside-rename", fault: aside + ":rename:crash"},
		{name: "crash-aside-remove", fault: aside + ":remove:crash"},
		// The source's header and the walker's first window are its
		// first two reads: the third is mid-copy.
		{name: "read-error-copy", fault: src + ":read:n=3:err"},
		// The walker's first window is its second Read: the copy checks
		// the context after the block the window began.
		{name: "cancel-copy", cancel: true},
	}
}

// interruptResume runs resume under the interruption, which must make
// it fail, and returns the bytes of the source the next resume copies
// from: the aside file, or the .tmp when the rename never happened.
func interruptResume(t *testing.T, in resumeInterruption, srcPath string, resume func(context.Context, faultio.FS) error) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fsys faultio.FS
	if in.cancel {
		fsys = &cancelAtRead{FS: faultio.OS, name: filepath.Base(srcPath), n: 2, cancel: cancel}
	} else {
		inj := faultio.New(faultio.OS, 1)
		if err := inj.Arm(in.fault); err != nil {
			t.Fatal(err)
		}
		fsys = inj
		defer func() {
			if inj.TotalHits() != 1 {
				t.Fatalf("%s fired %d times", in.fault, inj.TotalHits())
			}
		}()
	}
	if err := resume(ctx, fsys); err == nil {
		t.Fatal("the interrupted resume succeeded")
	}
	src := srcPath[:len(srcPath)-len(".tmp")] + ".aside"
	if in.name == "crash-aside-rename" {
		src = srcPath
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("the interrupted resume left no source at %s: %v", src, err)
	}
	return raw
}

func requireNoAside(t *testing.T, dir string) {
	t.Helper()
	if m, _ := filepath.Glob(filepath.Join(dir, "*.aside")); len(m) > 0 {
		t.Fatalf("a successful resume left %v", m)
	}
}

var resumeCodecs = []string{"", "lz", "delta", "auto"}

// TestResumeInterrupted interrupts the resume of a single file, then
// resumes again.
func TestResumeInterrupted(t *testing.T) {
	const users = 600 // over 64 KiB kept under every codec
	sim := NewSim(DefaultScenario(users).WithSeed(33))
	from, to := AnalysisWeek()
	for _, codec := range resumeCodecs {
		meta := dataset.Meta{Seed: 33, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all", Codec: codec}
		want, _ := writeSingle(t, sim, filepath.Join(t.TempDir(), "week.uv6"), meta)
		cut := int64(len(want)) * 7 / 8
		for _, in := range resumeInterruptions("week.uv6.tmp") {
			t.Run(fmt.Sprintf("%s/codec=%s", in.name, codec), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "week.uv6")
				crash := faultio.New(faultio.OS, 1)
				if err := crash.Arm(fmt.Sprintf("week.uv6.tmp:write:off=%d:crash", cut)); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := sim.WriteFileFS(context.Background(), crash, path, meta, false, nil); err == nil || !crash.Crashed() {
					t.Fatalf("gen across the crash failpoint: %v", err)
				}
				torn, err := os.ReadFile(path + ".tmp")
				if err != nil {
					t.Fatal(err)
				}
				// What an uninterrupted resume of that .tmp keeps.
				ref := filepath.Join(t.TempDir(), "week.uv6")
				os.WriteFile(ref+".tmp", torn, 0o644)
				_, refKept, _, err := sim.ResumeFileFS(context.Background(), faultio.OS, ref, meta, nil)
				if err != nil || refKept == 0 {
					t.Fatalf("reference resume: kept %d, %v", refKept, err)
				}

				src := interruptResume(t, in, path+".tmp", func(ctx context.Context, fsys faultio.FS) error {
					_, _, _, err := sim.ResumeFileFS(ctx, fsys, path, meta, nil)
					return err
				})
				if !bytes.Equal(src, torn) {
					t.Fatal("the interrupted resume changed its source")
				}
				_, kept, _, err := sim.ResumeFileFS(context.Background(), faultio.OS, path, meta, nil)
				if err != nil {
					t.Fatal(err)
				}
				if kept < refKept {
					t.Fatalf("the second resume kept %d records, the first started from %d", kept, refKept)
				}
				got, err := os.ReadFile(path)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("resumed file differs from the uninterrupted run (%d vs %d bytes, %v)", len(got), len(want), err)
				}
				requireNoAside(t, filepath.Dir(path))
			})
		}
	}
}

// TestShardedResumeInterrupted interrupts the resume of part-0001 of a
// 4-shard export, then resumes again.
func TestShardedResumeInterrupted(t *testing.T) {
	const users, shards = 2400, 4 // part-0001 keeps over 64 KiB under every codec
	sim := NewSim(DefaultScenario(users).WithSeed(12))
	from, to := AnalysisWeek()
	for _, codec := range resumeCodecs {
		meta := dataset.Meta{Seed: 12, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all", Codec: codec}
		_, want := exportPristine(t, sim, t.TempDir(), shards, meta, nil)
		cut := int64(len(want["part-0001.uv6"])) * 7 / 8
		for _, in := range resumeInterruptions("part-0001.uv6.tmp") {
			t.Run(fmt.Sprintf("%s/codec=%s", in.name, codec), func(t *testing.T) {
				dir := t.TempDir()
				crash := faultio.New(faultio.OS, 1)
				if err := crash.Arm(fmt.Sprintf("part-0001.uv6.tmp:write:off=%d:crash", cut)); err != nil {
					t.Fatal(err)
				}
				if _, err := sim.ExportShardedFS(context.Background(), crash, dir, shards, meta, nil); err == nil || !crash.Crashed() {
					t.Fatalf("export across the crash failpoint: %v", err)
				}
				srcPath := filepath.Join(dir, "part-0001.uv6.tmp")
				torn, err := os.ReadFile(srcPath)
				if err != nil {
					t.Fatal(err)
				}
				src := interruptResume(t, in, srcPath, func(ctx context.Context, fsys faultio.FS) error {
					_, err := sim.ResumeShardedFS(ctx, fsys, dir, nil)
					return err
				})
				if !bytes.Equal(src, torn) {
					t.Fatal("the interrupted resume changed part-0001's source")
				}
				if _, err := sim.ResumeShardedCtx(context.Background(), dir, nil); err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, dir, want)
				requireNoAside(t, dir)
			})
		}
	}
}

// TestResumeMemoryFlat: resuming a complete file holds one walker
// window and one (user, day) run, not its records, so the bytes the
// resume allocates stay well below the records' in-memory size, which
// a resume holding the prefix in memory allocates on its own.
func TestResumeMemoryFlat(t *testing.T) {
	const users = 4000
	sim := NewSim(DefaultScenario(users).WithSeed(5))
	from, to := AnalysisWeek()
	meta := dataset.Meta{Seed: 5, Users: users, FromDay: int(from), ToDay: int(to), Sample: "all"}
	path := filepath.Join(t.TempDir(), "week.uv6")
	want, obs := writeSingle(t, sim, path, meta)
	inMemory := uint64(len(obs)) * uint64(unsafe.Sizeof(telemetry.Observation{}))
	obs = nil

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	front, kept, _, err := sim.ResumeFileFS(context.Background(), faultio.OS, path, meta, nil)
	runtime.ReadMemStats(&after)
	if err != nil || !front.BenignDone || kept == 0 {
		t.Fatalf("resume of a complete file: %+v kept %d, %v", front, kept, err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("resume allocated %d bytes for %d records; their in-memory size is %d", alloc, kept, inMemory)
	if alloc > inMemory/4 {
		t.Fatal("resume allocates with the file's size")
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed file differs (%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("resume left its .tmp (stat: %v)", err)
	}
}
