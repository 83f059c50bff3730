package faultio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeThrough(t *testing.T, fsys FS, path string, chunks ...[]byte) error {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// TestOSPassthrough: the OS filesystem behaves like the os package.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.bin")
	if err := writeThrough(t, OS, p, []byte("hello "), []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err := OS.ReadFile(p)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	q := filepath.Join(dir, "b.bin")
	if err := OS.Rename(p, q); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Stat(q); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(q); err != nil {
		t.Fatal(err)
	}
}

// TestTransientErrBudget: an err failpoint fires for its budget, then
// the operation succeeds — the retryable shape.
func TestTransientErrBudget(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "part-0000.uv6")
	if err := os.WriteFile(p, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New(OS, 1)
	if err := in.Arm("flaky@part-*.uv6:readfile:n=1:x=2:err"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := in.ReadFile(p); !errors.Is(err, ErrTransient) {
			t.Fatalf("read %d err = %v, want ErrTransient", i, err)
		}
	}
	if b, err := in.ReadFile(p); err != nil || string(b) != "data" {
		t.Fatalf("post-budget read = %q, %v", b, err)
	}
	if in.Hits("flaky") != 2 {
		t.Fatalf("hits = %d", in.Hits("flaky"))
	}
	// Other files are untouched.
	q := filepath.Join(dir, "other.txt")
	os.WriteFile(q, []byte("x"), 0o644)
	if _, err := in.ReadFile(q); err != nil {
		t.Fatalf("unmatched path injected: %v", err)
	}
}

// TestShortAndTornWrites: short writes half the buffer; torn writes a
// seeded-random prefix; both return ErrTransient and persist the
// prefix.
func TestShortAndTornWrites(t *testing.T) {
	for _, action := range []Action{ActionShort, ActionTorn} {
		t.Run(string(action), func(t *testing.T) {
			dir := t.TempDir()
			in := New(OS, 7)
			if err := in.ArmPoint(Failpoint{Path: "*.bin", Op: OpWrite, Action: action}); err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "t.bin")
			f, err := in.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			buf := bytes.Repeat([]byte{0xAB}, 100)
			n, err := f.Write(buf)
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("err = %v", err)
			}
			if action == ActionShort && n != 50 {
				t.Fatalf("short write persisted %d bytes, want 50", n)
			}
			if n < 0 || n >= 100 {
				t.Fatalf("torn write persisted %d bytes", n)
			}
			// The failpoint budget is spent: the retry goes through.
			if _, err := f.Write(buf[n:]); err != nil {
				t.Fatalf("retry write: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, _ := os.ReadFile(p)
			if !bytes.Equal(got, buf) {
				t.Fatalf("file holds %d bytes after retry, want 100", len(got))
			}
		})
	}
}

// TestCrashAtOffset: a crash failpoint tears the file at the exact
// byte and poisons every subsequent operation — renames and removes
// included, so temp files survive like they would a real crash.
func TestCrashAtOffset(t *testing.T) {
	dir := t.TempDir()
	in := New(OS, 3)
	if err := in.Arm("part-0000.uv6.tmp:write:off=150:crash"); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "part-0000.uv6.tmp")
	f, err := in.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{0x11}, 100)
	if _, err := f.Write(chunk); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write(chunk) // crosses offset 150
	if !errors.Is(err, ErrCrash) || n != 50 {
		t.Fatalf("crash write: n=%d err=%v", n, err)
	}
	if !in.Crashed() {
		t.Fatal("injector not crashed")
	}
	if _, err := f.Write(chunk); !errors.Is(err, ErrCrash) {
		t.Fatal("write after crash succeeded")
	}
	if err := f.Sync(); !errors.Is(err, ErrCrash) {
		t.Fatal("sync after crash succeeded")
	}
	f.Close()
	if err := in.Rename(tmp, filepath.Join(dir, "part-0000.uv6")); !errors.Is(err, ErrCrash) {
		t.Fatal("rename after crash succeeded")
	}
	if err := in.Remove(tmp); !errors.Is(err, ErrCrash) {
		t.Fatal("remove after crash succeeded")
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 150 {
		t.Fatalf("crashed file holds %d bytes, want exactly 150", len(got))
	}
}

// TestProbabilisticDeterminism: p-triggered faults replay identically
// from the same seed.
func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(OS, seed)
		if err := in.Arm("*:readfile:p=0.3:x=-1:err"); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		p := filepath.Join(dir, "f")
		os.WriteFile(p, []byte("x"), 0o644)
		out := make([]bool, 64)
		for i := range out {
			_, err := in.ReadFile(p)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(42), run(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.3 fired %d/%d times", fired, len(a))
	}
}

// TestSpecErrors: malformed specs are rejected with the offending
// clause named.
func TestSpecErrors(t *testing.T) {
	bad := []string{
		"x.bin:write",              // no action
		"x.bin:teleport:err",       // unknown op
		"x.bin:write:explode",      // unknown action
		"x.bin:write:n=0:err",      // bad n
		"x.bin:write:q=3:err",      // unknown trigger
		"x.bin:write:p=1.5:err",    // bad probability
		"[:write:err",              // bad glob
		"x.bin:write:off=zero:err", // bad offset
	}
	for _, s := range bad {
		in := New(OS, 0)
		if err := in.Arm(s); err == nil {
			t.Fatalf("spec %q accepted", s)
		}
	}
	in := New(OS, 0)
	if err := in.Arm(" ; part-*.uv6:write:n=2:x=-1:short ; name@*.uv6m:rename:crash"); err != nil {
		t.Fatal(err)
	}
	if got := len(in.Points()); got != 2 {
		t.Fatalf("armed %d failpoints, want 2", got)
	}
}

// readChunks reads f to the end in chunk-byte reads, recording each
// read's length and error.
func readChunks(f File, chunk int) (got []byte, ns []int, errs []error) {
	buf := make([]byte, chunk)
	for {
		n, err := f.Read(buf)
		got = append(got, buf[:n]...)
		ns, errs = append(ns, n), append(errs, err)
		if err == io.EOF || len(errs) > 64 {
			return got, ns, errs
		}
	}
}

// TestReadAtOffset: an offset failpoint on read fires on the read that
// would deliver the marked byte, after delivering the bytes before it,
// and the next read resumes at the mark. Reads before the mark are
// untouched.
func TestReadAtOffset(t *testing.T) {
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	p := filepath.Join(t.TempDir(), "x.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, action := range []Action{ActionErr, ActionShort, ActionTorn} {
		t.Run(string(action), func(t *testing.T) {
			in := New(OS, 5)
			if err := in.Arm("x.bin:read:off=5000:" + string(action)); err != nil {
				t.Fatal(err)
			}
			f, err := in.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, ns, errs := readChunks(f, 4096)
			// 4096 clean, 904 then the fault, then the rest from 5000.
			if ns[0] != 4096 || errs[0] != nil {
				t.Fatalf("read 0 = %d, %v; the fault fired before its offset", ns[0], errs[0])
			}
			if ns[1] != 904 || !errors.Is(errs[1], ErrTransient) {
				t.Fatalf("read 1 = %d, %v; want 904 bytes and ErrTransient", ns[1], errs[1])
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %d bytes, not the file's %d", len(got), len(data))
			}
			if in.TotalHits() != 1 {
				t.Fatalf("hits = %d, want 1", in.TotalHits())
			}
		})
	}

	// x=2 fires again on the read that resumes at the mark, delivering
	// nothing; a ReadAt reaching the mark tears the same way.
	in := New(OS, 5)
	if err := in.Arm("x.bin:read:off=5000:x=2:err"); err != nil {
		t.Fatal(err)
	}
	f, err := in.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 6000)
	if n, err := f.Read(buf); n != 5000 || !errors.Is(err, ErrTransient) {
		t.Fatalf("first read = %d, %v", n, err)
	}
	if n, err := f.ReadAt(buf, 4000); n != 1000 || !errors.Is(err, ErrTransient) || !bytes.Equal(buf[:n], data[4000:5000]) {
		t.Fatalf("ReadAt across the mark = %d, %v", n, err)
	}
	if n, err := f.Read(buf); n != 5000 || err != nil || !bytes.Equal(buf[:n], data[5000:]) {
		t.Fatalf("read after the budget = %d, %v", n, err)
	}
}

// TestShortAndTornReads: short reads deliver half the buffer and torn
// reads a seeded-random prefix, then ErrTransient; the next read goes
// on from where the prefix ended. A fault on the read that reaches the
// end of the file still fails it.
func TestShortAndTornReads(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 10)
	p := filepath.Join(t.TempDir(), "t.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, action := range []Action{ActionShort, ActionTorn} {
		t.Run(string(action), func(t *testing.T) {
			in := New(OS, 7)
			if err := in.ArmPoint(Failpoint{Path: "*.bin", Op: OpRead, Action: action}); err != nil {
				t.Fatal(err)
			}
			f, err := in.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			got, ns, errs := readChunks(f, 100)
			if !errors.Is(errs[0], ErrTransient) {
				t.Fatalf("read 0 err = %v, want ErrTransient", errs[0])
			}
			if action == ActionShort && ns[0] != 50 {
				t.Fatalf("short read delivered %d bytes, want 50", ns[0])
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %q, want the file", got)
			}
		})
	}

	in := New(OS, 7)
	if err := in.Arm("t.bin:read:n=2:short"); err != nil {
		t.Fatal(err)
	}
	f, err := in.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 200)
	if n, err := f.Read(buf); n != 100 || err != nil {
		t.Fatalf("first read = %d, %v", n, err)
	}
	if n, err := f.Read(buf); n != 0 || !errors.Is(err, ErrTransient) {
		t.Fatalf("faulted read at end of file = %d, %v; want 0 and ErrTransient", n, err)
	}
	if n, err := f.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("read after the fault = %d, %v; want EOF", n, err)
	}
}

// TestOffsetOnlyOnReadAndWrite: an offset trigger means something only
// for reads and writes, so arming one on any other op is refused.
func TestOffsetOnlyOnReadAndWrite(t *testing.T) {
	for op := range validOps {
		in := New(OS, 0)
		err := in.Arm("x.bin:" + string(op) + ":off=5:err")
		if ok := op == OpRead || op == OpWrite; ok != (err == nil) {
			t.Fatalf("op %s with off=: Arm error %v", op, err)
		}
		err = in.ArmPoint(Failpoint{Path: "x.bin", Op: op, Offset: 5, Action: ActionErr})
		if ok := op == OpRead || op == OpWrite; ok != (err == nil) {
			t.Fatalf("op %s with Offset 5: ArmPoint error %v", op, err)
		}
	}
}
