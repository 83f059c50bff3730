// Package faultio is the filesystem seam the dataset layer does its
// I/O through, plus a deterministic fault injector over it.
//
// Production code writes through the FS interface (OS is the
// passthrough implementation); tests and the `userv6gen gen -faults`
// debug flag wrap it in an Injector armed with named failpoints that
// fire transient errors, short writes, torn writes, and crash-at-offset
// faults at exact, reproducible moments. Probabilistic triggers draw
// from internal/rng, so a fault campaign is replayable from its seed.
//
// The crash action models process death: the file write that trips it
// persists only the bytes preceding the crash offset, and every
// subsequent operation through the injector fails — buffered data is
// lost, finalize renames never happen, temp files are left behind.
// That is exactly the disk state a resumable pipeline must recover
// from, which is why the sharded-resume tests drive their truncation
// sweeps through this package rather than editing files by hand.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"userv6/internal/rng"
)

// File is the handle interface dataset writers and readers use;
// *os.File implements it.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	Sync() error
}

// FS is the filesystem surface the dataset layer needs. OS passes
// through to the os package; Injector wraps any FS with failpoints.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(name string, perm os.FileMode) error
}

type osFS struct{}

func (osFS) Create(name string) (File, error)             { return os.Create(name) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// OS is the passthrough filesystem.
var OS FS = osFS{}

// Op names an instrumented filesystem operation.
type Op string

const (
	OpCreate   Op = "create"
	OpOpen     Op = "open"
	OpReadFile Op = "readfile"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpWriteAt  Op = "writeat"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
)

var validOps = map[Op]bool{
	OpCreate: true, OpOpen: true, OpReadFile: true, OpRead: true,
	OpWrite: true, OpWriteAt: true, OpSync: true, OpClose: true,
	OpRename: true, OpRemove: true,
}

// Action is what an armed failpoint does when it fires.
type Action string

const (
	// ActionErr fails the operation with ErrTransient and no side
	// effect; a retry succeeds once the failpoint's budget is spent.
	ActionErr Action = "err"
	// ActionShort performs half the requested read or write, then
	// returns ErrTransient — the classic short-write tear.
	ActionShort Action = "short"
	// ActionTorn reads or writes a seeded-random prefix of the buffer,
	// then returns ErrTransient, tearing a frame at an arbitrary byte.
	ActionTorn Action = "torn"
	// ActionCrash simulates process death at this point: the triggering
	// write persists only up to the crash offset (when the trigger is
	// offset-based), and every later operation through the injector
	// fails with ErrCrash.
	ActionCrash Action = "crash"
)

var validActions = map[Action]bool{
	ActionErr: true, ActionShort: true, ActionTorn: true, ActionCrash: true,
}

// ErrTransient is the retryable error injected by err/short/torn
// actions.
var ErrTransient = errors.New("faultio: injected transient error")

// ErrCrash is the terminal error every operation returns after a crash
// failpoint fires.
var ErrCrash = errors.New("faultio: injected crash (filesystem dead)")

// Failpoint is one armed fault site. The zero trigger values mean
// "first matching call, once".
type Failpoint struct {
	// Name identifies the failpoint in specs and hit counts; defaults
	// to "<path>:<op>" when armed unnamed.
	Name string
	// Path is a glob matched against the basename of the operated-on
	// file (filepath.Match). Empty matches everything.
	Path string
	// Op is the operation to intercept.
	Op Op
	// Nth arms the failpoint starting at the Nth matching call
	// (1-based; 0 means 1).
	Nth int
	// Times is how many matching calls fire once armed (0 means 1;
	// negative means every call forever).
	Times int
	// Offset, when positive, fires on the OpWrite that crosses it (the
	// mark lies strictly inside the write) or on the OpRead that would
	// deliver byte Offset: the write persists, or the read delivers,
	// the bytes before Offset, then the action applies. A retried read
	// resuming at Offset reaches it again, so Times counts attempts at
	// that byte. Only read and write take an offset; ArmPoint refuses
	// it on any other op. Use -1 or Nth/P triggers for
	// offset-insensitive faults.
	Offset int64
	// P, when positive, fires each matching call with probability P
	// (drawn from the injector's seeded rng) instead of counting.
	P float64
	// Action is what happens on fire.
	Action Action

	calls int // matching calls seen (Nth/Times accounting)
	hits  int // times the action fired
}

// Injector wraps an FS, arming failpoints over it. Safe for concurrent
// use.
type Injector struct {
	under   FS
	mu      sync.Mutex
	src     *rng.Source
	points  []*Failpoint
	crashed atomic.Bool
}

// New returns an Injector over under with no failpoints armed;
// probabilistic triggers draw from a stream seeded by seed.
func New(under FS, seed uint64) *Injector {
	if under == nil {
		under = OS
	}
	return &Injector{under: under, src: rng.New(rng.Derive(seed, "faultio"))}
}

// ArmPoint arms one failpoint.
func (in *Injector) ArmPoint(fp Failpoint) error {
	if !validOps[fp.Op] {
		return fmt.Errorf("faultio: unknown op %q", fp.Op)
	}
	if !validActions[fp.Action] {
		return fmt.Errorf("faultio: unknown action %q", fp.Action)
	}
	if fp.Offset > 0 && fp.Op != OpRead && fp.Op != OpWrite {
		return fmt.Errorf("faultio: op %q takes no offset trigger (only read and write do)", fp.Op)
	}
	if fp.Path != "" {
		if _, err := filepath.Match(fp.Path, "probe"); err != nil {
			return fmt.Errorf("faultio: bad path glob %q: %w", fp.Path, err)
		}
	}
	if fp.Name == "" {
		fp.Name = fp.Path + ":" + string(fp.Op)
	}
	if fp.Nth <= 0 {
		fp.Nth = 1
	}
	if fp.Times == 0 {
		fp.Times = 1
	}
	in.mu.Lock()
	in.points = append(in.points, &fp)
	in.mu.Unlock()
	return nil
}

// Hits returns how many times the named failpoint has fired.
func (in *Injector) Hits(name string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, fp := range in.points {
		if fp.Name == name {
			n += fp.hits
		}
	}
	return n
}

// TotalHits returns the number of faults injected across all
// failpoints.
func (in *Injector) TotalHits() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, fp := range in.points {
		n += fp.hits
	}
	return n
}

// Crashed reports whether a crash failpoint has fired.
func (in *Injector) Crashed() bool { return in.crashed.Load() }

// Points returns a snapshot of the armed failpoints (name, hit count)
// for debug output.
func (in *Injector) Points() []struct {
	Name string
	Hits int
} {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]struct {
		Name string
		Hits int
	}, len(in.points))
	for i, fp := range in.points {
		out[i].Name, out[i].Hits = fp.Name, fp.hits
	}
	return out
}

// hit is one fired fault: the action to apply, and for offset triggers
// the number of bytes of the current read or write to let through
// first.
type hit struct {
	action Action
	keep   int // bytes of the buffer to read or write through; -1 = action decides
}

// check consults the armed failpoints for an operation on name. off is
// the file offset before the operation and n the buffer length
// (negative when not a read or write). It returns nil when no
// failpoint fires.
func (in *Injector) check(name string, op Op, off int64, n int) *hit {
	if in.crashed.Load() {
		return &hit{action: ActionCrash, keep: 0}
	}
	base := filepath.Base(name)
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, fp := range in.points {
		if fp.Op != op {
			continue
		}
		if fp.Path != "" {
			if ok, _ := filepath.Match(fp.Path, base); !ok {
				continue
			}
		}
		if fp.Offset > 0 && (op == OpWrite || op == OpRead) {
			// Offset trigger: fire on the write that crosses the mark, or
			// on the read that would deliver it.
			first := off
			if op == OpWrite {
				first++
			}
			if fp.Offset < first || fp.Offset >= off+int64(n) {
				continue
			}
			if fp.hits >= fp.Times && fp.Times >= 0 {
				continue
			}
			fp.hits++
			if fp.Action == ActionCrash {
				in.crashed.Store(true)
			}
			return &hit{action: fp.Action, keep: int(fp.Offset - off)}
		}
		if fp.P > 0 {
			if !in.src.Bool(fp.P) {
				continue
			}
			if fp.Times >= 0 && fp.hits >= fp.Times {
				continue
			}
		} else {
			fp.calls++
			if fp.calls < fp.Nth {
				continue
			}
			if fp.Times >= 0 && fp.calls >= fp.Nth+fp.Times {
				continue
			}
		}
		fp.hits++
		if fp.Action == ActionCrash {
			in.crashed.Store(true)
		}
		return &hit{action: fp.Action, keep: -1}
	}
	return nil
}

func (in *Injector) Create(name string) (File, error) {
	if h := in.check(name, OpCreate, -1, -1); h != nil {
		return nil, in.errFor(h)
	}
	f, err := in.under.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, name: name}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if h := in.check(name, OpOpen, -1, -1); h != nil {
		return nil, in.errFor(h)
	}
	f, err := in.under.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, name: name}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if h := in.check(name, OpReadFile, -1, -1); h != nil {
		return nil, in.errFor(h)
	}
	return in.under.ReadFile(name)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if h := in.check(oldpath, OpRename, -1, -1); h != nil {
		return in.errFor(h)
	}
	if h := in.check(newpath, OpRename, -1, -1); h != nil {
		return in.errFor(h)
	}
	return in.under.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if h := in.check(name, OpRemove, -1, -1); h != nil {
		return in.errFor(h)
	}
	return in.under.Remove(name)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if in.crashed.Load() {
		return nil, ErrCrash
	}
	return in.under.Stat(name)
}

func (in *Injector) MkdirAll(name string, perm os.FileMode) error {
	if in.crashed.Load() {
		return ErrCrash
	}
	return in.under.MkdirAll(name, perm)
}

// errFor maps a fired hit to its error (crash wins over everything).
func (in *Injector) errFor(h *hit) error {
	if h.action == ActionCrash || in.crashed.Load() {
		return ErrCrash
	}
	return ErrTransient
}

// faultFile threads every file operation back through the injector's
// failpoints, tracking the sequential write offset so crash-at-offset
// faults can tear the file at an exact byte.
type faultFile struct {
	in   *Injector
	f    File
	name string
	pos  int64 // sequential position (Seek/Write/Read advance it)
}

// keep is how many bytes of an n-byte read or write a fired hit lets
// through before its error.
func (in *Injector) keep(h *hit, n int) int {
	switch {
	case h.keep >= 0:
		return h.keep
	case h.action == ActionShort:
		return n / 2
	case h.action == ActionTorn:
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.src.Intn(n + 1)
	}
	return 0
}

func (ff *faultFile) Write(p []byte) (int, error) {
	h := ff.in.check(ff.name, OpWrite, ff.pos, len(p))
	if h == nil {
		n, err := ff.f.Write(p)
		ff.pos += int64(n)
		return n, err
	}
	n := 0
	if keep := ff.in.keep(h, len(p)); keep > 0 {
		var err error
		n, err = ff.f.Write(p[:keep])
		ff.pos += int64(n)
		if err != nil {
			return n, err
		}
	}
	return n, ff.in.errFor(h)
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if h := ff.in.check(ff.name, OpWriteAt, off, len(p)); h != nil {
		return 0, ff.in.errFor(h)
	}
	return ff.f.WriteAt(p, off)
}

// Read and ReadAt deliver the prefix a fired hit lets through, then its
// error: a read that reaches the end of the file first still fails, so
// every fired fault is one the reader sees.
func (ff *faultFile) Read(p []byte) (int, error) {
	h := ff.in.check(ff.name, OpRead, ff.pos, len(p))
	if h == nil {
		n, err := ff.f.Read(p)
		ff.pos += int64(n)
		return n, err
	}
	n, err := ff.f.Read(p[:ff.in.keep(h, len(p))])
	ff.pos += int64(n)
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, ff.in.errFor(h)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	h := ff.in.check(ff.name, OpRead, off, len(p))
	if h == nil {
		return ff.f.ReadAt(p, off)
	}
	n, err := ff.f.ReadAt(p[:ff.in.keep(h, len(p))], off)
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, ff.in.errFor(h)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.in.crashed.Load() {
		return 0, ErrCrash
	}
	pos, err := ff.f.Seek(offset, whence)
	if err == nil {
		ff.pos = pos
	}
	return pos, err
}

func (ff *faultFile) Sync() error {
	if h := ff.in.check(ff.name, OpSync, -1, -1); h != nil {
		return ff.in.errFor(h)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if h := ff.in.check(ff.name, OpClose, -1, -1); h != nil {
		ff.f.Close() // release the descriptor regardless
		return ff.in.errFor(h)
	}
	return ff.f.Close()
}
