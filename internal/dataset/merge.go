// Merge folds the parts of a sharded export (or any list of dataset
// files) into one canonical dataset. Records are re-framed through a
// fresh writer in part order, so merging the parts of a sharded run
// reproduces, byte for byte, the dataset a single-writer run at the
// same configuration would have written. Each input goes through the
// salvage path: corrupt blocks cost only themselves, and the report
// says exactly how much of each part survived — the tolerant-merge
// shape the hitlist pipelines apply to partially damaged corpora.
//
// A merge runs in memory that does not grow with its parts: no part is
// read whole. Each streams once through one frame-walker window that
// every part of the merge shares, its bytes feeding the part's CRC32C
// as they pass, and a read that fails reopens the part and resumes at
// the byte it reached (partReader), so a retry never repeats a record.
//
// Three things keep the pass from being the pipeline's slowest. The
// salvage scan and codec decode of each part run on their own
// goroutine, and the decoded records go into the output as the bytes
// they are stored as, never converted to records and back. The output
// writer encodes its blocks on GOMAXPROCS encoder goroutines and writes
// their frames in stream order. And a stored block whose frame is
// provably what the output writer would emit at that position —
// boundary-aligned, full, same codec — is copied through without being
// re-encoded. For a compressed sharded export merged at the same codec,
// that passthrough covers every full block up to the first part
// boundary that falls mid-block; the blocks after it are misaligned and
// re-encoded.
package dataset

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"userv6/internal/faultio"
	"userv6/internal/retry"
	"userv6/internal/telemetry"
)

// MergeOptions tunes a merge run.
type MergeOptions struct {
	// Retry is the backoff policy applied to transient I/O errors while
	// reading parts (zero value = retry defaults: 3 retries, 50ms base,
	// 2s cap, jittered; retry.NoRetries turns re-attempts off). Its
	// Budget() budgets each part's re-attempts, opens and reads
	// together. A part is streamed, never held whole: a
	// failed read reopens the part and resumes at the byte offset it
	// reached, so every byte is decoded once and a retried read can
	// never duplicate records. A part that vanished or changed between
	// attempts fails the merge with *PartChangedError.
	Retry retry.Policy
	// FS is the filesystem parts are read through (nil = the real OS).
	// The fault-injection tests point it at a faultio.Injector.
	FS faultio.FS
	// Strict makes any corruption or checksum mismatch fatal instead of
	// skipped-and-reported.
	Strict bool
	// Tolerant admits parts whose observed frame codecs disagree with
	// the codec their manifest entry (or their own header) declares.
	// Outside tolerant mode such a part fails the merge with
	// ErrCodecMismatch: a mixed or mislabeled part set is a labeling
	// problem to surface, not to silently absorb.
	Tolerant bool
	// Expected, when non-nil, supplies per-part expectations (block
	// counts, whole-file checksums, codec) from a manifest, keyed by
	// part name; coverage is then reported against what the producer
	// wrote rather than against what happens to be readable.
	Expected map[string]PartInfo
}

func (o *MergeOptions) withDefaults() MergeOptions {
	out := MergeOptions{FS: faultio.OS}
	if o == nil {
		return out
	}
	out = *o
	if out.FS == nil {
		out.FS = faultio.OS
	}
	return out
}

// PartCoverage reports how much of one input part the merge recovered.
type PartCoverage struct {
	Name string
	// BlocksRecovered of BlocksExpected frames were intact.
	// BlocksExpected comes from the manifest when available, otherwise
	// from what the scan itself saw (recovered + corrupt).
	BlocksRecovered int
	BlocksExpected  int
	CorruptBlocks   int
	Records         uint64
	SkippedBytes    int64
	// Retries counts transient read errors that were retried
	// successfully.
	Retries int
	// ChecksumOK reports the whole-file CRC32C against the manifest;
	// true when no expectation was available. It is false for a part
	// whose stream is unrecognizable (no signature and no intact
	// block), which a part too short to hold a header always is.
	ChecksumOK bool
	// CodecOK reports that every intact frame's codec was one the part
	// declared (the declared codec, or identity — an encoder that did
	// not shrink a block legitimately falls back). True when nothing
	// declared a codec to check against. A tolerant merge records a
	// violation here instead of failing.
	CodecOK bool
}

// Coverage is the recovered fraction of expected blocks in [0, 1]
// (1 for an empty part).
func (c PartCoverage) Coverage() float64 {
	if c.BlocksExpected == 0 {
		return 1
	}
	return float64(c.BlocksRecovered) / float64(c.BlocksExpected)
}

// Intact reports whether the part contributed everything it was
// expected to hold.
func (c PartCoverage) Intact() bool {
	return c.ChecksumOK && c.CorruptBlocks == 0 && c.SkippedBytes == 0 &&
		c.BlocksRecovered == c.BlocksExpected
}

// MergeReport summarizes a merge: per-part coverage in input order and
// the merged totals.
type MergeReport struct {
	Parts   []PartCoverage
	Records uint64
	// Complete is true when every part was fully recovered — the merged
	// output holds everything the parts ever held.
	Complete bool
}

// MergeCtx folds the given part files, in order, into one dataset at
// out carrying meta. Each part is streamed with
// capped-exponential-backoff retries on transient I/O errors (the
// shared retry policy) and salvaged as it streams: intact blocks are
// re-emitted through the output writer, corrupt blocks are skipped and
// reported. The output is finalized (complete, checksummed header) even
// when parts were damaged — the report says what was lost. A part that
// cannot be read within its retries fails the merge: that is an I/O
// failure, not damage. Cancelling ctx aborts between parts and
// interrupts any in-flight backoff sleep.
func MergeCtx(ctx context.Context, out string, meta Meta, parts []string, opts *MergeOptions) (MergeReport, error) {
	opt := opts.withDefaults()
	w, err := CreateFS(opt.FS, out, meta)
	if err != nil {
		return MergeReport{}, err
	}
	stop := w.tw.EncodeConcurrently(runtime.GOMAXPROCS(0))
	defer stop()
	rep, err := mergeInto(ctx, w, parts, opt)
	if err != nil {
		w.Abort()
		return rep, err
	}
	if err := w.Close(); err != nil {
		return rep, err
	}
	rep.Records = w.Records()
	return rep, nil
}

// MergeManifest merges the parts listed in a manifest (resolved
// relative to the manifest's directory) into out, using the manifest's
// metadata and per-part expectations.
func MergeManifest(out, manifestPath string, opts *MergeOptions) (*Manifest, MergeReport, error) {
	return MergeManifestCtx(context.Background(), out, manifestPath, opts)
}

// MergeManifestCtx is MergeManifest under a context.
func MergeManifestCtx(ctx context.Context, out, manifestPath string, opts *MergeOptions) (*Manifest, MergeReport, error) {
	opt := opts.withDefaults()
	man, err := ReadManifestFS(opt.FS, manifestPath)
	if err != nil {
		return nil, MergeReport{}, err
	}
	dir := filepath.Dir(manifestPath)
	paths := make([]string, len(man.Parts))
	expected := make(map[string]PartInfo, len(man.Parts))
	for i, p := range man.Parts {
		paths[i] = filepath.Join(dir, p.Name)
		expected[p.Name] = p
	}
	opt.Expected = expected
	rep, err := MergeCtx(ctx, out, man.Meta, paths, &opt)
	return man, rep, err
}

// ErrCodecMismatch reports a part whose intact frames carry a codec
// its manifest entry (or its own header) did not declare. Without
// -tolerant a merge refuses such a part set outright: decoding would
// succeed block by block, but the labeling is wrong, and a mislabeled
// corpus fails later in far more confusing ways.
var ErrCodecMismatch = errors.New("dataset: part frame codec disagrees with declared codec")

// PartChangedError reports a part that vanished, or whose size or
// modification time changed, between two read attempts of one merge. A
// retried read resumes at the byte the failed one reached, which is
// only sound on the file the first attempt opened: the merge fails
// rather than splice two files.
type PartChangedError struct {
	Part   string // the part's path
	Reason string // "vanished", or how its size or modification time changed
}

func (e *PartChangedError) Error() string {
	return fmt.Sprintf("dataset: part %s changed between read attempts: %s", e.Part, e.Reason)
}

// merger is what every part of one merge shares: the output writer, one
// frame walker whose window serves part after part, and the free list
// of the buffers blocks travel in from the scanner to the writer.
type merger struct {
	w    *Writer
	opt  MergeOptions
	br   telemetry.BlockReader
	free chan blockBufs
}

// blockBufs are the buffers one block travels in: its decoded records,
// and its stored payload when it passes through.
type blockBufs struct{ recs, stored []byte }

func mergeInto(ctx context.Context, w *Writer, parts []string, opt MergeOptions) (MergeReport, error) {
	var rep MergeReport
	rep.Complete = true
	m := &merger{w: w, opt: opt, free: make(chan blockBufs, mergeQueue)}
	for range mergeQueue {
		m.free <- blockBufs{}
	}
	for _, path := range parts {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		cov, err := m.part(ctx, path)
		if err != nil {
			return rep, fmt.Errorf("dataset: merge %s: %w", path, err)
		}
		rep.Parts = append(rep.Parts, cov)
		if !cov.Intact() {
			rep.Complete = false
			if opt.Strict {
				return rep, fmt.Errorf("dataset: merge %s: part damaged (%d/%d blocks intact) in strict mode",
					path, cov.BlocksRecovered, cov.BlocksExpected)
			}
		}
	}
	return rep, nil
}

func (m *merger) part(ctx context.Context, path string) (PartCoverage, error) {
	cov := PartCoverage{Name: filepath.Base(path), ChecksumOK: true, CodecOK: true}
	pr, err := openPart(ctx, m.opt, path)
	if err != nil {
		return cov, err
	}
	defer pr.close()

	// The codec the part is supposed to be stored under: the manifest
	// entry when there is one, otherwise the part's own header. A raw
	// stream (or an unparseable header) declares nothing, so nothing is
	// checked against it.
	var declared string
	var haveDeclared bool
	want, fromManifest := m.opt.Expected[cov.Name]
	if fromManifest {
		cov.BlocksExpected = int(want.Blocks)
		declared, haveDeclared = want.Codec, true
	}

	h, err := readHead(pr)
	if err != nil {
		return cov, err
	}
	if !haveDeclared && h.parsed() {
		declared, haveDeclared = h.meta.Codec, true
	}

	// Passthrough of stored frames is only provably byte-identical when
	// the part's producer ran the same per-block selection this writer
	// runs. A single-codec chain needs only the frame's codec to match
	// (the codec's own determinism covers it); a multi-codec chain picks
	// by comparing every member's output size, so the part must declare
	// the same policy — otherwise its blocks are decoded and re-encoded,
	// which costs CPU but never bytes.
	passOK := true
	if chain, ok := telemetry.CodecChainByName(m.w.meta.Codec); ok && len(chain) > 1 {
		passOK = haveDeclared &&
			telemetry.CanonicalPolicy(declared) == telemetry.CanonicalPolicy(m.w.meta.Codec)
	}

	sr, serr, werr := m.stream(h.stream, h.pin, passOK)
	if werr != nil {
		return cov, werr
	}
	// The walk read the part to its end, so this drains nothing but
	// returns a read that still failed once its retries were spent: that
	// fails the merge rather than count as damage.
	_, err = io.Copy(io.Discard, pr)
	cov.Retries = pr.retries
	if err != nil {
		return cov, err
	}
	if fromManifest {
		cov.ChecksumOK = fmt.Sprintf("%08x", pr.crc) == want.CRC32C
	}
	cov.BlocksRecovered = sr.Blocks
	cov.CorruptBlocks = sr.CorruptBlocks
	cov.Records = sr.Records
	cov.SkippedBytes = sr.SkippedBytes
	if cov.BlocksExpected == 0 {
		cov.BlocksExpected = sr.Blocks + sr.CorruptBlocks
	}
	if serr != nil {
		// An unrecognizable stream recovers nothing but does not abort
		// the merge: the other parts still count. Strict mode surfaces
		// it through the damaged-part check.
		cov.ChecksumOK = false
	}
	if haveDeclared {
		if err := CheckPartCodecs(declared, sr.Codecs); err != nil {
			cov.CodecOK = false
			if !m.opt.Tolerant {
				return cov, err
			}
		}
	}
	return cov, nil
}

// CheckPartCodecs verifies the codecs observed across a part's intact
// frames against the compression policy the part declares. The allowed
// set is the policy's codec chain plus identity: a writer under any
// policy falls back to identity per block when encoding does not pay,
// so identity frames inside an "lz" part are legitimate, and an "auto"
// part may mix delta, lz, and identity — but an lz frame inside an
// undeclared part is not. Merge runs it per part; direct manifest
// analysis reuses the same check on each part's read coverage.
func CheckPartCodecs(declared string, observed telemetry.CodecSet) error {
	chain, ok := telemetry.CodecChainByName(declared)
	if !ok {
		return fmt.Errorf("%w: part declares codec %q, unknown to this build", ErrCodecMismatch, declared)
	}
	allowed := telemetry.CodecSet(0)
	allowed.Add(telemetry.CodecIdentity)
	for _, c := range chain {
		allowed.Add(c.ID())
	}
	var bad []string
	for id := 0; id < 32; id++ {
		cid := telemetry.CodecID(id)
		if observed.Has(cid) && !allowed.Has(cid) {
			bad = append(bad, cid.String())
		}
	}
	if len(bad) > 0 {
		name := telemetry.CanonicalPolicy(declared)
		if name == "" {
			name = "identity"
		}
		return fmt.Errorf("%w: declared %q, found frames under %s", ErrCodecMismatch,
			name, strings.Join(bad, ", "))
	}
	return nil
}

// mergeQueue is how many blocks of a part may be in flight between the
// merge's scanner and its writer, and so how many buffer pairs the merge
// allocates. With blocks encoded concurrently the writer's own share of
// a block is a copy, and the encoders' queue absorbs the swings in
// per-block cost: over 10 alternating rounds of 10 merges of a
// 30k-user, 4-shard auto export on 2 vCPUs, one, two and four slots
// took 0.160, 0.159 and 0.162 s (medians) and allocated 1.68, 1.74 and
// 1.85 MB per merge. Two let the scanner decode a block while the
// writer holds the one before it.
const mergeQueue = 2

// mergeBlock is one intact block of a part on its way from the merge's
// scanner to its writer: its records as stored, decoded into bufs.recs,
// and when pass, its stored frame, whose Payload is bufs.stored.
type mergeBlock struct {
	bufs  blockBufs
	frame telemetry.RawBlock
	pass  bool
}

// stream salvages one part's stream into the output writer. A scanner
// goroutine walks the part tolerantly through the merge's one walker,
// which verifies each frame and decodes it into a buffer from the free
// list. The calling goroutine writes the blocks in stream order, so the
// output bytes match a sequential merge exactly: a block's records go
// into the output as stored (Writer.writeRecords), with no conversion to
// records and back. When passOK (the caller established policy
// compatibility), the scanner also copies out the stored payload of each
// block that starts an output block, is full, and is under a codec the
// writer could have chosen, and the writer offers that frame to
// writeEncodedBlock, whose own precondition check decides passthrough.
// scanErr reports an unrecognizable stream (non-fatal to the merge) or a
// failed read; writeErr an output-side failure.
func (m *merger) stream(r io.Reader, pin int, passOK bool) (rep telemetry.SalvageReport, scanErr, writeErr error) {
	blocks := make(chan mergeBlock, mergeQueue)
	m.br.Reset(r, pin)
	// out is the output's record count before the next block: the blocks
	// written before it were full unless a header refresh flushed a
	// partial one, which only happens when headerFlushEvery is not a
	// multiple of the block size. A block predicted to start an output
	// block that does not is re-encoded, which costs CPU but never bytes.
	out := m.w.Records()
	passable := func(b telemetry.RawBlock) bool {
		return passOK && out%telemetry.DefaultBlockRecords == 0 &&
			b.Count == telemetry.DefaultBlockRecords && m.w.tw.CodecCompatible(b.Codec)
	}
	go func() {
		defer close(blocks)
		for {
			bufs := <-m.free
			raw, recs, err := m.br.NextIntact(bufs.recs)
			if err != nil {
				m.free <- bufs
				if rep = m.br.Report(); err != io.EOF {
					scanErr = err
				}
				return
			}
			b := mergeBlock{bufs: blockBufs{recs: recs, stored: bufs.stored}}
			if passable(raw) {
				// The stored payload aliases the walker's window, which moves on.
				b.bufs.stored = append(b.bufs.stored[:0], raw.Payload...)
				b.frame, b.frame.Payload, b.pass = raw, b.bufs.stored, true
			}
			out += uint64(raw.Count)
			blocks <- b
		}
	}()
	// A panic an encoder re-raises on this goroutine leaves blocks
	// unread; draining them lets the scanner run to its end.
	defer func() {
		for b := range blocks {
			m.free <- b.bufs
		}
	}()
	// After a write error the loop keeps draining, so the scanner always
	// runs to the end of the part; rep and scanErr are set before it
	// closes the channel.
	for b := range blocks {
		if writeErr == nil {
			writeErr = m.write(b)
		}
		m.free <- b.bufs
	}
	return rep, scanErr, writeErr
}

// write writes b's stored frame through when it passes through, and
// otherwise its records.
func (m *merger) write(b mergeBlock) error {
	if b.pass {
		if ok, err := m.w.writeEncodedBlock(b.frame); ok || err != nil {
			return err
		}
	}
	return m.w.writeRecords(b.bufs.recs)
}

// partReader reads one part of a merge from its first byte to its last,
// delivering each byte once however its reads fail, and feeds every
// byte it delivers into the part's CRC32C. A failed read drops the
// handle; the next Read reopens the part, seeks to the offset reached
// and reads on, backing off under the merge's retry policy. One budget
// of Retry.Budget() re-attempts covers the part's opens and reads. A part
// that vanished, or whose size or modification time changed, between
// attempts fails with *PartChangedError; a read that fails once the
// budget is spent fails for good.
type partReader struct {
	ctx   context.Context
	fsys  faultio.FS
	path  string
	pol   retry.Policy
	left  int          // the part's re-attempts left
	f     faultio.File // nil from a failed read until the reopen
	cause error        // the failure that dropped f
	off   int64        // bytes delivered
	size  int64        // at the first open (-1 before it)
	mod   time.Time    // at the first open
	crc   uint32
	// retries counts the re-attempts made; err is set once the part
	// cannot be read.
	retries int
	err     error
}

// openPart opens path for a merge under opt's retry policy. A part
// that does not exist fails at once: it will not appear by waiting.
func openPart(ctx context.Context, opt MergeOptions, path string) (*partReader, error) {
	p := &partReader{ctx: ctx, fsys: opt.FS, path: path, pol: opt.Retry, left: opt.Retry.Budget(), size: -1}
	if err := p.retry(nil, p.open); err != nil {
		return nil, err
	}
	return p, nil
}

// retry runs fn under the part's retry policy and charges the
// re-attempts to its budget. failed, when non-nil, is a failure that
// has already happened: Do is handed it as the first attempt's result,
// so it backs off before calling fn.
func (p *partReader) retry(failed error, fn func() error) error {
	label := "merge:" + filepath.Base(p.path)
	if p.left == 0 && failed != nil {
		return fmt.Errorf("retry: %s: after %d retries: %w", label, p.retries, failed)
	}
	pol := p.pol
	pol.MaxRetries = cmp.Or(p.left, retry.NoRetries)
	n, err := pol.Do(p.ctx, label, func() error {
		if err := failed; err != nil {
			failed = nil
			return err
		}
		return fn()
	})
	p.retries += n
	p.left -= n
	return err
}

// open opens the part and seeks to the offset reached. The first open
// records the part's size and modification time; a reopen that finds
// either changed, or the part gone, fails for good.
func (p *partReader) open() error {
	f, err := p.fsys.Open(p.path)
	if err != nil {
		return p.openErr(err)
	}
	fi, err := p.fsys.Stat(p.path)
	if err != nil {
		f.Close()
		return p.openErr(err)
	}
	switch {
	case p.size < 0:
		p.size, p.mod = fi.Size(), fi.ModTime()
	case fi.Size() != p.size || !fi.ModTime().Equal(p.mod):
		f.Close()
		return retry.Permanent(&PartChangedError{Part: p.path, Reason: fmt.Sprintf(
			"%d bytes modified %s, was %d bytes modified %s", fi.Size(),
			fi.ModTime().Format(time.RFC3339Nano), p.size, p.mod.Format(time.RFC3339Nano))})
	}
	if _, err := f.Seek(p.off, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	p.f = f
	return nil
}

// openErr classifies a failed open or stat: a missing part is final,
// and a part that was there at the first open has vanished.
func (p *partReader) openErr(err error) error {
	switch {
	case !errors.Is(err, fs.ErrNotExist):
		return err
	case p.size < 0:
		return retry.Permanent(err)
	}
	return retry.Permanent(&PartChangedError{Part: p.path, Reason: "vanished"})
}

// Read delivers the part's next bytes. After a failed read it first
// reopens the part at the offset reached, within the retry budget.
func (p *partReader) Read(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.f != nil {
		if n, err := p.read(b); n > 0 || p.f != nil {
			return n, err
		}
	}
	var n int
	var rerr error
	err := p.retry(p.cause, func() error {
		if err := p.open(); err != nil {
			return err
		}
		if n, rerr = p.read(b); n == 0 && p.f == nil {
			return p.cause
		}
		return nil
	})
	if err != nil {
		p.err = err
		return 0, err
	}
	return n, rerr
}

// read reads from the open handle, counting what it delivers into the
// offset and the checksum. A failure other than io.EOF drops the handle
// and is kept as the cause of the retry to come; read reports the
// bytes delivered before it and no error.
func (p *partReader) read(b []byte) (int, error) {
	n, err := p.f.Read(b)
	p.off += int64(n)
	p.crc = crc32.Update(p.crc, headerCastagnoli, b[:n])
	if err != nil && err != io.EOF {
		p.f.Close()
		p.f, p.cause = nil, err
		return n, nil
	}
	return n, err
}

func (p *partReader) close() {
	if p.f != nil {
		p.f.Close()
	}
}
