// Merge folds the parts of a sharded export (or any list of dataset
// files) into one canonical dataset. Records are re-framed through a
// fresh writer in part order, so merging the parts of a sharded run
// reproduces, byte for byte, the dataset a single-writer run at the
// same configuration would have written. Each input goes through the
// salvage path: corrupt blocks cost only themselves, and the report
// says exactly how much of each part survived — the tolerant-merge
// shape the hitlist pipelines apply to partially damaged corpora.
//
// Two things keep the pass from being the pipeline's slowest: the
// salvage scan and record decode of each part run on their own
// goroutine, overlapping the output writer's re-encode, and a stored
// block whose frame is provably what the output writer would emit at
// that position — boundary-aligned, full, same codec — is copied
// through without being re-encoded. For a compressed sharded export
// merged at the same codec, that passthrough covers every full block up
// to the first part boundary that falls mid-block; the blocks after it
// are misaligned and re-encoded.
package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"userv6/internal/faultio"
	"userv6/internal/retry"
	"userv6/internal/telemetry"
)

// MergeOptions tunes a merge run.
type MergeOptions struct {
	// Retry is the backoff policy applied to transient I/O errors while
	// reading parts (zero value = retry defaults: 3 retries, 50ms base,
	// 2s cap, jittered). Decoding is retry-safe: a part is read fully
	// into memory before any record is emitted, so a retried read can
	// never duplicate records.
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
	// true when no expectation was available.
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

// Merge folds the given part files, in order, into one dataset at out
// carrying meta. Each part is read with capped-exponential-backoff
// retries on transient I/O errors (the shared retry policy), then
// salvaged: intact blocks are re-emitted through the output writer,
// corrupt blocks are skipped and reported. The output is finalized
// (complete, checksummed header) even when parts were damaged — the
// report says what was lost.
func Merge(out string, meta Meta, parts []string, opts *MergeOptions) (MergeReport, error) {
	return MergeCtx(context.Background(), out, meta, parts, opts)
}

// MergeCtx is Merge under a context: cancellation aborts between parts
// and interrupts any in-flight backoff sleep.
func MergeCtx(ctx context.Context, out string, meta Meta, parts []string, opts *MergeOptions) (MergeReport, error) {
	opt := opts.withDefaults()
	w, err := CreateFS(opt.FS, out, meta)
	if err != nil {
		return MergeReport{}, err
	}
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

func mergeInto(ctx context.Context, w *Writer, parts []string, opt MergeOptions) (MergeReport, error) {
	var rep MergeReport
	rep.Complete = true
	for _, path := range parts {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		cov, err := mergePart(ctx, w, path, opt)
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

func mergePart(ctx context.Context, w *Writer, path string, opt MergeOptions) (PartCoverage, error) {
	cov := PartCoverage{Name: filepath.Base(path), ChecksumOK: true, CodecOK: true}
	data, retries, err := readFileRetry(ctx, path, opt)
	cov.Retries = retries
	if err != nil {
		return cov, err
	}

	// The codec the part is supposed to be stored under: the manifest
	// entry when there is one, otherwise the part's own header. A raw
	// stream (or an unparseable header) declares nothing, so nothing is
	// checked against it.
	var declared string
	var haveDeclared bool
	want, fromManifest := opt.Expected[cov.Name]
	if fromManifest {
		cov.BlocksExpected = int(want.Blocks)
		got := fmt.Sprintf("%08x", crc32.Checksum(data, headerCastagnoli))
		cov.ChecksumOK = got == want.CRC32C
		declared, haveDeclared = want.Codec, true
	}

	// Strip the dataset header when present; a raw stream (signature at
	// byte zero) is salvaged whole; a verified header pins its version.
	stream, pin := data, 0
	if !isRawStream(data) {
		if len(data) < headerSize {
			cov.SkippedBytes = int64(len(data))
			return cov, nil
		}
		pm, err := parseHeader(data[:headerSize])
		if err == nil {
			pin = streamPin(pm)
		}
		if !haveDeclared && (err == nil || errors.Is(err, ErrHeaderCRC)) {
			declared, haveDeclared = pm.Codec, true
		}
		stream = data[headerSize:]
	}

	// Passthrough of stored frames is only provably byte-identical when
	// the part's producer ran the same per-block selection this writer
	// runs. A single-codec chain needs only the frame's codec to match
	// (the codec's own determinism covers it); a multi-codec chain picks
	// by comparing every member's output size, so the part must declare
	// the same policy — otherwise its blocks are decoded and re-encoded,
	// which costs CPU but never bytes.
	passOK := true
	if chain, ok := telemetry.CodecChainByName(w.meta.Codec); ok && len(chain) > 1 {
		passOK = haveDeclared &&
			telemetry.CanonicalPolicy(declared) == telemetry.CanonicalPolicy(w.meta.Codec)
	}

	sr, serr, werr := mergeStream(w, stream, pin, passOK)
	if werr != nil {
		return cov, werr
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
			if !opt.Tolerant {
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

// mergeQueue is how many decoded blocks a merge's scanner may run ahead
// of its writer. The per-block cost of each side swings (a passthrough
// block costs the writer almost nothing, a re-encoded one the most), and
// a few slots absorb the swings: over 30 paired merges of a 30k-user,
// 4-shard auto export on 2 vCPUs, one slot was about 6% slower than
// four, and sixteen no faster than four.
const mergeQueue = 4

// mergeStream salvages one part's stream into the output writer. A
// scanner goroutine walks the part tolerantly (the walker verifies and
// decodes each frame) and decodes every intact block's records into a
// pooled slice. The calling goroutine writes the blocks in stream
// order, so the output bytes match a sequential merge exactly. When
// passOK (the caller established policy compatibility) the writer
// first offers the stored frame to writeEncodedBlock, whose own
// precondition check (no partial block pending, a full block, a codec
// the writer could have chosen) decides passthrough; otherwise the
// block's records are re-emitted. scanErr reports an unrecognizable
// stream (non-fatal to the merge); writeErr an output-side failure.
func mergeStream(w *Writer, stream []byte, pin int, passOK bool) (rep telemetry.SalvageReport, scanErr, writeErr error) {
	type block struct {
		raw  telemetry.RawBlock
		recs []telemetry.Observation
	}
	var bufs pools
	blocks := make(chan block, mergeQueue)
	go func() {
		defer close(blocks)
		br := telemetry.NewBlockReaderVersion(bytes.NewReader(stream), pin)
		raw, dec, err := br.NextIntact(nil)
		for ; err == nil; raw, dec, err = br.NextIntact(dec) {
			// The stored payload aliases the walker's window, which moves on.
			raw.Payload = append(bufs.getPayload()[:0], raw.Payload...)
			blocks <- block{raw: raw, recs: telemetry.AppendRecords(bufs.getRecs(), dec)}
		}
		if rep = br.Report(); err != io.EOF {
			scanErr = err
		}
	}()
	// After a write error the loop keeps draining, so the scanner always
	// runs to the end of the part; rep and scanErr are set before it
	// closes the channel.
	for b := range blocks {
		if writeErr == nil {
			writeErr = writeMergedBlock(w, b.raw, b.recs, passOK)
		}
		bufs.putPayload(b.raw.Payload)
		bufs.putRecs(b.recs)
	}
	return rep, scanErr, writeErr
}

// writeMergedBlock copies raw's stored frame through when passOK and
// the writer accepts it, and otherwise writes recs, raw's decoded
// records, one by one.
func writeMergedBlock(w *Writer, raw telemetry.RawBlock, recs []telemetry.Observation, passOK bool) error {
	if passOK {
		if ok, err := w.writeEncodedBlock(raw); ok || err != nil {
			return err
		}
	}
	for _, o := range recs {
		if err := w.Write(o); err != nil {
			return err
		}
	}
	return nil
}

// readFileRetry reads path fully through the shared retry policy.
// os.ErrNotExist is terminal on the first attempt: a missing part will
// not appear by waiting.
func readFileRetry(ctx context.Context, path string, opt MergeOptions) (data []byte, retries int, err error) {
	retries, err = opt.Retry.Do(ctx, "merge:"+filepath.Base(path), func() error {
		var rerr error
		data, rerr = opt.FS.ReadFile(path)
		if os.IsNotExist(rerr) {
			return retry.Permanent(rerr)
		}
		return rerr
	})
	if err != nil {
		return nil, retries, err
	}
	return data, retries, nil
}
