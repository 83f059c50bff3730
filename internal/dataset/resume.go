// Checkpoint/resume support. A partial dataset — a finalized
// interrupted run, or a torn temp file — holds a prefix of the
// canonical generation order (benign users ascending, days ascending
// within a user, then the abusive stream). Because generation is a pure
// function of (user, day), the resume point is fully determined by that
// prefix: copy the (user, day) runs that are certainly complete,
// restart deterministic generation at the first possibly-incomplete
// run, and the finished file is byte-identical to an uninterrupted run.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"userv6/internal/faultio"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

// Frontier is the resume point derived from a partial dataset: the
// first (user, day) generation batch that must be regenerated.
type Frontier struct {
	// UserID and Day name the batch to restart at (inclusive). The
	// last batch observed in the prefix is regenerated because the
	// interruption may have torn it mid-batch.
	UserID uint64
	Day    simtime.Day
	// BenignDone marks a prefix that already contains abusive records:
	// every benign batch is complete, and only the (small, serially
	// generated) abusive stream needs regenerating.
	BenignDone bool
	// Restart marks an unusable prefix (no records recovered):
	// regenerate from scratch.
	Restart bool
}

// ResumeSources returns, in the order a resume tries them, the files an
// interrupted run may have left of the dataset at path: path itself, the
// aside file a resume moves path's .tmp to while it copies from it, and
// the .tmp.
func ResumeSources(path string) []string {
	return []string{path, path + ".aside", path + ".tmp"}
}

// ResumeFS creates the dataset file at path under meta, as CreateFS
// does, starting it with the kept prefix of the first trusted source
// among ResumeSources(path), and returns the frontier and the records
// kept (Frontier.Restart and 0 when no source is trusted).
//
// A source is trusted when its header passes openDataset's accept rule
// and carries meta's config hash, and its first record is first, the
// run's own. Its prefix ends at its first damaged block or at the first
// record holds rejects. One strict walk copies it as stored records, a
// (user, day) run at a time: it holds back only the run in progress,
// the frontier, and stops at the first abusive record, since the
// abusive stream always regenerates whole.
//
// A missing or untrusted source is passed over; any other failed read
// fails the resume, naming the file. A trusted .tmp is renamed to the
// aside name before the new file truncates it, and removed once copied.
// A resume that fails or is cancelled before then discards the new file
// and leaves every source in place.
func ResumeFS(ctx context.Context, fsys faultio.FS, path string, meta Meta, first telemetry.Observation, holds func(telemetry.Observation) bool) (*Writer, Frontier, int, error) {
	srcs := ResumeSources(path)
	r := &resumeSource{}
	for _, r.path = range srcs {
		if ok, err := r.open(fsys, ConfigHash(meta), first); err != nil {
			return nil, Frontier{}, 0, err
		} else if ok {
			break
		}
	}
	if r.File == nil {
		w, err := CreateFS(fsys, path, meta)
		return w, Frontier{Restart: true}, 0, err
	}
	defer r.Close()
	if r.path == srcs[2] {
		if err := fsys.Rename(r.path, srcs[1]); err != nil {
			return nil, Frontier{}, 0, fmt.Errorf("dataset: resume: %w", err)
		}
		r.path = srcs[1]
	}
	w, err := CreateFS(fsys, path, meta)
	if err != nil {
		return nil, Frontier{}, 0, err
	}
	front, err := r.copyTo(ctx, w, holds)
	if err == nil && r.path == srcs[1] {
		err = fsys.Remove(r.path)
	}
	if err != nil {
		w.Abort()
	}
	return w, front, int(w.Records()), err
}

// resumeSource is the strict walk of a resume source: the file, whose
// first failed read it keeps in err, and its current block's records,
// stored and decoded.
type resumeSource struct {
	faultio.File
	path                  string
	err                   error
	br                    telemetry.BlockReader
	stored, scratch, recs []byte
	obs                   []telemetry.Observation
}

// open opens r.path and reads its header and first block, reporting
// whether the source is trusted; an untrusted or missing one is left
// closed, with r.File nil.
func (r *resumeSource) open(fsys faultio.FS, hash string, first telemetry.Observation) (bool, error) {
	f, err := fsys.Open(r.path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	} else if err != nil {
		return false, fmt.Errorf("dataset: resume: %w", err)
	}
	r.File = f
	// The walk, pinned to the header's version, refuses a stream of
	// another signature.
	if h, err := readHead(r); err == nil && h.hdrErr == nil && !h.raw && ConfigHash(h.meta) == hash {
		r.br.Reset(h.stream, h.pin)
		if r.next() && r.obs[0] == first {
			return true, nil
		}
	}
	f.Close()
	r.File = nil
	return false, r.err
}

// next reads the next block, reporting false at the end of the trusted
// stream (its end or its first damaged block) or on a failed read.
func (r *resumeSource) next() bool {
	b, err := r.br.Next(r.stored)
	if err == nil {
		r.stored = b.Payload
		r.recs, r.scratch, err = b.Decode(r.scratch)
		r.obs = telemetry.AppendRecords(r.obs[:0], r.recs)
	}
	return err == nil
}

// copyTo copies the trusted prefix into w from the current block on,
// each (user, day) run once it is finished, and returns the frontier.
// It checks ctx between blocks.
func (r *resumeSource) copyTo(ctx context.Context, w *Writer, holds func(telemetry.Observation) bool) (Frontier, error) {
	var run []byte // the run in progress, as stored
	var front Frontier
	for {
		for i, o := range r.obs {
			if o.Abusive && holds(o) {
				return Frontier{BenignDone: true}, w.writeRecords(run)
			} else if !holds(o) {
				return front, nil
			}
			if o.UserID != front.UserID || o.Day != front.Day {
				if err := w.writeRecords(run); err != nil {
					return front, err
				}
				run, front.UserID, front.Day = run[:0], o.UserID, o.Day
			}
			run = append(run, r.recs[i*telemetry.RecordSize:(i+1)*telemetry.RecordSize]...)
		}
		if err := ctx.Err(); err != nil {
			return front, err
		} else if !r.next() {
			return front, r.err
		}
	}
}

// Read keeps the first failed read in err: a walk that stops with err
// set stopped on the filesystem, not on damaged or foreign bytes.
func (r *resumeSource) Read(p []byte) (int, error) {
	n, err := r.File.Read(p)
	if err != nil && err != io.EOF && r.err == nil {
		r.err = fmt.Errorf("dataset: resume: read %s: %w", r.path, err)
	}
	return n, err
}
