// Checkpoint/resume support. A partial dataset — a finalized
// interrupted run, or a torn temp file — holds a prefix of the
// canonical generation order (benign users ascending, days ascending
// within a user, then the abusive stream). Because generation is a pure
// function of (user, day), the resume point is fully determined by that
// prefix: re-emit the records that are certainly complete, restart
// deterministic generation at the first possibly-incomplete (user, day)
// batch, and the finished file is byte-identical to an uninterrupted
// run.
package dataset

import (
	"errors"
	"fmt"
	"io"

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

// DeriveFrontier computes the resume frontier for a record sequence in
// canonical generation order. It returns the frontier and the number of
// leading records that are certainly complete: the trailing records of
// the frontier batch itself are excluded (the batch is regenerated
// whole), and any abusive records are excluded (the abusive stream is
// not range-resumable, but it is cheap to regenerate entirely).
func DeriveFrontier(obs []telemetry.Observation) (Frontier, int) {
	if len(obs) == 0 {
		return Frontier{Restart: true}, 0
	}
	last := obs[len(obs)-1]
	if last.Abusive {
		// The run reached the abusive phase, so the benign stream is
		// complete. Keep exactly the benign prefix.
		keep := len(obs)
		for keep > 0 && obs[keep-1].Abusive {
			keep--
		}
		return Frontier{BenignDone: true}, keep
	}
	keep := len(obs)
	for keep > 0 && obs[keep-1].UserID == last.UserID && obs[keep-1].Day == last.Day {
		keep--
	}
	return Frontier{UserID: last.UserID, Day: last.Day}, keep
}

// LoadResumePrefix opens a partial dataset and returns its metadata
// plus the strictly verified record prefix: records are read through
// the checksumming reader and collection stops at the first damaged or
// truncated block, so everything returned is pristine and in canonical
// order. The header must parse and pass its CRC — a run cannot be
// resumed under metadata it cannot trust.
func LoadResumePrefix(path string) (Meta, []telemetry.Observation, error) {
	r, err := Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer r.Close()
	if r.Raw() {
		return Meta{}, nil, fmt.Errorf("dataset: resume %s: raw telemetry stream has no dataset header", path)
	}
	meta := r.Meta()
	var obs []telemetry.Observation
	for {
		o, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn tail or corrupt block ends the trusted prefix;
			// anything else (a real I/O failure) aborts the resume.
			if errors.Is(err, telemetry.ErrCorrupt) || errors.Is(err, telemetry.ErrBadMagic) {
				break
			}
			return meta, nil, fmt.Errorf("dataset: resume read: %w", err)
		}
		obs = append(obs, o)
	}
	return meta, obs, nil
}
