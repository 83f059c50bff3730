package userv6

// Sharded dataset export: the scale-out path for dataset generation.
// Instead of funneling every shard's observations through one writer,
// each generation shard streams directly into its own part-NNNN.uv6
// dataset file, and a manifest.uv6m binds the parts together (seed,
// config hash, per-part user ranges, block counts, checksums). Merging
// the parts with dataset.MergeManifest reproduces, byte for byte, the
// file a single-writer run would have written — so export throughput
// scales with cores (and, by splitting user ranges, with machines)
// without giving up the canonical artifact.
//
// The export is crash-survivable end to end. A provisional manifest —
// every expected part with its user range, zero counts, no checksums,
// Complete false — is written before generation starts; each part is
// finalized the moment it is filled and its manifest entry (records,
// blocks, whole-file CRC) is rewritten atomically. An interrupted or
// faulted run therefore always leaves dir in a state ResumeShardedCtx
// can finish from: finalized parts are recognized by their recorded
// checksum, everything else (torn temp files, partial parts, missing
// parts) is salvaged to its last intact frame and only the missing
// suffix is regenerated. The resumed output — parts and manifest both
// — is byte-identical to an uninterrupted run.
//
// Export, sharded resume and single-file resume (ResumeFileFS) write
// every file through one filler, fillFile, and fill a manifest's parts
// through one runner, fillParts.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/telemetry"
)

// PartName returns the canonical filename of part i of a sharded
// export.
func PartName(i int) string { return fmt.Sprintf("part-%04d.uv6", i) }

// shardedRun is the shared bookkeeping of an export or resume pass:
// the manifest under construction and the lock serializing its
// incremental rewrites (part finalizations race on part goroutines).
type shardedRun struct {
	fsys faultio.FS
	dir  string
	mu   sync.Mutex
	man  *dataset.Manifest
}

func (r *shardedRun) manifestPath() string {
	return filepath.Join(r.dir, dataset.ManifestName)
}

// writeManifest rewrites the manifest atomically under the lock.
func (r *shardedRun) writeManifest() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return dataset.WriteManifestFS(r.fsys, r.manifestPath(), r.man)
}

// finalizePart closes the part's writer, records its counts and
// whole-file checksum in manifest entry i, and rewrites the manifest —
// so a crash at any later moment finds this part marked done.
func (r *shardedRun) finalizePart(i int, w *dataset.Writer) error {
	if err := w.Close(); err != nil {
		return err
	}
	crc, err := dataset.FileCRC32CFS(r.fsys, w.Path())
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.man.Parts[i].Records = w.Records()
	r.man.Parts[i].Blocks = w.Blocks()
	r.man.Parts[i].CRC32C = crc
	return dataset.WriteManifestFS(r.fsys, r.manifestPath(), r.man)
}

// fill fills every part of the manifest concurrently through
// fillParts, finalizing each part the moment it is done, then marks the
// manifest complete. With resume set, a part whose recorded checksum
// still matches its bytes is left untouched, and every other part
// starts from the trusted prefix the interrupted run left on disk.
func (r *shardedRun) fill(ctx context.Context, s *Sim, resume bool, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Manifest, error) {
	err := r.fillParts(ctx, func(ctx context.Context, i int) error {
		p := r.man.Parts[i]
		path := filepath.Join(r.dir, p.Name)
		if resume && p.CRC32C != "" {
			if crc, err := dataset.FileCRC32CFS(r.fsys, path); err == nil && crc == p.CRC32C {
				return nil // part finalized and intact
			}
		}
		w, _, _, err := s.fillFile(ctx, r.fsys, path, r.man.Meta, p.UserLo, p.UserHi,
			p.Kind == dataset.PartKindAbusive, resume, wrap)
		if err == nil {
			err = r.finalizePart(i, w)
		}
		if err != nil {
			return fmt.Errorf("userv6: %s: %w", p.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.man.Complete = true
	if err := r.writeManifest(); err != nil {
		return nil, err
	}
	return r.man, nil
}

// provisionalManifest lays out the full expected part list for a run:
// benign shards over the given user ranges, plus one trailing abusive
// part unless the run is benign-only. Counts and checksums are zero —
// they are filled in as parts finalize.
func provisionalManifest(meta dataset.Meta, ranges [][2]int) *dataset.Manifest {
	man := &dataset.Manifest{
		Version:    dataset.ManifestVersion,
		Seed:       meta.Seed,
		ConfigHash: dataset.ConfigHash(meta),
		Shards:     len(ranges),
		Meta:       meta,
	}
	for i, r := range ranges {
		man.Parts = append(man.Parts, dataset.PartInfo{
			Name: PartName(i), Kind: dataset.PartKindBenign,
			UserLo: r[0], UserHi: r[1], Codec: meta.Codec,
		})
	}
	if !meta.BenignOnly {
		man.Parts = append(man.Parts, dataset.PartInfo{
			Name: PartName(len(ranges)), Kind: dataset.PartKindAbusive, Codec: meta.Codec,
		})
	}
	return man
}

// ExportShardedCtx generates the telemetry described by meta (window,
// benign-only flag) into dir as per-shard dataset part files plus a
// manifest. Benign parts cover the contiguous ascending user ranges of
// ShardRanges(shards); unless meta.BenignOnly is set, the abusive
// stream goes into one trailing part, preserving the single-writer
// order (benign users ascending, then abusive). Every part, the
// abusive one included, is filled on a goroutine of its own. wrap, when
// non-nil, decorates each part's emit func — the hook where
// deterministic samplers attach; it is called once per part, possibly
// concurrently.
//
// On failure or cancellation nothing is deleted: finalized parts, the
// partial part each interrupted fill left, and the incrementally
// updated manifest all stay in dir, which is exactly the state
// ResumeShardedCtx finishes from. Cancellation stops generation within
// one (user, day) batch.
func (s *Sim) ExportShardedCtx(ctx context.Context, dir string, shards int, meta dataset.Meta, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Manifest, error) {
	return s.ExportShardedFS(ctx, faultio.OS, dir, shards, meta, wrap)
}

// ExportShardedFS is ExportShardedCtx over an explicit filesystem —
// the seam the fault-injection harness (and `userv6gen gen -faults`)
// wraps to rehearse crashes at exact byte offsets.
func (s *Sim) ExportShardedFS(ctx context.Context, fsys faultio.FS, dir string, shards int, meta dataset.Meta, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Manifest, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("userv6: export dir: %w", err)
	}
	ranges := s.ShardRanges(shards)
	if len(ranges) == 0 {
		return nil, fmt.Errorf("userv6: empty population, nothing to export")
	}

	run := &shardedRun{fsys: fsys, dir: dir, man: provisionalManifest(meta, ranges)}
	// The provisional manifest goes down before any record: from here on
	// the directory always describes what the run was supposed to
	// produce, so an interruption at any point is resumable.
	if err := run.writeManifest(); err != nil {
		return nil, err
	}
	// Every part is filled from scratch: dir may hold files of another
	// run, so nothing in it is salvaged.
	return run.fill(ctx, s, false, wrap)
}

// ResumeShardedCtx finishes an interrupted sharded export in dir: it
// reads the (provisional or final) manifest, keeps every part whose
// recorded whole-file checksum still matches, and refills the rest
// concurrently — each from the trusted prefix of what survives of it
// (the part file or its crash-safe .tmp sibling), regenerating only the
// missing suffix of the part's user range. Finished parts update the
// manifest incrementally, so an interrupted resume is itself
// resumable. The final directory — every part and the manifest — is
// byte-identical to an uninterrupted ExportShardedCtx run.
//
// wrap must be the same emit decorator the original run used (the
// deterministic sampler), or the regenerated suffixes will diverge.
func (s *Sim) ResumeShardedCtx(ctx context.Context, dir string, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Manifest, error) {
	return s.ResumeShardedFS(ctx, faultio.OS, dir, wrap)
}

// ResumeShardedFS is ResumeShardedCtx over an explicit filesystem for
// writes and checksums (prefix salvage always reads the real files on
// disk).
func (s *Sim) ResumeShardedFS(ctx context.Context, fsys faultio.FS, dir string, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Manifest, error) {
	run := &shardedRun{fsys: fsys, dir: dir}
	man, err := dataset.ReadManifestFS(fsys, run.manifestPath())
	if err != nil {
		return nil, fmt.Errorf("userv6: sharded resume: %w", err)
	}
	run.man = man
	meta := man.Meta
	if got := dataset.ConfigHash(meta); got != man.ConfigHash {
		return nil, fmt.Errorf("userv6: sharded resume: manifest config hash %s does not match its own metadata (%s)", man.ConfigHash, got)
	}
	if meta.Users != len(s.Pop.Users) || meta.Seed != s.Scenario.Seed {
		return nil, fmt.Errorf("userv6: sharded resume: manifest is for seed %d / %d users, sim has seed %d / %d users",
			meta.Seed, meta.Users, s.Scenario.Seed, len(s.Pop.Users))
	}
	return run.fill(ctx, s, true, wrap)
}

// ResumeFileFS finishes an interrupted single-file dataset run at path
// (`userv6gen gen -resume`). The configuration comes from the header of
// path, or of path.tmp when path is absent; a header that fails its
// checksum or names another seed or user count than the Sim's is
// refused. The file is refilled exactly like a sharded part covering
// users [0, N) plus, unless the header says benign-only, the abusive
// stream: the trusted prefix of what survives is kept and generation
// restarts at its frontier. The finished file is byte-identical to an
// uninterrupted run, and resuming a complete file reproduces it.
//
// It reports the frontier generation restarted at, the number of
// records kept from the prefix (Restart and 0 when the file started
// from scratch) and the records the file holds. A cancelled resume
// finalizes the partial file and returns the context's error alongside
// those figures; it can be resumed again. wrap must be the emit
// decorator the original run used (its deterministic sampler), or the
// regenerated suffix will diverge.
func (s *Sim) ResumeFileFS(ctx context.Context, fsys faultio.FS, path string, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (front dataset.Frontier, kept int, records uint64, err error) {
	src := path
	if _, err := os.Stat(path); err != nil {
		src = path + ".tmp"
	}
	hdr, err := dataset.NewFileSource(src)
	if err != nil {
		return front, 0, 0, fmt.Errorf("userv6: resume %s: %w", path, err)
	}
	meta, ok := hdr.Meta()
	switch {
	case !ok:
		return front, 0, 0, fmt.Errorf("userv6: resume %s: raw telemetry stream has no dataset header", src)
	case meta.Seed != s.Scenario.Seed || meta.Users != len(s.Pop.Users):
		return front, 0, 0, fmt.Errorf("userv6: resume %s: header is for seed %d / %d users, sim has seed %d / %d users",
			src, meta.Seed, meta.Users, s.Scenario.Seed, len(s.Pop.Users))
	}
	// The resumed file carries the original run's configuration, block
	// codec included, or its bytes would diverge from the uninterrupted
	// run's; counts and completion are the new writer's.
	meta = dataset.Meta{
		Seed: meta.Seed, Users: meta.Users, FromDay: meta.FromDay, ToDay: meta.ToDay,
		Sample: meta.Sample, BenignOnly: meta.BenignOnly, Codec: meta.Codec,
	}
	w, front, kept, err := s.fillFile(ctx, fsys, path, meta, 0, meta.Users, !meta.BenignOnly, true, wrap)
	if err == nil {
		err = w.Close()
	}
	if w != nil {
		records = w.Records()
	}
	return front, kept, records, err
}

// fillFile writes the dataset file at path under meta: benign users
// [lo, hi) over meta's window, then the abusive stream when abusive is
// set. wrap, when non-nil, decorates the emit func generation writes
// through.
//
// With resume set, the file first keeps the trusted prefix an
// interrupted run left of it (see salvagePrefix) up to its frontier —
// the first (user, day) batch that may be torn — and generation
// restarts at that batch. Without a trusted prefix the file starts from
// scratch. The choice is made before the first write, and the returned
// frontier and kept count report it.
//
// On success the writer holds the whole file, still open for the
// caller to finalize. On failure it comes back already closed, best
// effort: a cancelled file is finalized as a valid partial dataset and
// any other failure leaves the .tmp, so a later resume starts from
// whatever reached disk. The writer is nil if the file was never
// created.
func (s *Sim) fillFile(ctx context.Context, fsys faultio.FS, path string, meta dataset.Meta, lo, hi int, abusive, resume bool, wrap func(telemetry.EmitFunc) telemetry.EmitFunc) (*dataset.Writer, dataset.Frontier, int, error) {
	var prefix []telemetry.Observation
	if resume {
		prefix = s.salvagePrefix(path, meta, lo, hi, abusive)
	}
	front, keep := dataset.DeriveFrontier(prefix)
	w, err := dataset.CreateFS(fsys, path, meta)
	if err != nil {
		return nil, front, keep, err
	}

	// A write error stops generation within one batch; the first one is
	// the file's error.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var werr error
	var emit telemetry.EmitFunc = func(o telemetry.Observation) {
		if werr == nil {
			if werr = w.Write(o); werr != nil {
				cancel()
			}
		}
	}
	for _, o := range prefix[:keep] {
		emit(o)
	}
	if wrap != nil {
		emit = wrap(emit)
	}

	from, to := meta.Window()
	user, day := lo, from
	switch {
	case front.BenignDone:
		user = hi
	case !front.Restart:
		user, day = s.UserIndex(front.UserID), front.Day
	}
	err = s.Benign.GenerateUsersFromCtx(ctx, user, day, hi, from, to, emit)
	if err == nil && abusive {
		// The abusive stream is small and not range-resumable: it always
		// regenerates whole, uninterrupted once started.
		if err = ctx.Err(); err == nil {
			s.Abusive.Generate(from, to, emit)
		}
	}
	if werr != nil {
		err = werr
	}
	if err != nil {
		w.Close() // best effort: keep whatever reached disk
	}
	return w, front, keep, err
}

// salvagePrefix returns the verified record prefix an interrupted run
// left of the file at path: from path itself, or failing that its
// crash-safe .tmp sibling. A source is trusted only if its prefix can
// begin the file under meta: its header's config hash equals meta's,
// its benign records all belong to users in [lo, hi) (canonical order
// lets the first and last decide), and it holds abusive records only if
// the file holds the abusive stream. A file of another configuration or
// shard layout fails that rule — keeping it would splice foreign
// records into the file — so it is skipped, and with no trusted source
// left the file restarts from scratch.
func (s *Sim) salvagePrefix(path string, meta dataset.Meta, lo, hi int, abusive bool) []telemetry.Observation {
	hash := dataset.ConfigHash(meta)
	inRange := func(o telemetry.Observation) bool {
		i := s.UserIndex(o.UserID)
		return !o.Abusive && i >= lo && i < hi
	}
	for _, src := range []string{path, path + ".tmp"} {
		m, obs, err := dataset.LoadResumePrefix(src)
		if err != nil || len(obs) == 0 || dataset.ConfigHash(m) != hash {
			continue
		}
		benign := len(obs)
		for benign > 0 && obs[benign-1].Abusive {
			benign--
		}
		benignOK := benign == 0 || inRange(obs[0]) && inRange(obs[benign-1])
		abusiveOK := benign == len(obs) || abusive
		if benignOK && abusiveOK {
			return obs
		}
	}
	return nil
}
