// Command userv6gen exports synthetic telemetry to files and inspects
// them: the offline half of the pipeline, for feeding the datasets into
// external tooling (the JSONL form) or replaying them through the
// analyzers without regeneration (the binary form).
//
// Usage:
//
//	userv6gen gen  -users 20000 -from 81 -to 87 -format binary -o week.uv6
//	userv6gen gen  -users 200000 -shards 8 -o weekdir            (sharded export)
//	userv6gen gen  -resume -o week.uv6                           (continue a partial run)
//	userv6gen gen  -resume -o weekdir                            (continue a sharded run)
//	userv6gen info -i week.uv6
//	userv6gen info -i weekdir                                    (sharded export, as the merged file)
//	userv6gen analyze -i week.uv6 [-tolerant] [-explain]
//	userv6gen analyze -i weekdir                                 (sharded export, no merge)
//	userv6gen verify -i week.uv6
//	userv6gen verify -i weekdir/manifest.uv6m                    (all parts + codec mix)
//	userv6gen salvage -i torn.uv6.tmp -o recovered.uv6
//	userv6gen merge -manifest weekdir/manifest.uv6m -o week.uv6
//	userv6gen merge -o week.uv6 part-0000.uv6 part-0001.uv6 ...
//
// gen finalizes a valid dataset file even when interrupted by SIGINT or
// SIGTERM; with -shards N it writes per-shard part-NNNN.uv6 files plus
// a manifest.uv6m instead of one file, and with -resume it derives the
// last completed (user, day) frontier from a partial dataset and
// continues deterministically into the same output — pointing -resume
// at a sharded directory keeps every checksummed-complete part and
// regenerates only the unfinished ones. The -faults flag arms named
// failpoints over the dataset layer's filesystem seam (injected errors,
// torn writes, crash-at-offset) for rehearsing exactly those recovery
// paths; see docs/FAULT_INJECTION.md. verify (alias:
// scan) checks block checksums and reports how many records a salvage
// pass would recover; salvage rewrites every intact record of a
// damaged file into a fresh dataset; merge folds part files (possibly
// partially damaged — corrupt blocks are skipped and coverage is
// reported per part) into one canonical dataset, byte-identical to a
// single-writer run when the parts are intact.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"userv6"
	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/faultio"
	"userv6/internal/netaddr"
	"userv6/internal/report"
	"userv6/internal/retry"
	"userv6/internal/sampling"
	"userv6/internal/simtime"
	"userv6/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "gen":
		runGen(args)
	case "info":
		runInfo(args)
	case "analyze":
		runAnalyze(args)
	case "verify", "scan":
		runVerify(args)
	case "salvage":
		runSalvage(args)
	case "merge":
		runMerge(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: userv6gen <gen|info|analyze|verify|salvage|merge> [flags]

  gen      generate a telemetry dataset file
           -shards N  sharded export: part-NNNN.uv6 files + manifest.uv6m
           -resume    continue a partial dataset from its (user, day) frontier
                      (-o a sharded directory: regenerate only the unfinished parts)
           -compress[=lz|delta|auto]  block compression policy (auto picks
                      the smallest of delta/lz/identity per block; bare
                      -compress means lz)
           -faults S  arm fault-injection failpoints (debug; docs/FAULT_INJECTION.md)
  info     summarize a dataset file, a sharded export directory, or a
           manifest.uv6m (an export prints what its merged file prints)
  analyze  run the user/IP-centric + churn analyzers over a dataset file,
           a sharded export directory, or a manifest.uv6m (no merge needed:
           parts stream through the same workers the merged file would)
           -tolerant  salvage-path read: skip corrupt blocks, report coverage
           -workers N block-parallel decode + analysis (0 = all CPUs); each
                      decode worker feeds its own analyzer replica, and the
                      replicas fold once after the last part is read, so a
                      failed read leaves no partial result
           -explain   print the plan (mode label, workers, parts) before analyzing
  verify   check dataset integrity (block checksums, record counts); on a
           manifest or export directory, checks every part and aggregates
           per-codec block counts across parts
  salvage  recover intact records from a damaged dataset into a new file
  merge    fold sharded part files into one canonical dataset
           -tolerant  admit parts whose frame codecs disagree with their label`)
	os.Exit(2)
}

// inputArg lets read-style subcommands take the input path positionally
// (`userv6gen verify week.uv6`) as well as via -i; a silently ignored
// positional would otherwise fall through to the default path.
func inputArg(fs *flag.FlagSet, in *string) {
	switch fs.NArg() {
	case 0:
	case 1:
		*in = fs.Arg(0)
	default:
		fatal(fmt.Errorf("%s: at most one input path, got %q", fs.Name(), fs.Args()))
	}
}

// compressFlag parses -compress both as a boolean switch (bare
// -compress, the pre-policy spelling, meaning lz) and as a policy name
// (-compress=lz|delta|auto|none). IsBoolFlag makes the flag package
// accept the bare form; the policy form must use '=' like any Go bool
// flag.
type compressFlag struct {
	policy string
}

func (c *compressFlag) String() string   { return c.policy }
func (c *compressFlag) IsBoolFlag() bool { return true }
func (c *compressFlag) Set(v string) error {
	switch strings.ToLower(v) {
	case "true":
		c.policy = "lz"
	case "false", "", "none", "identity":
		c.policy = ""
	case "lz", "delta", "auto":
		c.policy = strings.ToLower(v)
	default:
		return fmt.Errorf("unknown compression policy %q (want lz, delta, auto, or none)", v)
	}
	return nil
}

func runGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	users := fs.Int("users", 20_000, "population size")
	seed := fs.Uint64("seed", 1, "scenario seed")
	from := fs.Int("from", int(simtime.AnalysisWeekStart), "first day index")
	to := fs.Int("to", int(simtime.AnalysisWeekEnd), "last day index")
	format := fs.String("format", "dataset", "dataset (headered), binary, or jsonl")
	out := fs.String("o", "telemetry.uv6", "output path (directory with -shards)")
	benignOnly := fs.Bool("benign-only", false, "omit abusive accounts")
	sampleSpec := fs.String("sample", "all", "sampler: all, user:R, addr:R, prefixL:R")
	shards := fs.Int("shards", 0, "sharded export: write N part files + manifest into the -o directory")
	resume := fs.Bool("resume", false, "continue a partial dataset at -o from its last completed (user, day)")
	var compress compressFlag
	fs.Var(&compress, "compress", "compression policy: lz, delta, auto, or none (bare -compress means lz; dataset and binary formats)")
	faults := fs.String("faults", "", "fault-injection spec, e.g. 'part-0001.uv6.tmp:write:off=41232:crash' (debug; see docs/FAULT_INJECTION.md)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path at exit")
	fs.Parse(args)
	// -resume takes the population and the window from the partial
	// dataset's header.
	if !*resume {
		switch {
		case *users < 1:
			usageError("gen", "-users must be at least 1, got %d", *users)
		case *from < 0:
			usageError("gen", "-from must be at least 0, got %d", *from)
		case *from > *to:
			usageError("gen", "-from must not exceed -to, got -from %d -to %d", *from, *to)
		case *shards < 0:
			usageError("gen", "-shards must be at least 0, got %d", *shards)
		}
	}

	// -faults arms named failpoints over the dataset layer's filesystem
	// seam: a debug rehearsal of the crash/transient-error recovery the
	// fault-injection tests sweep exhaustively. Armed before anything
	// opens a file — every write this command makes (datasets,
	// manifests, even profiles) goes through the seam so coverage
	// cannot silently erode.
	fsys := faultio.OS
	var injector *faultio.Injector
	if *faults != "" {
		injector = faultio.New(faultio.OS, *seed)
		if err := injector.Arm(*faults); err != nil {
			fatal(err)
		}
		fsys = injector
	}
	// At exit, on success and through fatal alike: write the heap
	// profile, stop the CPU profile, then report the failpoints —
	// profile bytes flush at WriteHeapProfile/StopCPUProfile time, and a
	// campaign aimed at a profile file must count those hits — and fail
	// the run if either profile could not be written or closed.
	stopProf := func() error { return nil }
	atExit = func() error {
		err := errors.Join(writeMemProfile(fsys, *memprofile), stopProf())
		if injector != nil {
			for _, p := range injector.Points() {
				fmt.Fprintf(os.Stderr, "failpoint %s: fired %d time(s)\n", p.Name, p.Hits)
			}
		}
		return err
	}
	defer func() {
		if err := runAtExit(); err != nil {
			fatal(err)
		}
	}()
	stopProf = startCPUProfile(fsys, *cpuprofile)

	// A SIGINT/SIGTERM cancels generation at the next (user, day) batch;
	// the writer then finalizes, so an interrupted run still leaves a
	// valid, verifiable dataset holding everything generated so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	codecName := compress.policy

	if *resume {
		if compress.policy != "" {
			fatal(fmt.Errorf("gen: -resume reads the codec from the partial dataset's header; drop -compress"))
		}
		// A directory target (or one holding a manifest) is a sharded
		// export; -shards is ignored because the manifest fixes the
		// layout.
		if st, err := os.Stat(*out); err == nil && st.IsDir() {
			runGenShardedResume(ctx, fsys, *out)
			return
		}
		runGenResume(ctx, fsys, *out)
		return
	}

	sampler, err := sampling.Parse(*sampleSpec, *seed)
	if err != nil {
		fatal(err)
	}

	sim := userv6.NewSim(userv6.DefaultScenario(*users).WithSeed(*seed))
	meta := dataset.Meta{
		Seed: *seed, Users: *users, FromDay: *from, ToDay: *to,
		Sample: *sampleSpec, BenignOnly: *benignOnly, Codec: codecName,
	}
	wrap := func(emit telemetry.EmitFunc) telemetry.EmitFunc { return sampling.Filter(sampler, emit) }

	if *shards != 0 {
		if *format != "dataset" {
			fatal(fmt.Errorf("gen: -shards requires -format dataset"))
		}
		man, err := sim.ExportShardedFS(ctx, fsys, *out, *shards, meta, wrap)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fatal(fmt.Errorf("interrupted: parts and provisional manifest left in %s; continue with `userv6gen gen -resume -o %s`", *out, *out))
			}
			fatal(err)
		}
		fmt.Printf("wrote sharded dataset (%d users, days %d-%d) to %s: %d parts, %d records, %d blocks (config %s)\n",
			*users, *from, *to, *out, len(man.Parts), man.TotalRecords(), man.TotalBlocks(), man.ConfigHash)
		fmt.Printf("analyze directly with: userv6gen analyze -i %s (or merge: userv6gen merge -manifest %s -o merged.uv6)\n",
			*out, filepath.Join(*out, dataset.ManifestName))
		return
	}

	if *format == "dataset" {
		// A write error stops generation within one (user, day) batch and
		// leaves the .tmp for -resume.
		_, _, _, err := sim.WriteFileFS(ctx, fsys, *out, meta, false, wrap)
		if err != nil && !errors.Is(err, context.Canceled) {
			if _, serr := os.Stat(*out + ".tmp"); serr == nil {
				err = fmt.Errorf("%w (partial dataset left at %s.tmp; continue with `userv6gen gen -resume -o %s`)", err, *out, *out)
			}
			fatal(err)
		}
		st, _ := os.Stat(*out)
		if err != nil {
			fmt.Printf("interrupted: finalized partial dataset (%d users, days %d-%d) at %s (%d bytes)\n",
				*users, *from, *to, *out, st.Size())
			return
		}
		fmt.Printf("wrote dataset (%d users, days %d-%d) to %s (%d bytes)\n",
			*users, *from, *to, *out, st.Size())
		return
	}

	generate := func(emit telemetry.EmitFunc) error {
		emit = wrap(emit)
		if *benignOnly {
			return sim.Benign.GenerateCtx(ctx, simtime.Day(*from), simtime.Day(*to), emit)
		}
		return sim.GenerateCtx(ctx, simtime.Day(*from), simtime.Day(*to), emit)
	}

	f, err := fsys.Create(*out)
	if err != nil {
		fatal(err)
	}

	var write func(telemetry.Observation) error
	var flush func() error
	switch *format {
	case "binary":
		w, err := telemetry.NewWriterV2Policy(f, telemetry.DefaultBlockRecords, compress.policy)
		if err != nil {
			fatal(err)
		}
		write, flush = w.Write, w.Flush
	case "jsonl":
		if compress.policy != "" {
			fatal(fmt.Errorf("gen: -compress applies to block formats (dataset, binary), not jsonl"))
		}
		w := telemetry.NewJSONLWriter(f)
		write, flush = w.Write, w.Flush
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	n := 0
	genErr := generate(func(o telemetry.Observation) {
		if err := write(o); err != nil {
			fatal(err)
		}
		n++
	})
	if genErr != nil && !errors.Is(genErr, context.Canceled) {
		fatal(genErr)
	}
	if err := flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(fmt.Errorf("close %s: %w", *out, err))
	}
	var size int64
	if st, err := fsys.Stat(*out); err == nil {
		size = st.Size()
	}
	note := ""
	if genErr != nil {
		note = " [interrupted]"
	}
	fmt.Printf("wrote %d observations (%d users, days %d-%d, %s) to %s (%d bytes)%s\n",
		n, *users, *from, *to, *format, *out, size, note)
}

// runGenResume continues an interrupted dataset generation run through
// Sim.ResumeFileFS. The partial file (the first of the -o target, its
// aside file and its crash-safe .tmp that exists) supplies the run
// configuration from its header, which builds the Sim and the sampler
// and is handed to the library; the library keeps the verified prefix
// up to its last complete (user, day) batch and regenerates the rest.
// The finished file is byte-identical to an uninterrupted run.
func runGenResume(ctx context.Context, fsys faultio.FS, out string) {
	var src string
	for _, src = range dataset.ResumeSources(out) {
		if _, err := os.Stat(src); err == nil {
			break
		}
	}
	hdr, err := dataset.NewFileSource(src)
	if err != nil {
		fatal(fmt.Errorf("gen -resume: no usable partial dataset at %s (or %s.tmp): %w", out, out, err))
	}
	meta, ok := hdr.Meta()
	if !ok {
		fatal(fmt.Errorf("gen -resume: %s is a raw telemetry stream with no dataset header", src))
	}
	sampler, err := sampling.Parse(meta.Sample, meta.Seed)
	if err != nil {
		fatal(err)
	}
	sim := userv6.NewSim(userv6.DefaultScenario(meta.Users).WithSeed(meta.Seed))

	front, kept, records, err := sim.ResumeFileFS(ctx, fsys, out, meta, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		return sampling.Filter(sampler, emit)
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	var size int64
	if st, err := os.Stat(out); err == nil {
		size = st.Size()
	}
	note := ""
	if err != nil {
		note = " [interrupted again; resume to continue]"
	}
	switch {
	case front.Restart:
		fmt.Printf("resumed %s from scratch (no usable prefix): %d records, %d bytes%s\n",
			out, records, size, note)
	case front.BenignDone:
		fmt.Printf("resumed %s at the abusive phase (kept %d benign records): %d records, %d bytes%s\n",
			out, kept, records, size, note)
	default:
		fmt.Printf("resumed %s at user %d, day %d (kept %d records): %d records, %d bytes%s\n",
			out, front.UserID, int(front.Day), kept, records, size, note)
	}
}

// runGenShardedResume continues an interrupted sharded export. The
// directory's manifest (provisional or complete) fixes the expected
// layout and run configuration; every part whose recorded checksum
// matches its bytes is kept untouched, and only the missing or
// unfinished parts are regenerated — each from its own salvaged
// prefix, exactly like single-file resume. The finished directory is
// byte-identical to an uninterrupted sharded run, manifest included.
func runGenShardedResume(ctx context.Context, fsys faultio.FS, dir string) {
	manPath := filepath.Join(dir, dataset.ManifestName)
	man, err := dataset.ReadManifestFS(fsys, manPath)
	if err != nil {
		fatal(fmt.Errorf("gen -resume: %w (a sharded resume needs the directory's %s)", err, dataset.ManifestName))
	}
	meta := man.Meta
	sampler, err := sampling.Parse(meta.Sample, meta.Seed)
	if err != nil {
		fatal(err)
	}
	sim := userv6.NewSim(userv6.DefaultScenario(meta.Users).WithSeed(meta.Seed))

	man, err = sim.ResumeShardedFS(ctx, fsys, dir, func(emit telemetry.EmitFunc) telemetry.EmitFunc {
		return sampling.Filter(sampler, emit)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted again: rerun `userv6gen gen -resume -o %s` to continue", dir))
		}
		fatal(err)
	}
	fmt.Printf("resumed sharded dataset (%d users, days %d-%d) in %s: %d parts, %d records, %d blocks (config %s)\n",
		meta.Users, meta.FromDay, meta.ToDay, dir, len(man.Parts), man.TotalRecords(), man.TotalBlocks(), man.ConfigHash)
	fmt.Printf("analyze directly with: userv6gen analyze -i %s (or merge: userv6gen merge -manifest %s -o merged.uv6)\n", dir, manPath)
}

// runMerge folds N part files — a sharded export's manifest, or an
// explicit file list — into one canonical dataset. Damaged parts cost
// only their corrupt blocks; the per-part coverage report states
// exactly what was recovered. Transient read errors are retried with
// capped exponential backoff.
func runMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "merged.uv6", "output path for the merged dataset")
	manifest := fs.String("manifest", "", "manifest.uv6m path (parts resolved next to it)")
	retries := fs.Int("retries", 3, "max retries per part on transient I/O errors (0: none)")
	strict := fs.Bool("strict", false, "fail on any damaged part instead of skipping corrupt blocks")
	tolerant := fs.Bool("tolerant", false, "admit parts whose frame codecs disagree with their declared codec")
	fs.Parse(args)
	if *retries < 0 {
		usageError("merge", "-retries must be at least 0, got %d", *retries)
	}

	// A SIGINT/SIGTERM aborts the merge between parts and interrupts any
	// in-flight backoff sleep instead of blocking it out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := &dataset.MergeOptions{
		Retry:  mergeRetry(*retries),
		Strict: *strict, Tolerant: *tolerant,
	}
	var (
		rep dataset.MergeReport
		err error
	)
	if *manifest != "" {
		if fs.NArg() > 0 {
			fatal(fmt.Errorf("merge: use -manifest or positional part files, not both"))
		}
		var man *dataset.Manifest
		man, rep, err = dataset.MergeManifestCtx(ctx, *out, *manifest, opts)
		if man != nil {
			fmt.Printf("manifest: seed=%d shards=%d parts=%d config=%s expected %d records in %d blocks\n",
				man.Seed, man.Shards, len(man.Parts), man.ConfigHash, man.TotalRecords(), man.TotalBlocks())
		}
	} else {
		parts := fs.Args()
		if len(parts) == 0 {
			fatal(fmt.Errorf("merge: no inputs (use -manifest or list part files)"))
		}
		// Without a manifest the output inherits the header configuration
		// of the first part whose header parses and passes its checksum.
		// Only the header is read; the merge itself salvages the streams.
		var meta dataset.Meta
		for _, p := range parts {
			if m, ok, _ := dataset.HeaderMeta(p); ok {
				meta = m
				break
			}
		}
		rep, err = dataset.MergeCtx(ctx, *out, meta, parts, opts)
	}
	printMergeReport(rep)
	if err != nil {
		fatal(err)
	}
	st, _ := os.Stat(*out)
	verdict := "complete"
	if !rep.Complete {
		verdict = "INCOMPLETE (some blocks unrecoverable; see coverage above)"
	}
	fmt.Printf("merged %d records to %s (%d bytes): %s\n", rep.Records, *out, st.Size(), verdict)
}

func printMergeReport(rep dataset.MergeReport) {
	if len(rep.Parts) == 0 {
		return
	}
	t := report.NewTable("part", "blocks", "coverage", "records", "corrupt", "skipped B", "retries", "checksum", "codec")
	for _, c := range rep.Parts {
		sum := "ok"
		if !c.ChecksumOK {
			sum = "MISMATCH"
		}
		codec := "ok"
		if !c.CodecOK {
			codec = "MISMATCH"
		}
		t.Row(c.Name,
			fmt.Sprintf("%d/%d", c.BlocksRecovered, c.BlocksExpected),
			report.Percent(c.Coverage()),
			c.Records, c.CorruptBlocks, c.SkippedBytes, c.Retries, sum, codec)
	}
	t.Write(os.Stdout)
}

// runVerify checks a dataset (or raw stream) file end to end: header
// parse, per-block checksums, and header-vs-stream record counts. Exit
// status 0 means intact; 1 means damaged (the report shows what a
// salvage pass would recover).
func runVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("i", "telemetry.uv6", "input path (dataset file, sharded export directory, or manifest.uv6m)")
	fs.Parse(args)
	inputArg(fs, in)

	// A directory or manifest path verifies the whole sharded export:
	// per-part rows plus codec-mix and coverage aggregated across parts.
	if fi, err := os.Stat(*in); (err == nil && fi.IsDir()) ||
		strings.HasSuffix(*in, ".uv6m") || filepath.Base(*in) == dataset.ManifestName {
		runVerifyManifest(*in)
		return
	}

	rep, err := dataset.Scan(*in)
	if err != nil {
		fatal(err)
	}
	printScanReport(rep)
	if !rep.Intact() {
		os.Exit(1)
	}
}

// runVerifyManifest checks every part of a sharded export against the
// manifest: per-part block checksums, whole-file CRC32C, and declared
// codec, then the aggregate view — total coverage and the per-codec
// block counts summed across parts (SalvageReport.Add), which is what
// a compression-policy regression in one shard shows up in.
func runVerifyManifest(path string) {
	src, err := dataset.OpenManifestSource(path)
	if err != nil {
		fatal(err)
	}
	man := src.Manifest()
	fmt.Printf("manifest: seed=%d shards=%d parts=%d config=%s expected %d records in %d blocks\n\n",
		man.Seed, man.Shards, len(man.Parts), man.ConfigHash, man.TotalRecords(), man.TotalBlocks())

	t := report.NewTable("part", "blocks", "records", "corrupt", "checksum", "codec")
	var agg telemetry.SalvageReport
	intact := true
	for i, p := range src.Parts() {
		want, _ := src.Expected(i)
		rep, err := dataset.Scan(p)
		if err != nil {
			fatal(err)
		}
		sum := "ok"
		if want.CRC32C != "" && rep.CRC32C != want.CRC32C {
			sum, intact = "MISMATCH", false
		}
		codec := "ok"
		if err := dataset.CheckPartCodecs(want.Codec, rep.Stream.Codecs); err != nil {
			codec, intact = "MISMATCH", false
		}
		if !rep.Intact() {
			intact = false
		}
		t.Row(want.Name,
			fmt.Sprintf("%d/%d", rep.Stream.Blocks, want.Blocks),
			rep.Stream.Records, rep.Stream.CorruptBlocks, sum, codec)
		agg.Add(rep.Stream)
	}
	t.Write(os.Stdout)

	fmt.Printf("\ntotal: %d intact blocks, %d records, %d corrupt blocks, %d bytes skipped\n",
		agg.Blocks, agg.Records, agg.CorruptBlocks, agg.SkippedBytes)
	if line := codecBlocksLine(agg.CodecBlocks); line != "" {
		fmt.Printf("block codecs across parts: %s\n", line)
	}
	verdict := "INTACT"
	if !intact {
		verdict = "DAMAGED (merge -tolerant or analyze -tolerant still use the intact blocks)"
	}
	fmt.Printf("verdict: %s\n", verdict)
	if !intact {
		os.Exit(1)
	}
}

// codecBlocksLine renders per-codec intact-block counts ("identity: 3,
// lz: 12") in stable codec-ID order; empty when the stream is v1 or has
// no intact blocks.
func codecBlocksLine(counts map[telemetry.CodecID]uint64) string {
	if len(counts) == 0 {
		return ""
	}
	var parts []string
	for id := 0; id < 32; id++ {
		cid := telemetry.CodecID(id)
		if n, ok := counts[cid]; ok {
			parts = append(parts, fmt.Sprintf("%s: %d", cid, n))
		}
	}
	return strings.Join(parts, ", ")
}

func printScanReport(rep dataset.ScanReport) {
	t := report.NewTable("check", "result")
	switch {
	case rep.Raw:
		t.Row("header", "none (raw telemetry stream)")
	case rep.HeaderOK && rep.HeaderErr != "":
		t.Row("header", "CORRUPT: "+rep.HeaderErr)
	case rep.HeaderOK:
		m := rep.Meta
		hdr := "ok"
		if m.HeaderCRC != "" {
			hdr = "ok (crc " + m.HeaderCRC + ")"
		}
		t.Row("header", hdr).
			Row("header format", formatName(m.Format)).
			Row("header complete", m.Complete).
			Row("header records", m.Records)
		if m.Codec != "" {
			t.Row("header codec", m.Codec)
		}
	default:
		t.Row("header", "CORRUPT (unparseable)")
	}
	if rep.StreamErr != "" {
		t.Row("stream", "UNRECOGNIZABLE: "+rep.StreamErr)
	} else {
		t.Row("stream version", rep.Stream.Version).
			Row("intact blocks", rep.Stream.Blocks).
			Row("corrupt blocks", rep.Stream.CorruptBlocks).
			Row("salvageable records", rep.Stream.Records).
			Row("skipped bytes", rep.Stream.SkippedBytes)
		// Per-codec block counts, not just the codec set: with a
		// fallback-chain writer the mix (how often the preferred codec
		// actually won) is what a compression-ratio regression shows up
		// in, and it is diagnosable from the dataset alone.
		if line := codecBlocksLine(rep.Stream.CodecBlocks); line != "" {
			t.Row("block codecs", line)
		}
	}
	verdict := "INTACT"
	if !rep.Intact() {
		verdict = "DAMAGED (run `userv6gen salvage` to recover intact records)"
	}
	t.Row("verdict", verdict).Write(os.Stdout)
}

func formatName(f int) string {
	if f >= dataset.FormatV2 {
		return fmt.Sprintf("v%d (framed, checksummed)", f)
	}
	return "v1 (legacy, unframed)"
}

// runSalvage recovers every intact record from a damaged or interrupted
// dataset into a fresh, complete v2 dataset file: a tolerant one-part
// merge, which reads the input once. Like merge's positional parts,
// the output keeps the input's header when it parses and passes its
// checksum, whatever the stream behind it holds; a lost or failing
// header gives a zero Meta.
func runSalvage(args []string) {
	fs := flag.NewFlagSet("salvage", flag.ExitOnError)
	in := fs.String("i", "telemetry.uv6", "input path (possibly damaged)")
	out := fs.String("o", "recovered.uv6", "output path for the recovered dataset")
	fs.Parse(args)
	inputArg(fs, in)

	meta, _, _ := dataset.HeaderMeta(*in) // zero when the header is lost or fails
	rep, err := dataset.MergeCtx(context.Background(), *out, meta, []string{*in}, &dataset.MergeOptions{Tolerant: true})
	if err != nil {
		fatal(err)
	}
	c := rep.Parts[0]
	fmt.Printf("salvaged %d records (%d intact blocks, %d corrupt, %d bytes skipped) from %s to %s\n",
		c.Records, c.BlocksRecovered, c.CorruptBlocks, c.SkippedBytes, *in, *out)
}

func runInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "telemetry.uv6", "input path (dataset file, sharded export directory, or manifest.uv6m)")
	fs.Parse(args)
	inputArg(fs, in)

	// The input may be a dataset file, a headerless raw stream or a
	// sharded export, whose parts are summarized together as their
	// merged file would be. A damaged header is reported as such, not
	// misread as a raw stream.
	src, err := dataset.OpenSource(*in)
	if err != nil {
		fatal(err)
	}
	meta, haveMeta := src.Meta()
	if haveMeta {
		fmt.Printf("%s\n\n", metaLine(meta))
	}
	var (
		n, abusive int
		v4, v6     int
		users      = map[uint64]struct{}{}
		minD, maxD = simtime.Day(1 << 30), simtime.Day(-1)
		requests   uint64
	)
	for _, part := range src.Parts() {
		r, err := dataset.Open(part)
		if err != nil {
			fatal(err)
		}
		err = r.ForEach(func(o telemetry.Observation) {
			n++
			if o.Abusive {
				abusive++
			}
			if o.Addr.Is6() {
				v6++
			} else {
				v4++
			}
			users[o.UserID] = struct{}{}
			if o.Day < minD {
				minD = o.Day
			}
			if o.Day > maxD {
				maxD = o.Day
			}
			requests += uint64(o.Requests)
		})
		r.Close()
		if err != nil {
			fatal(err)
		}
	}
	// A dataset with no records has no day range, only the scan's
	// starting bounds.
	days := "-"
	if n > 0 {
		days = fmt.Sprintf("%d..%d", int(minD), int(maxD))
	}
	tbl := report.NewTable("metric", "value").
		Row("observations", n).
		Row("abusive observations", abusive).
		Row("IPv4 / IPv6 observations", fmt.Sprintf("%d / %d", v4, v6)).
		Row("distinct entities", len(users)).
		Row("days", days).
		Row("total requests", requests)
	if meta.Codec != "" {
		tbl.Row("block codec", meta.Codec)
	}
	tbl.Write(os.Stdout)
}

func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("i", "telemetry.uv6", "input path (dataset file, sharded export directory, or manifest.uv6m)")
	tolerant := fs.Bool("tolerant", false, "salvage-path read: analyze intact blocks of a damaged source and report coverage")
	workers := fs.Int("workers", 0, "block decode + analysis workers, each feeding its own analyzer replica (0 = all CPUs)")
	explain := fs.Bool("explain", false, "print the plan (mode label, workers, parts) before analyzing")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the analysis to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path after analysis")
	fs.Parse(args)
	inputArg(fs, in)
	if *workers < 0 {
		usageError("analyze", "-workers must be at least 0, got %d", *workers)
	}

	// The input may be a merged file, a sharded export directory, or a
	// manifest path; the source layer resolves the shape.
	src, err := dataset.OpenSource(*in)
	if err != nil {
		fatal(err)
	}

	// Every analyzer this command registers — including churn, since its
	// first-sight-tuple reformulation — folds exactly under arbitrary
	// stream partition, which is what the worker replicas rely on.
	set := core.NewAnalyzerSet()
	uc := core.NewUserCentricFor(false)
	core.AddCommutativeAnalyzer(set, uc,
		func() *core.UserCentric { return core.NewUserCentricFor(false) }, (*core.UserCentric).Merge)
	addIC := func(fam netaddr.Family, length int) *core.IPCentric {
		ic := core.NewIPCentric(fam, length)
		core.AddCommutativeAnalyzer(set, ic,
			func() *core.IPCentric { return core.NewIPCentric(fam, length) }, (*core.IPCentric).Merge)
		return ic
	}
	ic4 := addIC(netaddr.IPv4, 32)
	ic6 := addIC(netaddr.IPv6, 128)
	ic64 := addIC(netaddr.IPv6, 64)
	// Churn counts new-address events after a one-day warmup: the first
	// recorded day only builds history (every address is trivially "new"
	// then). A headerless raw stream has no window metadata, so it gets
	// no warmup and day-0 sightings count.
	meta, haveMeta := src.Meta()
	countFrom := simtime.Day(0)
	if haveMeta && meta.ToDay > meta.FromDay {
		countFrom = simtime.Day(meta.FromDay + 1)
	}
	churn := core.NewChurnAttribution(countFrom)
	core.AddCommutativeAnalyzer(set, churn,
		func() *core.ChurnAttribution { return core.NewChurnAttribution(countFrom) }, (*core.ChurnAttribution).Merge)

	opts := userv6.AnalyzeOptions{Workers: *workers, Tolerant: *tolerant}
	plan, err := userv6.PlanSource(src, set, opts)
	if err != nil {
		fatal(fmt.Errorf("analyze: %w", err))
	}
	if *explain {
		fmt.Printf("plan: %s\n", plan.Explain())
	}
	if haveMeta {
		fmt.Printf("%s\n\n", metaLine(meta))
	}

	// A SIGINT/SIGTERM cancels the read at the next block boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProf := startCPUProfile(faultio.OS, *cpuprofile)
	rep, err := userv6.ExecutePlan(ctx, src, set, plan)
	profErr := errors.Join(stopProf(), writeMemProfile(faultio.OS, *memprofile))
	if err != nil {
		if !*tolerant {
			err = fmt.Errorf("%w (rerun with -tolerant to analyze the intact blocks)", err)
		}
		fatal(err)
	}
	if profErr != nil {
		fatal(profErr)
	}
	if *tolerant {
		printCoverage(rep)
	}

	h4, h6 := uc.AddrsPerUser(netaddr.IPv4), uc.AddrsPerUser(netaddr.IPv6)
	report.NewTable("metric", "IPv4", "IPv6").
		Row("users", int(h4.N()), int(h6.N())).
		Row("median addrs/user", h4.Median(), h6.Median()).
		Row("single-addr users", report.Percent(h4.CDFAt(1)), report.Percent(h6.CDFAt(1))).
		Row("addresses seen", ic4.Prefixes(), ic6.Prefixes()).
		Row("single-user addrs", report.Percent(ic4.UsersPerPrefix().CDFAt(1)), report.Percent(ic6.UsersPerPrefix().CDFAt(1))).
		Write(os.Stdout)
	fmt.Printf("\nIPv6 /64s: %d (single-user: %s)\n",
		ic64.Prefixes(), report.Percent(ic64.UsersPerPrefix().CDFAt(1)))
	pat := uc.AddrPatterns()
	fmt.Printf("EUI-64 users: %s; transition-protocol users: %s\n",
		report.Percent(pat.EUI64Share), report.Percent(pat.TeredoShare+pat.SixToFourShare))
	bd := churn.Breakdown()
	fmt.Printf("address churn (from day %d): %d events — IID rotation %s, subnet move %s, network switch %s\n",
		int(countFrom), bd.Total,
		report.Percent(bd.Share(core.IIDRotation)),
		report.Percent(bd.Share(core.SubnetMove)),
		report.Percent(bd.Share(core.NetworkSwitch)))
}

// metaLine renders the one-line dataset summary shown before analysis
// output. The codec deliberately does not appear: analyze output over
// a compressed dataset must be byte-identical to the uncompressed run
// (the contract diff-based tooling relies on); `info` and `verify`
// surface the codec instead.
func metaLine(m dataset.Meta) string {
	return fmt.Sprintf("dataset: seed=%d users=%d days=%d..%d sample=%s records=%d",
		m.Seed, m.Users, m.FromDay, m.ToDay, m.Sample, m.Records)
}

func printCoverage(rep telemetry.SalvageReport) {
	total := rep.Blocks + rep.CorruptBlocks
	fmt.Printf("tolerant read: analyzed %d of %d blocks (%d records; %d corrupt blocks, %d bytes skipped)\n\n",
		rep.Blocks, total, rep.Records, rep.CorruptBlocks, rep.SkippedBytes)
}

// startCPUProfile begins CPU profiling when path is non-empty and
// returns the stop function, which reports the profile file's close
// error (a no-op otherwise). The profile file is created through the
// faultio seam so a `gen -faults` campaign covers every write the
// command makes.
func startCPUProfile(fsys faultio.FS, path string) func() error {
	if path == "" {
		return func() error { return nil }
	}
	f, err := fsys.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fatal(err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return closeProfile(f, path)
	}
}

// writeMemProfile snapshots the heap to path (after a GC, so the
// profile reflects live memory) when path is non-empty.
func writeMemProfile(fsys faultio.FS, path string) error {
	if path == "" {
		return nil
	}
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return closeProfile(f, path)
}

// closeProfile closes a profile file, naming it in the error.
func closeProfile(f faultio.File, path string) error {
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// mergeRetry is merge's retry policy for -retries n (n >= 0): n
// re-attempts per part, none at 0.
func mergeRetry(n int) retry.Policy {
	return retry.Policy{MaxRetries: cmp.Or(n, retry.NoRetries)}
}

// usageError reports a flag value subcommand cmd cannot mean and exits
// 2, before anything is written.
func usageError(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "userv6gen: "+cmd+": "+format+"\n", args...)
	os.Exit(2)
}

// atExit, when set, is what the running command must do before it
// exits, whether it returns or fails through fatal; runAtExit runs it
// once.
var atExit func() error

func runAtExit() error {
	f := atExit
	atExit = nil
	if f == nil {
		return nil
	}
	return f()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "userv6gen:", err)
	if err := runAtExit(); err != nil {
		fmt.Fprintln(os.Stderr, "userv6gen:", err)
	}
	os.Exit(1)
}
