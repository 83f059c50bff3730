package userv6

// The execute layer of the source/plan/execute analysis stack. A
// dataset.Source names the parts of one logical telemetry corpus (a
// merged file or a sharded export's manifest), a core.Plan fixes the
// worker count, and AnalyzeSource runs the plan: per part, each decode
// worker feeds its own replica of the analyzers exactly as it would
// over a single file, and because every analyzer folds commutatively,
// the replicas fold across parts exactly — so analyzing a manifest
// directly is byte-identical to merging it first and analyzing the
// merged file, minus the merge.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// AnalyzeOptions configures one analysis run over a Source.
type AnalyzeOptions struct {
	// Workers is the decode/analysis pool size: <= 0 means GOMAXPROCS.
	// Each worker feeds its own replica of the analyzers, one worker
	// included.
	Workers int
	// Tolerant selects the salvage read on every part: corrupt blocks
	// are skipped and the returned report says what the results
	// describe. Strict mode additionally checks, after reading each
	// part, its whole-file checksum and block codecs against what the
	// source declares (a manifest declares both).
	Tolerant bool
}

// PlanSource resolves the execution plan for analyzing src under opts,
// without running anything — the CLI's -explain flag, and the first
// half of AnalyzeSource. The plan does not depend on set: every
// registered analyzer folds commutatively. The error is always nil.
func PlanSource(src dataset.Source, set *core.AnalyzerSet, opts AnalyzeOptions) (core.Plan, error) {
	p := core.Plan{Mode: core.ModeFused, Workers: opts.Workers, Parts: len(src.Parts()), Tolerant: opts.Tolerant}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Workers == 1 {
		p.Mode = core.ModeSequential
	}
	return p, nil
}

// AnalyzeSource plans and runs one analysis pass over src, populating
// set's primaries. Each decoded block is coalesced (telemetry.Coalesce)
// before the analyzers see it, so records that repeat a sighting reach
// them as one; every registration's state is invariant under that (see
// core.AddCommutativeAnalyzer). The returned report aggregates per-part
// read coverage (blocks, records, per-codec block counts) across the
// whole source; its counts are the stored records, not the coalesced
// ones. For a manifest it matches what a merge-then-analyze of the
// same parts would report.
//
// The primaries change only on success: every decode worker feeds a
// replica, and the replicas fold into the primaries once the last part
// has been read and checked. An error names the part it came from; a
// panicking analyzer is recovered on its decode worker and returned as
// a *dataset.WorkerPanicError.
func AnalyzeSource(ctx context.Context, src dataset.Source, set *core.AnalyzerSet, opts AnalyzeOptions) (telemetry.SalvageReport, error) {
	plan, err := PlanSource(src, set, opts)
	if err != nil {
		return telemetry.SalvageReport{}, err
	}
	return ExecutePlan(ctx, src, set, plan)
}

// ExecutePlan runs an already-resolved plan over src, as AnalyzeSource
// describes. Callers normally use AnalyzeSource; this entry point
// exists so a caller that printed Plan.Explain() runs exactly the plan
// it printed.
func ExecutePlan(ctx context.Context, src dataset.Source, set *core.AnalyzerSet, plan core.Plan) (telemetry.SalvageReport, error) {
	var agg telemetry.SalvageReport
	parts := src.Parts()
	if len(parts) == 0 {
		return agg, fmt.Errorf("userv6: source %s lists no parts", src.Kind())
	}
	// Worker w of every part feeds replicas[w]: part k+1's factory runs
	// only after part k's workers have been joined, so the reuse is
	// race-free. A worker coalesces its batch in place first: the batch
	// is its own until the callback returns.
	var replicas []*core.Replica
	feed := func(w int) func(dataset.Batch) error {
		for len(replicas) <= w {
			replicas = append(replicas, set.NewReplica())
		}
		r := replicas[w]
		return func(b dataset.Batch) error {
			for _, o := range telemetry.Coalesce(b.Recs) {
				r.Observe(o)
			}
			return nil
		}
	}
	for i, path := range parts {
		pr, err := dataset.OpenParallel(path, dataset.ParallelOptions{Workers: plan.Workers, Tolerant: plan.Tolerant})
		if err == nil {
			err = pr.ForEachWorker(ctx, feed)
			pr.Close()
		}
		if err == nil && !plan.Tolerant {
			err = checkPart(pr, src, i)
		}
		if err != nil {
			return telemetry.SalvageReport{}, fmt.Errorf("userv6: part %s: %w", filepath.Base(path), err)
		}
		rep, _ := pr.Coverage()
		agg.Add(rep)
	}
	set.Fold(replicas...)
	return agg, nil
}

// checkPart checks a completed strict read of part i against what src
// declares for it, as a merge does: the whole-file checksum of exactly
// the bytes the read analyzed, and the block codecs it saw against the
// declared policy.
func checkPart(pr *dataset.ParallelReader, src dataset.Source, i int) error {
	want, ok := src.Expected(i)
	if !ok {
		return nil
	}
	if got := pr.CRC32C(); want.CRC32C != "" && got != want.CRC32C {
		return fmt.Errorf("file checksum %s does not match manifest %s", got, want.CRC32C)
	}
	rep, _ := pr.Coverage()
	return dataset.CheckPartCodecs(want.Codec, rep.Codecs)
}
