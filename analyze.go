package userv6

// The execute layer of the source/plan/execute analysis stack. A
// dataset.Source names the parts of one logical telemetry corpus (a
// merged file or a sharded export's manifest), a core.Plan picks the execution mode — sequential or fused — and
// AnalyzeSource runs the plan: per part, decode workers fan out exactly
// as they would over a single file, and because every analyzer folds
// commutatively, worker-local replicas fold across parts exactly — so
// analyzing a manifest directly is byte-identical to merging it first
// and analyzing the merged file, minus the merge.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"

	"userv6/internal/core"
	"userv6/internal/dataset"
	"userv6/internal/telemetry"
)

// AnalyzeOptions configures one analysis run over a Source.
type AnalyzeOptions struct {
	// Workers is the decode/analysis pool size: <= 0 means GOMAXPROCS,
	// 1 selects the sequential mode, anything else the fused mode.
	Workers int
	// Tolerant selects the salvage read on every part: corrupt blocks
	// are skipped and the returned report says what the results
	// describe. Strict mode additionally verifies each part's declared
	// whole-file checksum (when the source carries one) before reading.
	Tolerant bool
}

// PlanSource resolves the execution plan for analyzing src under opts,
// without running anything — the CLI's -explain flag, and the first
// half of AnalyzeSource. The plan does not depend on set: every
// registered analyzer folds commutatively. The error is always nil.
func PlanSource(src dataset.Source, set *core.AnalyzerSet, opts AnalyzeOptions) (core.Plan, error) {
	return core.NewPlan(core.PlanInput{
		Workers:  opts.Workers,
		Tolerant: opts.Tolerant,
		Parts:    len(src.Parts()),
	}), nil
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
// On error the fused mode leaves the primaries unfolded. The sequential
// mode (Workers 1) feeds the primaries directly, so on error they hold
// whatever was observed before the failure. In both modes a panicking
// analyzer is recovered on its decode worker and returned as a
// *dataset.WorkerPanicError.
func AnalyzeSource(ctx context.Context, src dataset.Source, set *core.AnalyzerSet, opts AnalyzeOptions) (telemetry.SalvageReport, error) {
	plan, err := PlanSource(src, set, opts)
	if err != nil {
		return telemetry.SalvageReport{}, err
	}
	return ExecutePlan(ctx, src, set, plan)
}

// ExecutePlan runs an already-resolved plan over src, coalescing each
// decoded block before the analyzers as AnalyzeSource describes.
// Callers normally use AnalyzeSource; this entry point exists so a
// caller that printed Plan.Explain() runs exactly the plan it printed.
func ExecutePlan(ctx context.Context, src dataset.Source, set *core.AnalyzerSet, plan core.Plan) (telemetry.SalvageReport, error) {
	var zero telemetry.SalvageReport
	parts := src.Parts()
	if len(parts) == 0 {
		return zero, fmt.Errorf("userv6: source %s lists no parts", src.Kind())
	}

	// Strict mode verifies manifest-declared whole-file checksums up
	// front — the same per-part integrity gate a merge applies — so a
	// swapped or damaged part fails fast with its name, not mid-analysis
	// with a block error.
	if !plan.Tolerant {
		for i, path := range parts {
			want, ok := src.Expected(i)
			if !ok || want.CRC32C == "" {
				continue
			}
			got, err := dataset.FileCRC32C(path)
			if err != nil {
				return zero, err
			}
			if got != want.CRC32C {
				return zero, fmt.Errorf("userv6: part %s: file checksum %s does not match manifest %s",
					filepath.Base(path), got, want.CRC32C)
			}
		}
	}

	// agg accumulates every part's read coverage; finishPart also
	// cross-checks the part's observed frame codecs against its declared
	// policy, exactly like a merge does (tolerant admits the mismatch,
	// strict refuses).
	var agg telemetry.SalvageReport
	finishPart := func(i int, pr *dataset.ParallelReader) error {
		rep, ok := pr.Coverage()
		if !ok {
			return fmt.Errorf("userv6: part %s: read completed without coverage", filepath.Base(parts[i]))
		}
		if want, declared := src.Expected(i); declared && !plan.Tolerant {
			if err := dataset.CheckPartCodecs(want.Codec, rep.Codecs); err != nil {
				return fmt.Errorf("userv6: part %s: %w", filepath.Base(parts[i]), err)
			}
		}
		agg.Add(rep)
		return nil
	}
	var fused bool
	switch plan.Mode {
	case core.ModeSequential:
		plan.Workers = 1 // more workers would feed the primaries concurrently
	case core.ModeFused:
		fused = true
	default:
		return zero, fmt.Errorf("userv6: unknown execution mode %v", plan.Mode)
	}

	// Sequential: the one decode worker feeds the primaries directly, in
	// stream order. Fused: each decode worker feeds its own replica;
	// replicas persist across parts (part k+1's factory runs only after
	// part k's workers have been joined, so reuse is race-free), and one
	// fold at the very end covers the whole source. Either way a worker
	// coalesces its batch in place first: the batch is its own until the
	// callback returns.
	replicas := make([]*core.Replica, plan.Workers)
	for i, path := range parts {
		pr, err := dataset.OpenParallel(path, dataset.ParallelOptions{
			Workers: plan.Workers, Tolerant: plan.Tolerant,
		})
		if err != nil {
			return zero, err
		}
		err = pr.ForEachWorker(ctx, func(w int) func(dataset.Batch) error {
			var obs core.Observer = set
			if fused {
				if replicas[w] == nil {
					replicas[w] = set.NewReplica()
				}
				obs = replicas[w]
			}
			return func(b dataset.Batch) error {
				for _, o := range telemetry.Coalesce(b.Recs) {
					obs.Observe(o)
				}
				return nil
			}
		})
		if err == nil {
			err = finishPart(i, pr)
		}
		pr.Close()
		if err != nil {
			return zero, err
		}
	}
	if fused {
		// A worker that never received a batch never built its replica.
		set.Fold(slices.DeleteFunc(replicas, func(r *core.Replica) bool { return r == nil })...)
	}
	return agg, nil
}
