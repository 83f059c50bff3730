package core

// Plan: the one place that decides how an analysis run executes. Every
// registered analyzer folds commutatively, so the choice depends only
// on the worker budget: one worker reads sequentially into the
// primaries, more workers run fused. The library's AnalyzeSource and
// the CLI's analyze command plan from the same inputs and get back the
// mode, the normalized pool size, and a human-readable reason.

import (
	"fmt"
	"runtime"
	"strings"
)

// Mode is a concrete execution strategy for one analysis run.
type Mode int

const (
	// ModeSequential feeds the set's primaries directly from a
	// one-worker read: the reference the fused mode must match.
	ModeSequential Mode = iota
	// ModeFused gives each decode worker a private replica of every
	// analyzer, fed inline from the blocks it decodes, folded once at
	// the end.
	ModeFused
)

func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModeFused:
		return "fused"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// PlanInput is everything mode selection depends on: the worker
// budget, tolerance, and the source's part count.
type PlanInput struct {
	// Workers is the requested pool size: <= 0 means GOMAXPROCS, 1
	// means sequential.
	Workers int
	// Tolerant selects the salvage read path on every part.
	Tolerant bool
	// Parts mirrors dataset.SourceCaps.PartCount.
	Parts int
}

// Plan is a resolved execution strategy: the mode, the normalized
// worker count, and why.
type Plan struct {
	Mode Mode
	// Workers is the resolved pool size (GOMAXPROCS applied; 1 for
	// sequential).
	Workers  int
	Parts    int
	Tolerant bool
	// Why is the one-line selection rationale.
	Why string
}

// NewPlan resolves a PlanInput: one worker is sequential, anything else
// is fused. It never starts goroutines; the executor reads the returned
// Mode.
func NewPlan(in PlanInput) Plan {
	p := Plan{Workers: in.Workers, Parts: in.Parts, Tolerant: in.Tolerant}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Parts <= 0 {
		p.Parts = 1
	}
	if p.Workers == 1 {
		p.Mode = ModeSequential
		p.Why = "one worker: the decode worker feeds the primaries directly"
	} else {
		p.Mode = ModeFused
		p.Why = "decode workers feed worker-local replicas, folded once"
	}
	return p
}

// Explain renders the plan as one line for humans (the CLI's -explain
// flag): mode, pool size, part fan-out, and the selection rationale.
func (p Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s workers=%d", p.Mode, p.Workers)
	if p.Parts > 1 {
		fmt.Fprintf(&b, " parts=%d", p.Parts)
	}
	if p.Tolerant {
		b.WriteString(" tolerant")
	}
	if p.Why != "" {
		b.WriteString(" — ")
		b.WriteString(p.Why)
	}
	if p.Parts > 1 {
		b.WriteString(fmt.Sprintf("; %d parts analyzed independently (disjoint user ranges fold exactly)", p.Parts))
	}
	return b.String()
}
