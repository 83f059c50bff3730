package core

// Plan: how an analysis run executes. Every registered analyzer folds
// commutatively, so there is one way to run: each decode worker feeds a
// worker-local replica of the set, and the replicas fold into the
// primaries once the whole source has been read. The library's
// userv6.PlanSource resolves a plan, and the CLI's analyze -explain
// prints it.

import (
	"fmt"
	"strings"
)

// Mode labels a plan by its worker count. It does not change how the
// plan runs: one worker's replica sees the blocks in stream order, more
// workers' replicas see them in completion order, and the fold makes
// the two exact.
type Mode int

const (
	// ModeSequential is a one-worker plan.
	ModeSequential Mode = iota
	// ModeFused is a plan of more than one worker.
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

// Plan is a resolved execution: the worker count, the source's part
// count and the read mode.
type Plan struct {
	Mode Mode
	// Workers is the resolved pool size (GOMAXPROCS applied).
	Workers  int
	Parts    int
	Tolerant bool
}

// Explain renders the plan as one line for humans (the CLI's -explain
// flag): mode, pool size, part fan-out, and how the plan runs.
func (p Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s workers=%d", p.Mode, p.Workers)
	if p.Parts > 1 {
		fmt.Fprintf(&b, " parts=%d", p.Parts)
	}
	if p.Tolerant {
		b.WriteString(" tolerant")
	}
	b.WriteString(" — decode workers feed worker-local replicas, folded once after the last part is read")
	if p.Parts > 1 {
		fmt.Fprintf(&b, "; %d parts analyzed independently (disjoint user ranges fold exactly)", p.Parts)
	}
	return b.String()
}
