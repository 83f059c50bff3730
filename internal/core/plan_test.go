package core

import (
	"runtime"
	"strings"
	"testing"
)

// The planner's whole decision table: one worker is sequential, any
// other budget (including "all CPUs") is fused over every registered
// analyzer, since every registration is commutative.
func TestPlanModeSelection(t *testing.T) {
	cases := []struct {
		name    string
		in      PlanInput
		want    Mode
		workers int // 0 = GOMAXPROCS expected
	}{
		{"auto one worker", PlanInput{Workers: 1}, ModeSequential, 1},
		{"auto commutative", PlanInput{Workers: 4}, ModeFused, 4},
		{"auto default workers", PlanInput{}, ModeFused, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlan(tc.in)
			wantWorkers := tc.workers
			if wantWorkers == 0 {
				wantWorkers = runtime.GOMAXPROCS(0)
			}
			// On a one-CPU machine "all CPUs" is one worker, so sequential.
			want := tc.want
			if wantWorkers == 1 {
				want = ModeSequential
			}
			if p.Mode != want {
				t.Fatalf("mode %v, want %v (why: %s)", p.Mode, want, p.Why)
			}
			if p.Workers != wantWorkers {
				t.Fatalf("workers %d, want %d", p.Workers, wantWorkers)
			}
			if p.Why == "" {
				t.Fatal("plan has no rationale")
			}
		})
	}
}

func TestPlanExplain(t *testing.T) {
	ex := NewPlan(PlanInput{Workers: 3, Tolerant: true, Parts: 4}).Explain()
	for _, want := range []string{"mode=fused", "workers=3", "parts=4", "tolerant"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain() = %q, missing %q", ex, want)
		}
	}
}
