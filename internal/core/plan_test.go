package core

import (
	"strings"
	"testing"
)

func TestPlanExplain(t *testing.T) {
	ex := Plan{Mode: ModeFused, Workers: 3, Tolerant: true, Parts: 4}.Explain()
	for _, want := range []string{"mode=fused", "workers=3", "parts=4", "tolerant"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain() = %q, missing %q", ex, want)
		}
	}
}
