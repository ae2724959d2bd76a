package controlplane

import (
	"testing"
	"time"

	"proteus/internal/allocator"
)

// TestSanitizePlanRecordUnbudgeted: only the wall-clock measurements are
// zeroed; the solver's work — bound, nodes, gap, back-offs, and the marker
// of a solve the clock cut short — survives untouched.
func TestSanitizePlanRecordUnbudgeted(t *testing.T) {
	stats := allocator.SolverStats{
		Objective:   1.5,
		Bound:       1.6,
		RelGap:      0.05,
		Nodes:       17,
		Backoffs:    2,
		SolverTime:  40 * time.Millisecond,
		TimeLimited: true,
	}
	r := PlanRecord{Seq: 3, SolveTime: 42 * time.Millisecond, Stats: stats}
	SanitizePlanRecord(&r)
	stats.SolverTime = 0
	if r.SolveTime != 0 || r.Stats != stats || r.Seq != 3 {
		t.Fatalf("want wall times zeroed and nothing else changed, got %+v", r)
	}
}

func TestSanitizePlansInPlace(t *testing.T) {
	plans := []PlanRecord{
		{SolveTime: time.Millisecond},
		{SolveTime: time.Second, Stats: allocator.SolverStats{SolverTime: time.Second, Nodes: 5}},
	}
	out := SanitizePlans(plans)
	if &out[0] != &plans[0] {
		t.Fatal("SanitizePlans must sanitize in place and return the same slice")
	}
	for i := range plans {
		if plans[i].SolveTime != 0 || plans[i].Stats.SolverTime != 0 {
			t.Fatalf("plan %d: wall times not zeroed", i)
		}
	}
	if plans[1].Stats.Nodes != 5 {
		t.Fatal("Nodes must survive sanitization")
	}
}
