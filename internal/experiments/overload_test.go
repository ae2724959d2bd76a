package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"proteus/internal/telemetry"
)

// TestOverloadRobustness checks the experiment's acceptance criteria on the
// adversarial stale-plan trace: the full guard must beat the unguarded
// system on SLO violations, beat shed-only on goodput, pay only a bounded
// accuracy cost, and leave its emergency episodes visible in both the
// lifecycle trace and the controller's audit trail.
func TestOverloadRobustness(t *testing.T) {
	o := quick()
	o.Trace = true
	reports, err := OverloadRobustness(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want 2 (bursty, adversarial)", len(reports))
	}
	var adv OverloadReport
	for _, rep := range reports {
		if len(rep.Runs) != len(OverloadGuardNames) {
			t.Fatalf("%s: %d runs, want %d", rep.Trace, len(rep.Runs), len(OverloadGuardNames))
		}
		for i, r := range rep.Runs {
			if r.Guard != OverloadGuardNames[i] {
				t.Fatalf("%s: run %d is %q, want %q", rep.Trace, i, r.Guard, OverloadGuardNames[i])
			}
		}
		if rep.Trace == "adversarial" {
			adv = rep
		}
	}
	noGuard, shedOnly, full := adv.Runs[0], adv.Runs[1], adv.Runs[2]

	if noGuard.Rejected != 0 || noGuard.Degraded != 0 || noGuard.AuditEpisodes != 0 {
		t.Errorf("no-guard run took guard actions: rejected=%d degraded=%d audit=%d",
			noGuard.Rejected, noGuard.Degraded, noGuard.AuditEpisodes)
	}
	if shedOnly.Degraded != 0 {
		t.Errorf("shed-only degraded %d times, want 0", shedOnly.Degraded)
	}
	if shedOnly.Rejected == 0 {
		t.Error("shed-only rejected nothing on the adversarial trace")
	}

	// The headline criteria: fewer violations than no-guard, more goodput
	// than shed-only.
	if full.Result.Summary.ViolationRatio >= noGuard.Result.Summary.ViolationRatio {
		t.Errorf("degrade+shed violation ratio %.4f, want < no-guard %.4f",
			full.Result.Summary.ViolationRatio, noGuard.Result.Summary.ViolationRatio)
	}
	if full.Goodput <= shedOnly.Goodput {
		t.Errorf("degrade+shed goodput %.1f, want > shed-only %.1f",
			full.Goodput, shedOnly.Goodput)
	}
	// Emergency degradation trades accuracy for goodput, but boundedly.
	if drop := noGuard.Result.Summary.EffectiveAccuracy - full.Result.Summary.EffectiveAccuracy; drop > 2 {
		t.Errorf("degrade+shed mean accuracy dropped %.2f points vs no-guard, want <= 2", drop)
	}
	// The episode must be observable end to end.
	if full.Degraded == 0 {
		t.Error("degrade+shed never degraded on the adversarial trace")
	}
	if full.AuditEpisodes == 0 {
		t.Error("degrade+shed left no overload records in the plan audit")
	}
	if full.Result.Trace == nil {
		t.Fatal("tracing enabled but no tracer attached")
	}
	starts, ends := 0, 0
	for _, ev := range full.Result.Trace.Events() {
		switch ev.Kind {
		case telemetry.EvDegradeStart:
			starts++
		case telemetry.EvDegradeEnd:
			ends++
		}
	}
	if starts == 0 {
		t.Error("no degrade_start events in the lifecycle trace")
	}
	if ends > starts {
		t.Errorf("%d degrade_end events but only %d starts", ends, starts)
	}
}

// TestOverloadRunDeterminism runs the full guard twice from the same seed
// and requires byte-identical reports (metrics, counters, audit counts).
func TestOverloadRunDeterminism(t *testing.T) {
	o := Options{
		ClusterSize:  20,
		TraceSeconds: 90,
		BaseQPS:      150,
		PeakQPS:      420,
		Seed:         7,
		SolverBudget: 440,
	}.withDefaults()
	tr := o.adversarialTrace()
	marshal := func() []byte {
		run, err := overloadRun(o, "degrade+shed", tr)
		if err != nil {
			t.Fatal(err)
		}
		run.Result.Trace = nil // pointer identity is not part of the comparison
		b, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed overload runs differ:\n%s\n%s", a, b)
	}
}
