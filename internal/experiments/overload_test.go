package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"proteus/internal/telemetry"
)

// TestOverloadRobustness checks the experiment's acceptance criteria on the
// adversarial stale-plan trace. At quick() the guards must act as named
// (no-guard takes no action, shed-only never degrades, degrade+shed does),
// pay only a bounded accuracy cost, and leave their emergency episodes
// visible in both the lifecycle trace and the controller's audit trail.
// The headline comparisons are seed-sensitive, so they are predicates over
// overloadSeeds (see EXPERIMENTS.md "Overload robustness", which lists every
// seed's numbers):
//   - shed-only beats no-guard on violations and on goodput: every seed;
//   - degrade+shed's violation ratio, averaged over the seeds, is below
//     no-guard's. Per seed it is not: emergency degradation masks the top
//     accuracy tier, which only pays when the tiers below it have spare
//     capacity, and an optimal plan runs every tier but the last at its
//     peak. The full guard trails no-guard at seeds 7 and 20240427;
//   - degrade+shed beats shed-only on goodput: at most 1 of 5. This is the
//     documented deviation — degradation does not buy goodput on this
//     trace — so the test turns red when it starts holding.
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

	// The seed-sensitive comparisons, over every seed of overloadSeeds (the
	// first one's runs are those above).
	var shedBeatsNone, fullOutservesShed int
	var noneViol, fullViol float64
	for i, seed := range overloadSeeds {
		runs := adv.Runs
		if i > 0 {
			so := o
			so.Seed, so.Trace = seed, false
			so = so.withDefaults()
			tr := so.adversarialTrace()
			runs = nil
			for _, guard := range OverloadGuardNames {
				run, err := overloadRun(so, guard, tr)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run)
			}
		}
		none, shed, both := runs[0], runs[1], runs[2]
		if shed.Result.Summary.ViolationRatio < none.Result.Summary.ViolationRatio && shed.Goodput > none.Goodput {
			shedBeatsNone++
		}
		noneViol += none.Result.Summary.ViolationRatio
		fullViol += both.Result.Summary.ViolationRatio
		if both.Goodput > shed.Goodput {
			fullOutservesShed++
		}
		t.Logf("seed %d: violations %.4f / %.4f / %.4f, goodput %.1f / %.1f / %.1f (no-guard / shed-only / degrade+shed)", seed,
			none.Result.Summary.ViolationRatio, shed.Result.Summary.ViolationRatio, both.Result.Summary.ViolationRatio,
			none.Goodput, shed.Goodput, both.Goodput)
	}
	k := len(overloadSeeds)
	if shedBeatsNone != k {
		t.Errorf("shed-only beat no-guard on violations and goodput in %d of %d seeds, want all", shedBeatsNone, k)
	}
	if fullViol >= noneViol {
		t.Errorf("mean violation ratio over %d seeds: degrade+shed %.4f, want < no-guard %.4f", k, fullViol/float64(k), noneViol/float64(k))
	}
	if fullOutservesShed > 1 {
		t.Errorf("degrade+shed beat shed-only on goodput in %d of %d seeds: the documented deviation no longer holds; update EXPERIMENTS.md", fullOutservesShed, k)
	}
}

// overloadSeeds are the seeds TestOverloadRobustness's predicates range
// over: quick()'s, three more, and EXPERIMENTS.md's.
var overloadSeeds = []uint64{7, 1, 2, 3, 20240427}

// TestOverloadRunDeterminism runs the full guard twice from the same seed
// and requires byte-identical reports (metrics, counters, audit counts).
func TestOverloadRunDeterminism(t *testing.T) {
	o := Options{
		ClusterSize:  20,
		TraceSeconds: 90,
		BaseQPS:      150,
		PeakQPS:      420,
		Seed:         7,
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
