package attrib_test

import (
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/attrib"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// simTrace runs one seeded simulation and returns its trace, plan history
// and family names. qps chooses the load regime; faults may be nil.
func simTrace(t *testing.T, seed uint64, qps float64, faults *cluster.FailureSchedule,
	overloaded bool) attrib.Input {
	t.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	cfg := core.Config{
		Cluster:   cluster.ScaledTestbed(4),
		Families:  fams,
		Allocator: allocator.NewMILP(nil),
		Seed:      seed,
		Tracer:    telemetry.NewTracer(1 << 18),
		Telemetry: telemetry.NewRegistry(),
		Faults:    faults,
	}
	if overloaded {
		cfg.TSDB = tsdb.NewRecorder(tsdb.Config{
			SampleInterval: time.Second,
			SLO: tsdb.SLOConfig{
				Target:      0.01,
				BurnRate:    2,
				ShortWindow: 5 * time.Second,
				LongWindow:  30 * time.Second,
			},
		})
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := make([]float64, len(fams))
	for i := range per {
		per[i] = qps / float64(len(fams))
	}
	res, err := sys.Run(trace.NewFlat(models.FamilyNames(fams), per, 60))
	if err != nil {
		t.Fatal(err)
	}
	return attrib.Input{
		Events:       cfg.Tracer.Events(),
		Plans:        res.Plans,
		FamilyNames:  models.FamilyNames(fams),
		TraceDropped: cfg.Tracer.Dropped(),
	}
}

// TestConservationProperty is the satellite property test: across seeds and
// load regimes, every finished query's components must sum EXACTLY (integer
// nanoseconds) to its end-to-end latency, and every violated query must
// carry a blame label.
func TestConservationProperty(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  uint64
		qps   float64
		fault bool
	}{
		{"seed1_light", 1, 60, false},
		{"seed7_overload", 7, 600, false},
		{"seed42_faults", 42, 200, true},
		{"seed99_overload_faults", 99, 500, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var faults *cluster.FailureSchedule
			if tc.fault {
				faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
					{Device: 0, FailAt: 15 * time.Second, RecoverAt: 35 * time.Second},
					{Device: 2, FailAt: 20 * time.Second},
				}}
			}
			in := simTrace(t, tc.seed, tc.qps, faults, tc.qps >= 500)
			rep := attrib.Analyze(in)
			if len(rep.Queries) == 0 {
				t.Fatal("no queries attributed")
			}
			for i := range rep.Queries {
				q := &rep.Queries[i]
				var sum int64
				for c := attrib.Component(0); c < attrib.NumComponents; c++ {
					sum += q.Components[c]
				}
				if sum != q.E2E.Nanoseconds() {
					t.Fatalf("query %d: components sum %d != e2e %d (%+v)",
						q.Query, sum, q.E2E.Nanoseconds(), q)
				}
				if q.E2E != q.End-q.Start {
					t.Fatalf("query %d: e2e %v != end-start %v", q.Query, q.E2E, q.End-q.Start)
				}
				switch q.Outcome {
				case attrib.OutcomeServed:
					if q.Blame != attrib.BlameNone {
						t.Fatalf("served query %d has blame %q", q.Query, q.Blame)
					}
				case attrib.OutcomeLate, attrib.OutcomeDropped:
					if q.Blame == attrib.BlameNone {
						t.Fatalf("violated query %d (%s) has no blame", q.Query, q.Outcome)
					}
				default:
					t.Fatalf("query %d has outcome %q in finished set", q.Query, q.Outcome)
				}
			}
		})
	}
}

// TestFaultBurstBlameLabels is the seeded fault+burst end-to-end: device
// failures during an overload burst must surface failure_reroute blames
// (stranded queries) and queueing blames (the burst), and the violated
// drill-down must agree with the summaries.
func TestFaultBurstBlameLabels(t *testing.T) {
	// Fail the busiest devices: under this seed's plan devices 2 and 3 carry
	// most of the routing mass, so their queues are deep when they die and
	// the strands re-route with cause device_failure.
	faults := &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 3, FailAt: 10 * time.Second, RecoverAt: 30 * time.Second},
		{Device: 2, FailAt: 20 * time.Second, RecoverAt: 40 * time.Second},
	}}
	in := simTrace(t, 7, 600, faults, true)
	rep := attrib.Analyze(in)
	if len(rep.Violated) == 0 {
		t.Fatal("overloaded fault run produced no violations")
	}
	tally := map[attrib.Blame]int{}
	for _, i := range rep.Violated {
		tally[rep.Queries[i].Blame]++
	}
	queueing := tally[attrib.BlameBurstQueueing] + tally[attrib.BlameStalePlan] +
		tally[attrib.BlameOverloadQueueing]
	if queueing == 0 {
		t.Fatalf("burst produced no queueing blame: %v", tally)
	}
	if tally[attrib.BlameFailureReroute] == 0 {
		t.Fatalf("device failure produced no failure_reroute blame: %v", tally)
	}
	// The family summaries must agree with the per-query tally.
	var sumViolated int
	for _, f := range rep.Families {
		sumViolated += f.Violated
	}
	if sumViolated != len(rep.Violated) {
		t.Fatalf("family summaries count %d violated, drill-down has %d",
			sumViolated, len(rep.Violated))
	}
}

// TestAttributionDeterministic asserts the engine end to end: two same-seed
// runs must produce identical reports (the CI smoke diffs the CLI's JSON;
// this is the in-process version).
func TestAttributionDeterministic(t *testing.T) {
	run := func() *attrib.Report {
		in := simTrace(t, 7, 400, nil, false)
		return attrib.Analyze(in)
	}
	a, b := run(), run()
	if len(a.Queries) != len(b.Queries) || len(a.Violated) != len(b.Violated) {
		t.Fatalf("report shapes diverged: %d/%d queries, %d/%d violated",
			len(a.Queries), len(b.Queries), len(a.Violated), len(b.Violated))
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d diverged:\n  %+v\n  %+v", i, a.Queries[i], b.Queries[i])
		}
	}
	for i := range a.Violated {
		if a.Violated[i] != b.Violated[i] {
			t.Fatalf("violated order diverged at %d", i)
		}
	}
}
