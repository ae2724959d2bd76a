package attrib

import (
	"testing"
	"time"

	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
)

// mkEvents records a synthetic lifecycle through a real tracer so the seq
// numbers and ring semantics match production traces.
func mkEvents(record func(tr *telemetry.Tracer)) []telemetry.Event {
	tr := telemetry.NewTracer(1 << 10)
	record(tr)
	return tr.Events()
}

func ns(d time.Duration) int64 { return d.Nanoseconds() }

// TestHappyPathDecomposition pins the component waterfall of an untroubled
// query: every consecutive gap lands in the right component and the sum is
// exactly the end-to-end latency.
func TestHappyPathDecomposition(t *testing.T) {
	ms := time.Millisecond
	events := mkEvents(func(tr *telemetry.Tracer) {
		ctx := telemetry.Ctx{Plan: 1}
		tr.RecordCtx(0, telemetry.EvArrival, 7, 0, -1, -1, ctx)
		tr.RecordCtx(1*ms, telemetry.EvRoute, 7, 0, 2, -1, ctx)
		tr.RecordCtx(2*ms, telemetry.EvEnqueue, 7, 0, 2, -1, ctx)
		tr.RecordCtx(13*ms, telemetry.EvExecStart, 7, 0, 2, 0, ctx)
		tr.RecordCtx(33*ms, telemetry.EvDone, 7, 0, 2, 0, ctx)
	})
	rep := Analyze(Input{Events: events})
	if len(rep.Queries) != 1 {
		t.Fatalf("%d queries, want 1", len(rep.Queries))
	}
	q := rep.Queries[0]
	if q.Outcome != OutcomeServed || q.Blame != BlameNone {
		t.Fatalf("outcome %q blame %q, want served with no blame", q.Outcome, q.Blame)
	}
	want := [NumComponents]int64{
		CompAdmission: ns(2 * ms), CompQueueWait: ns(11 * ms), CompExec: ns(20 * ms),
	}
	if q.Components != want {
		t.Fatalf("components %v, want %v", q.Components, want)
	}
	if q.E2E != 33*ms {
		t.Fatalf("e2e %v, want 33ms", q.E2E)
	}
	var sum int64
	for _, c := range q.Components {
		sum += c
	}
	if sum != q.E2E.Nanoseconds() {
		t.Fatalf("components sum %d != e2e %d", sum, q.E2E.Nanoseconds())
	}
	if q.Device != 2 || q.PlanAtEnqueue != 1 || q.PlanAtEnd != 1 {
		t.Fatalf("device/plan joins wrong: %+v", q)
	}
}

// TestRerouteDecompositionAndBlame pins the failure path: both the wait
// wasted on the dead device and the requeue→enqueue span become the
// per-cause re-route penalty, and when that penalty dominates a late query
// the blame is failure_reroute.
func TestRerouteDecompositionAndBlame(t *testing.T) {
	ms := time.Millisecond
	events := mkEvents(func(tr *telemetry.Tracer) {
		ctx := telemetry.Ctx{Plan: 2}
		fail := telemetry.Ctx{Plan: 2, Cause: telemetry.CauseDeviceFailure}
		tr.RecordCtx(0, telemetry.EvArrival, 9, 1, -1, -1, ctx)
		tr.RecordCtx(0, telemetry.EvEnqueue, 9, 1, 0, -1, ctx)
		tr.RecordCtx(5*ms, telemetry.EvRequeued, 9, 1, -1, -1, fail)
		tr.RecordCtx(45*ms, telemetry.EvRetried, 9, 1, -1, -1, fail)
		tr.RecordCtx(45*ms, telemetry.EvEnqueue, 9, 1, 3, -1, ctx)
		tr.RecordCtx(50*ms, telemetry.EvExecStart, 9, 1, 3, 4, ctx)
		tr.RecordCtx(60*ms, telemetry.EvLate, 9, 1, 3, 4, ctx)
	})
	rep := Analyze(Input{Events: events})
	q := rep.Queries[0]
	if q.Outcome != OutcomeLate {
		t.Fatalf("outcome %q, want late", q.Outcome)
	}
	if got := q.Components[CompRerouteFailure]; got != ns(45*ms) {
		t.Fatalf("reroute_device_failure %d, want %d (5ms wasted wait + 40ms re-route)", got, ns(45*ms))
	}
	if got := q.Components[CompQueueWait]; got != ns(5*ms) {
		t.Fatalf("queue_wait %d, want %d (second enqueue only)", got, ns(5*ms))
	}
	if q.Retries != 1 {
		t.Fatalf("retries %d, want 1", q.Retries)
	}
	if q.Blame != BlameFailureReroute {
		t.Fatalf("blame %q, want failure_reroute (%s)", q.Blame, q.Detail)
	}
	if len(rep.Violated) != 1 || rep.Violated[0] != 0 {
		t.Fatalf("violated index %v, want [0]", rep.Violated)
	}
}

// TestBlameJoins pins the causal joins: stale_plan needs a plan change
// mid-flight, degraded_exec an active episode during a dominant exec, and
// drop causes map to their labels (backpressure_ban only under an episode).
func TestBlameJoins(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name   string
		record func(tr *telemetry.Tracer)
		want   Blame
	}{
		{"stale_plan", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(90*ms, telemetry.EvExecStart, 1, 0, 0, 0, telemetry.Ctx{Plan: 4})
			tr.RecordCtx(100*ms, telemetry.EvLate, 1, 0, 0, 0, telemetry.Ctx{Plan: 4})
		}, BlameStalePlan},
		{"burst_queueing", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(90*ms, telemetry.EvExecStart, 1, 0, 0, 0, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(100*ms, telemetry.EvLate, 1, 0, 0, 0, telemetry.Ctx{Plan: 3})
		}, BlameBurstQueueing},
		{"overload_queueing", func(tr *telemetry.Tracer) {
			ep := telemetry.Ctx{Plan: 3, Episode: 2}
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, ep)
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, ep)
			tr.RecordCtx(90*ms, telemetry.EvExecStart, 1, 0, 0, 0, ep)
			tr.RecordCtx(100*ms, telemetry.EvLate, 1, 0, 0, 0, ep)
		}, BlameOverloadQueueing},
		{"degraded_exec", func(tr *telemetry.Tracer) {
			ep := telemetry.Ctx{Plan: 3, Episode: 5}
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, ep)
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, ep)
			tr.RecordCtx(1*ms, telemetry.EvExecStart, 1, 0, 0, 0, ep)
			tr.RecordCtx(100*ms, telemetry.EvLate, 1, 0, 0, 0, ep)
		}, BlameDegradedExec},
		{"slow_exec", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(1*ms, telemetry.EvExecStart, 1, 0, 0, 0, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(100*ms, telemetry.EvLate, 1, 0, 0, 0, telemetry.Ctx{Plan: 3})
		}, BlameSlowExec},
		{"admission_shed", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(0, telemetry.EvDropped, 1, 0, -1, -1,
				telemetry.Ctx{Plan: 3, Cause: telemetry.CauseShedAdmission})
		}, BlameAdmissionShed},
		{"backpressure_ban", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3, Episode: 1})
			tr.RecordCtx(0, telemetry.EvDropped, 1, 0, -1, -1,
				telemetry.Ctx{Plan: 3, Episode: 1, Cause: telemetry.CauseNoRoute})
		}, BlameBackpressureBan},
		{"no_route", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{})
			tr.RecordCtx(0, telemetry.EvDropped, 1, 0, -1, -1,
				telemetry.Ctx{Cause: telemetry.CauseNoRoute})
		}, BlameNoRoute},
		{"expired_blames_dominant", func(tr *telemetry.Tracer) {
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(80*ms, telemetry.EvDropped, 1, 0, 0, -1,
				telemetry.Ctx{Plan: 3, Cause: telemetry.CauseExpired})
		}, BlameBurstQueueing},
		{"retry_budget", func(tr *telemetry.Tracer) {
			fail := telemetry.Ctx{Plan: 3, Cause: telemetry.CauseDeviceFailure}
			tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 3})
			tr.RecordCtx(5*ms, telemetry.EvRequeued, 1, 0, -1, -1, fail)
			tr.RecordCtx(5*ms, telemetry.EvDropped, 1, 0, -1, -1,
				telemetry.Ctx{Plan: 3, Cause: telemetry.CauseRetryBudget})
		}, BlameFailureReroute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Analyze(Input{Events: mkEvents(tc.record)})
			if len(rep.Queries) != 1 {
				t.Fatalf("%d queries, want 1", len(rep.Queries))
			}
			q := rep.Queries[0]
			if q.Blame != tc.want {
				t.Fatalf("blame %q (%s), want %q", q.Blame, q.Detail, tc.want)
			}
		})
	}
}

// TestStalePlanDetailNamesTrigger pins the plan-history join: when the
// superseding plan's audit record is available, the blame detail names its
// trigger.
func TestStalePlanDetailNamesTrigger(t *testing.T) {
	ms := time.Millisecond
	events := mkEvents(func(tr *telemetry.Tracer) {
		tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(90*ms, telemetry.EvLate, 1, 0, 0, 0, telemetry.Ctx{Plan: 2})
	})
	rep := Analyze(Input{
		Events: events,
		Plans: []controlplane.PlanRecord{
			{Seq: 1, Trigger: "initial"},
			{Seq: 2, Trigger: "burst"},
		},
	})
	q := rep.Queries[0]
	if q.Blame != BlameStalePlan {
		t.Fatalf("blame %q, want stale_plan", q.Blame)
	}
	if want := "(trigger burst)"; !contains(q.Detail, want) {
		t.Fatalf("detail %q missing %q", q.Detail, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTruncatedTraceMarksIncomplete pins the satellite behaviour: a query
// whose arrival was evicted still decomposes its surviving suffix, but the
// explanation and report are flagged incomplete.
func TestTruncatedTraceMarksIncomplete(t *testing.T) {
	ms := time.Millisecond
	events := mkEvents(func(tr *telemetry.Tracer) {
		tr.RecordCtx(5*ms, telemetry.EvEnqueue, 3, 0, 1, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(8*ms, telemetry.EvExecStart, 3, 0, 1, 0, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(9*ms, telemetry.EvDone, 3, 0, 1, 0, telemetry.Ctx{Plan: 1})
	})
	rep := Analyze(Input{Events: events, TraceDropped: 17})
	if !rep.Incomplete || rep.TraceDropped != 17 {
		t.Fatalf("report incomplete=%v dropped=%d, want true/17", rep.Incomplete, rep.TraceDropped)
	}
	q := rep.Queries[0]
	if !q.Incomplete {
		t.Fatal("suffix-only query must be marked incomplete")
	}
	if q.E2E != 4*ms {
		t.Fatalf("suffix e2e %v, want 4ms", q.E2E)
	}
}

// TestUnfinishedQueriesExcluded pins that in-flight queries (no terminal
// event) are counted but never explained or blamed.
func TestUnfinishedQueriesExcluded(t *testing.T) {
	events := mkEvents(func(tr *telemetry.Tracer) {
		tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{})
		tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{})
	})
	rep := Analyze(Input{Events: events})
	if len(rep.Queries) != 0 || rep.Unfinished != 1 {
		t.Fatalf("queries=%d unfinished=%d, want 0/1", len(rep.Queries), rep.Unfinished)
	}
}

// TestSummaries pins the family/window aggregation: counts, blame tallies in
// deterministic order, and violated-component sums.
func TestSummaries(t *testing.T) {
	ms := time.Millisecond
	events := mkEvents(func(tr *telemetry.Tracer) {
		// Family 0: one served, one late (burst_queueing) in window 0.
		tr.RecordCtx(0, telemetry.EvArrival, 1, 0, -1, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(0, telemetry.EvEnqueue, 1, 0, 0, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(1*ms, telemetry.EvDone, 1, 0, 0, 0, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(0, telemetry.EvArrival, 2, 0, -1, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(0, telemetry.EvEnqueue, 2, 0, 0, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(50*ms, telemetry.EvLate, 2, 0, 0, 0, telemetry.Ctx{Plan: 1})
		// Family 1: one dropped (admission shed) in window 1 (t=11s).
		at := 11 * time.Second
		tr.RecordCtx(at, telemetry.EvArrival, 3, 1, -1, -1, telemetry.Ctx{Plan: 1})
		tr.RecordCtx(at, telemetry.EvDropped, 3, 1, -1, -1,
			telemetry.Ctx{Plan: 1, Cause: telemetry.CauseShedAdmission})
	})
	rep := Analyze(Input{Events: events, FamilyNames: []string{"resnet", "bert"}})
	if len(rep.Families) != 2 {
		t.Fatalf("%d family summaries, want 2", len(rep.Families))
	}
	f0, f1 := rep.Families[0], rep.Families[1]
	if f0.Name != "resnet" || f0.Queries != 2 || f0.Violated != 1 || f0.Late != 1 {
		t.Fatalf("family 0 summary wrong: %+v", f0)
	}
	if f1.Queries != 1 || f1.Dropped != 1 {
		t.Fatalf("family 1 summary wrong: %+v", f1)
	}
	if len(f0.Blames) != 1 || f0.Blames[0].Blame != BlameBurstQueueing {
		t.Fatalf("family 0 blames %+v", f0.Blames)
	}
	if len(f1.Blames) != 1 || f1.Blames[0].Blame != BlameAdmissionShed {
		t.Fatalf("family 1 blames %+v", f1.Blames)
	}
	if f0.ViolatedComponents[CompQueueWait] != ns(50*ms) {
		t.Fatalf("violated queue_wait %d, want %d", f0.ViolatedComponents[CompQueueWait], ns(50*ms))
	}
	if len(rep.Windows) != 2 {
		t.Fatalf("%d windows, want 2 (10s buckets)", len(rep.Windows))
	}
	if rep.Windows[0].Violated != 1 || rep.Windows[1].Violated != 1 {
		t.Fatalf("window violations %+v", rep.Windows)
	}
}

// TestViolatedWorstFirst pins the drill-down order: largest E2E first, ties
// broken by query id.
func TestViolatedWorstFirst(t *testing.T) {
	ms := time.Millisecond
	events := mkEvents(func(tr *telemetry.Tracer) {
		for i, lat := range []time.Duration{30 * ms, 90 * ms, 60 * ms} {
			id := uint64(i + 1)
			tr.RecordCtx(0, telemetry.EvArrival, id, 0, -1, -1, telemetry.Ctx{Plan: 1})
			tr.RecordCtx(0, telemetry.EvEnqueue, id, 0, 0, -1, telemetry.Ctx{Plan: 1})
			tr.RecordCtx(lat, telemetry.EvLate, id, 0, 0, 0, telemetry.Ctx{Plan: 1})
		}
	})
	rep := Analyze(Input{Events: events})
	if len(rep.Violated) != 3 {
		t.Fatalf("%d violated, want 3", len(rep.Violated))
	}
	order := [3]uint64{
		rep.Queries[rep.Violated[0]].Query,
		rep.Queries[rep.Violated[1]].Query,
		rep.Queries[rep.Violated[2]].Query,
	}
	if order != [3]uint64{2, 3, 1} {
		t.Fatalf("worst-first order %v, want [2 3 1]", order)
	}
}
