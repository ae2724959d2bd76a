package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/dataplane"
)

// TestFaultToleranceKillQuarter is the graceful-degradation scenario: a
// quarter of the fleet dies mid-trace and later recovers. The run must
// produce a "failure"-triggered re-allocation onto the survivors, conserve
// every injected query, and recover accuracy after the devices return.
func TestFaultToleranceKillQuarter(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 60*time.Second, 120*time.Second)
	if len(cfg.Faults.Events) != 2 {
		t.Fatalf("expected 2 victims, got %d", len(cfg.Faults.Events))
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 300, 180))
	if err != nil {
		t.Fatal(err)
	}

	// Conservation: every injected query is accounted for exactly once.
	s := res.Summary
	if s.Queries == 0 {
		t.Fatal("no queries simulated")
	}
	if s.Served+s.Late+s.Dropped != s.Queries {
		t.Fatalf("conservation violated: %d served + %d late + %d dropped != %d queries",
			s.Served, s.Late, s.Dropped, s.Queries)
	}

	// Failure accounting.
	if s.Failures != 2 || s.Recoveries != 2 {
		t.Fatalf("failures=%d recoveries=%d, want 2/2", s.Failures, s.Recoveries)
	}
	if s.Requeued == 0 {
		t.Fatal("killing loaded devices must strand queries")
	}
	if s.MeanTimeToRecover <= 0 {
		t.Fatal("handled failures must yield a time-to-recover")
	}

	// The control plane must have re-planned on the failure (and again on
	// recovery), not just at the periodic ticks.
	var failurePlan, recoveryPlan bool
	for _, p := range res.Plans {
		switch p.Trigger {
		case "failure":
			failurePlan = true
			if p.At < 60*time.Second {
				t.Fatalf("failure plan at %v predates the failure", p.At)
			}
		case "recovery":
			recoveryPlan = true
		}
	}
	if !failurePlan {
		t.Fatalf("no failure-triggered plan in history: %+v", res.Plans)
	}
	if !recoveryPlan {
		t.Fatalf("no recovery-triggered plan in history: %+v", res.Plans)
	}

	// The failure plan must live entirely on the survivors.
	downAt := map[int]bool{}
	for _, ev := range cfg.Faults.Events {
		downAt[ev.Device] = true
	}
	for _, p := range res.Plans {
		if p.Trigger != "failure" {
			continue
		}
		for id, n := range p.HostedVariants {
			if n > sys.cfg.Cluster.Size()-len(downAt) {
				t.Fatalf("failure plan hosts %s on %d devices with only %d healthy",
					id, n, sys.cfg.Cluster.Size()-len(downAt))
			}
		}
	}

	// Accuracy over the timeline: compare the mean effective accuracy while
	// degraded (devices down) against after recovery. With a quarter of the
	// fleet gone at this load, the MILP must trade accuracy for coverage,
	// and win it back once capacity returns.
	series := res.Collector.Series(-1)
	window := func(from, to time.Duration) (float64, int) {
		sum, n := 0.0, 0
		for _, p := range series {
			if p.Start < from || p.Start >= to {
				continue
			}
			if p.EffectiveAccuracy == p.EffectiveAccuracy { // skip NaN bins
				sum += p.EffectiveAccuracy
				n++
			}
		}
		return sum / float64(max(n, 1)), n
	}
	degraded, n1 := window(70*time.Second, 120*time.Second)
	recovered, n2 := window(140*time.Second, 180*time.Second)
	if n1 == 0 || n2 == 0 {
		t.Fatal("empty accuracy windows")
	}
	if degraded >= recovered {
		t.Fatalf("accuracy should dip while degraded (%.2f) and recover afterwards (%.2f)",
			degraded, recovered)
	}
}

// TestFaultRunsAreDeterministic pins the whole failure pipeline: two runs
// with the same seed and schedule must agree query for query.
func TestFaultRunsAreDeterministic(t *testing.T) {
	run := func() (int, int, int, int, int) {
		cfg := smallConfig(t)
		cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 30*time.Second, 60*time.Second)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(flatTrace(t, cfg.Families, 80, 90))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Summary
		return s.Queries, s.Served, s.Dropped, s.Requeued, len(res.Plans)
	}
	q1, s1, d1, r1, p1 := run()
	q2, s2, d2, r2, p2 := run()
	if q1 != q2 || s1 != s2 || d1 != d2 || r1 != r2 || p1 != p2 {
		t.Fatalf("fault runs diverged: (%d %d %d %d %d) vs (%d %d %d %d %d)",
			q1, s1, d1, r1, p1, q2, s2, d2, r2, p2)
	}
}

// TestPermanentFailureDegradesButServes kills devices that never come back:
// the system must keep serving on the survivors for the rest of the run.
func TestPermanentFailureDegradesButServes(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = cluster.KillFraction(cfg.Cluster, 0.25, 40*time.Second, 0)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 60, 120))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Recoveries != 0 {
		t.Fatalf("nothing should recover, got %d", s.Recoveries)
	}
	if s.Served+s.Late+s.Dropped != s.Queries {
		t.Fatal("conservation violated")
	}
	// The tail of the run still serves from the surviving devices.
	series := res.Collector.Series(-1)
	tail := series[len(series)-3:]
	for _, p := range tail {
		if p.ThroughputQPS <= 0 {
			t.Fatalf("no throughput at %v after permanent failure", p.Start)
		}
	}
}

// TestConservationPerDevice: a seeded fault run balances every device's books
// — each query a device accepted was completed, dropped by a step or handed
// back, none is left behind — and a device holding one query more than its
// exits account for fails the end-of-run check, which names it.
func TestConservationPerDevice(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Allocator = allocator.NewInfaasAccuracy()
	faults, err := cluster.RandomSchedule(cfg.Cluster, cluster.RandomScheduleConfig{
		MTBF: 40 * time.Second, MTTR: 10 * time.Second, Horizon: 80 * time.Second, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 120, 90)) // checks conservation at its end
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Failures == 0 || res.Summary.Requeued == 0 {
		t.Fatalf("%d failures stranded %d queries: the run hands nothing back", res.Summary.Failures, res.Summary.Requeued)
	}

	now := sys.engine.Now()
	for d, dev := range sys.plane.Devices {
		if dev.Enqueue(now, dataplane.Query{Deadline: now + time.Second}) {
			err := sys.plane.CheckConservation()
			name := cfg.Cluster.Device(d).Name
			if err == nil || !strings.Contains(err.Error(), "device "+name+":") {
				t.Fatalf("device %s kept a query it accepted; CheckConservation said %v", name, err)
			}
			return
		}
	}
	t.Fatal("no device is up at the end of the run")
}

// TestFailureRelabelledRecoveryIsHandled: device 0 fails at 2 s, inside the
// initial plan's 10 s cooldown, and recovers at 5 s. The one retry fires at
// 10 s labelled "recovery", the newest trigger, and still answers the
// failure: its plan, live at 11 s after the 1 s apply delay, closes it, so
// the time to recover is 9 s rather than a failure left pending for the rest
// of the run (0 s).
func TestFailureRelabelledRecoveryIsHandled(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Allocator = allocator.NewInfaasAccuracy()
	cfg.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 0, FailAt: 2 * time.Second, RecoverAt: 5 * time.Second},
	}}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 40, 20))
	if err != nil {
		t.Fatal(err)
	}
	var triggers []string
	for _, p := range res.Plans {
		triggers = append(triggers, fmt.Sprintf("%s@%v", p.Trigger, p.At))
	}
	if got := strings.Join(triggers, ","); got != "initial@0s,recovery@10s" {
		t.Fatalf("plans %s, want initial@0s,recovery@10s", got)
	}
	if s := res.Summary; s.Failures != 1 || s.MeanTimeToRecover != 9*time.Second {
		t.Fatalf("failures=%d ttr=%v, want 1 and 9s", s.Failures, s.MeanTimeToRecover)
	}
}

// TestFaultScheduleValidatedByConfig pins the config-path validation.
func TestFaultScheduleValidatedByConfig(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Faults = &cluster.FailureSchedule{Events: []cluster.FailureEvent{
		{Device: 99, FailAt: time.Second},
	}}
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("out-of-range fault device must fail config validation")
	}
}
