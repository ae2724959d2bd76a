package controlplane

import (
	"math/rand"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
)

func fixture(t *testing.T) (*Controller, []models.Family) {
	t.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	slos := make([]time.Duration, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
	}
	a := allocator.NewMILP(&allocator.MILPOptions{MaxNodes: 480, RelGap: 0.01})
	c := NewController(a, cluster.ScaledTestbed(8), fams, slos, 30*time.Second, 10*time.Second)
	return c, fams
}

func TestStats(t *testing.T) {
	s := NewStats(2, 10, 1.5)
	if len(s.Monitors) != 2 {
		t.Fatalf("monitors %d", len(s.Monitors))
	}
	for i := 0; i < 30; i++ {
		s.Observe(time.Duration(i)*100*time.Millisecond, 0) // 10 QPS for 3s
	}
	est := s.Estimates(3 * time.Second)
	if est[0] < 9 || est[0] > 11 {
		t.Fatalf("estimate %v, want ~10", est[0])
	}
	if est[1] != 0 {
		t.Fatalf("idle family estimate %v", est[1])
	}
}

func TestStatsBurstDetection(t *testing.T) {
	s := NewStats(2, 30, 1.5)
	s.SetPlanned([]float64{10, 1000})
	for i := 0; i < 40; i++ {
		s.Observe(time.Duration(i)*25*time.Millisecond, 0) // 40 QPS in second 0
	}
	if !s.AnyBurst(time.Second + time.Millisecond) {
		t.Fatal("40 QPS vs planned 10 must be a burst")
	}
	s2 := NewStats(1, 30, 1.5)
	s2.SetPlanned([]float64{1000})
	s2.Observe(0, 0)
	if s2.AnyBurst(time.Second) {
		t.Fatal("1 QPS vs planned 1000 must not be a burst")
	}
}

// AnyBurst holds its answer for one second; the held answer must be what the
// monitors would say at every call, across new plans, second boundaries and
// observations that arrive for a second already past.
func TestAnyBurstMemoMatchesMonitors(t *testing.T) {
	s := NewStats(2, 30, 1.5)
	rng := rand.New(rand.NewSource(1))
	now := time.Duration(0)
	flips := 0
	last := false
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(100); {
		case r < 90:
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			s.Observe(now, rng.Intn(2))
		case r < 93:
			// A late batch, heavy enough to turn the last second into a burst.
			late, q := now-time.Duration(rng.Intn(1500))*time.Millisecond, rng.Intn(2)
			for n := 0; n < 40 && late >= 0; n++ {
				s.Observe(late, q)
			}
		case r < 96:
			if err := s.SetPlanned([]float64{float64(rng.Intn(120)), float64(rng.Intn(120))}); err != nil {
				t.Fatal(err)
			}
		}
		want := s.Monitors[0].Burst(now) || s.Monitors[1].Burst(now)
		if got := s.AnyBurst(now); got != want {
			t.Fatalf("step %d at %v: AnyBurst = %v, monitors say %v", i, now, got, want)
		}
		if want != last {
			flips++
			last = want
		}
	}
	if flips < 10 {
		t.Fatalf("the answer changed only %d times: the sequence does not exercise the memo", flips)
	}
}

func TestControllerReallocateRecordsHistory(t *testing.T) {
	c, fams := fixture(t)
	if !c.Dynamic() {
		t.Fatal("MILP controller must be dynamic")
	}
	plan, err := c.Reallocate(0, []float64{20, 10}, "initial")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || len(plan.Hosted) == 0 {
		t.Fatal("no plan")
	}
	h := c.History()
	if len(h) != 1 || h[0].Trigger != "initial" || h[0].At != 0 {
		t.Fatalf("history %+v", h)
	}
	if len(h[0].HostedVariants) == 0 {
		t.Fatal("hosted variants not recorded")
	}
	if h[0].Demand[0] != 20 {
		t.Fatalf("demand not recorded: %v", h[0].Demand)
	}
	_ = fams
}

func TestControllerRejectsWrongDemandShape(t *testing.T) {
	c, _ := fixture(t)
	if _, err := c.Reallocate(0, []float64{1}, "periodic"); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAllowBurstCooldown(t *testing.T) {
	c, _ := fixture(t)
	if !c.AllowBurst(0) {
		t.Fatal("first burst must be allowed")
	}
	if _, err := c.Reallocate(100*time.Second, []float64{20, 10}, "periodic"); err != nil {
		t.Fatal(err)
	}
	if c.AllowBurst(105 * time.Second) {
		t.Fatal("burst inside cooldown allowed")
	}
	if !c.AllowBurst(111 * time.Second) {
		t.Fatal("burst after cooldown denied")
	}
}

func TestDemandChanged(t *testing.T) {
	c, _ := fixture(t)
	if !c.DemandChanged([]float64{10, 10}, 0.1) {
		t.Fatal("no history must count as changed")
	}
	if _, err := c.Reallocate(0, []float64{100, 50}, "initial"); err != nil {
		t.Fatal(err)
	}
	if c.DemandChanged([]float64{105, 52}, 0.1) {
		t.Fatal("5% wiggle flagged as change")
	}
	if !c.DemandChanged([]float64{150, 50}, 0.1) {
		t.Fatal("50% jump not flagged")
	}
	// Absolute floor: tiny demands must not flag on tiny absolute moves.
	if _, err := c.Reallocate(0, []float64{0.5, 0.5}, "periodic"); err != nil {
		t.Fatal(err)
	}
	if c.DemandChanged([]float64{1.2, 0.5}, 0.1) {
		t.Fatal("sub-1-QPS move flagged as change")
	}
}

func TestControllerDefaults(t *testing.T) {
	a := allocator.NewInfaasAccuracy()
	c := NewController(a, cluster.ScaledTestbed(4), nil, nil, 0, 0)
	if c.Period != 30*time.Second || c.BurstCooldown != 10*time.Second {
		t.Fatalf("defaults %v %v", c.Period, c.BurstCooldown)
	}
	if c.Allocator() != a {
		t.Fatal("allocator accessor broken")
	}
}

func TestHistoryRingBounded(t *testing.T) {
	c, _ := fixture(t)
	c.SetHistoryLimit(2)
	for i := 0; i < 4; i++ {
		if _, err := c.Reallocate(time.Duration(i)*time.Second, []float64{20 + float64(i), 10}, "periodic"); err != nil {
			t.Fatal(err)
		}
	}
	h := c.History()
	if len(h) != 2 {
		t.Fatalf("history length %d, want 2", len(h))
	}
	// The newest records survive, oldest first.
	if h[0].At != 2*time.Second || h[1].At != 3*time.Second {
		t.Fatalf("wrong records retained: at=%v,%v", h[0].At, h[1].At)
	}
}

func TestSetHistoryLimitTrimsExisting(t *testing.T) {
	c, _ := fixture(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Reallocate(time.Duration(i)*time.Second, []float64{20, 10}, "periodic"); err != nil {
			t.Fatal(err)
		}
	}
	c.SetHistoryLimit(1)
	h := c.History()
	if len(h) != 1 || h[0].At != 2*time.Second {
		t.Fatalf("trim kept %d records (at=%v), want newest only", len(h), h[0].At)
	}
	// Zero or negative restores the default.
	c.SetHistoryLimit(0)
	if got := c.HistoryLimit(); got != DefaultHistoryLimit {
		t.Fatalf("limit after reset = %d, want %d", got, DefaultHistoryLimit)
	}
}

// TestRecordHook asserts the hook fires once per plan record, after the
// controller's lock is released — a hook that calls back into History must
// not deadlock.
func TestRecordHook(t *testing.T) {
	c, _ := fixture(t)
	var got []PlanRecord
	c.SetRecordHook(func(rec PlanRecord) {
		_ = c.History() // re-entrant read: must not deadlock
		got = append(got, rec)
	})
	if _, err := c.Reallocate(0, []float64{20, 10}, "initial"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reallocate(10*time.Second, []float64{25, 10}, "periodic"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(got))
	}
	if got[0].Trigger != "initial" || got[1].Trigger != "periodic" {
		t.Fatalf("hook records %q/%q", got[0].Trigger, got[1].Trigger)
	}
	if got[1].Stage != "primary" || len(got[1].HostedVariants) == 0 {
		t.Fatalf("hook record incomplete: %+v", got[1])
	}
}
