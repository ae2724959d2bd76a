package controlplane

import (
	"errors"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
)

// failingAlloc always errors — the "MILP forced to error" stand-in.
type failingAlloc struct{}

func (failingAlloc) Name() string { return "ilp" }
func (failingAlloc) Allocate(*allocator.Input) (*allocator.Allocation, error) {
	return nil, errors.New("solver timeout")
}
func (failingAlloc) Dynamic() bool                { return true }
func (failingAlloc) Features() allocator.Features { return allocator.Features{} }

// flakyAlloc delegates for the first okCalls invocations, then errors.
type flakyAlloc struct {
	inner   allocator.Allocator
	okCalls int
	calls   int
}

func (f *flakyAlloc) Name() string { return f.inner.Name() }
func (f *flakyAlloc) Allocate(in *allocator.Input) (*allocator.Allocation, error) {
	f.calls++
	if f.calls > f.okCalls {
		return nil, errors.New("solver timeout")
	}
	return f.inner.Allocate(in)
}
func (f *flakyAlloc) Dynamic() bool                { return true }
func (f *flakyAlloc) Features() allocator.Features { return f.inner.Features() }

func maskedTestbed(t *testing.T, size int, downIDs ...int) *cluster.Cluster {
	t.Helper()
	c := cluster.ScaledTestbed(size)
	down := make([]bool, c.Size())
	for _, d := range downIDs {
		down[d] = true
	}
	return c.WithHealth(down)
}

func TestFallbackChainGreedyOnHealthySubset(t *testing.T) {
	_, fams := fixture(t)
	slos := make([]time.Duration, len(fams))
	for q := range fams {
		slos[q] = time.Second
	}
	cl := maskedTestbed(t, 8, 0, 4)
	c := NewController(failingAlloc{}, cl, fams, slos, 30*time.Second, 10*time.Second)

	plan, err := c.Reallocate(0, []float64{20, 10}, "failure")
	if err != nil {
		t.Fatalf("fallback should have rescued the failed solve: %v", err)
	}
	for d := range plan.Hosted {
		if !cl.Healthy(d) && plan.Hosted[d] != nil {
			t.Fatalf("fallback plan hosts %s on down device %d", plan.HostedID(d), d)
		}
	}
	in := &allocator.Input{Cluster: cl, Families: fams, SLOs: slos, Demand: []float64{20, 10}}
	if err := plan.Check(in); err != nil {
		t.Fatalf("fallback plan infeasible: %v", err)
	}
	h := c.History()
	if len(h) != 1 || h[0].Solver != "infaas_v2 (fallback)" {
		t.Fatalf("history should record the fallback solver: %+v", h)
	}
}

func TestFallbackChainCarryForward(t *testing.T) {
	c, fams := fixture(t)
	// Replace the primary with one that succeeds once then errors, and
	// disable the fallback so the carry-forward stage is reached.
	c.alloc = &flakyAlloc{inner: c.alloc, okCalls: 1}
	c.fallback = nil

	if _, err := c.Reallocate(0, []float64{20, 10}, "initial"); err != nil {
		t.Fatal(err)
	}
	masked := maskedTestbed(t, 8, 1)
	c.SetCluster(masked)
	plan, err := c.Reallocate(40*time.Second, []float64{20, 10}, "failure")
	if err != nil {
		t.Fatalf("carry-forward should have rescued the failed solve: %v", err)
	}
	if plan.Hosted[1] != nil {
		t.Fatal("carry-forward plan still hosts on the down device")
	}
	for q := range fams {
		for d, y := range plan.Routing[q] {
			if y > 0 && !masked.Healthy(d) {
				t.Fatalf("carry-forward routes family %d to down device %d", q, d)
			}
		}
	}
	h := c.History()
	if len(h) != 2 || h[1].Solver != "carry-forward" {
		t.Fatalf("history should record carry-forward: %+v", h)
	}
}

func TestReallocateErrorRecordsAttemptTime(t *testing.T) {
	_, fams := fixture(t)
	slos := []time.Duration{time.Second, time.Second}
	c := NewController(failingAlloc{}, cluster.ScaledTestbed(8), fams, slos, 30*time.Second, 10*time.Second)
	c.fallback = failingAlloc{} // both stages error; no lastPlan to carry

	_, err := c.Reallocate(100*time.Second, []float64{20, 10}, "periodic")
	if err == nil {
		t.Fatal("total failure must surface an error")
	}
	if !strings.Contains(err.Error(), "fallback") {
		t.Fatalf("error should name the fallback stage: %v", err)
	}
	// The failed attempt must arm the cooldown so erroring allocators are
	// not re-invoked at every tick.
	if act, _ := c.Decide(105*time.Second, "burst"); act != Hold {
		t.Fatal("cooldown must apply to failed solves")
	}
	// A demand-shape error is a caller bug, not a solve attempt: it must not
	// touch the cooldown state.
	if _, err := c.Reallocate(109*time.Second, []float64{1}, "periodic"); err == nil {
		t.Fatal("expected shape error")
	}
	if act, _ := c.Decide(110*time.Second, "burst"); act != ReplanNow {
		t.Fatal("cooldown over, burst must be allowed (a shape error is no attempt)")
	}
	if act, at := c.Decide(105*time.Second, "failure"); act != ArmRetry || at != 110*time.Second {
		t.Fatalf("failure inside the cooldown: %v at %v, want a retry at 110s", act, at)
	}
}

// TestReallocateReturnsRecordSeq: the plan carries its audit record's
// sequence number, and a failed attempt's record still takes one.
func TestReallocateReturnsRecordSeq(t *testing.T) {
	good, fams := fixture(t)
	c := NewController(failingAlloc{}, cluster.ScaledTestbed(8), fams, good.slos, 30*time.Second, 10*time.Second)
	c.fallback = nil
	if _, err := c.Reallocate(0, []float64{20, 10}, "initial"); err == nil {
		t.Fatal("the failing allocator produced a plan")
	}
	c.alloc = good.alloc
	plan, err := c.Reallocate(time.Second, []float64{20, 10}, "periodic")
	if err != nil {
		t.Fatal(err)
	}
	if h := c.History(); plan.Seq != 2 || h[1].Seq != 2 || h[0].Stage != "error" {
		t.Fatalf("plan seq %d after an error record, history %+v", plan.Seq, h)
	}
}

func TestAllocatorErrorMidRunFallsBack(t *testing.T) {
	c, _ := fixture(t)
	c.alloc = &flakyAlloc{inner: c.alloc, okCalls: 1}
	if _, err := c.Reallocate(0, []float64{20, 10}, "initial"); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Reallocate(40*time.Second, []float64{25, 12}, "periodic")
	if err != nil || plan.Allocation == nil {
		t.Fatalf("mid-run solver error must fall back, got %v", err)
	}
	h := c.History()
	if h[len(h)-1].Solver != "infaas_v2 (fallback)" {
		t.Fatalf("expected fallback solver in history, got %q", h[len(h)-1].Solver)
	}
	if h[0].Solver != "ilp" {
		t.Fatalf("first plan should record the primary solver, got %q", h[0].Solver)
	}
}

func TestSetPlannedLengthMismatch(t *testing.T) {
	s := NewStats(2, 10, 1.5)
	if err := s.SetPlanned([]float64{1, 2}); err != nil {
		t.Fatalf("matched length rejected: %v", err)
	}
	if err := s.SetPlanned([]float64{1}); err == nil {
		t.Fatal("short slice must error")
	}
	if err := s.SetPlanned([]float64{1, 2, 3}); err == nil {
		t.Fatal("long slice must error")
	}
}

func TestDemandChangedZeroPrior(t *testing.T) {
	c, _ := fixture(t)
	if _, err := c.Reallocate(0, []float64{0, 0}, "initial"); err != nil {
		t.Fatal(err)
	}
	// Moves under the 1 QPS absolute floor must not flag.
	if c.DemandChanged([]float64{0.9, 0}, 0.1) {
		t.Fatal("sub-floor move on zero prior flagged as change")
	}
	if !c.DemandChanged([]float64{5, 0}, 0.1) {
		t.Fatal("real demand appearing on zero prior not flagged")
	}
	// A changed family count always counts as changed.
	if !c.DemandChanged([]float64{0, 0, 0}, 0.1) {
		t.Fatal("changed family count not flagged")
	}
	if !c.DemandChanged([]float64{0}, 0.1) {
		t.Fatal("shrunk family count not flagged")
	}
}

func TestAllowBurstExactCooldownBoundary(t *testing.T) {
	c, _ := fixture(t)
	if _, err := c.Reallocate(100*time.Second, []float64{20, 10}, "initial"); err != nil {
		t.Fatal(err)
	}
	// now - last == cooldown: exactly at the boundary is allowed.
	if act, _ := c.Decide(110*time.Second, "burst"); act != ReplanNow {
		t.Fatal("burst exactly at the cooldown boundary must be allowed")
	}
	if act, _ := c.Decide(110*time.Second-time.Nanosecond, "burst"); act != Hold {
		t.Fatal("burst one tick inside the cooldown must be denied")
	}
	if act, _ := c.Decide(110*time.Second, "failure"); act != ReplanNow {
		t.Fatal("failure at the boundary must re-plan now, not arm a retry")
	}
}
