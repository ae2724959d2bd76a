package allocator

import (
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
	"proteus/internal/trace"
)

// TestMILPWarmStartMatchesColdStart re-runs the same allocator instance
// across control periods (which arms the basis carry) and checks the plans
// are identical to a fresh cold-start allocator's: warm starts may only
// change solve time, never the plan.
func TestMILPWarmStartMatchesColdStart(t *testing.T) {
	demands := [][]float64{{40, 40}, {60, 80}, {120, 50}, {60, 80}}
	warm := NewMILP(nil)
	cold := NewMILP(&MILPOptions{ColdStart: true})
	for i, d := range demands {
		inW := testInput(t, d)
		inC := testInput(t, d)
		aw, err := warm.Allocate(inW)
		if err != nil {
			t.Fatalf("step %d warm: %v", i, err)
		}
		ac, err := cold.Allocate(inC)
		if err != nil {
			t.Fatalf("step %d cold: %v", i, err)
		}
		requireSamePlan(t, i, aw, ac)
	}
	if warm.prevBasis == nil {
		t.Fatal("warm allocator never captured a basis to carry forward")
	}
	if cold.prevBasis == nil {
		// noteBasis still records it; ColdStart gates the *use*, so a later
		// config flip can start warm immediately.
		t.Fatal("cold allocator should still record the basis")
	}
	if cold.warmBasis(nil) != nil {
		t.Fatal("ColdStart allocator must never hand out a warm basis")
	}
}

// requireSamePlan fails unless the warm-started and the cold-started plan
// of one step agree exactly: hosting, routing fractions and accuracy.
func requireSamePlan(t *testing.T, i int, aw, ac *Allocation) {
	t.Helper()
	if len(aw.Hosted) != len(ac.Hosted) {
		t.Fatalf("step %d: hosted count %d vs %d", i, len(aw.Hosted), len(ac.Hosted))
	}
	for dev, vw := range aw.Hosted {
		vc := ac.Hosted[dev]
		switch {
		case vw == nil != (vc == nil):
			t.Fatalf("step %d device %d: warm hosts %v, cold hosts %v", i, dev, vw, vc)
		case vw != nil && (vw.Family != vc.Family || vw.Variant != vc.Variant):
			t.Fatalf("step %d device %d: warm hosts %v, cold hosts %v", i, dev, vw, vc)
		}
	}
	for q := range aw.Routing {
		for dev := range aw.Routing[q] {
			if aw.Routing[q][dev] != ac.Routing[q][dev] {
				t.Fatalf("step %d routing[%d][%d]: warm=%v cold=%v", i, q, dev, aw.Routing[q][dev], ac.Routing[q][dev])
			}
		}
	}
	if aw.PredictedAccuracy != ac.PredictedAccuracy {
		t.Fatalf("step %d: accuracy warm=%v cold=%v", i, aw.PredictedAccuracy, ac.PredictedAccuracy)
	}
}

// TestDefaultClusterReplayKeepsRootBasis replays eight control periods of
// the diurnal trace on the default cluster (20 devices, the whole zoo) — the
// shape of the benchmark's alloc_replay — through a warm-starting and a
// cold-starting allocator. Every period must publish a fresh root basis:
// the LP has no presolve in front of it and a nil basis would mean the
// revised simplex gave the root relaxation up to the dense tableau. And the
// two allocators' plans must be identical, period by period.
func TestDefaultClusterReplayKeepsRootBasis(t *testing.T) {
	fams := models.Zoo()
	slos := make([]time.Duration, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
	}
	const periods, periodSeconds = 8, 30
	tr := trace.NewDiurnal(trace.DiurnalConfig{
		Seconds:           periods * periodSeconds,
		BaseQPS:           180,
		DiurnalAmplitude:  380,
		PeriodSeconds:     3 * periods * periodSeconds,
		Spikes:            3,
		SpikeMagnitude:    70,
		SpikeWidthSeconds: periods * periodSeconds / 20,
		NoiseFrac:         0.03,
		ZipfAlpha:         1.001,
		FamilyPhaseSpread: 0.4,
		Families:          models.FamilyNames(fams),
		Seed:              7,
	})
	// A short stall limit: the root relaxation is what is under test, not
	// how far the search behind it gets.
	warm := NewMILP(&MILPOptions{StallNodes: 40})
	cold := NewMILP(&MILPOptions{StallNodes: 40, ColdStart: true})
	for p := 0; p < periods; p++ {
		demand := make([]float64, len(fams))
		for s := p * periodSeconds; s < (p+1)*periodSeconds; s++ {
			for q := range demand {
				demand[q] += tr.Demand[s][q] * 1.05 / periodSeconds
			}
		}
		input := func() *Input {
			return &Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand}
		}
		var plans [2]*Allocation
		for k, m := range []*MILP{warm, cold} {
			before := m.prevBasis
			plan, err := m.Allocate(input())
			if err != nil {
				t.Fatalf("period %d: %v", p, err)
			}
			if m.prevBasis == nil || m.prevBasis == before {
				t.Fatalf("period %d (cold=%v): no root basis — the relaxation fell back to the dense tableau", p, k == 1)
			}
			plans[k] = plan
		}
		requireSamePlan(t, p, plans[0], plans[1])
	}
}

// TestSolveBudgetIsWorkNotTime pins what the simulator relies on: an
// allocator built with no options reads no clock (TimeLimited false, the same
// node count on every run), and MaxNodes stops a solve of the default model
// after that many nodes — plus at most the one dive step in flight — with
// the incumbent it has as the plan.
func TestSolveBudgetIsWorkNotTime(t *testing.T) {
	var nodes [2]int
	for i := range nodes {
		plan, err := NewMILP(nil).Allocate(testInput(t, []float64{40, 40}))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.TimeLimited {
			t.Fatal("no TimeLimit configured, yet the solve reports TimeLimited")
		}
		nodes[i] = plan.Stats.Nodes
	}
	if nodes[0] <= 0 || nodes[0] != nodes[1] {
		t.Fatalf("default solve explored %d then %d nodes, want equal and positive", nodes[0], nodes[1])
	}

	const budget = 50
	plan, err := NewMILP(&MILPOptions{MaxNodes: budget}).Allocate(defaultClusterInput(400))
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.Nodes < budget || st.Nodes > budget+1 {
		t.Errorf("MaxNodes %d: stopped after %d nodes", budget, st.Nodes)
	}
	if st.TimeLimited || plan.Optimal || st.Objective <= 0 || st.RelGap <= 0 || plan.PredictedAccuracy <= 0 {
		t.Errorf("MaxNodes %d: want an unproven incumbent with a positive gap, got optimal=%v acc=%.2f stats=%+v",
			budget, plan.Optimal, plan.PredictedAccuracy, st)
	}
}
