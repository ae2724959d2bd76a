package allocator

import (
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
	"proteus/internal/trace"
)

// requireSamePlan fails unless the plans two allocators returned for one
// step agree exactly: hosting, routing fractions and accuracy.
func requireSamePlan(t *testing.T, i int, a, b *Allocation) {
	t.Helper()
	if len(a.Hosted) != len(b.Hosted) {
		t.Fatalf("step %d: hosted count %d vs %d", i, len(a.Hosted), len(b.Hosted))
	}
	for dev, va := range a.Hosted {
		vb := b.Hosted[dev]
		switch {
		case va == nil != (vb == nil):
			t.Fatalf("step %d device %d: one hosts %v, the other %v", i, dev, va, vb)
		case va != nil && (va.Family != vb.Family || va.Variant != vb.Variant):
			t.Fatalf("step %d device %d: one hosts %v, the other %v", i, dev, va, vb)
		}
	}
	for q := range a.Routing {
		for dev := range a.Routing[q] {
			if a.Routing[q][dev] != b.Routing[q][dev] {
				t.Fatalf("step %d routing[%d][%d]: %v vs %v", i, q, dev, a.Routing[q][dev], b.Routing[q][dev])
			}
		}
	}
	if a.PredictedAccuracy != b.PredictedAccuracy {
		t.Fatalf("step %d: accuracy %v vs %v", i, a.PredictedAccuracy, b.PredictedAccuracy)
	}
}

// TestDefaultClusterReplayKeepsRootBasis replays eight control periods of
// the diurnal trace on the default cluster (20 devices, the whole zoo) — the
// shape of the benchmark's alloc_replay — through two fresh allocators fed
// the same inputs. A solve is a function of its inputs and the allocator's
// previous plan, so the two must agree period by period on the plan and on
// the work done for it (nodes, simplex pivots). And every period must
// re-optimise at least 95 % of its non-root relaxations by dual pivots
// alone: the LP has no presolve in front of it, and a root relaxation the
// revised simplex gave up to the dense tableau hands its children no basis
// to start from.
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
	// A short stall limit: the root relaxation and the basis it hands down
	// are under test, not how far the search behind it gets.
	allocs := [2]*MILP{NewMILP(&MILPOptions{StallNodes: 40}), NewMILP(&MILPOptions{StallNodes: 40})}
	for p := 0; p < periods; p++ {
		demand := make([]float64, len(fams))
		for s := p * periodSeconds; s < (p+1)*periodSeconds; s++ {
			for q := range demand {
				demand[q] += tr.Demand[s][q] * 1.05 / periodSeconds
			}
		}
		var plans [2]*Allocation
		for k, m := range allocs {
			plan, err := m.Allocate(&Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand})
			if err != nil {
				t.Fatalf("period %d: %v", p, err)
			}
			st := plan.Stats
			if children := st.Nodes - 1; st.DualNodes*100 < children*95 {
				t.Errorf("period %d: %d of %d non-root relaxations were solved by dual pivots alone, want ≥ 95 %% — did the root fall back to the dense tableau?", p, st.DualNodes, children)
			}
			plans[k] = plan
		}
		requireSamePlan(t, p, plans[0], plans[1])
		if a, b := plans[0].Stats, plans[1].Stats; a.Nodes != b.Nodes || a.LPIters != b.LPIters {
			t.Errorf("period %d: %d nodes / %d pivots vs %d / %d for the same inputs", p, a.Nodes, a.LPIters, b.Nodes, b.LPIters)
		}
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
