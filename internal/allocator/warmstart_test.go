package allocator

import (
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/milp"
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

// treeSolve plans in's step by branch-and-bound on the aggregated MILP —
// the search PerDevice runs over one group per device — under m's options
// and from m's previous plan, without recording the plan as m's previous
// one. That is the model Allocate solves by the DP within the work limit.
// The tree starts from the local search's plan (searchSpace.search); where
// that packs no plan, it starts from the DP's optimum and fromDP is true:
// the search then has the optimum from the root and branches to prove it.
// plan is nil when the DP proves the demand infeasible.
func treeSolve(t *testing.T, m *MILP, in *Input) (plan *Allocation, fromDP bool) {
	t.Helper()
	a, _ := m.aggregate(in, flooredDemand(in))
	if a == nil {
		t.Fatal("no (group, variant) pair can serve the input")
	}
	counts, _, _ := a.space.search()
	if counts == nil {
		var ok bool
		if counts, ok = a.space.exact(new(dpScratch)); !ok {
			return nil, true
		}
		fromDP = true
	}
	p := a.problem()
	sol := milp.Solve(p, &milp.Options{
		TimeLimit:  m.opts.TimeLimit,
		MaxNodes:   m.opts.MaxNodes,
		RelGap:     m.opts.RelGap,
		StallNodes: m.opts.StallNodes,
		WarmStart:  a.space.vector(counts, p.NumVariables()),
	})
	plan, err := m.treePlan(in, a, &sol)
	if err != nil || plan == nil {
		t.Fatalf("tree ended with status %v: %v", sol.Status, err)
	}
	return plan, fromDP
}

// vector expands counts into a full MILP variable assignment (n, w and
// load-count entries) matching the accuracy-first fill. It returns nil when
// the counts cannot serve the demand.
func (s *searchSpace) vector(counts []int, nVars int) []float64 {
	served, remaining := s.fill(counts)
	for _, r := range remaining {
		if r > 1e-9 {
			return nil
		}
	}
	x := make([]float64, nVars)
	for i, pr := range s.pairs {
		x[pr.n] = float64(counts[i])
		x[pr.w] = served[i]
		if pr.l >= 0 && s.prev != nil {
			if loads := counts[i] - s.prev[i]; loads > 0 {
				x[pr.l] = float64(loads)
			}
		}
	}
	return x
}

// replayInputs is the benchmark's alloc_replay shape: eight 30 s control
// periods of the diurnal trace drawn from seed on the default cluster
// (20 devices, the whole zoo, 2× SLOs), with the controller's 5 % headroom.
func replayInputs(seed uint64) []*Input { return replayInputsAt(seed, 20) }

// replayInputsAt is replayInputs on the testbed scaled to devices, with the
// demand scaled alike.
func replayInputsAt(seed uint64, devices int) []*Input {
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
		Seed:              seed,
	})
	scale := float64(devices) / 20 // exactly 1 on the default cluster
	inputs := make([]*Input, periods)
	for p := range inputs {
		demand := make([]float64, len(fams))
		for s := p * periodSeconds; s < (p+1)*periodSeconds; s++ {
			for q := range demand {
				demand[q] += tr.Demand[s][q] * 1.05 / periodSeconds * scale
			}
		}
		inputs[p] = &Input{Cluster: cluster.ScaledTestbed(devices), Families: fams, SLOs: slos, Demand: demand}
	}
	return inputs
}

// TestDefaultClusterReplayKeepsRootBasis replays eight control periods of
// the diurnal trace on the default cluster — the shape of the benchmark's
// alloc_replay — through two fresh allocators fed the same inputs, and
// searches each period's aggregated MILP by branch-and-bound from the
// local search's plan, evolved from the allocator's previous one
// (treeSolve). A solve is a function of its
// inputs and that plan, so the two must agree period by period on the plan
// and on the work the tree did (nodes, simplex pivots). And every tree must
// branch and re-optimise at least 95 % of its non-root relaxations by dual
// pivots alone: the LP has no presolve in front of it, and a child whose
// dual pivots stop short (a tiny pivot, a stall, lost dual feasibility)
// finishes by primal ones.
func TestDefaultClusterReplayKeepsRootBasis(t *testing.T) {
	// A short stall limit: the root relaxation and the basis it hands down
	// are under test, not how far the search behind it gets.
	allocs := [2]*MILP{NewMILP(&MILPOptions{StallNodes: 40}), NewMILP(&MILPOptions{StallNodes: 40})}
	for p, in := range replayInputs(7) {
		var plans [2]*Allocation
		var stats [2]SolverStats
		for k, m := range allocs {
			tree, _ := treeSolve(t, m, in)
			if tree == nil {
				t.Fatalf("period %d: no plan serves the demand", p)
			}
			st := tree.Stats
			if st.Nodes <= 1 {
				t.Errorf("period %d: the tree explored %d nodes; nothing branched", p, st.Nodes)
			}
			if children := st.Nodes - 1; st.DualNodes*100 < children*95 {
				t.Errorf("period %d: %d of %d non-root relaxations were solved by dual pivots alone, want ≥ 95 %%", p, st.DualNodes, children)
			}
			stats[k] = st
			plan, err := m.Allocate(in)
			if err != nil {
				t.Fatalf("period %d: %v", p, err)
			}
			plans[k] = plan
		}
		requireSamePlan(t, p, plans[0], plans[1])
		if a, b := stats[0], stats[1]; a.Nodes != b.Nodes || a.LPIters != b.LPIters {
			t.Errorf("period %d: %d nodes / %d pivots vs %d / %d for the same inputs", p, a.Nodes, a.LPIters, b.Nodes, b.LPIters)
		}
	}
}

// TestSolveBudgetIsWorkNotTime pins what PerDevice relies on in
// branch-and-bound (treeSolve): an allocator built with no options reads no
// clock (TimeLimited false, the same node count on every run), and MaxNodes
// stops a solve of the default model after that many nodes — plus at most
// the one dive step in flight — with the incumbent it has as the plan.
func TestSolveBudgetIsWorkNotTime(t *testing.T) {
	var nodes [2]int
	for i := range nodes {
		plan, _ := treeSolve(t, NewMILP(nil), testInput(t, []float64{40, 40}))
		if plan == nil {
			t.Fatal("no plan serves 40 + 40 QPS")
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
	plan, _ := treeSolve(t, NewMILP(&MILPOptions{MaxNodes: budget}), defaultClusterInput(400))
	if plan == nil {
		t.Fatal("no plan serves 400 QPS")
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
