package allocator

import (
	"fmt"
	"math"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/lp"
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

// pairVars are one aggregated pair's MILP variable ids: the device count n,
// the served rate w and the load count l (-1 without a previous plan).
type pairVars struct{ n, w, l int }

// problem builds the aggregated model's MILP, the tree the DP's oracle tests
// search, and returns each pair's variable ids. devices, the cluster size,
// bounds the load counts.
func (a *aggModel) problem(devices int) (*milp.Problem, []pairVars) {
	p := milp.NewProblem()
	vars := make([]pairVars, len(a.pairs))
	for i, pr := range a.pairs {
		ref := a.refs[pr.r]
		limit := float64(len(a.groups[pr.g].Devices))
		v := &vars[i]
		v.n = p.AddInteger(fmt.Sprintf("n[%d,%s]", pr.g, ref.Variant.ID()), 0, limit)
		v.w = p.AddVariable(fmt.Sprintf("w[%d,%s]", pr.g, ref.Variant.ID()), 0, pr.peak*limit)
		v.l = -1
		p.SetObjective(v.w, ref.Variant.Accuracy)
		// w <= peak * n
		p.AddConstraint([]lp.Term{{Var: v.w, Coef: 1}, {Var: v.n, Coef: -pr.peak}}, lp.LE, 0)
	}
	// Σ_m n_{g,m} <= |g| per group.
	for gi, g := range a.groups {
		var terms []lp.Term
		for i, pr := range a.pairs {
			if pr.g == gi {
				terms = append(terms, lp.Term{Var: vars[i].n, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(terms, lp.LE, float64(len(g.Devices)))
		}
	}
	// Σ w = s_q per family.
	for q := range a.demand {
		var terms []lp.Term
		for i, pr := range a.pairs {
			if a.refs[pr.r].Family == q {
				terms = append(terms, lp.Term{Var: vars[i].w, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(terms, lp.EQ, a.demand[q])
		}
	}
	// The load-count variables l >= n - prev carry the switch costs.
	for i := range a.space.switchCost {
		v := &vars[i]
		v.l = p.AddVariable(fmt.Sprintf("l[%d]", i), 0, float64(devices))
		p.SetObjective(v.l, -a.space.switchCost[i])
		// l >= n - prev  ⟺  n - l <= prev
		p.AddConstraint([]lp.Term{{Var: v.n, Coef: 1}, {Var: v.l, Coef: -1}},
			lp.LE, float64(a.space.prev[i]))
	}
	return p, vars
}

// fromVector reads per-pair device counts and served rates off a MILP
// solution.
func fromVector(vars []pairVars, x []float64) (counts []int, served []float64) {
	counts = make([]int, len(vars))
	served = make([]float64, len(vars))
	for i, v := range vars {
		counts[i] = int(math.Round(x[v.n]))
		served[i] = x[v.w]
	}
	return counts, served
}

// treeSolve searches in's step by branch-and-bound on the aggregated MILP
// under opts and from m's previous plan, without recording a plan as m's
// previous one. That is the model Allocate solves by the DP within the work
// limit. The tree starts from the local search's plan (searchSpace.search);
// where that packs no plan, it starts from the DP's optimum and fromDP is
// true: the search then has the optimum from the root and branches to prove
// it. sol is nil when the DP proves the demand infeasible; a tree that ends
// without a plan fails the test.
func treeSolve(t *testing.T, m *MILP, in *Input, opts milp.Options) (sol *milp.Solution, fromDP bool) {
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
	p, vars := a.problem(in.Cluster.Size())
	opts.WarmStart = a.space.vector(vars, counts, p.NumVariables())
	tree := milp.Solve(p, &opts)
	if tree.Status != milp.Optimal && tree.Status != milp.Feasible {
		t.Fatalf("tree ended with status %v after %d nodes", tree.Status, tree.Nodes)
	}
	return &tree, fromDP
}

// vector expands counts into a full MILP variable assignment (n, w and
// load-count entries) matching the accuracy-first fill. It returns nil when
// the counts cannot serve the demand.
func (s *searchSpace) vector(vars []pairVars, counts []int, nVars int) []float64 {
	served, remaining := s.fill(counts)
	for _, r := range remaining {
		if r > 1e-9 {
			return nil
		}
	}
	x := make([]float64, nVars)
	for i, v := range vars {
		x[v.n] = float64(counts[i])
		x[v.w] = served[i]
		if v.l >= 0 && s.prev != nil {
			if loads := counts[i] - s.prev[i]; loads > 0 {
				x[v.l] = float64(loads)
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
	opts := milp.Options{StallNodes: 40, RelGap: 1e-6}
	allocs := [2]*MILP{NewMILP(nil), NewMILP(nil)}
	for p, in := range replayInputs(7) {
		var plans [2]*Allocation
		var trees [2]*milp.Solution
		for k, m := range allocs {
			st, _ := treeSolve(t, m, in, opts)
			if st == nil {
				t.Fatalf("period %d: no plan serves the demand", p)
			}
			if st.Nodes <= 1 {
				t.Errorf("period %d: the tree explored %d nodes; nothing branched", p, st.Nodes)
			}
			if children := st.Nodes - 1; st.DualNodes*100 < children*95 {
				t.Errorf("period %d: %d of %d non-root relaxations were solved by dual pivots alone, want ≥ 95 %%", p, st.DualNodes, children)
			}
			trees[k] = st
			plan, err := m.Allocate(in)
			if err != nil {
				t.Fatalf("period %d: %v", p, err)
			}
			plans[k] = plan
		}
		requireSamePlan(t, p, plans[0], plans[1])
		if a, b := trees[0], trees[1]; a.Nodes != b.Nodes || a.LPIters != b.LPIters {
			t.Errorf("period %d: %d nodes / %d pivots vs %d / %d for the same inputs", p, a.Nodes, a.LPIters, b.Nodes, b.LPIters)
		}
	}
}

// TestSolveBudgetIsWorkNotTime pins what the literal model's search in
// Fig. 10 relies on in branch-and-bound (treeSolve): a search without a
// TimeLimit reads no clock (TimeLimited false, the same node count on every
// run), and MaxNodes stops a search of the default model after that many
// nodes — plus at most the one dive step in flight — with the incumbent it
// has.
func TestSolveBudgetIsWorkNotTime(t *testing.T) {
	opts := milp.Options{StallNodes: 3000, RelGap: 1e-6}
	var nodes [2]int
	for i := range nodes {
		sol, _ := treeSolve(t, NewMILP(nil), testInput(t, []float64{40, 40}), opts)
		if sol == nil {
			t.Fatal("no plan serves 40 + 40 QPS")
		}
		if sol.TimeLimited {
			t.Fatal("no TimeLimit configured, yet the solve reports TimeLimited")
		}
		nodes[i] = sol.Nodes
	}
	if nodes[0] <= 0 || nodes[0] != nodes[1] {
		t.Fatalf("default solve explored %d then %d nodes, want equal and positive", nodes[0], nodes[1])
	}

	const budget = 50
	opts.MaxNodes = budget
	st, _ := treeSolve(t, NewMILP(nil), defaultClusterInput(400), opts)
	if st == nil {
		t.Fatal("no plan serves 400 QPS")
	}
	if st.Nodes < budget || st.Nodes > budget+1 {
		t.Errorf("MaxNodes %d: stopped after %d nodes", budget, st.Nodes)
	}
	if st.TimeLimited || st.Status != milp.Feasible || st.Objective <= 0 || st.Gap() <= 0 {
		t.Errorf("MaxNodes %d: want an unproven incumbent with a positive gap, got %v, objective %.2f, gap %v",
			budget, st.Status, st.Objective, st.Gap())
	}
}
