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
)

// referenceSolvePerDevice is the hand-written builder of the paper's literal
// formulation (Table 1, Eqs. 1–7) that solvePerDevice replaced: one binary
// x_{d,m} and one rate w_{d,m} per (device, variant) pair, written out row by
// row. It is the oracle of TestPerDeviceMatchesReferenceBuilder and also
// returns the raw branch-and-bound solution.
func (m *MILP) referenceSolvePerDevice(in *Input, demand []float64, admit []bool) (*Allocation, *milp.Solution, []bool, error) {
	refs := in.Variants()
	devices := in.Cluster.Devices()

	p := milp.NewProblem()
	type pair struct {
		d, r int
		x, w int
		peak float64
	}
	var pairs []pair
	for _, dev := range devices {
		for ri, ref := range refs {
			if admit != nil && !admit[ri] {
				continue
			}
			peak := in.Peak(dev, ref)
			if peak <= 0 {
				continue
			}
			x := p.AddInteger(fmt.Sprintf("x[%d,%s]", dev.ID, ref.Variant.ID()), 0, 1)
			w := p.AddVariable(fmt.Sprintf("w[%d,%s]", dev.ID, ref.Variant.ID()), 0, peak)
			p.SetObjective(w, ref.Variant.Accuracy)
			p.AddConstraint([]lp.Term{{Var: w, Coef: 1}, {Var: x, Coef: -peak}}, lp.LE, 0)
			pairs = append(pairs, pair{d: dev.ID, r: ri, x: x, w: w, peak: peak})
		}
	}
	if len(pairs) == 0 {
		return nil, nil, nil, nil
	}
	// Eq. 1: at most one variant per device.
	for _, dev := range devices {
		var terms []lp.Term
		for _, pr := range pairs {
			if pr.d == dev.ID {
				terms = append(terms, lp.Term{Var: pr.x, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(terms, lp.LE, 1)
		}
	}
	// Eq. 6: demand satisfied per family.
	for q := range in.Families {
		var terms []lp.Term
		for _, pr := range pairs {
			if refs[pr.r].Family == q {
				terms = append(terms, lp.Term{Var: pr.w, Coef: 1})
			}
		}
		if len(terms) == 0 {
			if demand[q] > 0 {
				short := make([]bool, len(in.Families))
				short[q] = true
				return nil, nil, short, nil
			}
			continue
		}
		p.AddConstraint(terms, lp.EQ, demand[q])
	}

	sol := milp.Solve(p, &milp.Options{
		TimeLimit:  m.opts.TimeLimit,
		MaxNodes:   m.opts.MaxNodes,
		RelGap:     m.opts.RelGap,
		StallNodes: m.opts.StallNodes,
	})
	switch sol.Status {
	case milp.Optimal, milp.Feasible:
	case milp.Infeasible:
		return nil, &sol, nil, nil
	case milp.Limit: // a spent budget proves nothing (treePlan)
		return nil, &sol, nil, fmt.Errorf("allocator: MILP search found no plan within its %d-node budget", m.opts.MaxNodes)
	default:
		return nil, &sol, nil, fmt.Errorf("allocator: MILP solve ended with status %v", sol.Status)
	}

	alloc := NewAllocation(in)
	alloc.Optimal = sol.Status == milp.Optimal
	alloc.Stats = solverStats(&sol)
	for _, pr := range pairs {
		if sol.X[pr.x] < 0.5 {
			continue
		}
		ref := refs[pr.r]
		alloc.Hosted[pr.d] = &VariantRef{Family: ref.Family, Variant: ref.Variant}
		if demand[ref.Family] > 0 {
			alloc.Routing[ref.Family][pr.d] = sol.X[pr.w] / demand[ref.Family]
		}
	}
	return alloc, &sol, nil, nil
}

// perDeviceInput builds a Fig. 10-shaped instance: ScaledTestbed(devices),
// a zoo prefix of types families sharing a budget of variants, and demand at
// load times the capacity of a round-robin assignment of devices to
// families, each on its family's highest-capacity variant. down takes
// devices 0 and 3 out of service.
func perDeviceInput(devices, variants, types int, load float64, down bool) *Input {
	zoo := models.Zoo()
	fams := make([]models.Family, types)
	remaining := variants
	for i := range fams {
		take := min(max(remaining/(types-i), 1), len(zoo[i].Variants))
		fams[i] = models.Family{Name: zoo[i].Name, Task: zoo[i].Task, Variants: zoo[i].Variants[:take]}
		remaining -= take
	}
	c := cluster.ScaledTestbed(devices)
	if down {
		mask := make([]bool, c.Size())
		mask[0], mask[3] = true, true
		c = c.WithHealth(mask)
	}
	slos := make([]time.Duration, types)
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
	}
	in := &Input{Cluster: c, Families: fams, SLOs: slos, Demand: make([]float64, types)}
	for i, d := range c.Devices() {
		best := 0.0
		for _, ref := range in.Variants() {
			if ref.Family == i%types {
				best = math.Max(best, in.Peak(d, ref))
			}
		}
		in.Demand[i%types] += load * best
	}
	return in
}

// TestPerDeviceMatchesReferenceBuilder holds the per-device path — the
// aggregated builder over one group per healthy device — to the literal
// builder it replaced: on every input the solves agree bit for bit (status,
// objective, bound, nodes, LP iterations, every solution value), and so do
// the plans' hosting, routing and solver statistics. The grid has Fig. 10
// shapes, down devices, Clipper-HA's variant filter and infeasible demand.
func TestPerDeviceMatchesReferenceBuilder(t *testing.T) {
	var plans, infeasible int
	for _, devices := range []int{4, 8, 12} {
		for _, sh := range []struct{ variants, types int }{{17, 3}, {9, 3}, {5, 1}, {12, 4}} {
			for _, load := range []float64{0.3, 0.8, 1.3} {
				for _, down := range []bool{false, true} {
					for _, filter := range []bool{false, true} {
						name := fmt.Sprintf("devices=%d,variants=%d,types=%d,load=%v,down=%v,filter=%v",
							devices, sh.variants, sh.types, load, down, filter)
						t.Run(name, func(t *testing.T) {
							in := perDeviceInput(devices, sh.variants, sh.types, load, down)
							opts := &MILPOptions{PerDevice: true, MaxNodes: 200, RelGap: 0.01}
							if filter {
								opts.Filter = extremeVariantFilter(true)
							}
							m := NewMILP(opts)
							demand, admit := flooredDemand(in), m.admitted(in)

							want, wantSol, wantShort, wantErr := m.referenceSolvePerDevice(in, demand, admit)
							got, gotShort, gotErr := m.solvePerDevice(in, demand, admit)
							if (got == nil) != (want == nil) || (gotErr == nil) != (wantErr == nil) ||
								fmt.Sprint(gotShort) != fmt.Sprint(wantShort) {
								t.Fatalf("plan %v short %v error %v, reference %v %v %v",
									got != nil, gotShort, gotErr, want != nil, wantShort, wantErr)
							}
							if want != nil {
								plans++
								want.PredictedAccuracy = got.PredictedAccuracy // the reference does not estimate it
								requireSamePlan(t, 0, got, want)
								gs, ws := got.Stats, want.Stats
								gs.SolverTime, ws.SolverTime = 0, 0 // wall clock
								if got.Optimal != want.Optimal || gs != ws {
									t.Fatalf("optimal %v stats %+v, reference %v %+v", got.Optimal, gs, want.Optimal, ws)
								}
							}

							a, _ := m.model(in, deviceGroups(in.Cluster), demand, admit)
							if (a == nil) != (wantSol == nil) {
								t.Fatalf("model %v, reference solve %v", a != nil, wantSol != nil)
							}
							if a != nil {
								sol := m.search(a.problem())
								requireSolutionBits(t, &sol, wantSol)
								if sol.Status == milp.Infeasible {
									infeasible++
								}
							}
						})
					}
				}
			}
		}
	}
	if plans == 0 || infeasible == 0 {
		t.Fatalf("grid has %d plans and %d infeasible solves; want both", plans, infeasible)
	}
	t.Logf("%d plans, %d infeasible solves", plans, infeasible)
}

// requireSolutionBits fails unless two branch-and-bound solutions agree bit
// for bit.
func requireSolutionBits(t *testing.T, got, want *milp.Solution) {
	t.Helper()
	if got.Status != want.Status || got.Nodes != want.Nodes || got.LPIters != want.LPIters ||
		got.DualNodes != want.DualNodes ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.Bound) != math.Float64bits(want.Bound) || len(got.X) != len(want.X) {
		t.Fatalf("status %v obj %v bound %v nodes %d iters %d vars %d, reference %v %v %v %d %d %d",
			got.Status, got.Objective, got.Bound, got.Nodes, got.LPIters, len(got.X),
			want.Status, want.Objective, want.Bound, want.Nodes, want.LPIters, len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] = %v, reference %v", i, got.X[i], want.X[i])
		}
	}
}
