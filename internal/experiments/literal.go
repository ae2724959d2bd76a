package experiments

import (
	"fmt"
	"math"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/lp"
	"proteus/internal/milp"
)

// literalOptions are the budgets Fig. 10 and the formulations table search
// the literal model under: at most 200 000 nodes, a stop after 3 000 nodes
// without a better incumbent, a 1 % gap and the caller's time limit.
func literalOptions(timeLimit time.Duration) *milp.Options {
	return &milp.Options{TimeLimit: timeLimit, MaxNodes: 200_000, StallNodes: 3000, RelGap: 0.01}
}

// literalPair is one (device, variant) pair of the literal model: the binary
// x_{d,m} that hosts the variant on the device, and the rate w_{d,m} the
// device serves of the variant's family.
type literalPair struct {
	x, w     int
	accuracy float64
}

// solveLiteral builds the paper's literal formulation (Table 1, Eqs. 1–7) of
// in and searches it by branch-and-bound, cold, under opts. It has one
// binary x_{d,m} and one rate w_{d,m} per pair of a healthy device and a
// variant that can serve on it within its family's SLO, and maximizes
// Σ accuracy·w subject to w ≤ peak·x, at most one variant per device (Eq. 1)
// and every family's demand served in full (Eq. 6). Demand is floored at
// 0.01 QPS, as the allocator floors it. solveLiteral returns the solution and
// the served-weighted accuracy of its plan (0 without one); a family that no
// pair can serve makes the instance infeasible unsearched.
func solveLiteral(in *allocator.Input, opts *milp.Options) (milp.Solution, float64) {
	refs := in.Variants()
	p := milp.NewProblem()
	var pairs []literalPair
	var deviceRows [][]lp.Term
	familyRows := make([][]lp.Term, len(in.Demand))
	for _, dev := range in.Cluster.Devices() {
		var row []lp.Term
		for _, ref := range refs {
			peak := in.Peak(dev, ref)
			if peak <= 0 {
				continue
			}
			x := p.AddInteger(fmt.Sprintf("x[%d,%s]", dev.ID, ref.Variant.ID()), 0, 1)
			w := p.AddVariable(fmt.Sprintf("w[%d,%s]", dev.ID, ref.Variant.ID()), 0, peak)
			p.SetObjective(w, ref.Variant.Accuracy)
			p.AddConstraint([]lp.Term{{Var: w, Coef: 1}, {Var: x, Coef: -peak}}, lp.LE, 0)
			pairs = append(pairs, literalPair{x: x, w: w, accuracy: ref.Variant.Accuracy})
			row = append(row, lp.Term{Var: x, Coef: 1})
			familyRows[ref.Family] = append(familyRows[ref.Family], lp.Term{Var: w, Coef: 1})
		}
		if len(row) > 0 {
			deviceRows = append(deviceRows, row)
		}
	}
	// Eq. 1: at most one variant per device.
	for _, row := range deviceRows {
		p.AddConstraint(row, lp.LE, 1)
	}
	// Eq. 6: every family's demand served.
	for q, row := range familyRows {
		if len(row) == 0 {
			return milp.Solution{Status: milp.Infeasible}, 0
		}
		p.AddConstraint(row, lp.EQ, math.Max(in.Demand[q], 0.01))
	}

	sol := milp.Solve(p, opts)
	accNum, accDen := 0.0, 0.0
	if sol.Status == milp.Optimal || sol.Status == milp.Feasible {
		for _, pr := range pairs {
			if sol.X[pr.x] >= 0.5 {
				accNum += sol.X[pr.w] * pr.accuracy
				accDen += sol.X[pr.w]
			}
		}
	}
	if accDen == 0 {
		return sol, 0
	}
	return sol, accNum / accDen
}

// literalErr is nil when a search planned or ran out of time, and otherwise
// says how it ended: an infeasible instance or a node budget spent before
// any plan was found.
func literalErr(sol *milp.Solution) error {
	if sol.TimeLimited || sol.Status == milp.Optimal || sol.Status == milp.Feasible {
		return nil
	}
	return fmt.Errorf("experiments: literal MILP ended %v after %d nodes", sol.Status, sol.Nodes)
}
