package lp

import (
	"fmt"
	"math"
	"testing"
)

// TestBranchedChildTakesDualPath does to every seeded shape what branch and
// bound does to a relaxation — tighten one bound across a basic variable,
// re-solve warm from the parent's basis — and requires the re-solve to be
// dual pivots alone (the parent basis stays dual feasible, so nothing else
// is needed) and to agree with the dense tableau and with a cold solve.
func TestBranchedChildTakesDualPath(t *testing.T) {
	for _, sh := range lpShapes {
		for _, seed := range []uint64{1, 7, 42, 1234} {
			t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
				p := buildSeededLP(seed, sh)
				parent := agreeWithDense(t, p)
				if parent.Status != Optimal {
					t.Skip("no optimum to branch on")
				}
				if parent.Basis == nil {
					t.Fatal("revised simplex fell back to the dense tableau")
				}
				for v, x := range parent.X {
					lo, hi := p.Bounds(v)
					if x < lo+1e-3 || x > hi-1e-3 {
						continue
					}
					p.SetBounds(v, lo, math.Max(lo, math.Ceil(x)-1))
					child, err := Solve(p, &Options{WarmBasis: parent.Basis})
					if err != nil {
						t.Fatal(err)
					}
					// (An empty child can be proven so from the first pivot row.)
					if child.DualIters != child.Iters || (child.Iters == 0 && child.Status != Infeasible) {
						t.Errorf("var %d: %v after %d pivots, %d of them dual; want all, and at least one", v, child.Status, child.Iters, child.DualIters)
					}
					agreeOnStatusAndObjective(t, fmt.Sprintf("var %d: warm vs cold", v), child, agreeWithDense(t, p))
					if child.Status == Optimal {
						checkFeasible(t, p, child.X, 1e-6)
					}
					p.SetBounds(v, lo, hi)
				}
			})
		}
	}
}

// TestDualRatioTestProvesInfeasibility branches a relaxation into an empty
// box: max x+y on x+y = 1.5 has y basic at 0.5, and with y ≤ 0 the row
// cannot be met (x ≤ 1). The warm re-solve must say so from the pivot row —
// no column can lift y's row — without a single primal pivot.
func TestDualRatioTestProvesInfeasibility(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1)
	y := p.AddVariable("y", 0, 1)
	p.SetObjective(x, 2)
	p.SetObjective(y, 1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 1.5)
	parent := agreeWithDenseRevised(t, p)
	if parent.Status != Optimal || !approx(parent.X[y], 0.5, 1e-9) {
		t.Fatalf("parent: status %v, y = %v; want optimal with y = 0.5", parent.Status, parent.X)
	}
	p.SetBounds(y, 0, 0)
	child, err := Solve(p, &Options{WarmBasis: parent.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if child.Status != Infeasible || child.Iters != child.DualIters {
		t.Fatalf("child: status %v after %d pivots (%d dual), want infeasible by dual pivots alone", child.Status, child.Iters, child.DualIters)
	}
	agreeWithDense(t, p)
}

// TestColdAndRecostedStartsStayPrimal pins which starts do not take the dual
// path: a cold start whose logical basis is not dual feasible, and a warm
// start from a basis that was optimal under other costs.
func TestColdAndRecostedStartsStayPrimal(t *testing.T) {
	p := buildSeededLP(7, lpShapes[0])
	cold := agreeWithDenseRevised(t, p)
	if cold.Status != Optimal || cold.DualIters != 0 {
		t.Fatalf("cold: status %v, %d dual pivots; want optimal by primal pivots", cold.Status, cold.DualIters)
	}
	for v := 0; v < p.NumVariables(); v++ {
		p.SetObjective(v, -p.Objective(v)+1)
	}
	recosted, err := Solve(p, &Options{WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if recosted.DualIters != 0 {
		t.Fatalf("warm start under new costs took %d dual pivots", recosted.DualIters)
	}
	agreeOnStatusAndObjective(t, "recosted warm vs cold", recosted, agreeWithDense(t, p))
}
