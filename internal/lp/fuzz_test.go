package lp

import (
	"math"
	"testing"
)

// agreeOnStatusAndObjective requires two solves of one problem to end the
// same way and, when Optimal, on the same objective (1e-6 relative).
func agreeOnStatusAndObjective(t *testing.T, what string, got, want Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", what, got.Status, want.Status)
	}
	if got.Status == Optimal && !approx(got.Objective, want.Objective, 1e-6*(1+math.Abs(want.Objective))) {
		t.Fatalf("%s: objective %v, want %v", what, got.Objective, want.Objective)
	}
}

// FuzzRevisedAgainstTableau generates an LP from (seed, twist), solves it
// cold by the revised simplex and by the dense tableau, and requires the
// same status and — when Optimal — the same objective and a feasible X.
// Then it does what branch and bound does to a relaxation: cuts the optimum
// off by tightening one bound across a basic variable, and re-solves warm
// from the returned Basis (the dual simplex path) against the tableau and
// against a cold revised solve.
//
// twist: bit 0 makes the data integral (degenerate vertices, tied ratio
// tests); bit 1 tightens every inequality by twist>>4, past the slack the
// generator gave it, so the LP may be infeasible; bit 2 branches up instead
// of down; bit 3 branches on the last eligible variable instead of the first.
func FuzzRevisedAgainstTableau(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, twist uint8) {
		p, _ := feasibleLP(seed, twist&1 != 0)
		if twist&2 != 0 {
			shift := float64(twist >> 4)
			for i := range p.rows {
				switch p.rows[i].rel {
				case LE:
					p.rows[i].rhs -= shift
				case GE:
					p.rows[i].rhs += shift
				}
			}
		}
		solve := func(o *Options) Solution {
			sol, err := Solve(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status == Optimal {
				checkFeasible(t, p, sol.X, 1e-6)
			}
			return sol
		}
		cold := solve(nil)
		if cold.Status == IterLimit {
			return
		}
		agreeOnStatusAndObjective(t, "cold revised vs tableau", cold, solveDense(p))
		if cold.Status != Optimal {
			return
		}
		if cold.Basis == nil {
			t.Fatal("cold: optimal solution without a basis")
		}

		// A variable strictly inside its bounds is basic; moving the bound it
		// is nearer to across its value leaves the basis dual feasible and
		// primal infeasible in that one row.
		v := -1
		for j, x := range cold.X {
			if lo, hi := p.Bounds(j); x > lo+1e-3 && x < hi-1e-3 && (v < 0 || twist&8 != 0) {
				v = j
			}
		}
		if v < 0 {
			return
		}
		lo, hi := p.Bounds(v)
		x := cold.X[v]
		if twist&4 == 0 {
			hi = math.Max(lo, math.Ceil(x)-1)
		} else if up := math.Floor(x) + 1; up <= hi {
			lo = up
		} else {
			lo = hi
		}
		p.SetBounds(v, lo, hi)
		warm := solve(&Options{WarmBasis: cold.Basis})
		if warm.Status == IterLimit {
			return
		}
		agreeOnStatusAndObjective(t, "warm revised vs tableau", warm, solveDense(p))
		agreeOnStatusAndObjective(t, "warm vs cold revised", warm, solve(nil))
	})
}
