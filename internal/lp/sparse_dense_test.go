package lp

import (
	"fmt"
	"math"
	"testing"

	"proteus/internal/numeric"
)

// lpShape names one random-instance generator used by the seeded
// sparse-vs-dense property tests. Four shapes cover the regimes the two
// solvers disagree on first when one of them is wrong: square dense rows,
// wide (many columns, few rows), tall (many rows, few columns), and blocky
// (independent variable groups, solved as one LP like every other shape).
type lpShape struct {
	name string
	n, m int
	// density is the per-term inclusion probability; block > 0 partitions
	// variables into that many independent groups (each row draws from one).
	density float64
	block   int
}

var lpShapes = []lpShape{
	{name: "square", n: 12, m: 12, density: 0.5},
	{name: "wide", n: 30, m: 6, density: 0.4},
	{name: "tall", n: 6, m: 24, density: 0.6},
	{name: "blocky", n: 24, m: 16, density: 0.6, block: 4},
}

// buildSeededLP generates a random LP that is feasible by construction:
// right-hand sides are derived from a random interior point, so Optimal (or
// Unbounded, when open upper bounds line up with the objective) is the only
// legal outcome.
func buildSeededLP(seed uint64, sh lpShape) *Problem {
	rng := numeric.NewRNG(seed)
	p := NewProblem()
	vars := make([]int, sh.n)
	x0 := make([]float64, sh.n)
	for i := range vars {
		lo := math.Floor(rng.Float64()*8 - 4)
		hi := lo + 1 + rng.Float64()*9
		if rng.Float64() < 0.15 {
			hi = math.Inf(1)
		}
		vars[i] = p.AddVariable("v", lo, hi)
		if math.IsInf(hi, 1) {
			x0[i] = lo + rng.Float64()*4
		} else {
			x0[i] = lo + rng.Float64()*(hi-lo)
		}
		p.SetObjective(vars[i], math.Floor(rng.Float64()*10-5))
	}
	for r := 0; r < sh.m; r++ {
		group := -1
		if sh.block > 0 {
			group = r % sh.block
		}
		var terms []Term
		lhs0 := 0.0
		for i := 0; i < sh.n; i++ {
			if group >= 0 && i%sh.block != group {
				continue
			}
			if rng.Float64() > sh.density {
				continue
			}
			c := math.Floor(rng.Float64()*9 - 4)
			if c == 0 {
				continue
			}
			terms = append(terms, Term{Var: vars[i], Coef: c})
			lhs0 += c * x0[i]
		}
		if len(terms) == 0 {
			continue
		}
		rel := []Relation{LE, GE, EQ}[rng.Intn(3)]
		rhs := lhs0
		switch rel {
		case LE:
			rhs += rng.Float64() * 4
		case GE:
			rhs -= rng.Float64() * 4
		}
		p.AddConstraint(terms, rel, rhs)
	}
	return p
}

// checkFeasible verifies x satisfies every constraint and bound of p.
func checkFeasible(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for i := 0; i < p.NumConstraints(); i++ {
		r := p.rows[i]
		rel, rhs := r.rel, r.rhs
		lhs := 0.0
		for _, tm := range r.terms {
			lhs += tm.Coef * x[tm.Var]
		}
		switch rel {
		case LE:
			if lhs > rhs+tol {
				t.Fatalf("row %d: %v <= %v violated", i, lhs, rhs)
			}
		case GE:
			if lhs < rhs-tol {
				t.Fatalf("row %d: %v >= %v violated", i, lhs, rhs)
			}
		case EQ:
			if math.Abs(lhs-rhs) > tol {
				t.Fatalf("row %d: %v == %v violated", i, lhs, rhs)
			}
		}
	}
	for v := 0; v < p.NumVariables(); v++ {
		lo, hi := p.Bounds(v)
		if x[v] < lo-tol || x[v] > hi+tol {
			t.Fatalf("var %d: %v outside [%v, %v]", v, x[v], lo, hi)
		}
	}
}

// agreeWithDense solves p with the revised simplex and with the dense
// tableau oracle and requires the same status and, when Optimal, the same
// objective and a sparse solution that is feasible in p. It returns the
// sparse solution.
func agreeWithDense(t *testing.T, p *Problem) Solution {
	t.Helper()
	sparse, err := Solve(p, nil)
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	dense := solveDense(p)
	if sparse.Status != dense.Status {
		t.Fatalf("status sparse=%v dense=%v", sparse.Status, dense.Status)
	}
	if sparse.Status != Optimal {
		return sparse
	}
	if !approx(sparse.Objective, dense.Objective, 1e-5*(1+math.Abs(dense.Objective))) {
		t.Fatalf("objective sparse=%v dense=%v", sparse.Objective, dense.Objective)
	}
	checkFeasible(t, p, sparse.X, 1e-5)
	return sparse
}

// agreeWithDenseRevised is agreeWithDense that also requires an Optimal
// solution to carry its basis: before the revised simplex answered its own
// phase-1 rays it handed such instances to the tableau, which returns none.
func agreeWithDenseRevised(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol := agreeWithDense(t, p)
	if sol.Status == Optimal && sol.Basis == nil {
		t.Fatal("optimal solution without a basis")
	}
	return sol
}

// TestSparseMatchesDense is the cross-solver oracle: on every seeded shape
// the sparse revised simplex and the dense two-phase tableau must agree on
// status and, when Optimal, on the objective — and the sparse solution must
// be feasible in the problem.
func TestSparseMatchesDense(t *testing.T) {
	seeds := []uint64{1, 7, 42, 1234, 99991, 31337}
	for _, sh := range lpShapes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
				agreeWithDense(t, buildSeededLP(seed, sh))
			})
		}
	}
}

// TestDegenerateInputsMatchDense feeds the revised simplex the inputs the
// deleted presolve used to intercept before any pivot — rows with no terms,
// rows over bound-fixed variables only, columns in no row, repeated terms —
// and checks each against the dense tableau and the known answer.
func TestDegenerateInputsMatchDense(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name  string
		build func() *Problem
		want  Status
		obj   float64 // checked when want == Optimal
	}{
		{"empty_rows_consistent", func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, 4)
			p.SetObjective(x, 1)
			p.AddConstraint(nil, LE, 1)
			p.AddConstraint(nil, GE, -1)
			p.AddConstraint(nil, EQ, 0)
			p.AddConstraint([]Term{{x, 1}}, LE, 3)
			return p
		}, Optimal, 3},
		{"empty_row_inconsistent_le", func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, 4)
			p.SetObjective(x, 1)
			p.AddConstraint(nil, LE, -1)
			return p
		}, Infeasible, 0},
		{"empty_row_inconsistent_eq", func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, 4)
			p.SetObjective(x, 1)
			p.AddConstraint([]Term{{x, 1}}, LE, 3)
			p.AddConstraint(nil, EQ, 2)
			return p
		}, Infeasible, 0},
		{"rows_over_fixed_variables", func() *Problem {
			// Both rows touch only lo == hi columns: one holds with slack, one
			// holds with equality; x is then free to reach its own bound.
			p := NewProblem()
			x := p.AddVariable("x", 0, 5)
			y := p.AddVariable("y", 2, 2)
			z := p.AddVariable("z", -1, -1)
			p.SetObjective(x, 1)
			p.SetObjective(y, 3)
			p.AddConstraint([]Term{{y, 1}, {z, 1}}, LE, 4)
			p.AddConstraint([]Term{{y, 2}, {z, 3}}, EQ, 1)
			return p
		}, Optimal, 11},
		{"rows_over_fixed_variables_violated", func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, 5)
			y := p.AddVariable("y", 2, 2)
			z := p.AddVariable("z", -1, -1)
			p.SetObjective(x, 1)
			p.AddConstraint([]Term{{y, 1}, {z, 1}}, GE, 2)
			return p
		}, Infeasible, 0},
		{"columns_in_no_row_bounded", func() *Problem {
			// u and d meet no row: u rises to its upper bound, d stays at its
			// lower bound, and neither disturbs the row x sits in.
			p := NewProblem()
			x := p.AddVariable("x", 0, inf)
			u := p.AddVariable("u", 1, 7)
			d := p.AddVariable("d", -2, 9)
			p.SetObjective(x, 1)
			p.SetObjective(u, 2)
			p.SetObjective(d, -1)
			p.AddConstraint([]Term{{x, 2}}, LE, 6)
			return p
		}, Optimal, 3 + 14 + 2},
		{"column_in_no_row_unbounded_ray", func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, 4)
			u := p.AddVariable("u", 0, inf)
			p.SetObjective(x, 1)
			p.SetObjective(u, 1)
			p.AddConstraint([]Term{{x, 1}}, LE, 3)
			return p
		}, Unbounded, 0},
		{"unbounded_ray_beside_infeasible_row", func() *Problem {
			// Feasibility is proven first: the ray never gets to matter.
			p := NewProblem()
			x := p.AddVariable("x", 0, 4)
			u := p.AddVariable("u", 0, inf)
			p.SetObjective(u, 1)
			p.AddConstraint([]Term{{x, 1}}, GE, 5)
			return p
		}, Infeasible, 0},
		{"duplicate_terms_summed", func() *Problem {
			// x + 2x ≤ 6 is 3x ≤ 6; y − y = 0 holds for every y.
			p := NewProblem()
			x := p.AddVariable("x", 0, 10)
			y := p.AddVariable("y", 0, 3)
			p.SetObjective(x, 1)
			p.SetObjective(y, 1)
			p.AddConstraint([]Term{{x, 1}, {x, 2}}, LE, 6)
			p.AddConstraint([]Term{{y, 1}, {y, -1}}, EQ, 0)
			return p
		}, Optimal, 5},
		{"phase1_ray_le_row_negative_rhs", func() *Problem {
			// A TestPropertySolutionsFeasible input, minimised: −x ≤ −3 starts
			// violated, and x, the column that repairs it, has no upper bound
			// and meets no other row, so phase 1's ratio test finds no
			// blocking row; the logical leaves at its true bound 0. y, held
			// at 0 by its own row, keeps the start off the dual path.
			p := NewProblem()
			x := p.AddVariable("x", 0, inf)
			y := p.AddVariable("y", 0, inf)
			p.SetObjective(y, 5)
			p.AddConstraint([]Term{{y, -1}}, EQ, 0)
			p.AddConstraint([]Term{{x, -1}}, LE, -3)
			return p
		}, Optimal, 0},
		{"phase1_ray_ge_row_beside_free_block", func() *Problem {
			// blocky/seed99991 of TestSparseMatchesDense, minimised: u ≥ 15
			// starts violated from above its logical's range, u is unbounded,
			// and the block y, which no row touches, keeps the start off the
			// dual path.
			p := NewProblem()
			u := p.AddVariable("u", 0, inf)
			y := p.AddVariable("y", 0, 9)
			p.SetObjective(y, 4)
			p.AddConstraint([]Term{{u, 1}}, GE, 15)
			return p
		}, Optimal, 36},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sol := agreeWithDenseRevised(t, tc.build())
			if sol.Status != tc.want {
				t.Fatalf("status %v, want %v", sol.Status, tc.want)
			}
			if tc.want == Optimal && !approx(sol.Objective, tc.obj, 1e-9) {
				t.Fatalf("objective %v, want %v", sol.Objective, tc.obj)
			}
		})
	}
}

// TestPresolveReductions keeps the handcrafted instances that pinned the
// deleted presolve's passes (and their test names, which the tier-1 floor
// lists): each was a shape presolve decided without the simplex, so each is
// now a revised-vs-dense agreement case for the simplex itself.
func TestPresolveReductions(t *testing.T) {
	t.Run("fixed_and_empty", func(t *testing.T) {
		// y is fixed by its bounds, so the first row is a constant that holds;
		// it must not be reported infeasible.
		p := NewProblem()
		x := p.AddVariable("x", 0, 10)
		y := p.AddVariable("y", 3, 3)
		p.SetObjective(x, 1)
		p.SetObjective(y, 1)
		p.AddConstraint([]Term{{y, 2}}, LE, 7)
		p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 8)
		sol := agreeWithDenseRevised(t, p)
		if sol.Status != Optimal || !approx(sol.X[x], 5, 1e-9) || !approx(sol.X[y], 3, 1e-9) {
			t.Fatalf("status %v x=%v, want optimal x=5 y=3", sol.Status, sol.X)
		}
	})
	t.Run("fixed_infeasible_row", func(t *testing.T) {
		p := NewProblem()
		y := p.AddVariable("y", 4, 4)
		p.SetObjective(y, 1)
		p.AddConstraint([]Term{{y, 1}}, LE, 3)
		if sol := agreeWithDenseRevised(t, p); sol.Status != Infeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
	})
	t.Run("singleton_substitution", func(t *testing.T) {
		// s appears in exactly one equality row and nowhere else: it is the
		// row's slack in all but name.
		p := NewProblem()
		x := p.AddVariable("x", 0, 4)
		s := p.AddVariable("s", 0, math.Inf(1))
		p.SetObjective(x, 2)
		p.AddConstraint([]Term{{x, 1}, {s, 1}}, EQ, 6)
		sol := agreeWithDenseRevised(t, p)
		if sol.Status != Optimal || !approx(sol.X[x], 4, 1e-9) || !approx(sol.X[s], 2, 1e-9) {
			t.Fatalf("status %v x=%v, want optimal x=4 s=2", sol.Status, sol.X)
		}
	})
	t.Run("blocks_match_dense", func(t *testing.T) {
		// Two groups of variables no row links, solved as one LP.
		p := NewProblem()
		a := p.AddVariable("a", 0, 5)
		b := p.AddVariable("b", 0, 5)
		c := p.AddVariable("c", 0, 5)
		d := p.AddVariable("d", 0, 5)
		for _, v := range []int{a, b, c, d} {
			p.SetObjective(v, 1)
		}
		p.AddConstraint([]Term{{a, 1}, {b, 2}}, LE, 6)
		p.AddConstraint([]Term{{c, 2}, {d, 1}}, LE, 6)
		if sol := agreeWithDenseRevised(t, p); sol.Status != Optimal || !approx(sol.Objective, 11, 1e-9) {
			t.Fatalf("status %v objective %v, want optimal 11", sol.Status, sol.Objective)
		}
	})
}

// TestBealeCyclingDense runs Beale's cycling LP through the dense tableau
// oracle, so the Bland's-rule fallback is covered in both solvers
// (TestBealeCyclingExample covers the revised simplex).
func TestBealeCyclingDense(t *testing.T) {
	p := NewProblem()
	x4 := p.AddVariable("x4", 0, math.Inf(1))
	x5 := p.AddVariable("x5", 0, math.Inf(1))
	x6 := p.AddVariable("x6", 0, math.Inf(1))
	x7 := p.AddVariable("x7", 0, math.Inf(1))
	p.SetObjective(x4, 0.75)
	p.SetObjective(x5, -150)
	p.SetObjective(x6, 0.02)
	p.SetObjective(x7, -6)
	p.AddConstraint([]Term{{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}}, LE, 0)
	p.AddConstraint([]Term{{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}}, LE, 0)
	p.AddConstraint([]Term{{x6, 1}}, LE, 1)
	if sol := solveDense(p); sol.Status != Optimal || !approx(sol.Objective, 0.05, 1e-6) {
		t.Fatalf("dense: status %v objective %v, want optimal 0.05", sol.Status, sol.Objective)
	}
}

// TestDegenerateCube is the shared degeneracy corpus case: a hypercube with
// every facet duplicated, so almost every pivot is degenerate. Both solvers
// must terminate (anti-cycling) and agree.
func TestDegenerateCube(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		const n = 6
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVariable("v", 0, math.Inf(1))
			p.SetObjective(vars[i], 1)
		}
		for i := range vars {
			// Duplicate and scaled-duplicate facets at the same corner.
			p.AddConstraint([]Term{{vars[i], 1}}, LE, 1)
			p.AddConstraint([]Term{{vars[i], 2}}, LE, 2)
			p.AddConstraint([]Term{{vars[i], 1}, {vars[(i+1)%n], 1}}, LE, 2)
		}
		return p
	}
	sparse := solveOK(t, build())
	dense := solveDense(build())
	if dense.Status != Optimal {
		t.Fatalf("dense status %v", dense.Status)
	}
	if !approx(sparse.Objective, 6, 1e-6) || !approx(dense.Objective, 6, 1e-6) {
		t.Fatalf("objectives sparse=%v dense=%v, want 6", sparse.Objective, dense.Objective)
	}
}
