package milp

import (
	"math"
	"testing"
	"time"

	"proteus/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120 weights 10,20,30, cap 50.
	// Optimal: items 2 and 3, value 220.
	p := NewProblem()
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	vars := make([]int, 3)
	terms := make([]lp.Term, 3)
	for i := range vars {
		vars[i] = p.AddInteger("item", 0, 1)
		p.SetObjective(vars[i], vals[i])
		terms[i] = lp.Term{Var: vars[i], Coef: wts[i]}
	}
	p.AddConstraint(terms, lp.LE, 50)
	sol := Solve(p, nil)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-220) > 1e-6 {
		t.Fatalf("objective %v, want 220", sol.Objective)
	}
	want := []float64{0, 1, 1}
	for i, v := range vars {
		if math.Abs(sol.X[v]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, sol.X[v], want[i])
		}
	}
}

func TestKnapsackFractionalRelaxationDiffers(t *testing.T) {
	// Values 10, 10, 12; weights 5, 5, 8; cap 10. LP relaxation takes a
	// fraction of item 3; MILP must pick items 1+2 (value 20).
	p := NewProblem()
	vals := []float64{10, 10, 12}
	wts := []float64{5, 5, 8}
	var terms []lp.Term
	for i := range vals {
		v := p.AddInteger("item", 0, 1)
		p.SetObjective(v, vals[i])
		terms = append(terms, lp.Term{Var: v, Coef: wts[i]})
	}
	p.AddConstraint(terms, lp.LE, 10)
	sol := Solve(p, nil)
	if sol.Status != Optimal || math.Abs(sol.Objective-20) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 20", sol.Status, sol.Objective)
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3x3 assignment, maximize total score.
	// scores: [[9,2,7],[6,4,3],[5,8,1]] → optimal 9+4+8? rows to cols:
	// r0→c0 (9), r1→c2 (3), r2→c1 (8) = 20; or r0→c2(7), r1→c0(6), r2→c1(8)=21.
	scores := [][]float64{{9, 2, 7}, {6, 4, 3}, {5, 8, 1}}
	p := NewProblem()
	x := make([][]int, 3)
	for i := range x {
		x[i] = make([]int, 3)
		for j := range x[i] {
			x[i][j] = p.AddInteger("x", 0, 1)
			p.SetObjective(x[i][j], scores[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		row := []lp.Term{{Var: x[i][0], Coef: 1}, {Var: x[i][1], Coef: 1}, {Var: x[i][2], Coef: 1}}
		p.AddConstraint(row, lp.EQ, 1)
		col := []lp.Term{{Var: x[0][i], Coef: 1}, {Var: x[1][i], Coef: 1}, {Var: x[2][i], Coef: 1}}
		p.AddConstraint(col, lp.EQ, 1)
	}
	sol := Solve(p, nil)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-21) > 1e-6 {
		t.Fatalf("objective %v, want 21", sol.Objective)
	}
}

func TestGeneralInteger(t *testing.T) {
	// max 3x + 4y, 2x + y <= 10, x + 3y <= 15, x,y integer ≥ 0.
	// LP optimum at x=3, y=4 → 25 (integral already).
	p := NewProblem()
	x := p.AddInteger("x", 0, 100)
	y := p.AddInteger("y", 0, 100)
	p.SetObjective(x, 3)
	p.SetObjective(y, 4)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 10)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 3}}, lp.LE, 15)
	sol := Solve(p, nil)
	if sol.Status != Optimal || math.Abs(sol.Objective-25) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 25", sol.Status, sol.Objective)
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer → x=3 (LP gives 3.5).
	p := NewProblem()
	x := p.AddInteger("x", 0, 100)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.LE, 7)
	sol := Solve(p, nil)
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("got %v obj %v, want optimal 3", sol.Status, sol.Objective)
	}
	if sol.X[x] != 3 {
		t.Fatalf("x = %v, want exactly 3", sol.X[x])
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// Fixed-charge: y binary opens capacity 10 at cost 3; x <= 10y;
	// max 2x - 3y with x <= 4.5 → open, x=4.5, obj 6.
	p := NewProblem()
	x := p.AddVariable("x", 0, 4.5)
	y := p.AddInteger("open", 0, 1)
	p.SetObjective(x, 2)
	p.SetObjective(y, -3)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -10}}, lp.LE, 0)
	sol := Solve(p, nil)
	if sol.Status != Optimal || math.Abs(sol.Objective-6) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 6", sol.Status, sol.Objective)
	}
	if sol.X[y] != 1 {
		t.Fatalf("y = %v, want 1", sol.X[y])
	}
}

func TestFixedChargeStaysClosed(t *testing.T) {
	// Same but opening cost exceeds profit → stay closed, obj 0.
	p := NewProblem()
	x := p.AddVariable("x", 0, 1)
	y := p.AddInteger("open", 0, 1)
	p.SetObjective(x, 2)
	p.SetObjective(y, -3)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -10}}, lp.LE, 0)
	sol := Solve(p, nil)
	if sol.Status != Optimal || math.Abs(sol.Objective) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 0", sol.Status, sol.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// x + y = 1 with x, y binary and x + y >= 2 impossible... make it
	// integer-infeasible but LP-feasible: 2x = 1, x binary.
	p := NewProblem()
	x := p.AddInteger("x", 0, 1)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.EQ, 1)
	sol := Solve(p, nil)
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestLPInfeasibleRoot(t *testing.T) {
	p := NewProblem()
	x := p.AddInteger("x", 0, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 2)
	sol := Solve(p, nil)
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestUnboundedMILP(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, math.Inf(1))
	y := p.AddInteger("y", 0, 1)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: y, Coef: 1}}, lp.LE, 1)
	sol := Solve(p, nil)
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestWarmStartAcceleratesAndIsUsed(t *testing.T) {
	p := NewProblem()
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	var terms []lp.Term
	vars := make([]int, 3)
	for i := range vals {
		vars[i] = p.AddInteger("item", 0, 1)
		p.SetObjective(vars[i], vals[i])
		terms = append(terms, lp.Term{Var: vars[i], Coef: wts[i]})
	}
	p.AddConstraint(terms, lp.LE, 50)
	// Warm start with the true optimum; solver must confirm it.
	sol := Solve(p, &Options{WarmStart: []float64{0, 1, 1}})
	if sol.Status != Optimal || math.Abs(sol.Objective-220) > 1e-6 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
}

func TestWarmStartWithBadIntegralityIgnored(t *testing.T) {
	p := NewProblem()
	x := p.AddInteger("x", 0, 1)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 1)
	sol := Solve(p, &Options{WarmStart: []float64{0.5}})
	if sol.Status != Optimal || sol.X[x] != 1 {
		t.Fatalf("got %v x %v", sol.Status, sol.X)
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	// A problem needing branching, with MaxNodes = 1: after the root node
	// we have no incumbent → Limit; with a warm start → Feasible.
	p := NewProblem()
	x := p.AddInteger("x", 0, 100)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.LE, 7)
	sol := Solve(p, &Options{MaxNodes: 1})
	if sol.Status != Limit {
		t.Fatalf("status %v, want limit", sol.Status)
	}
	sol = Solve(p, &Options{MaxNodes: 1, WarmStart: []float64{1}})
	if sol.Status != Feasible || sol.Objective != 1 {
		t.Fatalf("status %v obj %v, want feasible 1", sol.Status, sol.Objective)
	}
	if sol.Gap() <= 0 {
		t.Fatalf("gap %v, want positive", sol.Gap())
	}
}

// TestFiniteBoundUnderNodeLimit is the regression test for the bound-
// reporting bug: with MaxNodes: 1 the root relaxation is solved to a finite
// objective, yet the solver used to report Bound = +Inf (and Gap() = +Inf)
// because the global bound was only tightened from popped parents. The
// solved relaxation objective itself proves a bound on the whole tree.
func TestFiniteBoundUnderNodeLimit(t *testing.T) {
	p := NewProblem()
	x := p.AddInteger("x", 0, 100)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.LE, 7)

	sol := Solve(p, &Options{MaxNodes: 1})
	if math.IsInf(sol.Bound, 1) {
		t.Fatalf("Bound = +Inf after solving the root relaxation; want ≤ 3.5")
	}
	if sol.Bound < 3 || sol.Bound > 3.5+1e-9 {
		t.Fatalf("Bound = %v, want the root relaxation value 3.5", sol.Bound)
	}

	sol = Solve(p, &Options{MaxNodes: 1, WarmStart: []float64{1}})
	if sol.Status != Feasible {
		t.Fatalf("status %v, want feasible", sol.Status)
	}
	if g := sol.Gap(); math.IsInf(g, 1) || g <= 0 {
		t.Fatalf("Gap() = %v under MaxNodes: 1, want finite and positive", g)
	}
}

// TestRelGapZeroProvesExactOptimality is the regression test for the
// options bug: RelGap: 0 used to be treated as "unset" and silently became
// 1e-6, making an exact optimality proof unexpressible. Explicit zeros now
// pass through (negative selects the default).
func TestRelGapZeroProvesExactOptimality(t *testing.T) {
	if got := (&Options{RelGap: 0}).withDefaults(); got.RelGap != 0 {
		t.Fatalf("explicit zero rewritten to RelGap=%v", got.RelGap)
	}
	if got := (&Options{RelGap: -1}).withDefaults(); got.RelGap != 1e-6 {
		t.Fatalf("negative-means-default broken: RelGap=%v", got.RelGap)
	}

	p := NewProblem()
	var terms []lp.Term
	vals := []float64{9, 7, 6, 5, 3}
	wts := []float64{4, 3, 3, 2, 2}
	for i := range vals {
		v := p.AddInteger("x", 0, 1)
		p.SetObjective(v, vals[i])
		terms = append(terms, lp.Term{Var: v, Coef: wts[i]})
	}
	p.AddConstraint(terms, lp.LE, 7)
	sol := Solve(p, &Options{RelGap: 0})
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if sol.Bound != sol.Objective {
		t.Fatalf("Bound %v != Objective %v: gap not closed exactly", sol.Bound, sol.Objective)
	}
	if g := sol.Gap(); g != 0 {
		t.Fatalf("Gap() = %v, want exactly 0", g)
	}
}

// TestBoundNotBelowIncumbent solves an integer knapsack whose search ends
// on popping a node queued with a bound (59.1) below the incumbent found
// after it was queued (60), with other nodes still open. The incumbent is
// then proven optimal, so the bound reported is its objective, never the
// popped node's, and the gap is 0, not negative.
func TestBoundNotBelowIncumbent(t *testing.T) {
	p := NewProblem()
	var terms []lp.Term
	vals := []float64{20, 6, 13}
	wts := []float64{11, 16, 17}
	his := []float64{3, 1, 2}
	for i := range vals {
		v := p.AddInteger("x", 0, his[i])
		p.SetObjective(v, vals[i])
		terms = append(terms, lp.Term{Var: v, Coef: wts[i]})
	}
	p.AddConstraint(terms, lp.LE, 47)
	sol := Solve(p, &Options{RelGap: 0})
	if sol.Status != Optimal || sol.Objective != 60 {
		t.Fatalf("status %v, objective %v, want optimal 60", sol.Status, sol.Objective)
	}
	if sol.Bound != sol.Objective || sol.Gap() != 0 {
		t.Fatalf("bound %v for objective %v (gap %v), want the objective and gap 0", sol.Bound, sol.Objective, sol.Gap())
	}
}

func TestTimeLimit(t *testing.T) {
	// Pseudo-polynomial hard-ish instance; with a tiny time limit the solver
	// must return promptly with Limit or Feasible rather than hang.
	p := NewProblem()
	var terms []lp.Term
	for i := 0; i < 40; i++ {
		v := p.AddInteger("x", 0, 1)
		p.SetObjective(v, float64(100+i*7%13))
		terms = append(terms, lp.Term{Var: v, Coef: float64(7 + (i*31)%17)})
	}
	p.AddConstraint(terms, lp.LE, 150)
	start := time.Now()
	sol := Solve(p, &Options{TimeLimit: 30 * time.Millisecond})
	if time.Since(start) > 2*time.Second {
		t.Fatalf("time limit not honored: %v", time.Since(start))
	}
	if sol.Status == Infeasible || sol.Status == Unbounded {
		t.Fatalf("unexpected status %v", sol.Status)
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	p := NewProblem()
	x := p.AddInteger("x", 0, 9)
	p.SetObjective(x, 1)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 2}}, lp.LE, 7)
	Solve(p, nil)
	// Solve again; if bounds leaked from branching, the second solve would
	// see a narrowed domain. Both must agree.
	sol2 := Solve(p, nil)
	if sol2.Status != Optimal || sol2.Objective != 3 {
		t.Fatalf("second solve got %v obj %v", sol2.Status, sol2.Objective)
	}
}

func TestSolutionIsIntegral(t *testing.T) {
	p := NewProblem()
	var terms []lp.Term
	for i := 0; i < 10; i++ {
		v := p.AddInteger("x", 0, 1)
		p.SetObjective(v, float64(i%4)+0.5)
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + i%3)})
	}
	p.AddConstraint(terms, lp.LE, 7)
	sol := Solve(p, nil)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	for i, v := range sol.X {
		if v != math.Round(v) {
			t.Fatalf("x[%d] = %v not integral", i, v)
		}
	}
}

func TestCounts(t *testing.T) {
	p := NewProblem()
	p.AddVariable("c", 0, 1)
	p.AddInteger("b", 0, 1)
	p.AddInteger("i", 0, 5)
	if p.NumVariables() != 3 || p.NumIntegers() != 2 {
		t.Fatalf("counts: vars %d ints %d", p.NumVariables(), p.NumIntegers())
	}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.LE, 1)
	if n := p.lp.NumConstraints(); n != 1 {
		t.Fatalf("constraints %d", n)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", Limit: "limit",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}
