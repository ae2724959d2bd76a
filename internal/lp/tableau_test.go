package lp

import "math"

// solveDense solves p with the dense two-phase tableau below: the
// independent oracle the revised simplex is tested and fuzzed against. It
// shares only the Problem, varStatus and the package's tolerance, pivot and
// stall limits with revised.go, and returns no Basis.
func solveDense(p *Problem) Solution { return newTableau(p).solve() }

// tableau is the mutable solver state. Internally every variable is shifted
// so its lower bound is 0; upper bounds are handled by the bounded-variable
// ratio test rather than explicit rows.
type tableau struct {
	n     int // structural variables
	nCols int // structural + slack + artificial
	nArt  int

	shift []float64 // original lower bound per structural variable
	upper []float64 // shifted upper bound per column (may be +Inf)
	cost  []float64 // phase-2 objective per column (0 for slack/artificial)

	a     [][]float64 // m x nCols current tableau
	xB    []float64   // value of the basic variable per row
	basis []int       // column basic in each row
	stat  []varStatus // per column

	z     []float64 // reduced costs per column
	iters int

	artStart int
}

func newTableau(p *Problem) *tableau {
	n := len(p.names)
	m := len(p.rows)

	t := &tableau{n: n}
	t.shift = make([]float64, n)
	copy(t.shift, p.lo)

	// Shifted rows: rhs_i' = rhs_i - Σ a_ij * lo_j.
	type prepared struct {
		coefs []float64
		rel   Relation
		rhs   float64
	}
	rows := make([]prepared, m)
	for i, r := range p.rows {
		coefs := make([]float64, n)
		rhs := r.rhs
		for _, term := range r.terms {
			coefs[term.Var] += term.Coef
		}
		for j := 0; j < n; j++ {
			rhs -= coefs[j] * t.shift[j]
		}
		rel := r.rel
		if rhs < 0 {
			for j := range coefs {
				coefs[j] = -coefs[j]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = prepared{coefs: coefs, rel: rel, rhs: rhs}
	}

	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
		if r.rel != LE {
			nArt++
		}
	}
	t.nArt = nArt
	t.nCols = n + nSlack + nArt
	t.artStart = n + nSlack

	t.upper = make([]float64, t.nCols)
	t.cost = make([]float64, t.nCols)
	for j := 0; j < n; j++ {
		t.upper[j] = p.hi[j] - p.lo[j]
		t.cost[j] = p.obj[j]
	}
	for j := n; j < t.nCols; j++ {
		t.upper[j] = math.Inf(1)
	}

	t.a = make([][]float64, m)
	t.xB = make([]float64, m)
	t.basis = make([]int, m)
	t.stat = make([]varStatus, t.nCols)

	slackCol := n
	artCol := t.artStart
	for i, r := range rows {
		row := make([]float64, t.nCols)
		copy(row, r.coefs)
		switch r.rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
		t.xB[i] = r.rhs
		t.stat[t.basis[i]] = basic
	}
	return t
}

func (t *tableau) solve() Solution {
	if t.nArt > 0 {
		// Phase 1: maximize -Σ artificials.
		phase1 := make([]float64, t.nCols)
		for j := t.artStart; j < t.nCols; j++ {
			phase1[j] = -1
		}
		t.resetReducedCosts(phase1)
		st := t.iterate(phase1)
		if st == IterLimit {
			return Solution{Status: IterLimit, Iters: t.iters}
		}
		infeas := 0.0
		for i, bj := range t.basis {
			if bj >= t.artStart {
				infeas += t.xB[i]
			}
		}
		if infeas > 1e-7 {
			return Solution{Status: Infeasible, Iters: t.iters}
		}
		// Fix all artificials at zero so phase 2 cannot resurrect them.
		for j := t.artStart; j < t.nCols; j++ {
			t.upper[j] = 0
			if t.stat[j] == atUpper {
				t.stat[j] = atLower
			}
		}
		t.driveOutArtificials()
	}

	t.resetReducedCosts(t.cost)
	st := t.iterate(t.cost)
	sol := Solution{Status: st, Iters: t.iters}
	if st == Optimal || st == IterLimit {
		sol.X = t.extract()
		obj := 0.0
		for j := 0; j < t.n; j++ {
			obj += t.cost[j] * sol.X[j]
		}
		sol.Objective = obj
	}
	return sol
}

// driveOutArtificials performs degenerate pivots to remove artificial
// variables from the basis where possible. Rows whose artificial cannot be
// driven out are redundant; the artificial stays basic at value 0 with an
// upper bound of 0, which blocks any future increase.
func (t *tableau) driveOutArtificials() {
	for i, bj := range t.basis {
		if bj < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if t.stat[j] == basic {
				continue
			}
			if math.Abs(t.a[i][j]) > 1e-7 {
				enterVal := nonbasicValue(t, j)
				t.pivot(i, j)
				t.stat[bj] = atLower
				t.stat[j] = basic
				t.basis[i] = j
				// The basis change happens at step 0, so every variable keeps
				// its current value; the entering one simply becomes basic.
				t.xB[i] = enterVal
				break
			}
		}
	}
}

func nonbasicValue(t *tableau, j int) float64 {
	if t.stat[j] == atUpper {
		return t.upper[j]
	}
	return 0
}

// resetReducedCosts recomputes the reduced-cost row for objective c.
func (t *tableau) resetReducedCosts(c []float64) {
	if t.z == nil {
		t.z = make([]float64, t.nCols)
	}
	copy(t.z, c)
	for i, bj := range t.basis {
		cb := c[bj]
		if cb == 0 { // exact-zero skip of a no-op row update; a tolerance would change which rows are eliminated
			continue
		}
		row := t.a[i]
		for j := 0; j < t.nCols; j++ {
			t.z[j] -= cb * row[j]
		}
	}
}

// iterate runs primal simplex pivots until optimality for objective c.
func (t *tableau) iterate(c []float64) Status {
	stall := 0
	for ; t.iters < maxIters; t.iters++ {
		bland := stall > stallLimit
		j, dir := t.chooseEntering(tol, bland)
		if j < 0 {
			return Optimal
		}
		tMax, leaveRow, leaveAtUpper := t.ratioTest(j, dir, tol, bland)
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if tMax < tol {
			stall++
		} else {
			stall = 0
		}
		if leaveRow < 0 {
			// Bound flip: the entering variable traverses to its other bound.
			t.applyStep(j, dir, tMax)
			if t.stat[j] == atLower {
				t.stat[j] = atUpper
			} else {
				t.stat[j] = atLower
			}
			continue
		}
		t.applyStep(j, dir, tMax)
		enterVal := nonbasicValue(t, j) + tMax*dir
		leaving := t.basis[leaveRow]
		if leaveAtUpper {
			t.stat[leaving] = atUpper
		} else {
			t.stat[leaving] = atLower
		}
		t.pivot(leaveRow, j)
		t.basis[leaveRow] = j
		t.stat[j] = basic
		t.xB[leaveRow] = enterVal
	}
	return IterLimit
}

// chooseEntering picks an improving nonbasic column and its direction
// (+1 from lower bound, -1 from upper bound), or (-1, 0) at optimality.
func (t *tableau) chooseEntering(tol float64, bland bool) (int, float64) {
	bestJ := -1
	bestScore := tol
	var bestDir float64
	for j := 0; j < t.nCols; j++ {
		if t.stat[j] == basic || t.upper[j] < tol {
			continue
		}
		var score, dir float64
		switch t.stat[j] {
		case atLower:
			score, dir = t.z[j], 1
		case atUpper:
			score, dir = -t.z[j], -1
		}
		if score > tol {
			if bland {
				return j, dir
			}
			if score > bestScore {
				bestScore, bestJ, bestDir = score, j, dir
			}
		}
	}
	return bestJ, bestDir
}

// ratioTest returns the maximum step tMax for entering column j in
// direction dir, the limiting row (or -1 for a bound flip), and whether the
// leaving basic variable departs at its upper bound.
func (t *tableau) ratioTest(j int, dir, tol float64, bland bool) (tMax float64, leaveRow int, leaveAtUpper bool) {
	tMax = t.upper[j] // entering variable's own span
	leaveRow = -1
	for i := range t.a {
		coef := t.a[i][j] * dir
		switch {
		case coef > tol:
			// Basic variable decreases toward 0.
			lim := t.xB[i] / coef
			if lim < tMax-tol || (bland && lim < tMax+tol && better(t, leaveRow, i, leaveAtUpper)) {
				tMax, leaveRow, leaveAtUpper = lim, i, false
			}
		case coef < -tol:
			// Basic variable increases toward its upper bound.
			ub := t.upper[t.basis[i]]
			if math.IsInf(ub, 1) {
				continue
			}
			lim := (ub - t.xB[i]) / -coef
			if lim < tMax-tol || (bland && lim < tMax+tol && better(t, leaveRow, i, leaveAtUpper)) {
				tMax, leaveRow, leaveAtUpper = lim, i, true
			}
		}
	}
	if tMax < 0 {
		tMax = 0
	}
	return tMax, leaveRow, leaveAtUpper
}

// better implements Bland's smallest-index tie-break for the leaving row.
func better(t *tableau, cur, cand int, _ bool) bool {
	if cur < 0 {
		return true
	}
	return t.basis[cand] < t.basis[cur]
}

// applyStep moves the entering variable by tMax*dir, updating basic values.
func (t *tableau) applyStep(j int, dir, tMax float64) {
	if tMax == 0 { // exact-zero fast path for degenerate steps; nonzero tiny steps must still update xB
		return
	}
	step := tMax * dir
	for i := range t.a {
		t.xB[i] -= step * t.a[i][j]
		if t.xB[i] < 0 && t.xB[i] > -1e-9 {
			t.xB[i] = 0
		}
	}
}

// pivot performs Gaussian elimination to make column j the identity column
// for row r, updating the reduced costs as well.
func (t *tableau) pivot(r, j int) {
	prow := t.a[r]
	pv := prow[j]
	inv := 1 / pv
	for k := range prow {
		prow[k] *= inv
	}
	prow[j] = 1 // exact
	for i := range t.a {
		if i == r {
			continue
		}
		f := t.a[i][j]
		if f == 0 { // exact-zero skip of a no-op elimination row; correctness does not depend on the branch
			continue
		}
		row := t.a[i]
		for k := range row {
			row[k] -= f * prow[k]
		}
		row[j] = 0
	}
	f := t.z[j]
	if f != 0 { // exact-zero skip of a no-op reduced-cost update
		for k := range t.z {
			t.z[k] -= f * prow[k]
		}
		t.z[j] = 0
	}
}

// extract maps the tableau state back to original variable values.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		switch t.stat[j] {
		case atUpper:
			x[j] = t.upper[j]
		default:
			x[j] = 0
		}
	}
	for i, bj := range t.basis {
		if bj < t.n {
			x[bj] = t.xB[i]
		}
	}
	for j := 0; j < t.n; j++ {
		// Clean tiny negatives from floating-point drift, then unshift.
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
		if !math.IsInf(t.upper[j], 1) && x[j] > t.upper[j] {
			x[j] = t.upper[j]
		}
		x[j] += t.shift[j]
	}
	return x
}
