// Sparse revised simplex with warm starts.
//
// The solver keeps the constraint matrix in compressed-sparse-column form
// and represents the basis by an explicit dense inverse that is updated
// product-form on each pivot and rebuilt from scratch (deterministic
// Gauss-Jordan with partial pivoting, ties broken by lowest row) every
// refactorEvery pivots — counted across a chain of warm re-solves, so the
// floating-point drift of the carried inverse stays bounded.
//
// The state of the start basis picks the algorithm (solveRevised): one that
// prices dual feasible and is primal infeasible — every branch-and-bound
// child — is re-optimised by the dual simplex of dual.go; any other start
// takes the primal path in this file.
//
// On the primal path feasibility is restored by a bound-stretch composite
// phase 1: the bounds of out-of-range basic variables are temporarily
// stretched to their current values and a ±1 objective pulls them back; a
// variable whose value re-enters its true range has its bounds restored
// immediately (pricing is recomputed every iteration, so mid-phase cost
// edits are free).
//
// Determinism: every choice — entering column (Dantzig with lowest-index
// tie-break, Bland's rule after a degenerate stall), leaving row (lowest
// basic column index among near-ties), the dual path's row and column,
// factorization pivots — is index-deterministic, so a solve is a function of
// the problem and the start basis. No maps, no wall clock, no randomness.
package lp

import "math"

const (
	refactorEvery = 128   // pivots between basis refactorizations
	stallLimit    = 200   // degenerate steps before switching to Bland's rule
	feasTol       = 1e-7  // residual infeasibility accepted after phase 1
	pivotTol      = 1e-10 // factorization pivot magnitude treated as nonsingular
)

// isZero reports f == ±0 without a float equality comparison.
func isZero(f float64) bool { return math.Float64bits(f)<<1 == 0 }

// csc is the structural constraint matrix in compressed-sparse-column form;
// duplicate terms are merged and rows appear in increasing order within
// each column.
type csc struct {
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// fingerprint hashes the structural matrix (FNV-1a over the CSC arrays,
// float values by exact bit pattern). A warm basis carries the fingerprint
// of the matrix it was factorized against, so a cached inverse is only ever
// reused when the matrix is bit-identical — e.g. branch-and-bound nodes,
// which change bounds but never coefficients.
func (mat *csc) fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, v := range mat.colPtr {
		mix(uint64(uint32(v)))
	}
	for _, v := range mat.rowIdx {
		mix(uint64(uint32(v)))
	}
	for _, v := range mat.val {
		mix(math.Float64bits(v))
	}
	return h
}

func buildCSC(p *Problem) csc {
	n, m := len(p.names), len(p.rows)
	// Merge duplicate terms per row into (row-major) dense scratch, keeping
	// a touched list so cost stays O(nonzeros).
	type entry struct {
		row, col int32
		val      float64
	}
	var entries []entry
	scratch := make([]float64, n)
	touched := make([]int32, 0, 8)
	for i := 0; i < m; i++ {
		touched = touched[:0]
		for _, t := range p.rows[i].terms {
			if isZero(scratch[t.Var]) {
				touched = append(touched, int32(t.Var))
			}
			scratch[t.Var] += t.Coef
		}
		for _, v := range touched {
			if !isZero(scratch[v]) {
				entries = append(entries, entry{int32(i), v, scratch[v]})
			}
			scratch[v] = 0
		}
	}
	mat := csc{colPtr: make([]int32, n+1)}
	for _, e := range entries {
		mat.colPtr[e.col+1]++
	}
	for j := 0; j < n; j++ {
		mat.colPtr[j+1] += mat.colPtr[j]
	}
	mat.rowIdx = make([]int32, len(entries))
	mat.val = make([]float64, len(entries))
	next := make([]int32, n)
	copy(next, mat.colPtr[:n])
	// Entries were produced row-major, so per-column row order is ascending.
	for _, e := range entries {
		k := next[e.col]
		mat.rowIdx[k] = e.row
		mat.val[k] = e.val
		next[e.col]++
	}
	return mat
}

// revised is the mutable solver state for one solve. Columns 0..n-1 are the
// structural variables; column n+i is row i's logical: [0,+inf) for ≤,
// (-inf,0] for ≥, [0,0] for =.
type revised struct {
	opts Options

	n, m, N int
	mat     csc
	hash    uint64 // mat.fingerprint(), for warm-start inverse reuse
	rhs     []float64
	lo, hi  []float64 // working bounds per column (stretched in phase 1)
	cost    []float64 // phase-2 objective per column (0 for logicals)

	basis []int32     // column basic in row i
	inRow []int32     // row a column is basic in, or -1
	stat  []varStatus // per column
	binv  [][]float64 // m x m explicit basis inverse
	xB    []float64   // value of basis[i]

	y, z, w []float64 // scratch: duals, reduced costs, FTRAN column
	alpha   []float64 // scratch: dual pivot row ρ_r·A per column
	cand    []int32   // scratch: the dual ratio test's candidate columns
	res     []float64 // scratch: computeXB's right-hand side
	// fact is factorize's m×m elimination matrix, allocated by the first
	// factorization of a solve (a warm re-solve usually needs none).
	fact [][]float64

	iters       int // pivots and bound flips, primal and dual
	dualIters   int // of which dual pivots
	sinceFactor int

	// Phase-1 bound-stretch bookkeeping.
	trueLo, trueHi []float64
	p1cost         []float64
	stretched      []bool
	nStretched     int
}

func newRevised(p *Problem, o Options) *revised {
	n, m := len(p.names), len(p.rows)
	mc := p.matrix()
	r := &revised{opts: o, n: n, m: m, N: n + m, mat: mc.mat, hash: mc.hash}
	// One backing array for the float state (8 N-sized + 5 m-sized vectors)
	// and one for binv: the solver is created per solve, so allocation count
	// dominates small warm re-solves.
	buf := make([]float64, 8*r.N+5*m)
	cut := func(k int) (s []float64) { s, buf = buf[:k:k], buf[k:]; return }
	r.lo, r.hi, r.cost = cut(r.N), cut(r.N), cut(r.N)
	r.trueLo, r.trueHi, r.p1cost, r.z, r.alpha = cut(r.N), cut(r.N), cut(r.N), cut(r.N), cut(r.N)
	r.rhs, r.xB, r.y, r.w, r.res = cut(m), cut(m), cut(m), cut(m), cut(m)
	for j := 0; j < n; j++ {
		r.lo[j], r.hi[j] = p.lo[j], p.hi[j]
		r.cost[j] = p.obj[j]
	}
	for i := 0; i < m; i++ {
		r.rhs[i] = p.rows[i].rhs
		switch p.rows[i].rel {
		case LE:
			r.lo[n+i], r.hi[n+i] = 0, math.Inf(1)
		case GE:
			r.lo[n+i], r.hi[n+i] = math.Inf(-1), 0
		case EQ:
			r.lo[n+i], r.hi[n+i] = 0, 0
		}
	}
	ibuf := make([]int32, m+2*r.N)
	r.basis, r.inRow, r.cand = ibuf[:m:m], ibuf[m:m+r.N:m+r.N], ibuf[m+r.N:]
	r.stat = make([]varStatus, r.N)
	bbuf := make([]float64, m*m)
	r.binv = make([][]float64, m)
	for i := range r.binv {
		r.binv[i] = bbuf[i*m : (i+1)*m : (i+1)*m]
	}
	r.stretched = make([]bool, r.N)
	return r
}

// restingStatus returns a valid nonbasic resting bound for column j given a
// requested status: a nonbasic variable must sit at a finite bound.
func (r *revised) restingStatus(j int, want varStatus) varStatus {
	if want == atUpper {
		if !math.IsInf(r.hi[j], 1) {
			return atUpper
		}
		return atLower
	}
	if !math.IsInf(r.lo[j], -1) {
		return atLower
	}
	return atUpper
}

// setBasis installs a starting basis: the warm basis when it is shape-
// compatible and factorizes, the all-logical basis otherwise. Returns false
// only when even the logical basis fails to factorize (cannot happen: it is
// the identity; kept for symmetry with refactorize).
func (r *revised) setBasis(warm *Basis) bool {
	ok := false
	if warm != nil {
		if len(warm.rowVar) == r.m && len(warm.stat) == r.N {
			ok = true
			for j := range r.inRow {
				r.inRow[j] = -1
			}
			for i := 0; i < r.m; i++ {
				v := int(warm.rowVar[i])
				if v < 0 || v >= r.N || r.inRow[v] >= 0 {
					ok = false
					break
				}
				r.inRow[v] = int32(i)
				r.basis[i] = int32(v)
			}
			if ok {
				for j := 0; j < r.N; j++ {
					if r.inRow[j] >= 0 {
						r.stat[j] = basic
					} else {
						r.stat[j] = r.restingStatus(j, varStatus(warm.stat[j]))
					}
				}
				if warm.binv != nil && warm.matHash == r.hash && warm.updates < refactorEvery {
					// The warm basis carries the inverse it was solved with and
					// the matrix is bit-identical: copy it instead of paying the
					// O(m³) refactorization. The update counter carries over so
					// drift control spans solves.
					for i := 0; i < r.m; i++ {
						copy(r.binv[i], warm.binv[i])
					}
					r.sinceFactor = warm.updates
				} else {
					ok = r.factorize()
				}
			}
		}
	}
	if !ok {
		for i := 0; i < r.m; i++ {
			r.basis[i] = int32(r.n + i)
		}
		for j := 0; j < r.N; j++ {
			if j < r.n {
				r.stat[j] = r.restingStatus(j, atLower)
			} else {
				r.stat[j] = basic
			}
		}
		if !r.factorize() {
			return false
		}
	}
	r.computeXB()
	return true
}

// factorize rebuilds binv from the current basis by Gauss-Jordan with
// partial pivoting (largest magnitude, ties broken by lowest row). It also
// refreshes inRow. Returns false when the basis matrix is singular.
func (r *revised) factorize() bool {
	m := r.m
	if r.fact == nil {
		flat := make([]float64, m*m)
		r.fact = make([][]float64, m)
		for i := range r.fact {
			r.fact[i] = flat[i*m : (i+1)*m : (i+1)*m]
		}
	} else {
		for _, row := range r.fact {
			for k := range row {
				row[k] = 0
			}
		}
	}
	bm := r.fact // basis matrix, column i = A_{basis[i]}
	for k := 0; k < m; k++ {
		j := int(r.basis[k])
		if j < r.n {
			for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
				bm[r.mat.rowIdx[t]][k] = r.mat.val[t]
			}
		} else {
			bm[j-r.n][k] = 1
		}
	}
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			r.binv[i][k] = 0
		}
		r.binv[i][i] = 1
	}
	for k := 0; k < m; k++ {
		p, best := -1, pivotTol
		for i := k; i < m; i++ {
			if a := math.Abs(bm[i][k]); a > best {
				p, best = i, a
			}
		}
		if p < 0 {
			return false
		}
		if p != k {
			bm[p], bm[k] = bm[k], bm[p]
			r.binv[p], r.binv[k] = r.binv[k], r.binv[p]
		}
		inv := 1 / bm[k][k]
		for t := 0; t < m; t++ {
			bm[k][t] *= inv
			r.binv[k][t] *= inv
		}
		for i := 0; i < m; i++ {
			if i == k {
				continue
			}
			f := bm[i][k]
			if isZero(f) {
				continue
			}
			for t := 0; t < m; t++ {
				bm[i][t] -= f * bm[k][t]
				r.binv[i][t] -= f * r.binv[k][t]
			}
			bm[i][k] = 0
		}
	}
	for j := range r.inRow {
		r.inRow[j] = -1
	}
	for i := 0; i < m; i++ {
		r.inRow[r.basis[i]] = int32(i)
	}
	r.sinceFactor = 0
	return true
}

// nonbasicValue returns the resting value of nonbasic column j.
func (r *revised) nonbasicValue(j int) float64 {
	if r.stat[j] == atUpper {
		return r.hi[j]
	}
	return r.lo[j]
}

// value returns the current value of any column.
func (r *revised) value(j int) float64 {
	if r.stat[j] == basic {
		return r.xB[r.inRow[j]]
	}
	return r.nonbasicValue(j)
}

// computeXB recomputes the basic values from scratch: xB = binv·(rhs − N·x_N)
// with nonbasic contributions accumulated in ascending column order.
func (r *revised) computeXB() {
	res := r.res
	copy(res, r.rhs)
	for j := 0; j < r.n; j++ {
		if r.stat[j] == basic {
			continue
		}
		v := r.nonbasicValue(j)
		if isZero(v) {
			continue
		}
		for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
			res[r.mat.rowIdx[t]] -= r.mat.val[t] * v
		}
	}
	for i := 0; i < r.m; i++ {
		j := r.n + i
		if r.stat[j] != basic {
			res[i] -= r.nonbasicValue(j)
		}
	}
	for i := 0; i < r.m; i++ {
		s := 0.0
		row := r.binv[i]
		for k := 0; k < r.m; k++ {
			s += row[k] * res[k]
		}
		r.xB[i] = s
	}
}

// price computes duals y = c_B·binv and reduced costs z_j = c_j − y·A_j for
// every column under objective c.
func (r *revised) price(c []float64) {
	for i := 0; i < r.m; i++ {
		r.y[i] = 0
	}
	for k := 0; k < r.m; k++ {
		cb := c[r.basis[k]]
		if isZero(cb) {
			continue
		}
		row := r.binv[k]
		for i := 0; i < r.m; i++ {
			r.y[i] += cb * row[i]
		}
	}
	for j := 0; j < r.n; j++ {
		s := c[j]
		for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
			s -= r.y[r.mat.rowIdx[t]] * r.mat.val[t]
		}
		r.z[j] = s
	}
	for i := 0; i < r.m; i++ {
		r.z[r.n+i] = c[r.n+i] - r.y[i]
	}
}

// chooseEntering picks an improving nonbasic column and direction (+1 from
// lower, -1 from upper), or (-1, 0) at optimality. Dantzig prefers the
// lowest index among equal scores; Bland takes the first improving index.
func (r *revised) chooseEntering(tol float64, bland bool) (int, float64) {
	bestJ, bestScore, bestDir := -1, tol, 0.0
	for j := 0; j < r.N; j++ {
		if r.stat[j] == basic || r.hi[j]-r.lo[j] < tol {
			continue
		}
		var score, dir float64
		if r.stat[j] == atLower {
			score, dir = r.z[j], 1
		} else {
			score, dir = -r.z[j], -1
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

// ftran computes w = binv·A_j, the entering column in the current basis.
func (r *revised) ftran(j int) {
	for i := 0; i < r.m; i++ {
		r.w[i] = 0
	}
	if j < r.n {
		for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
			a := r.mat.val[t]
			k := int(r.mat.rowIdx[t])
			for i := 0; i < r.m; i++ {
				r.w[i] += r.binv[i][k] * a
			}
		}
	} else {
		k := j - r.n
		for i := 0; i < r.m; i++ {
			r.w[i] = r.binv[i][k]
		}
	}
}

// ratioTest returns the maximum step for entering column j in direction
// dir, the limiting row (-1 for a bound flip) and whether the leaving basic
// variable departs at its upper bound. Ties within tol are broken toward
// the lowest basic column index, so the pivot choice is index-deterministic
// regardless of float noise.
func (r *revised) ratioTest(j int, dir, tol float64) (tMax float64, leaveRow int, leaveAtUpper bool) {
	tMax = r.hi[j] - r.lo[j] // entering variable's own span
	leaveRow = -1
	for i := 0; i < r.m; i++ {
		coef := r.w[i] * dir
		bi := r.basis[i]
		switch {
		case coef > tol:
			lob := r.lo[bi]
			if math.IsInf(lob, -1) {
				continue
			}
			lim := (r.xB[i] - lob) / coef
			if lim < tMax-tol || (lim < tMax+tol && r.betterLeave(leaveRow, i)) {
				tMax, leaveRow, leaveAtUpper = lim, i, false
			}
		case coef < -tol:
			hib := r.hi[bi]
			if math.IsInf(hib, 1) {
				continue
			}
			lim := (hib - r.xB[i]) / -coef
			if lim < tMax-tol || (lim < tMax+tol && r.betterLeave(leaveRow, i)) {
				tMax, leaveRow, leaveAtUpper = lim, i, true
			}
		}
	}
	if tMax < 0 {
		tMax = 0
	}
	return tMax, leaveRow, leaveAtUpper
}

func (r *revised) betterLeave(cur, cand int) bool {
	if cur < 0 {
		return true
	}
	return r.basis[cand] < r.basis[cur]
}

// applyStep moves entering column j by step = tMax*dir, updating xB.
// Basic values drifting a hair outside a finite bound are snapped back.
func (r *revised) applyStep(j int, dir, tMax float64) {
	if isZero(tMax) {
		return
	}
	step := tMax * dir
	for i := 0; i < r.m; i++ {
		r.xB[i] -= step * r.w[i]
		bi := r.basis[i]
		if lob := r.lo[bi]; r.xB[i] < lob && r.xB[i] > lob-1e-9 {
			r.xB[i] = lob
		} else if hib := r.hi[bi]; r.xB[i] > hib && r.xB[i] < hib+1e-9 {
			r.xB[i] = hib
		}
	}
}

// pivot replaces the basic column of leaveRow with j (entering at enterVal)
// and updates binv product-form.
func (r *revised) pivot(leaveRow, j int, enterVal float64, leaveAtUpper bool) {
	leaving := r.basis[leaveRow]
	if leaveAtUpper {
		r.stat[leaving] = atUpper
	} else {
		r.stat[leaving] = atLower
	}
	r.inRow[leaving] = -1
	piv := r.w[leaveRow]
	inv := 1 / piv
	prow := r.binv[leaveRow]
	for t := 0; t < r.m; t++ {
		prow[t] *= inv
	}
	for i := 0; i < r.m; i++ {
		if i == leaveRow {
			continue
		}
		f := r.w[i]
		if isZero(f) {
			continue
		}
		row := r.binv[i]
		for t := 0; t < r.m; t++ {
			row[t] -= f * prow[t]
		}
	}
	r.basis[leaveRow] = int32(j)
	r.stat[j] = basic
	r.inRow[j] = int32(leaveRow)
	r.xB[leaveRow] = enterVal
	r.sinceFactor++
}

// solveStatus is the outcome of iterate and dualIterate; numTrouble asks the
// caller to fall back — iterate's to the dense tableau, dualIterate's to the
// primal path.
type solveStatus int

const (
	solvedOptimal solveStatus = iota
	solvedUnbounded
	solvedInfeasible
	solvedIterLimit
	numTrouble
)

// iterate runs primal simplex to optimality under objective c. In phase 1
// (phase1 true) it additionally caps the entering step at a stretched
// variable's true bound and restores bounds of variables whose values
// re-enter their true range after every step.
func (r *revised) iterate(c []float64, phase1 bool) solveStatus {
	tol := r.opts.Tol
	stall := 0
	for ; r.iters < r.opts.MaxIters; r.iters++ {
		if r.sinceFactor >= refactorEvery {
			if !r.factorize() {
				return numTrouble
			}
			r.computeXB()
		}
		r.price(c)
		j, dir := r.chooseEntering(tol, stall > stallLimit)
		if j < 0 {
			return solvedOptimal
		}
		r.ftran(j)
		tMax, leaveRow, leaveAtUpper := r.ratioTest(j, dir, tol)
		if phase1 && r.stretched[j] {
			// The entering variable is itself stretched: cap the step at its
			// true bound so a violation-repairing move can never run away
			// along an unbounded ray.
			capStep := math.Inf(1)
			if dir > 0 && !math.IsInf(r.trueLo[j], -1) && r.nonbasicValue(j) < r.trueLo[j] {
				capStep = r.trueLo[j] - r.nonbasicValue(j)
			} else if dir < 0 && !math.IsInf(r.trueHi[j], 1) && r.nonbasicValue(j) > r.trueHi[j] {
				capStep = r.nonbasicValue(j) - r.trueHi[j]
			}
			if !math.IsInf(capStep, 1) && capStep <= tMax {
				r.applyStep(j, dir, capStep)
				if dir > 0 {
					r.lo[j] = r.trueLo[j]
					r.stat[j] = atLower
				} else {
					r.hi[j] = r.trueHi[j]
					r.stat[j] = atUpper
				}
				// Every stretched column, not only j: a basic one the step
				// brought home must drop its ±1 cost before the next pricing.
				r.restoreScan()
				if capStep < tol {
					stall++
				} else {
					stall = 0
				}
				continue
			}
		}
		if math.IsInf(tMax, 1) {
			if phase1 {
				return numTrouble
			}
			return solvedUnbounded
		}
		if tMax < tol {
			stall++
		} else {
			stall = 0
		}
		if leaveRow < 0 {
			r.applyStep(j, dir, tMax)
			if r.stat[j] == atLower {
				r.stat[j] = atUpper
			} else {
				r.stat[j] = atLower
			}
		} else {
			enterVal := r.nonbasicValue(j) + tMax*dir
			r.applyStep(j, dir, tMax)
			r.pivot(leaveRow, j, enterVal, leaveAtUpper)
		}
		if phase1 && r.nStretched > 0 {
			r.restoreScan()
		}
	}
	return solvedIterLimit
}

// stretchSetup stretches the bounds of every out-of-range basic variable to
// its current value and installs the ±1 phase-1 objective that pulls it
// home. Returns whether any stretching was needed.
func (r *revised) stretchSetup() bool {
	copy(r.trueLo, r.lo)
	copy(r.trueHi, r.hi)
	for j := range r.p1cost {
		r.p1cost[j] = 0
		r.stretched[j] = false
	}
	r.nStretched = 0
	tol := r.opts.Tol
	for i := 0; i < r.m; i++ {
		j := r.basis[i]
		v := r.xB[i]
		if v < r.lo[j]-tol {
			r.lo[j] = v
			r.p1cost[j] = 1
			r.stretched[j] = true
			r.nStretched++
		} else if v > r.hi[j]+tol {
			r.hi[j] = v
			r.p1cost[j] = -1
			r.stretched[j] = true
			r.nStretched++
		}
	}
	return r.nStretched > 0
}

// unstretchIfHome restores column j's true bounds when its current value
// lies inside them, removing it from the phase-1 objective.
func (r *revised) unstretchIfHome(j int) {
	if !r.stretched[j] {
		return
	}
	tol := r.opts.Tol
	v := r.value(j)
	if v >= r.trueLo[j]-tol && v <= r.trueHi[j]+tol {
		r.lo[j] = r.trueLo[j]
		r.hi[j] = r.trueHi[j]
		r.p1cost[j] = 0
		r.stretched[j] = false
		r.nStretched--
	}
}

// restoreScan applies unstretchIfHome to every still-stretched column in
// ascending index order.
func (r *revised) restoreScan() {
	for j := 0; j < r.N; j++ {
		if r.stretched[j] {
			r.unstretchIfHome(j)
		}
	}
}

// stretchResidual sums how far stretched columns still sit outside their
// true ranges.
func (r *revised) stretchResidual() float64 {
	res := 0.0
	for j := 0; j < r.N; j++ {
		if !r.stretched[j] {
			continue
		}
		v := r.value(j)
		if v < r.trueLo[j] {
			res += r.trueLo[j] - v
		} else if v > r.trueHi[j] {
			res += v - r.trueHi[j]
		}
	}
	return res
}

// finishStretch force-restores every remaining stretched column (all within
// feasTol of home after a successful phase 1), snapping values onto the
// true range.
func (r *revised) finishStretch() {
	for j := 0; j < r.N; j++ {
		if !r.stretched[j] {
			continue
		}
		r.lo[j] = r.trueLo[j]
		r.hi[j] = r.trueHi[j]
		r.p1cost[j] = 0
		r.stretched[j] = false
		if r.stat[j] == basic {
			i := r.inRow[j]
			if r.xB[i] < r.lo[j] {
				r.xB[i] = r.lo[j]
			} else if r.xB[i] > r.hi[j] {
				r.xB[i] = r.hi[j]
			}
		} else {
			// Resting at a (stretched) bound within feasTol of the true
			// range: snap onto the nearest true bound.
			v := r.value(j)
			if v <= r.lo[j] || math.IsInf(r.hi[j], 1) {
				r.stat[j] = atLower
			} else {
				r.stat[j] = atUpper
			}
		}
	}
	r.nStretched = 0
}

// extract maps the solver state to a Solution, clamping residual drift onto
// finite bounds and accumulating the objective in ascending variable order.
func (r *revised) extract(st Status) Solution {
	x := make([]float64, r.n)
	for j := 0; j < r.n; j++ {
		v := r.value(j)
		if v < r.lo[j] && v > r.lo[j]-feasTol {
			v = r.lo[j]
		} else if !math.IsInf(r.hi[j], 1) && v > r.hi[j] && v < r.hi[j]+feasTol {
			v = r.hi[j]
		}
		x[j] = v
	}
	obj := 0.0
	for j := 0; j < r.n; j++ {
		obj += r.cost[j] * x[j]
	}
	sol := r.report(st)
	sol.Objective, sol.X = obj, x
	return sol
}

// report is the Solution of an outcome that carries no point.
func (r *revised) report(st Status) Solution {
	return Solution{Status: st, Iters: r.iters, DualIters: r.dualIters}
}

// basisOut snapshots the current basis. The solver's inverse is handed over
// by reference (the solver is discarded after extraction, and setBasis
// copies before mutating) together with the matrix fingerprint it is valid
// for, enabling factorization-free warm starts on same-matrix re-solves.
func (r *revised) basisOut() *Basis {
	b := &Basis{rowVar: make([]int32, r.m), stat: make([]uint8, r.N)}
	copy(b.rowVar, r.basis)
	for j := 0; j < r.N; j++ {
		b.stat[j] = uint8(r.stat[j])
	}
	b.binv = r.binv
	b.updates = r.sinceFactor
	b.matHash = r.hash
	return b
}

// solveRevised runs the revised simplex on p, started from o.WarmBasis. The
// second return is false when the solver hit numerical trouble and the
// caller should fall back to the dense tableau.
func solveRevised(p *Problem, o Options) (Solution, bool) {
	r := newRevised(p, o)
	if !r.setBasis(o.WarmBasis) {
		return Solution{}, false
	}
	// A primal-infeasible start that prices dual feasible is re-optimised by
	// dual pivots; what they leave undone (nothing, as a rule) falls to the
	// primal path below, whose first pricing pass is then the optimality
	// check.
	if row, _ := r.chooseLeaving(o.Tol); row >= 0 {
		r.price(r.cost)
		if r.dualFeasible() {
			switch r.dualIterate() {
			case solvedInfeasible:
				return r.report(Infeasible), true
			case solvedIterLimit:
				return r.report(IterLimit), true
			}
		}
	}
	if r.stretchSetup() {
		switch r.iterate(r.p1cost, true) {
		case numTrouble, solvedUnbounded:
			return Solution{}, false
		case solvedIterLimit:
			return r.report(IterLimit), true
		}
		if r.stretchResidual() > feasTol {
			return r.report(Infeasible), true
		}
		r.finishStretch()
	}
	switch r.iterate(r.cost, false) {
	case numTrouble:
		return Solution{}, false
	case solvedUnbounded:
		return r.report(Unbounded), true
	case solvedIterLimit:
		return r.extract(IterLimit), true
	}
	sol := r.extract(Optimal)
	sol.Basis = r.basisOut()
	return sol, true
}
