// Bounded-variable dual simplex for the revised solver: the re-optimisation
// a start takes when its basis prices dual feasible but is primal infeasible
// — every branch-and-bound child, whose parent's optimal basis has lost one
// bound. Each iteration picks a primal-infeasible row to leave, finds the
// entering column by the dual ratio test over that row of B⁻¹A, and pivots;
// reduced costs are updated from the pivot row, never re-priced. It needs no
// state of its own beyond r.z: whenever it stops short (tiny pivot, stall,
// lost dual feasibility) the primal path takes over from the basis it left.
package lp

import "math"

// dualPivotTol is the smallest pivot-row entry the dual ratio test will
// pivot on; a row offering nothing larger is left to the primal path.
const dualPivotTol = 1e-7

// dualFeasible reports whether r.z (priced under r.cost) offers the primal
// no improving column, i.e. the basis is dual feasible.
func (r *revised) dualFeasible() bool {
	j, _ := r.chooseEntering(false)
	return j < 0
}

// chooseLeaving picks the primal-infeasible row with the largest dual
// steepest-edge score infeasibility²/‖e_r·B⁻¹‖² (lowest row among equals),
// or -1 when the basis is primal feasible. The weight is read off the
// explicit inverse for the infeasible rows only. below reports that the
// row's basic variable sits under its lower bound.
func (r *revised) chooseLeaving() (row int, below bool) {
	row = -1
	best := 0.0
	for i := 0; i < r.m; i++ {
		bi := r.basis[i]
		d, lowSide := r.lo[bi]-r.xB[i], true
		if d <= tol {
			d, lowSide = r.xB[i]-r.hi[bi], false
			if d <= tol {
				continue
			}
		}
		norm := 0.0
		for _, v := range r.binv[i] {
			norm += v * v
		}
		if score := d * d / norm; score > best {
			row, below, best = i, lowSide, score
		}
	}
	return row, below
}

// dualRatioTest fills r.alpha with row's pivot row ρ_r·A over the nonbasic
// columns and returns the entering column: among those whose move pushes the
// leaving variable toward its violated bound, the smallest |z_j/α_j|, near-
// ties broken toward the largest |α_j| and then the lowest index; -1 when
// there is no such column. Like the primal ratio test it reads |α_j| ≤ tol
// as zero.
func (r *revised) dualRatioTest(row int, below bool) int {
	rho := r.binv[row]
	cand := r.cand[:0]
	minRatio := math.Inf(1)
	for j := 0; j < r.N; j++ {
		if r.stat[j] == basic {
			continue
		}
		var a float64
		if j < r.n {
			for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
				a += rho[r.mat.rowIdx[t]] * r.mat.val[t]
			}
		} else {
			a = rho[j-r.n]
		}
		r.alpha[j] = a
		// From its lower bound a column can only rise, which lifts a leaving
		// variable that is below its bound when α < 0 and lowers one that is
		// above when α > 0; from its upper bound the mirror image.
		if math.Abs(a) <= tol || (r.stat[j] == atLower) == (below == (a > 0)) {
			continue
		}
		if r.hi[j]-r.lo[j] < tol {
			continue // fixed: it cannot move, and its reduced cost is free
		}
		cand = append(cand, int32(j))
		if ratio := math.Abs(r.z[j] / a); ratio < minRatio {
			minRatio = ratio
		}
	}
	enter, bestAbs := -1, 0.0
	for _, j := range cand {
		a := math.Abs(r.alpha[j])
		if math.Abs(r.z[j])/a <= minRatio+tol && a > bestAbs {
			enter, bestAbs = int(j), a
		}
	}
	return enter
}

// dualIterate runs dual simplex pivots from a dual-feasible basis until it
// is primal feasible too (solvedOptimal: optimal up to the drift the
// caller's primal pricing pass then checks) or a row proves the problem
// infeasible. numTrouble hands the current basis — still a valid basis —
// to the primal path.
func (r *revised) dualIterate() solveStatus {
	stall := 0
	for ; r.iters < maxIters; r.iters++ {
		if r.sinceFactor >= refactorEvery {
			if !r.factorize() {
				return numTrouble
			}
			r.computeXB()
			r.price(r.cost)
			if !r.dualFeasible() {
				return numTrouble
			}
		}
		row, below := r.chooseLeaving()
		if row < 0 {
			return solvedOptimal
		}
		leaving := r.basis[row]
		target := r.hi[leaving]
		if below {
			target = r.lo[leaving]
		}
		gap := r.xB[row] - target
		j := r.dualRatioTest(row, below)
		if j < 0 {
			// No nonbasic column can move the leaving variable toward its
			// bound: the row proves the problem infeasible — unless the gap
			// is one phase 1 would accept as feasible, which it then should.
			if math.Abs(gap) > feasTol {
				return solvedInfeasible
			}
			return numTrouble
		}
		a := r.alpha[j]
		r.ftran(j)
		if math.Abs(a) < dualPivotTol || math.Abs(r.w[row]-a) > 1e-6*math.Abs(a) {
			return numTrouble
		}
		theta := r.z[j] / a
		if math.Abs(theta) < tol {
			if stall++; stall > stallLimit {
				return numTrouble
			}
		} else {
			stall = 0
		}
		if !isZero(theta) {
			for k := 0; k < r.N; k++ {
				if r.stat[k] != basic {
					r.z[k] -= theta * r.alpha[k]
				}
			}
		}
		r.z[j] = 0
		r.z[leaving] = -theta
		// Entering column j moves by gap/α_j, which lands the leaving
		// variable exactly on its bound.
		step := gap / r.w[row]
		dir := 1.0
		if step < 0 {
			dir = -1
		}
		enterVal := r.nonbasicValue(j) + step
		r.applyStep(j, dir, math.Abs(step))
		r.pivot(row, j, enterVal, !below)
		r.dualIters++
	}
	return solvedIterLimit
}
