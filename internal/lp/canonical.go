// Solution canonicalization for the revised simplex: makes the reported
// optimum a function of the problem alone, independent of the warm-start
// basis and the pivot path that reached optimality. Three steps:
//
//  1. Nonbasic columns with decisively nonzero reduced cost are frozen at
//     their bounds; a secondary objective with strictly positive, pairwise
//     distinct weights is then optimized over the remaining optimal face,
//     selecting one vertex of it deterministically.
//  2. A deterministic basis crossover replaces the arrival basis with the
//     canonical basis of that vertex: every column strictly between its
//     bounds must be basic, and the basis is completed greedily in
//     ascending column order with a rank test.
//  3. The canonical basis is refactorized from scratch and the basic values
//     recomputed in a fixed order, so equal bases yield bitwise-equal
//     solutions regardless of the floating-point history of the solve.
package lp

import (
	"math"
	"sort"
)

// secondaryWeight is the strictly positive, column-dependent weight used by
// the canonicalization objective. The multiplier spreads the weights enough
// that distinct vertices of an optimal face almost never tie.
func secondaryWeight(j int) float64 {
	return 1 + float64((uint32(j)*2654435761)&0xffff)/65536
}

// canonicalize runs the three canonicalization steps on an optimal state.
// Returns false on numerical failure (caller falls back to the dense
// tableau).
func (r *revised) canonicalize() bool {
	// Step 1: freeze decisively-nonbasic columns, then optimize the
	// secondary objective over the optimal face.
	r.price(r.cost)
	savedLo := make([]float64, 0, r.N)
	savedHi := make([]float64, 0, r.N)
	frozen := make([]int32, 0, r.N)
	for j := 0; j < r.N; j++ {
		if r.stat[j] == basic || math.Abs(r.z[j]) <= dualTol {
			continue
		}
		savedLo = append(savedLo, r.lo[j])
		savedHi = append(savedHi, r.hi[j])
		frozen = append(frozen, int32(j))
		v := r.nonbasicValue(j)
		r.lo[j], r.hi[j] = v, v
	}
	c2 := make([]float64, r.N)
	for j := 0; j < r.n; j++ {
		c2[j] = -secondaryWeight(j)
	}
	st := r.iterate(c2, false)
	for k, j := range frozen {
		r.lo[j], r.hi[j] = savedLo[k], savedHi[k]
	}
	if st == numTrouble || st == solvedUnbounded {
		return false
	}

	// Step 2: deterministic crossover to the canonical basis of the vertex.
	oldVal := make([]float64, r.N)
	for j := 0; j < r.N; j++ {
		oldVal[j] = r.value(j)
	}
	chosen := r.crossoverSet(oldVal)
	if chosen != nil {
		sort.Slice(chosen, func(a, b int) bool { return chosen[a] < chosen[b] })
		inSet := make([]bool, r.N)
		for _, j := range chosen {
			inSet[j] = true
		}
		for i, j := range chosen {
			r.basis[i] = j
		}
		for j := 0; j < r.N; j++ {
			if inSet[j] {
				r.stat[j] = basic
				continue
			}
			if r.stat[j] != basic {
				continue // keeps its resting bound
			}
			// Previously basic, now resting: snap to the nearer bound.
			v := oldVal[j]
			switch {
			case math.IsInf(r.hi[j], 1):
				r.stat[j] = atLower
			case math.IsInf(r.lo[j], -1):
				r.stat[j] = atUpper
			case v-r.lo[j] <= r.hi[j]-v:
				r.stat[j] = atLower
			default:
				r.stat[j] = atUpper
			}
		}
	}

	// Step 3: canonical refactorization and recompute.
	if !r.factorize() {
		return false
	}
	r.computeXB()
	return true
}

// crossoverSet builds the canonical basic set for the current vertex: the
// columns strictly inside their bounds (a subset of the current basis, so
// independent), completed in ascending column order under a rank test.
// Returns nil when completion fails, in which case the caller keeps the
// arrival basis.
func (r *revised) crossoverSet(val []float64) []int32 {
	const rankTol = 1e-7
	type pivotVec struct {
		row int
		v   []float64
	}
	accepted := make([]pivotVec, 0, r.m)
	chosen := make([]int32, 0, r.m)
	used := make([]bool, r.N)
	pivoted := make([]bool, r.m)

	dense := make([]float64, r.m)
	try := func(j int32) {
		if used[j] || len(chosen) == r.m {
			return
		}
		for i := range dense {
			dense[i] = 0
		}
		if int(j) < r.n {
			for t := r.mat.colPtr[j]; t < r.mat.colPtr[j+1]; t++ {
				dense[r.mat.rowIdx[t]] = r.mat.val[t]
			}
		} else {
			dense[int(j)-r.n] = 1
		}
		for _, p := range accepted {
			f := dense[p.row]
			if isZero(f) {
				continue
			}
			for i := 0; i < r.m; i++ {
				dense[i] -= f * p.v[i]
			}
			dense[p.row] = 0
		}
		pr, best := -1, rankTol
		for i := 0; i < r.m; i++ {
			if pivoted[i] {
				continue
			}
			if a := math.Abs(dense[i]); a > best {
				pr, best = i, a
			}
		}
		if pr < 0 {
			return
		}
		inv := 1 / dense[pr]
		vec := make([]float64, r.m)
		for i := 0; i < r.m; i++ {
			vec[i] = dense[i] * inv
		}
		vec[pr] = 1
		accepted = append(accepted, pivotVec{row: pr, v: vec})
		chosen = append(chosen, j)
		used[j] = true
		pivoted[pr] = true
	}

	tol := r.opts.Tol
	// Columns strictly inside their bounds must be basic.
	for j := 0; j < r.N; j++ {
		v := val[j]
		if v > r.lo[j]+tol && v < r.hi[j]-tol {
			try(int32(j))
		}
	}
	// Complete in ascending column order.
	for j := 0; j < r.N && len(chosen) < r.m; j++ {
		try(int32(j))
	}
	if len(chosen) != r.m {
		return nil
	}
	return chosen
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
	if o.Canonical {
		if !r.canonicalize() {
			return Solution{}, false
		}
	}
	sol := r.extract(Optimal)
	sol.Basis = r.basisOut()
	return sol, true
}
