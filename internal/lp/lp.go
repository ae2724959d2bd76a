// Package lp implements simplex solvers for linear programs with bounded
// variables:
//
//	maximize    cᵀx
//	subject to  a_iᵀx (≤ | = | ≥) b_i   for each constraint i
//	            lo_j ≤ x_j ≤ hi_j       for each variable j
//
// It is the LP engine underneath the branch-and-bound MILP solver in
// internal/milp, standing in for the commercial solver (Gurobi) used by the
// Proteus paper.
//
// The default solver (revised.go) is a sparse revised simplex on the whole
// problem — CSC constraint matrix, explicit basis inverse with deterministic
// refactorization, bound-stretch composite phase 1, and a dual simplex
// (dual.go) for starts whose basis prices dual feasible — that accepts a
// warm-start Basis. There is no presolve: the allocator's problems gave it
// nothing to reduce (DESIGN.md "Solver traffic"). The original dense
// two-phase tableau (tableau.go) is retained both as the
// fallback when the revised path hits numerical trouble and as an
// independent cross-check oracle (Options.Dense). Both solvers support
// finite lower bounds, finite or infinite upper bounds natively
// (bounded-variable simplex, so x ≤ u never costs a row), and fall back
// from Dantzig to Bland's rule to escape degenerate cycling.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // a·x ≤ b
	GE                 // a·x ≥ b
	EQ                 // a·x = b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create one with NewProblem.
type Problem struct {
	names []string
	lo    []float64
	hi    []float64
	obj   []float64

	rows []row

	// mat memoizes the CSC form of the constraint matrix plus its
	// fingerprint. Bounds and objective edits keep it valid; AddVariable and
	// AddConstraint invalidate it.
	mat *matCache
}

// matCache bundles the CSC matrix with its content fingerprint.
type matCache struct {
	mat  csc
	hash uint64
}

// matrix returns the memoized CSC form, building it on first use.
func (p *Problem) matrix() *matCache {
	if p.mat == nil {
		p.mat = &matCache{mat: buildCSC(p)}
		p.mat.hash = p.mat.mat.fingerprint()
	}
	return p.mat
}

type row struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// NewProblem returns an empty maximization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a variable with bounds [lo, hi] and returns its column
// index. lo must be finite; hi may be math.Inf(1). It panics on invalid
// bounds, which indicate a programming error in the model builder.
func (p *Problem) AddVariable(name string, lo, hi float64) int {
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("lp: invalid lower bound for %q: [%v, %v]", name, lo, hi))
	}
	if hi < lo {
		panic(fmt.Sprintf("lp: empty bound interval for %q: [%v, %v]", name, lo, hi))
	}
	p.names = append(p.names, name)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.obj = append(p.obj, 0)
	p.mat = nil
	return len(p.names) - 1
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Bounds returns the bound interval of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetBounds replaces the bound interval of variable v. It is used by the
// MILP solver to branch without rebuilding the problem.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	if hi < lo {
		panic(fmt.Sprintf("lp: empty bound interval for %q: [%v, %v]", p.names[v], lo, hi))
	}
	p.lo[v] = lo
	p.hi[v] = hi
}

// SetObjective sets the objective coefficient of variable v (maximization).
func (p *Problem) SetObjective(v int, c float64) { p.obj[v] = c }

// Objective returns the objective coefficient of variable v.
func (p *Problem) Objective(v int) float64 { return p.obj[v] }

// AddConstraint appends the constraint Σ terms (rel) rhs and returns its row
// index. Terms referencing the same variable are summed.
func (p *Problem) AddConstraint(terms []Term, rel Relation, rhs float64) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, row{terms: cp, rel: rel, rhs: rhs})
	p.mat = nil
	return len(p.rows) - 1
}

// Basis is a simplex basis of the problem it was extracted from: n
// structural columns followed by one logical (slack) column per constraint
// row. It records which column is basic in each row and the resting bound
// of every nonbasic column. A Basis is immutable once published by a solve:
// warm-starting a solve never mutates the Basis it was given, so the two
// children of a branch-and-bound node share their parent's.
type Basis struct {
	rowVar []int32 // column basic in row i (structural j, or logical n+i′)
	stat   []uint8 // varStatus per column, length n+m
	// binv, when non-nil, caches the basis inverse so a warm-started solve
	// of a bit-identical matrix (matHash) can skip the O(m³)
	// refactorization; updates counts product-form updates since the last
	// true factorization, so drift control carries across solves. All three
	// are read-only once here.
	binv    [][]float64
	updates int
	matHash uint64
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // value per variable, valid when Status == Optimal
	Iters     int
	// DualIters is how many of Iters were dual simplex pivots: the
	// re-optimisation a start takes whose basis prices dual feasible (every
	// branch-and-bound child). Zero on the dense tableau.
	DualIters int
	// Basis is the optimal basis, usable to warm-start a later solve of a
	// same-shaped problem. It is nil when the solve fell back to the dense
	// tableau (Options.Dense or numerical trouble) or did not reach
	// optimality.
	Basis *Basis
}

// Options tune the solver. The zero value selects defaults.
type Options struct {
	// MaxIters bounds total simplex pivots across both phases.
	// Default 50_000.
	MaxIters int
	// Tol is the numerical tolerance. Default 1e-9.
	Tol float64
	// WarmBasis, if non-nil, seeds the revised simplex with a starting basis
	// (typically the optimal basis of a previous, similar solve). The basis
	// must match the problem shape; a mismatched or singular warm basis is
	// ignored. On a degenerate or non-unique optimum the start basis can
	// decide which optimal vertex is returned.
	WarmBasis *Basis
	// Dense forces the legacy dense two-phase tableau solver (no warm start,
	// nil Solution.Basis). Used by tests as an independent oracle for the
	// revised path.
	Dense bool
}

func (o *Options) withDefaults() Options {
	out := Options{MaxIters: 50_000, Tol: 1e-9}
	if o != nil {
		if o.MaxIters > 0 {
			out.MaxIters = o.MaxIters
		}
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		out.WarmBasis = o.WarmBasis
		out.Dense = o.Dense
	}
	return out
}

// ErrNoVariables is returned when solving a problem with no variables.
var ErrNoVariables = errors.New("lp: problem has no variables")

// Solve optimizes the problem and returns the solution. The problem itself
// is not modified. Status Infeasible and Unbounded are reported in the
// Solution, not as errors; the error return covers malformed inputs only.
//
// The default path is the sparse revised simplex on the whole problem,
// started from Options.WarmBasis when it fits the problem's shape and from
// the all-logical basis otherwise — by dual pivots when that basis prices
// dual feasible, by primal phase 1 + 2 when it does not; numerical trouble
// there falls back to the dense tableau, which Options.Dense selects
// outright.
func Solve(p *Problem, opts *Options) (Solution, error) {
	o := opts.withDefaults()
	if len(p.names) == 0 {
		return Solution{}, ErrNoVariables
	}
	if !o.Dense {
		if sol, ok := solveRevised(p, o); ok {
			return sol, nil
		}
	}
	return newTableau(p, o).solve(), nil
}
