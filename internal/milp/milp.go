// Package milp implements a branch-and-bound solver for mixed integer
// linear programs on top of the simplex solver in internal/lp. Together the
// two packages replace the commercial MILP solver (Gurobi) that the Proteus
// paper uses for its resource-allocation optimization.
//
// The solver maximizes, searches best-bound-first with periodic depth-first
// dives, branches on the most fractional integer variable, and supports
// warm-start incumbents, relative gap tolerances, and node/stall/time
// limits — the knobs the Proteus resource manager needs to keep solves
// inside its control period. One tree searches the whole problem on the
// caller's goroutine: the root relaxation is solved cold, every other
// node's is the full LP warm-started from its parent's basis. There is no
// decomposition into connected components: the allocation MILPs are
// connected (DESIGN.md "Solver traffic").
package milp

import (
	"container/heap"
	"math"
	"time"

	"proteus/internal/lp"
)

// Status is the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal (within gap tolerance).
	Optimal Status = iota
	// Feasible means a limit was hit but an integer-feasible incumbent exists.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the LP relaxation is unbounded.
	Unbounded
	// Limit means a limit was hit before any incumbent was found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "unknown"
}

// Problem is a MILP under construction. It embeds an LP and marks a subset
// of variables as integral.
type Problem struct {
	lp       *lp.Problem
	integral []bool
}

// NewProblem returns an empty maximization MILP.
func NewProblem() *Problem {
	return &Problem{lp: lp.NewProblem()}
}

// AddVariable adds a continuous variable with bounds [lo, hi].
func (p *Problem) AddVariable(name string, lo, hi float64) int {
	v := p.lp.AddVariable(name, lo, hi)
	p.integral = append(p.integral, false)
	return v
}

// AddInteger adds an integer variable with bounds [lo, hi].
func (p *Problem) AddInteger(name string, lo, hi float64) int {
	v := p.lp.AddVariable(name, lo, hi)
	p.integral = append(p.integral, true)
	return v
}

// AddBinary adds a {0,1} variable.
func (p *Problem) AddBinary(name string) int {
	return p.AddInteger(name, 0, 1)
}

// SetObjective sets the (maximization) objective coefficient of v.
func (p *Problem) SetObjective(v int, c float64) { p.lp.SetObjective(v, c) }

// AddConstraint appends Σ terms (rel) rhs.
func (p *Problem) AddConstraint(terms []lp.Term, rel lp.Relation, rhs float64) int {
	return p.lp.AddConstraint(terms, rel, rhs)
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return p.lp.NumVariables() }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return p.lp.NumConstraints() }

// NumIntegers returns the number of integral variables.
func (p *Problem) NumIntegers() int {
	n := 0
	for _, b := range p.integral {
		if b {
			n++
		}
	}
	return n
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64   // incumbent objective (valid for Optimal/Feasible)
	X         []float64 // incumbent point, integral entries exactly integral
	Bound     float64   // best proven upper bound on the optimum
	Nodes     int       // branch-and-bound nodes processed
	// LPIters is the simplex pivots of the Nodes relaxations, DualNodes how
	// many of those relaxations were re-optimised by dual pivots alone —
	// what a child warm-started from its parent's basis should need. Both
	// are as deterministic as Nodes.
	LPIters   int
	DualNodes int
	Elapsed   time.Duration
	// TimeLimited reports that the wall-clock TimeLimit fired during the
	// search. Bound/Nodes (and the gap derived from them) then depend on
	// how far the optimality proof got before the clock ran out, so the
	// solve is not reproducible. Node- and stall-limit truncation is
	// deterministic and does not set this.
	TimeLimited bool
}

// Gap returns the relative optimality gap of the incumbent, or +Inf if no
// incumbent exists.
func (s *Solution) Gap() float64 {
	if s.Status != Optimal && s.Status != Feasible {
		return math.Inf(1)
	}
	return (s.Bound - s.Objective) / math.Max(1, math.Abs(s.Objective))
}

// Options tune the branch-and-bound search. A nil *Options selects all
// defaults. In a non-nil Options, RelGap and IntTol use negative-means-
// default semantics so that an explicit zero — an exact optimality proof,
// exact integrality — stays expressible; every other field treats its zero
// value as "use the default".
type Options struct {
	// TimeLimit bounds wall-clock solve time. Default: none.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes. Default 200_000.
	MaxNodes int
	// RelGap terminates when (bound - incumbent)/max(1,|incumbent|) is below
	// it. Zero demands an exact optimality proof; a negative value selects
	// the default 1e-6.
	RelGap float64
	// StallNodes, if positive, stops the search (returning the incumbent as
	// Feasible) after that many nodes without incumbent improvement — a
	// production knob for callers that value latency over proof.
	StallNodes int
	// IntTol is the integrality tolerance. Zero demands exact integrality;
	// a negative value selects the default 1e-6.
	IntTol float64
	// WarmStart, if non-nil, is a feasible point used as the initial
	// incumbent. It is trusted after a cheap feasibility spot check of
	// integrality; callers construct it from a heuristic.
	WarmStart []float64
	// Parallelism is ignored: the search is single-threaded. The field is
	// kept only because bench/probes.go still sets it for its
	// milp.solve_ms_parN row; ROADMAP item 8(a) removes both.
	Parallelism int
	// LP configures the inner simplex solves.
	LP *lp.Options
}

func (o *Options) withDefaults() Options {
	out := Options{MaxNodes: 200_000, RelGap: 1e-6, IntTol: 1e-6}
	if o != nil {
		out.TimeLimit = o.TimeLimit
		out.WarmStart = o.WarmStart
		out.LP = o.LP
		out.StallNodes = o.StallNodes
		if o.MaxNodes > 0 {
			out.MaxNodes = o.MaxNodes
		}
		if o.RelGap >= 0 {
			out.RelGap = o.RelGap
		}
		if o.IntTol >= 0 {
			out.IntTol = o.IntTol
		}
	}
	return out
}

// node is one branch-and-bound subproblem: bound overrides relative to the
// root, plus the parent's LP bound used as the search priority and the
// parent's optimal relaxation basis used to warm-start this node's LP
// (branching changes one bound, so the parent basis stays dual feasible and
// lp re-optimises it by dual simplex). basis is immutable and shared by the
// two children; it is nil at the root and below a relaxation that fell back
// to the dense tableau.
type node struct {
	bounds []boundChange
	bound  float64
	depth  int
	basis  *lp.Basis
}

type boundChange struct {
	v      int
	lo, hi float64
}

// nodeHeap is a max-heap on the LP bound (best-bound-first search).
type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound > h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound. The problem's variable bounds are mutated
// during the search but restored before returning.
func Solve(p *Problem, opts *Options) Solution {
	o := opts.withDefaults()
	s := &solver{p: p, o: o, start: wallNow()}
	if o.TimeLimit > 0 {
		s.deadline = s.start.Add(o.TimeLimit)
	}

	n := p.lp.NumVariables()
	s.rootLo = make([]float64, n)
	s.rootHi = make([]float64, n)
	for v := 0; v < n; v++ {
		s.rootLo[v], s.rootHi[v] = p.lp.Bounds(v)
	}
	defer s.restore()

	if o.WarmStart != nil && len(o.WarmStart) == n && p.integralOK(o.WarmStart, o.IntTol) {
		s.incumbent = append([]float64(nil), o.WarmStart...)
		s.incumbentObj = p.objectiveOf(s.incumbent)
	}

	s.open = &nodeHeap{}
	heap.Init(s.open)
	heap.Push(s.open, &node{bound: math.Inf(1)})
	return s.run()
}

// solver is the branch-and-bound state for one Solve call.
type solver struct {
	p     *Problem
	o     Options
	start time.Time

	deadline     time.Time
	rootLo       []float64
	rootHi       []float64
	open         *nodeHeap
	incumbent    []float64
	incumbentObj float64
	nodes        int
	lpIters      int // see Solution.LPIters
	dualNodes    int // see Solution.DualNodes
	bestBound    float64
	// limited records that some subtree was abandoned because of a node,
	// time or LP-iteration limit; exhausting the heap then proves nothing.
	limited bool
	// timeLimited records that the wall-clock deadline specifically fired.
	timeLimited bool
	// lastImprove is the node count at the last incumbent improvement.
	lastImprove int
	// applied tracks the bound overrides currently written into the shared
	// problem, so solveNode undoes only those instead of rewriting every
	// variable's bounds per node.
	applied []boundChange
}

func (s *solver) restore() {
	for v := range s.rootLo {
		s.p.lp.SetBounds(v, s.rootLo[v], s.rootHi[v])
	}
}

// relax solves the LP relaxation of nd on the shared problem, warm-started
// from the basis nd's parent handed down, undoing the previous node's
// overrides rather than rewriting all bounds.
func (s *solver) relax(nd *node) (lp.Solution, error) {
	for _, bc := range s.applied {
		s.p.lp.SetBounds(bc.v, s.rootLo[bc.v], s.rootHi[bc.v])
	}
	s.applied = append(s.applied[:0], nd.bounds...)
	for _, bc := range nd.bounds {
		s.p.lp.SetBounds(bc.v, bc.lo, bc.hi)
	}
	var o lp.Options
	if s.o.LP != nil {
		o = *s.o.LP
	}
	o.WarmBasis = nd.basis
	rel, err := lp.Solve(s.p.lp, &o)
	s.lpIters += rel.Iters
	if rel.DualIters == rel.Iters {
		s.dualNodes++
	}
	return rel, err
}

// nodeBounds returns the effective bound interval of variable v at node nd:
// the root interval overridden by the node's branching decisions (later
// entries win, mirroring the order relax applies them in).
func (s *solver) nodeBounds(nd *node, v int) (lo, hi float64) {
	lo, hi = s.rootLo[v], s.rootHi[v]
	for _, bc := range nd.bounds {
		if bc.v == v {
			lo, hi = bc.lo, bc.hi
		}
	}
	return lo, hi
}

// noteBound tightens the reported global bound using a just-solved subtree
// bound: the optimum cannot exceed the best of the open frontier (the heap
// top), the subtree currently being processed, and the incumbent. Reporting
// only — no search decision reads bestBound.
func (s *solver) noteBound(subtree float64) {
	b := subtree
	if s.open.Len() > 0 {
		if t := (*s.open)[0].bound; t > b {
			b = t
		}
	}
	if s.incumbent != nil && s.incumbentObj > b {
		b = s.incumbentObj
	}
	if b < s.bestBound {
		s.bestBound = b
	}
}

func (s *solver) limitHit() bool {
	if s.nodes >= s.o.MaxNodes {
		return true
	}
	if !s.deadline.IsZero() && wallNow().After(s.deadline) {
		s.timeLimited = true
		return true
	}
	return false
}

func (s *solver) gapClosed(bound float64) bool {
	if s.incumbent == nil || math.IsInf(bound, 1) {
		return false
	}
	return bound-s.incumbentObj <= s.o.RelGap*math.Max(1, math.Abs(s.incumbentObj))
}

func (s *solver) accept(x []float64) {
	cand := roundIntegral(s.p, x)
	obj := s.p.objectiveOf(cand)
	if s.incumbent == nil || obj > s.incumbentObj {
		s.incumbent, s.incumbentObj = cand, obj
		s.lastImprove = s.nodes
	}
}

func (s *solver) finish(st Status) Solution {
	sol := Solution{
		Status:      st,
		Bound:       s.bestBound,
		Nodes:       s.nodes,
		LPIters:     s.lpIters,
		DualNodes:   s.dualNodes,
		Elapsed:     sinceStart(s.start),
		TimeLimited: s.timeLimited,
	}
	if s.incumbent != nil {
		sol.Objective = s.incumbentObj
		sol.X = s.incumbent
		if st == Limit {
			sol.Status = Feasible
		}
	}
	if s.open.Len() == 0 && s.incumbent != nil && !s.limited {
		// Search exhausted with no abandoned subtrees: the incumbent is
		// optimal.
		sol.Bound = s.incumbentObj
	}
	return sol
}

// diveEvery is how often (in processed nodes) the search re-dives for a
// better incumbent once one exists.
const diveEvery = 64

func (s *solver) run() Solution {
	s.bestBound = math.Inf(1)
	for s.open.Len() > 0 {
		if s.limitHit() {
			return s.finish(Limit)
		}
		if s.o.StallNodes > 0 && s.incumbent != nil && s.nodes-s.lastImprove > s.o.StallNodes {
			s.limited = true
			return s.finish(Limit)
		}
		nd := heap.Pop(s.open).(*node)
		// Best-first: the top of the heap carries the global bound. (min:
		// noteBound may already have proven a tighter bound than the stale
		// parent bound this node was queued with.)
		s.bestBound = math.Min(s.bestBound, nd.bound)
		if s.gapClosed(nd.bound) {
			return s.finish(Optimal)
		}
		s.nodes++
		rel, err := s.relax(nd)
		if err != nil {
			return s.finish(Limit)
		}
		switch rel.Status {
		case lp.Infeasible:
			// Empty subtree: the frontier shrinks to the heap + incumbent.
			s.noteBound(math.Inf(-1))
			continue
		case lp.Unbounded:
			if nd.depth == 0 {
				sol := s.finish(Limit)
				sol.Status = Unbounded
				sol.X = nil
				return sol
			}
			continue
		case lp.IterLimit:
			s.limited = true
			if s.incumbent == nil {
				return s.finish(Limit)
			}
			continue
		}
		// The subtree's bound tightened from the parent's bound to its own
		// relaxation objective (valid for its still-unpushed children too).
		s.noteBound(rel.Objective)
		if s.incumbent != nil &&
			rel.Objective <= s.incumbentObj+s.o.RelGap*math.Max(1, math.Abs(s.incumbentObj)) {
			continue // pruned by bound
		}
		v, _ := s.p.mostFractional(rel.X, s.o.IntTol)
		if v < 0 {
			s.accept(rel.X)
			continue
		}
		if s.incumbent == nil || s.nodes%diveEvery == 0 {
			// Plunge depth-first: always for a first incumbent, and
			// periodically afterwards to keep improving it. Siblings of the
			// dive path land on the open heap, so nothing is lost.
			s.dive(nd, rel)
			continue
		}
		down, up := s.branch(nd, v, rel.X[v], rel.Objective, rel.Basis)
		if down != nil {
			heap.Push(s.open, down)
		}
		if up != nil {
			heap.Push(s.open, up)
		}
	}
	if s.limited {
		return s.finish(Limit)
	}
	if s.incumbent == nil {
		return s.finish(Infeasible)
	}
	return s.finish(Optimal)
}

// branch builds the two children of nd on variable v whose relaxation value
// is val, warm-started from nd's relaxation basis. A child whose bound
// interval would be empty is nil.
func (s *solver) branch(nd *node, v int, val, bound float64, basis *lp.Basis) (down, up *node) {
	lo, hi := s.nodeBounds(nd, v)
	floor := math.Floor(val + s.o.IntTol)
	if floor >= lo-s.o.IntTol {
		f := math.Min(floor, hi)
		down = &node{bounds: appendBound(nd.bounds, boundChange{v, lo, f}), bound: bound, depth: nd.depth + 1, basis: basis}
	}
	if floor+1 <= hi+s.o.IntTol {
		l := math.Max(floor+1, lo)
		up = &node{bounds: appendBound(nd.bounds, boundChange{v, l, hi}), bound: bound, depth: nd.depth + 1, basis: basis}
	}
	return down, up
}

// dive performs a depth-first plunge from nd, whose relaxation rel is
// already solved and fractional: at each level it takes the child nearest
// the LP value and pushes the sibling onto the open heap. The plunge stops
// at the first integer-feasible point (accepted as incumbent), an
// infeasible child, or a limit.
func (s *solver) dive(nd *node, rel lp.Solution) {
	cur, curRel := nd, rel
	maxDepth := 4*s.p.NumIntegers() + 16
	for depth := 0; depth < maxDepth; depth++ {
		// The dive path's subtree is bounded by its own relaxation; the rest
		// of the frontier sits on the heap.
		s.noteBound(curRel.Objective)
		if s.limitHit() {
			// cur's subtree is abandoned (its children were never pushed).
			s.limited = true
			return
		}
		if s.incumbent != nil &&
			curRel.Objective <= s.incumbentObj+s.o.RelGap*math.Max(1, math.Abs(s.incumbentObj)) {
			return // this subtree cannot beat the incumbent
		}
		v, _ := s.p.mostFractional(curRel.X, s.o.IntTol)
		if v < 0 {
			s.accept(curRel.X)
			return
		}
		down, up := s.branch(cur, v, curRel.X[v], curRel.Objective, curRel.Basis)
		frac := curRel.X[v] - math.Floor(curRel.X[v]+s.o.IntTol)
		first, second := down, up
		if frac >= 0.5 {
			first, second = up, down
		}
		next, nextRel, ok := s.diveStep(first, second)
		if !ok {
			return
		}
		cur, curRel = next, nextRel
	}
	// Depth budget exhausted: the final node's subtree was abandoned.
	s.limited = true
}

// diveStep descends into the preferred child, falling back to the sibling
// when the preferred one is LP-infeasible (common when rounding an integer
// count starves a demand-equality row). Whichever child is not taken as the
// dive path is pushed onto the open heap, so completeness is preserved.
func (s *solver) diveStep(first, second *node) (*node, lp.Solution, bool) {
	if first == nil {
		first, second = second, nil
		if first == nil {
			return nil, lp.Solution{}, false
		}
	}
	s.nodes++
	rel, err := s.relax(first)
	if err != nil || rel.Status == lp.IterLimit {
		s.limited = true
		if second != nil {
			heap.Push(s.open, second)
		}
		return nil, lp.Solution{}, false
	}
	if rel.Status == lp.Optimal {
		if second != nil {
			heap.Push(s.open, second)
		}
		return first, rel, true
	}
	// First child pruned as infeasible; retry with the sibling, which then
	// becomes the dive path (nothing else to queue).
	if second == nil {
		return nil, lp.Solution{}, false
	}
	s.nodes++
	rel, err = s.relax(second)
	if err != nil || rel.Status == lp.IterLimit {
		s.limited = true
		return nil, lp.Solution{}, false
	}
	if rel.Status != lp.Optimal {
		return nil, lp.Solution{}, false
	}
	return second, rel, true
}

func appendBound(bs []boundChange, bc boundChange) []boundChange {
	out := make([]boundChange, len(bs)+1)
	copy(out, bs)
	out[len(bs)] = bc
	return out
}

// mostFractional returns the integral variable whose relaxation value is
// farthest from an integer, or -1 if all are integral within tol.
func (p *Problem) mostFractional(x []float64, tol float64) (int, float64) {
	best := -1
	bestFrac := tol
	for v, isInt := range p.integral {
		if !isInt {
			continue
		}
		f := math.Abs(x[v] - math.Round(x[v]))
		if f > bestFrac {
			bestFrac = f
			best = v
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestFrac
}

// integralOK reports whether every integral variable in x is integer within
// tol and within its root bounds.
func (p *Problem) integralOK(x []float64, tol float64) bool {
	if len(x) != len(p.integral) {
		return false
	}
	for v, isInt := range p.integral {
		lo, hi := p.lp.Bounds(v)
		if x[v] < lo-tol || x[v] > hi+tol {
			return false
		}
		if isInt && math.Abs(x[v]-math.Round(x[v])) > tol {
			return false
		}
	}
	return true
}

// roundIntegral snaps integral entries of x to exact integers.
func roundIntegral(p *Problem, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for v, isInt := range p.integral {
		if isInt {
			out[v] = math.Round(out[v])
		}
	}
	return out
}

func (p *Problem) objectiveOf(x []float64) float64 {
	obj := 0.0
	for v := 0; v < p.lp.NumVariables(); v++ {
		obj += p.lp.Objective(v) * x[v]
	}
	return obj
}
