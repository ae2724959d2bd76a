package milp

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"proteus/internal/lp"
	"proteus/internal/numeric"
)

// buildAllocInstance generates an allocation-shaped MILP (the Fig. 10
// structure: d devices × q variants, integer replica counts coupled to
// continuous served-rate variables through capacity and demand rows) whose
// coefficients are derived deterministically from seed.
func buildAllocInstance(seed uint64, devices, variants int) *Problem {
	rng := numeric.NewRNG(seed)
	p := NewProblem()
	type pair struct{ n, w int }
	pairs := make([]pair, 0, devices*variants)
	caps := make([]float64, devices)
	for d := 0; d < devices; d++ {
		caps[d] = float64(3 + rng.Intn(6))
	}
	for d := 0; d < devices; d++ {
		for v := 0; v < variants; v++ {
			n := p.AddInteger("n", 0, caps[d])
			w := p.AddVariable("w", 0, 200)
			p.SetObjective(w, float64(40+rng.Intn(60)))
			rate := float64(8 + rng.Intn(12))
			p.AddConstraint([]lp.Term{{Var: w, Coef: 1}, {Var: n, Coef: -rate}}, lp.LE, 0)
			pairs = append(pairs, pair{n, w})
		}
	}
	for d := 0; d < devices; d++ {
		terms := make([]lp.Term, 0, variants)
		for v := 0; v < variants; v++ {
			terms = append(terms, lp.Term{Var: pairs[d*variants+v].n, Coef: 1})
		}
		p.AddConstraint(terms, lp.LE, caps[d])
	}
	for v := 0; v < variants; v += 2 {
		terms := make([]lp.Term, 0, devices)
		for d := 0; d < devices; d++ {
			terms = append(terms, lp.Term{Var: pairs[d*variants+v].w, Coef: 1})
		}
		p.AddConstraint(terms, lp.LE, float64(10+rng.Intn(25)))
	}
	return p
}

// sameSolution reports whether two Solutions are byte-identical ignoring
// Elapsed (the only wall-clock field). Floats are compared by bit pattern,
// not ==, so even a -0 vs +0 or NaN-payload divergence fails.
func sameSolution(a, b Solution) (string, bool) {
	if a.Status != b.Status {
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status), false
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Sprintf("objective %x vs %x", a.Objective, b.Objective), false
	}
	if math.Float64bits(a.Bound) != math.Float64bits(b.Bound) {
		return fmt.Sprintf("bound %x vs %x", a.Bound, b.Bound), false
	}
	if a.Nodes != b.Nodes {
		return fmt.Sprintf("nodes %d vs %d", a.Nodes, b.Nodes), false
	}
	if len(a.X) != len(b.X) {
		return fmt.Sprintf("len(X) %d vs %d", len(a.X), len(b.X)), false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return fmt.Sprintf("X[%d] %x vs %x", i, a.X[i], b.X[i]), false
		}
	}
	return "", true
}

// TestParallelismByteIdentical is the tentpole's acceptance test: across a
// seeds × parallelism cross-product, every Parallelism ≥ 1 must return a
// Solution byte-identical to the serial solver — including under a node
// budget, where incumbent timing would expose any search-order divergence.
func TestParallelismByteIdentical(t *testing.T) {
	levels := []int{1, 2, 4, runtime.NumCPU()}
	seeds := []uint64{1, 7, 42, 1234, 99999}
	for _, seed := range seeds {
		for _, maxNodes := range []int{60, 0} {
			base := Solve(buildAllocInstance(seed, 3, 8), &Options{MaxNodes: maxNodes, Parallelism: 1})
			for _, par := range levels[1:] {
				got := Solve(buildAllocInstance(seed, 3, 8), &Options{MaxNodes: maxNodes, Parallelism: par})
				if diff, ok := sameSolution(base, got); !ok {
					t.Errorf("seed %d maxNodes %d: Parallelism %d diverges from serial: %s",
						seed, maxNodes, par, diff)
				}
			}
		}
	}
}

// TestParallelismZeroMeansGOMAXPROCS checks the default resolves to the
// machine width and still matches the serial result.
func TestParallelismZeroMeansGOMAXPROCS(t *testing.T) {
	o := (&Options{}).withDefaults()
	if o.Parallelism != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Parallelism = %d, want GOMAXPROCS %d", o.Parallelism, runtime.GOMAXPROCS(0))
	}
	serial := Solve(buildAllocInstance(5, 3, 6), &Options{Parallelism: 1})
	auto := Solve(buildAllocInstance(5, 3, 6), nil)
	if diff, ok := sameSolution(serial, auto); !ok {
		t.Fatalf("default parallelism diverges from serial: %s", diff)
	}
}

// TestParallelStressIdenticalIncumbents is the -race stress test: a
// mid-size allocation instance solved repeatedly at Parallelism 1, 2 and
// NumCPU, asserting identical incumbents. Under -race this also exercises
// the pool's claim/publish protocol (CAS + ready-channel close) across many
// pool lifecycles.
func TestParallelStressIdenticalIncumbents(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const rounds = 8
	levels := []int{1, 2, runtime.NumCPU()}
	want := Solve(buildAllocInstance(17, 4, 10), &Options{MaxNodes: 3000, Parallelism: 1})
	for r := 0; r < rounds; r++ {
		for _, par := range levels {
			got := Solve(buildAllocInstance(17, 4, 10), &Options{MaxNodes: 3000, Parallelism: par})
			if diff, ok := sameSolution(want, got); !ok {
				t.Fatalf("round %d Parallelism %d: incumbent diverges: %s", r, par, diff)
			}
		}
	}
}

// TestSpeculationActuallyHits guards the machinery against silently
// degenerating into serial-plus-overhead: if the cache key ever mismatched
// between speculation and consumption (or workers never claimed jobs),
// every relaxation would miss and Parallelism > 1 would buy nothing while
// still being byte-identical. The test drives the pool directly and forces
// the worker to finish a speculated node before the driver requests it (by
// blocking on the entry's ready channel), so it is deterministic even on a
// single-core machine where the scheduler would rarely run workers ahead of
// the driver on its own.
func TestSpeculationActuallyHits(t *testing.T) {
	prob := buildAllocInstance(17, 4, 10)
	s := &solver{p: prob, o: (&Options{Parallelism: 2}).withDefaults()}
	n := prob.lp.NumVariables()
	s.rootLo = make([]float64, n)
	s.rootHi = make([]float64, n)
	for v := 0; v < n; v++ {
		s.rootLo[v], s.rootHi[v] = prob.lp.Bounds(v)
	}
	defer s.restore()
	s.open = &nodeHeap{}

	pl := newSpecPool(s, 2)
	defer pl.stop()
	s.pool = pl

	root := &node{bound: math.Inf(1)}
	child := &node{bounds: []boundChange{{v: 0, lo: 0, hi: 0}}, bound: math.Inf(1), depth: 1}

	// Solving the root with child as a hint queues child for the worker.
	want, err := s.solveNode(child)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.solve(root, []*node{child}); err != nil {
		t.Fatal(err)
	}
	e, ok := pl.cache[nodeKey(child)]
	if !ok {
		t.Fatal("hint was not speculated into the cache")
	}
	<-e.ready // worker finishes the speculative solve

	got, err := pl.solve(child, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.hits != 1 || pl.misses != 1 {
		t.Fatalf("hits=%d misses=%d, want exactly 1 hit (child) and 1 miss (root)", pl.hits, pl.misses)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("speculative relaxation %v differs from inline solve %v", got.Objective, want.Objective)
	}
	if _, still := pl.cache[nodeKey(child)]; still {
		t.Fatal("consumed entry not removed from the cache")
	}
}

// TestCloneIsDeep guards the worker-isolation prerequisite: mutating a
// clone's bounds, objective or rows must not leak into the original.
func TestCloneIsDeep(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable("x", 0, 10)
	y := p.AddVariable("y", 0, 5)
	p.SetObjective(x, 3)
	p.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 8)

	q := p.Clone()
	q.SetBounds(x, 1, 2)
	q.SetObjective(y, 7)

	if lo, hi := p.Bounds(x); lo != 0 || hi != 10 {
		t.Fatalf("clone bound mutation leaked: [%v, %v]", lo, hi)
	}
	if p.Objective(y) != 0 {
		t.Fatalf("clone objective mutation leaked: %v", p.Objective(y))
	}
	a, errA := lp.Solve(p, nil)
	b, errB := lp.Solve(q, nil)
	if errA != nil || errB != nil {
		t.Fatalf("solve: %v, %v", errA, errB)
	}
	if a.Objective == b.Objective { //lint:allow floateq test asserts the problems genuinely differ
		t.Fatalf("clone and original solved identically (%v); copy is shallow?", a.Objective)
	}
}

// TestPivotCountersCountConsumedRelaxations checks Solution.LPIters and
// DualNodes: they cover the relaxations the search consumed and nothing a
// worker solved ahead of it in vain, so they are the same for every
// Parallelism; and on an instance that branches, every relaxation but three
// is re-optimised from its parent's basis by dual pivots alone. The three
// are the root and its two children: the root's basis is the canonical one
// of its vertex (lp/canonical.go), which on a degenerate vertex need not
// price dual feasible, so those two start on the primal path.
func TestPivotCountersCountConsumedRelaxations(t *testing.T) {
	want := Solve(buildAllocInstance(17, 4, 10), &Options{MaxNodes: 3000, Parallelism: 1})
	if want.Nodes < 10 || want.LPIters < want.Nodes {
		t.Fatalf("serial: %d nodes, %d pivots — the instance no longer branches", want.Nodes, want.LPIters)
	}
	if want.DualNodes < want.Nodes-3 {
		t.Errorf("serial: %d of %d relaxations were solved by dual pivots alone, want all but 3", want.DualNodes, want.Nodes)
	}
	for _, par := range []int{2, 4} {
		got := Solve(buildAllocInstance(17, 4, 10), &Options{MaxNodes: 3000, Parallelism: par})
		if got.LPIters != want.LPIters || got.DualNodes != want.DualNodes {
			t.Errorf("Parallelism %d: %d pivots, %d dual-only relaxations; serial had %d and %d",
				par, got.LPIters, got.DualNodes, want.LPIters, want.DualNodes)
		}
	}
}
