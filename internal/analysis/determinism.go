package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces that the simulated-clock and plan-construction
// packages stay reproducible from a seed: the simulator's fidelity claim
// (tracking the testbed within ~1%, §6.1.5) and every regression test that
// compares two runs depend on it.
//
// It reports:
//   - wall-clock reads: time.Now, time.Since, time.Until, and timer
//     constructors (time.After, time.Tick, time.NewTimer, time.NewTicker,
//     time.AfterFunc, time.Sleep) — simulated time must come from the event
//     engine's clock;
//   - global math/rand state: package-level functions of math/rand and
//     math/rand/v2 (rand.Intn, rand.Float64, rand.Shuffle, ...), whose shared
//     seed makes runs irreproducible — randomness must flow through an
//     injected seeded generator (numeric.RNG or a *rand.Rand built from a
//     rand.NewSource the caller seeds);
//   - rand.New calls whose source argument is not a direct rand.NewSource /
//     NewPCG / NewChaCha8 construction, since the provenance of the seed
//     cannot be seen at the call site;
//   - range over a map, whose iteration order is randomized by the runtime.
//     The canonical fix — collect the keys, sort, iterate the slice — is
//     recognized and not reported; genuinely order-insensitive loops (pure
//     reductions) should carry a //lint:allow determinism comment saying so;
//   - unaccounted goroutines: a `go` statement must be fork-join structured —
//     a sync.WaitGroup.Add call before it in the same function, and a
//     function literal that defers the matching Done — so concurrency stays
//     a bounded, joined implementation detail rather than free-running
//     state that can leak scheduling order into results;
//   - select statements with two or more communication clauses: the runtime
//     picks among simultaneously ready cases uniformly at random, so a
//     multi-way select is a nondeterministic merge. Restructure around one
//     communication clause (plus an optional default); order-insensitive
//     merges should carry a //lint:allow determinism comment saying why.
type Determinism struct{}

// Name implements Checker.
func (Determinism) Name() string { return "determinism" }

// Doc implements Checker.
func (Determinism) Doc() string {
	return "forbid wall-clock reads, global math/rand and unsorted map iteration in seed-reproducible packages"
}

// wallClockFuncs are the package-level time functions that read or depend on
// the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Sleep": true,
}

// seededSourceCtors construct explicitly seeded math/rand sources; a
// rand.New wrapping one of these is deterministic iff its seed expression is
// (which the wall-clock rule covers separately).
var seededSourceCtors = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// Run implements Checker.
func (d Determinism) Run(pass *Pass) {
	for _, f := range pass.Files {
		// Forbidden calls can appear anywhere, including package-level
		// initializers.
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				d.checkCall(pass, call)
			}
			return true
		})
		// Map-range loops are checked per function body so the sorted-keys
		// idiom can consult the rest of the enclosing body.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				d.checkRanges(pass, body)
				d.checkConcurrency(pass, body)
			}
			return true
		})
	}
}

// checkConcurrency reports unaccounted goroutines and multi-way selects
// directly inside body. Nested function literals are skipped — the walk in
// Run visits them with their own enclosing body.
func (d Determinism) checkConcurrency(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned function literal is skipped by the FuncLit case on
			// the way down; Run walks it with its own enclosing body.
			d.checkGo(pass, body, n)
		case *ast.SelectStmt:
			if commClauseCount(n) > 1 {
				pass.Reportf(n.Pos(),
					"select with %d communication clauses chooses among ready cases at random; restructure around one communication (plus optional default), or annotate an order-insensitive merge with //lint:allow determinism", commClauseCount(n))
			}
		}
		return true
	})
}

// checkGo enforces fork-join structure on one go statement: a
// sync.WaitGroup.Add call earlier in the same function, and a spawned
// function literal that defers the matching Done.
func (d Determinism) checkGo(pass *Pass, body *ast.BlockStmt, g *ast.GoStmt) {
	if !d.hasWaitGroupAddBefore(pass, body, g.Pos()) {
		pass.Reportf(g.Pos(),
			"goroutine without a preceding sync.WaitGroup.Add in this function; fork-join account it (wg.Add before go, defer wg.Done inside) so the computation joins all workers before returning")
		return
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok || !d.hasDeferredDone(pass, lit) {
		pass.Reportf(g.Pos(),
			"goroutine does not visibly defer sync.WaitGroup.Done; spawn a function literal whose first statement is defer wg.Done() so the join is auditable at the fork site")
	}
}

// hasWaitGroupAddBefore reports whether a sync.WaitGroup.Add call occurs
// before pos inside body.
func (d Determinism) hasWaitGroupAddBefore(pass *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() < pos && d.isWaitGroupMethod(pass, call, "Add") {
			found = true
		}
		return !found
	})
	return found
}

// hasDeferredDone reports whether lit's body (not counting nested function
// literals) defers a sync.WaitGroup.Done call.
func (d Determinism) hasDeferredDone(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ds, ok := n.(*ast.DeferStmt); ok && d.isWaitGroupMethod(pass, ds.Call, "Done") {
			found = true
		}
		return !found
	})
	return found
}

func (d Determinism) isWaitGroupMethod(pass *Pass, call *ast.CallExpr, name string) bool {
	fn := pass.CalleeFunc(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		fn.Name() == name && recvTypeName(fn) == "WaitGroup"
}

// commClauseCount counts a select's communication clauses (default excluded).
func commClauseCount(s *ast.SelectStmt) int {
	n := 0
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			n++
		}
	}
	return n
}

// checkRanges reports nondeterministic map ranges directly inside body.
// Nested function literals are skipped — the walk in Run visits them with
// their own (narrower) enclosing body.
func (d Determinism) checkRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rng, ok := n.(*ast.RangeStmt); ok {
			d.checkRange(pass, body, rng)
		}
		return true
	})
}

func (d Determinism) checkCall(pass *Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		// Methods (e.g. (*rand.Rand).Intn on an injected generator, or
		// (time.Time).Sub) are fine: determinism is the instance's problem,
		// and instances are constructed from seeds.
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && wallClockFuncs[fn.Name()]:
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock in a seed-reproducible package; use the simulation engine clock or an injected time source", fn.Name())
	case isRandPkg(path):
		switch {
		case seededSourceCtors[fn.Name()]:
			// Explicit source construction: the seed expression is visible
			// here and separately subject to the wall-clock rule.
		case fn.Name() == "New":
			if !isSeededSourceCall(pass, call) {
				pass.Reportf(call.Pos(),
					"rand.New with an opaque source; construct the source with rand.NewSource(seed) at the call site so the seed is auditable")
			}
		default:
			pass.Reportf(call.Pos(),
				"global %s.%s uses shared, unseeded process-wide state; inject a seeded generator (numeric.RNG or rand.New(rand.NewSource(seed)))", pathBase(path), fn.Name())
		}
	}
}

// isSeededSourceCall reports whether every argument of a rand.New call is a
// direct rand.NewSource/NewPCG/NewChaCha8 construction.
func isSeededSourceCall(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := pass.CalleeFunc(inner)
		if fn == nil || fn.Pkg() == nil || !isRandPkg(fn.Pkg().Path()) || !seededSourceCtors[fn.Name()] {
			return false
		}
	}
	return len(call.Args) > 0
}

func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func (d Determinism) checkRange(pass *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if sortedKeysIdiom(pass, enclosing, rng) {
		return
	}
	pass.Reportf(rng.Pos(),
		"range over map iterates in randomized order; collect and sort the keys first, or annotate an order-insensitive reduction with //lint:allow determinism")
}

// sortedKeysIdiom recognizes the canonical deterministic map iteration:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)        // or sort.Strings/Ints/..., slices.Sort*
//
// i.e. a key-only range whose body is a single append into a slice that a
// sort/slices call later in the same function consumes.
func sortedKeysIdiom(pass *Pass, enclosing *ast.BlockStmt, rng *ast.RangeStmt) bool {
	if rng.Value != nil || rng.Key == nil || rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	callRhs, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := ast.Unparen(callRhs.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if b, ok := pass.ObjectOf(fun).(*types.Builtin); !ok || b == nil {
		return false
	}
	keysObj := pass.ObjectOf(lhs)
	if keysObj == nil {
		return false
	}
	// A sort call mentioning the keys slice after the loop makes the
	// iteration order deterministic.
	sorted := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, keysObj) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// mentionsObject reports whether expr references obj anywhere.
func mentionsObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
