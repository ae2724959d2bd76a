package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Determinism enforces that the seed-reproducible packages (Sinks; wired to
// DeterministicPackages by DefaultRegistry) stay reproducible from a seed:
// the simulator's fidelity claim (tracking the testbed within ~1%, §6.1.5)
// and every regression test that compares two runs depend on it.
//
// A nondeterminism source is
//   - a wall-clock read: time.Now, time.Since, time.Until, and the timer
//     constructors (time.After, time.Tick, time.NewTimer, time.NewTicker,
//     time.AfterFunc, time.Sleep) — simulated time must come from the event
//     engine's clock;
//   - global math/rand state: package-level functions of math/rand and
//     math/rand/v2 (rand.Intn, rand.Shuffle, ...) — randomness must flow
//     through an injected seeded generator (numeric.RNG or a *rand.Rand built
//     from a rand.NewSource the caller seeds);
//   - rand.New whose source argument is not a direct rand.NewSource / NewPCG /
//     NewChaCha8 construction, since the seed cannot be seen at the call site;
//   - a process-environment read (os.Environ, os.Getenv, os.LookupEnv);
//   - a range over a map without the sorted-keys idiom (collect the keys,
//     sort, iterate the slice), since the runtime randomizes map order.
//
// The check reports every source written inside a sink package — in a
// function body or a package-level var initializer — and every call edge
// through which a source elsewhere in the module enters the sink set: sources
// mark their functions "tainted", taint propagates to callers over the module
// call graph, and the finding at the entry edge carries the full sink→source
// call chain. Chains wholly inside the sink set are not re-reported edge by
// edge: the source itself is already a finding.
//
// A source suppressed in place (//lint:allow determinism, e.g. the
// allocators' reporting-only SolveTime measurements) neither reports nor
// taints: the directive is an audited statement that the value never feeds
// seed-reproducible results. Genuinely order-insensitive map loops (pure
// reductions) carry one saying so.
type Determinism struct {
	// Sinks are the import-path prefixes of the seed-reproducible set.
	Sinks []string
}

// Name implements ModuleChecker.
func (Determinism) Name() string { return "determinism" }

// Doc implements ModuleChecker.
func (Determinism) Doc() string {
	return "forbid wall-clock reads, global rand, environment reads and unsorted map iteration in seed-reproducible packages, directly or through any call chain"
}

// ndSource is one direct nondeterminism source.
type ndSource struct {
	desc string    // e.g. "time.Now", "os.Environ", "map range"
	pos  token.Pos // the source expression's position
}

// ndTaint records how a function reaches a source: the next callee on the
// shortest path and the ultimate source.
type ndTaint struct {
	src  ndSource
	next *CGNode // nil when src is in this very function
}

// RunModule implements ModuleChecker.
func (d Determinism) RunModule(mp *ModulePass) {
	cg := mp.CallGraph()
	taint := make(map[*CGNode]*ndTaint)

	// Direct sources, in deterministic node order. A function's earliest
	// source is the one its callers' chains name.
	var queue []*CGNode
	for _, node := range cg.Nodes() {
		srcs := sources(node.Pkg, node.Body)
		if len(srcs) == 0 {
			continue
		}
		if underPrefix(node.Pkg.Path, d.Sinks) {
			for _, src := range srcs {
				mp.Reportf(src.pos, "%s", directMessage(src.desc))
			}
		}
		taint[node] = &ndTaint{src: srcs[0]}
		queue = append(queue, node)
	}
	// Package-level var initializers run outside every call-graph node.
	for _, pkg := range mp.Pkgs {
		if !underPrefix(pkg.Path, d.Sinks) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, src := range sources(pkg, gd) {
						mp.Reportf(src.pos, "%s", directMessage(src.desc))
					}
				}
			}
		}
	}

	// Reverse adjacency for the BFS. Callers come out in deterministic order
	// because nodes and their edges are sorted.
	callers := make(map[*CGNode][]*CGNode)
	for _, node := range cg.Nodes() {
		for _, e := range node.Edges {
			callers[e.Callee] = append(callers[e.Callee], node)
		}
	}

	// Multi-source BFS: the first (shortest, deterministically tie-broken)
	// path to a source wins.
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range callers[u] {
			if taint[c] != nil {
				continue
			}
			taint[c] = &ndTaint{src: taint[u].src, next: u}
			queue = append(queue, c)
		}
	}

	// Report taint entering the sink set, once per call site.
	for _, node := range cg.Nodes() {
		if !underPrefix(node.Pkg.Path, d.Sinks) {
			continue
		}
		reported := make(map[token.Pos]bool)
		for _, e := range node.Edges {
			if underPrefix(e.Callee.Pkg.Path, d.Sinks) || taint[e.Callee] == nil || reported[e.Site] {
				continue
			}
			reported[e.Site] = true
			mp.Reportf(e.Site,
				"call chain reaches %s: %s; seed-reproducible packages must take time, randomness and iteration order from injected sources — fix the helper or annotate an audited exception with //lint:allow determinism",
				taint[e.Callee].src.desc, chain(mp, cg, taint, node, e.Callee))
		}
	}
}

// directMessage is the finding text for a source written in a sink package.
func directMessage(desc string) string {
	switch {
	case strings.HasPrefix(desc, "time."):
		return desc + " reads the wall clock in a seed-reproducible package; use the simulation engine clock or an injected time source"
	case strings.HasPrefix(desc, "os."):
		return desc + " reads the process environment in a seed-reproducible package; pass configuration in explicitly so runs are reproducible from their inputs"
	case desc == "unseeded rand.New":
		return "rand.New with an opaque source; construct the source with rand.NewSource(seed) at the call site so the seed is auditable"
	case desc == "map range":
		return "range over map iterates in randomized order; collect and sort the keys first, or annotate an order-insensitive reduction with //lint:allow determinism"
	default:
		return "global " + desc + " uses shared, unseeded process-wide state; inject a seeded generator (numeric.RNG or rand.New(rand.NewSource(seed)))"
	}
}

// chain renders the full sink→source call chain, ending with the source
// expression's file:line (base name only, so reports are machine-independent
// and byte-deterministic).
func chain(mp *ModulePass, cg *CallGraph, taint map[*CGNode]*ndTaint, sink, entry *CGNode) string {
	var b strings.Builder
	b.WriteString(cg.shortName(sink.Name))
	for node := entry; node != nil; {
		b.WriteString(" → ")
		b.WriteString(cg.shortName(node.Name))
		t := taint[node]
		if t == nil {
			break
		}
		if t.next == nil {
			pos := mp.Fset.Position(t.src.pos)
			fmt.Fprintf(&b, " → %s (%s:%d)", t.src.desc, filepath.Base(pos.Filename), pos.Line)
			break
		}
		node = t.next
	}
	return b.String()
}

// sources lists the unsuppressed nondeterminism sources inside n (a function
// body or a package-level var declaration) in position order.
func sources(pkg *Package, n ast.Node) []ndSource {
	var out []ndSource
	var scan func(n ast.Node, body *ast.BlockStmt)
	scan = func(n ast.Node, body *ast.BlockStmt) {
		ast.Inspect(n, func(nd ast.Node) bool {
			desc := ""
			switch nd := nd.(type) {
			case *ast.FuncLit:
				// The sorted-keys idiom is matched against the innermost
				// enclosing function body.
				scan(nd.Body, nd.Body)
				return false
			case *ast.CallExpr:
				desc = sourceCall(pkg.Info, nd)
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(nd.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok && !sortedKeysIdiom(pkg.Info, body, nd) {
						desc = "map range"
					}
				}
			}
			if desc != "" {
				p := pkg.mod.Fset.Position(nd.Pos())
				if !pkg.directives.allows(p.Filename, p.Line, "determinism") {
					out = append(out, ndSource{desc: desc, pos: nd.Pos()})
				}
			}
			return true
		})
	}
	body, _ := n.(*ast.BlockStmt)
	scan(n, body)
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
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

// sourceCall classifies a call expression as a direct nondeterminism source,
// returning its description ("" when it is not one).
func sourceCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		// Methods (injected *rand.Rand, time.Time.Sub, ...) are the
		// instance's problem; instances are constructed from seeds.
		return ""
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && wallClockFuncs[fn.Name()]:
		return "time." + fn.Name()
	case path == "os" && (fn.Name() == "Environ" || fn.Name() == "Getenv" || fn.Name() == "LookupEnv"):
		return "os." + fn.Name()
	case isRandPkg(path):
		switch {
		case seededSourceCtors[fn.Name()]:
			// Explicit source construction: the seed expression is visible
			// here and separately subject to the wall-clock rule.
			return ""
		case fn.Name() == "New":
			if !isSeededSourceCall(info, call) {
				return "unseeded rand.New"
			}
			return ""
		default:
			return pathBase(path) + "." + fn.Name()
		}
	}
	return ""
}

// isSeededSourceCall reports whether every argument of a rand.New call is a
// direct rand.NewSource/NewPCG/NewChaCha8 construction.
func isSeededSourceCall(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(info, inner)
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

// sortedKeysIdiom recognizes the canonical deterministic map iteration:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)        // or sort.Strings/Ints/..., slices.Sort*
//
// i.e. a key-only range whose body is a single append into a slice that a
// sort/slices call later in the same function consumes.
func sortedKeysIdiom(info *types.Info, enclosing *ast.BlockStmt, rng *ast.RangeStmt) bool {
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
	if b, ok := info.ObjectOf(fun).(*types.Builtin); !ok || b == nil {
		return false
	}
	keysObj := info.ObjectOf(lhs)
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
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(info, arg, keysObj) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// mentionsObject reports whether expr references obj anywhere.
func mentionsObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
