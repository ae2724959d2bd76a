package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is a module-wide, over-approximate static call graph built from
// the type-checked packages. It is the substrate the interprocedural
// checkers (nondet, lockorder) walk: a nondeterminism source or a lock
// acquisition three helpers deep is only visible by composing per-function
// facts along these edges.
//
// Resolution strategy, by call shape:
//
//   - direct calls and concrete method calls resolve statically via
//     go/types;
//   - calls through an interface method are over-approximated to every
//     in-module named type that implements the interface (checked against
//     the pointer method set, the superset), so dynamic dispatch never hides
//     an edge — at the cost of edges that cannot happen at runtime;
//   - calls through function-typed variables are tracked one assignment
//     deep: `f := helper; f()` produces an edge to helper, but values routed
//     through a second variable or a function parameter do not.
//
// Function literals are attributed to their enclosing declared function:
// a call made inside a closure (including a goroutine body) appears as an
// edge from the declaring function. Both unresolved shapes and literal
// attribution are deliberate over/under-approximations documented here so
// checker findings can be audited against them.
type CallGraph struct {
	module string
	byFn   map[*types.Func]*CGNode
	nodes  []*CGNode // sorted by Name
}

// CGNode is one declared in-module function or method with a body.
type CGNode struct {
	Fn   *types.Func
	Name string // deterministic key, e.g. "(*proteus/internal/core.System).Run"
	Pkg  *Package
	Body *ast.BlockStmt
	// Edges are this function's in-module call sites, sorted by callee name
	// then position. A (callee, site) pair appears once.
	Edges []CGEdge
}

// CGEdgeKind says how a call site was resolved.
type CGEdgeKind string

const (
	// EdgeStatic is a direct call or concrete method call.
	EdgeStatic CGEdgeKind = "static"
	// EdgeInterface is an interface method call, over-approximated to every
	// in-module implementation.
	EdgeInterface CGEdgeKind = "interface"
	// EdgeFuncValue is a call through a function-typed variable, resolved
	// one assignment deep.
	EdgeFuncValue CGEdgeKind = "funcvalue"
)

// CGEdge is one resolved call from a node to an in-module callee.
type CGEdge struct {
	Callee *CGNode
	Site   token.Pos
	Kind   CGEdgeKind
}

// Nodes lists every function in the graph sorted by name.
func (g *CallGraph) Nodes() []*CGNode { return g.nodes }

// shortName trims the module path off a node name for human-readable call
// chains: "(*proteus/internal/core.System).Run" → "(*internal/core.System).Run".
func (g *CallGraph) shortName(name string) string {
	return strings.ReplaceAll(name, g.module+"/", "")
}

// BuildCallGraph constructs the call graph over the given packages (which
// must all belong to module and be sorted by import path for deterministic
// node order).
func BuildCallGraph(module string, pkgs []*Package) *CallGraph {
	g := &CallGraph{module: module, byFn: make(map[*types.Func]*CGNode)}

	// Pass 1: one node per declared function body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Fn: fn, Name: fn.FullName(), Pkg: pkg, Body: fd.Body}
				g.byFn[fn] = node
				g.nodes = append(g.nodes, node)
			}
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].Name < g.nodes[j].Name })

	concrete := moduleNamedTypes(pkgs)
	bindings := funcValueBindings(pkgs)

	// Pass 2: edges.
	for _, node := range g.nodes {
		b := &edgeBuilder{g: g, node: node, concrete: concrete, bindings: bindings}
		ast.Inspect(node.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				b.resolve(call)
			}
			return true
		})
		node.Edges = b.edges
		sort.Slice(node.Edges, func(i, j int) bool {
			a, c := node.Edges[i], node.Edges[j]
			if a.Callee.Name != c.Callee.Name {
				return a.Callee.Name < c.Callee.Name
			}
			return a.Site < c.Site
		})
	}
	return g
}

// moduleNamedTypes collects every exported-or-not named non-interface type
// declared in the loaded packages, sorted by type string, for interface
// dispatch over-approximation.
func moduleNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

// funcValueBindings records, for every function-typed variable in the loaded
// packages, the set of declared functions directly assigned to it — the "one
// assignment deep" tracking. RHS shapes recognized: a plain identifier or a
// selector (package function or method value) whose object is a *types.Func.
func funcValueBindings(pkgs []*Package) map[*types.Var][]*types.Func {
	bindings := make(map[*types.Var][]*types.Func)
	add := func(info *types.Info, lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok {
			return
		}
		var rid *ast.Ident
		switch r := ast.Unparen(rhs).(type) {
		case *ast.Ident:
			rid = r
		case *ast.SelectorExpr:
			rid = r.Sel
		default:
			return
		}
		fn, ok := info.ObjectOf(rid).(*types.Func)
		if !ok {
			return
		}
		bindings[v] = append(bindings[v], fn)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							add(pkg.Info, n.Lhs[i], n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) == len(n.Values) {
						for i := range n.Names {
							add(pkg.Info, n.Names[i], n.Values[i])
						}
					}
				}
				return true
			})
		}
	}
	for v, fns := range bindings {
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
		dedup := fns[:0]
		for i, fn := range fns {
			if i == 0 || fn != fns[i-1] {
				dedup = append(dedup, fn)
			}
		}
		bindings[v] = dedup
	}
	return bindings
}

// edgeBuilder accumulates one node's outgoing edges.
type edgeBuilder struct {
	g        *CallGraph
	node     *CGNode
	concrete []*types.Named
	bindings map[*types.Var][]*types.Func
	edges    []CGEdge
	seen     map[CGEdge]bool
}

func (b *edgeBuilder) add(callee *types.Func, site token.Pos, kind CGEdgeKind) {
	target := b.g.byFn[callee]
	if target == nil {
		return // out of module, or no body (declaration without definition)
	}
	e := CGEdge{Callee: target, Site: site, Kind: kind}
	if b.seen == nil {
		b.seen = make(map[CGEdge]bool)
	}
	if b.seen[e] {
		return
	}
	b.seen[e] = true
	b.edges = append(b.edges, e)
}

func (b *edgeBuilder) resolve(call *ast.CallExpr) {
	info := b.node.Pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.ObjectOf(fun).(type) {
		case *types.Func:
			b.add(obj, call.Pos(), EdgeStatic)
		case *types.Var:
			for _, fn := range b.bindings[obj] {
				b.add(fn, call.Pos(), EdgeFuncValue)
			}
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				b.resolveInterface(fun, sel, call.Pos())
				return
			}
		}
		switch obj := info.ObjectOf(fun.Sel).(type) {
		case *types.Func:
			b.add(obj, call.Pos(), EdgeStatic)
		case *types.Var:
			for _, fn := range b.bindings[obj] {
				b.add(fn, call.Pos(), EdgeFuncValue)
			}
		}
	}
}

// resolveInterface over-approximates an interface method call with an edge
// to the matching method of every in-module type that implements the
// interface.
func (b *edgeBuilder) resolveInterface(fun *ast.SelectorExpr, sel *types.Selection, site token.Pos) {
	iface, ok := sel.Recv().Underlying().(*types.Interface)
	if !ok {
		return
	}
	m, ok := sel.Obj().(*types.Func)
	if !ok {
		return
	}
	for _, named := range b.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		found := ms.Lookup(m.Pkg(), m.Name())
		if found == nil {
			continue
		}
		if impl, ok := found.Obj().(*types.Func); ok {
			b.add(impl, site, EdgeInterface)
		}
	}
}
