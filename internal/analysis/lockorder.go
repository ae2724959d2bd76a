package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder is the whole-module lock-ordering checker. The intraprocedural
// lockdiscipline check forbids blocking *operations* under a held mutex, but
// it cannot see the classic two-function deadlock: f locks A then calls into
// a function that locks B, while g locks B then (possibly packages away)
// locks A. LockOrder extracts per-function held-lock/acquire facts with the
// lockWalker lockdiscipline also uses, composes them over the module call
// graph into a global lock-ordering graph, and reports
//
//   - cycles in that graph as potential deadlocks, with every edge's
//     acquisition site and call chain in the message, and
//   - acquire-while-holding chains that cross a package boundary (a lock in
//     one package held while a call chain into another package acquires a
//     second lock) — the shape under which independently-developed packages
//     silently establish incompatible orders.
//
// Lock identity is the struct field path keyed by the declaring named type —
// "(proteus/internal/serving.Server).mu" — so every instance of a type
// shares one graph node (the over-approximation that makes cross-instance
// deadlocks visible). Package-level mutexes are keyed by qualified variable
// name, function-local ones by function name. Acquiring a lock with the same
// identity as one already held is skipped: distinct instances of one type
// (tree nodes, per-device workers) are indistinguishable statically and
// would drown the report in false self-cycles.
//
// Function literals run with a fresh (empty) held set — closures execute as
// goroutines or callbacks, not inline under the caller's locks — and
// deferred and spawned calls contribute their transitive acquisitions but no
// held-at-call pairs, since the held set at return time is not statically
// meaningful. Both choices under-approximate; they are documented here so a
// quiet report can be audited against them.
type LockOrder struct{}

// Name implements ModuleChecker.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements ModuleChecker.
func (LockOrder) Doc() string {
	return "detect lock-order cycles and cross-package acquire-while-holding chains over the module call graph"
}

// loAcquire is one direct Lock/RLock site with the locks held at that point.
type loAcquire struct {
	lock string
	pos  token.Pos
	held map[string]token.Pos // snapshot, including this lock's precursors only
}

// loCall is one in-module call made while at least zero locks are held.
// Calls with an empty held set still matter: they carry the callee's
// transitive acquisitions up the graph.
type loCall struct {
	edges []CGEdge
	pos   token.Pos
	held  map[string]token.Pos
}

// loSummary is one function's lock behavior.
type loSummary struct {
	acquires []loAcquire
	calls    []loCall
}

// loWitness explains how a function (transitively) acquires a lock: either a
// direct site or a call into via at pos.
type loWitness struct {
	pos token.Pos // direct acquire site, or the call site toward via
	via *CGNode   // nil for direct acquisitions
}

// loEdge is one edge of the global lock-ordering graph: from held while
// acquiring to.
type loEdge struct {
	from, to string
	holder   *CGNode   // function that held from
	holdPos  token.Pos // where from was acquired (or the earliest held site)
	site     token.Pos // report anchor: the acquire or call site in holder
	chain    []*CGNode // call chain holder→…→acquirer; empty for direct
	finalPos token.Pos // the Lock() site that takes to
	acquirer *CGNode   // function whose body contains finalPos
}

// RunModule implements ModuleChecker.
func (l LockOrder) RunModule(mp *ModulePass) {
	cg := mp.CallGraph()
	summaries := make(map[*CGNode]*loSummary)
	for _, node := range cg.Nodes() {
		summaries[node] = l.summarize(node)
	}
	acquired := l.transitiveAcquires(cg, summaries)
	edges, order := l.lockGraph(cg, summaries, acquired)
	inCycle := l.reportCycles(mp, cg, edges, order)
	l.reportCrossPackage(mp, cg, edges, order, inCycle)
}

// summarize walks one function body with the shared lockWalker and records
// every acquire and every in-module call with the identities held there.
func (l LockOrder) summarize(node *CGNode) *loSummary {
	ev := &loEvents{sum: &loSummary{}, edgesAt: make(map[token.Pos][]CGEdge)}
	for _, e := range node.Edges {
		ev.edgesAt[e.Site] = append(ev.edgesAt[e.Site], e)
	}
	walkLocks(node, ev)
	return ev.sum
}

// loEvents records a lockWalker's acquire and call events into a summary.
type loEvents struct {
	sum     *loSummary
	edgesAt map[token.Pos][]CGEdge
}

func (e *loEvents) acquire(w *lockWalker, id string, pos token.Pos) {
	e.sum.acquires = append(e.sum.acquires, loAcquire{lock: id, pos: pos, held: heldIDs(w)})
}

func (*loEvents) block(*lockWalker, token.Pos, string) {}

func (e *loEvents) call(w *lockWalker, call *ast.CallExpr, detached bool) {
	edges := e.edgesAt[call.Pos()]
	if len(edges) == 0 {
		return
	}
	held := map[string]token.Pos{}
	if !detached {
		held = heldIDs(w)
	}
	e.sum.calls = append(e.sum.calls, loCall{edges: edges, pos: call.Pos(), held: held})
}

// heldIDs snapshots the walker's held set by lock identity, keeping the
// earliest acquisition when several instances of one identity are held.
func heldIDs(w *lockWalker) map[string]token.Pos {
	s := make(map[string]token.Pos, len(w.held))
	for _, h := range w.held {
		if at, ok := s[h.id]; !ok || h.pos < at {
			s[h.id] = h.pos
		}
	}
	return s
}

// transitiveAcquires computes, per function, every lock it may acquire
// directly or through callees, with a deterministic witness path. The
// fixpoint iterates nodes in sorted order until stable; the first witness
// found for a lock wins, so reports do not wobble between equivalent paths.
func (LockOrder) transitiveAcquires(cg *CallGraph, summaries map[*CGNode]*loSummary) map[*CGNode]map[string]loWitness {
	acquired := make(map[*CGNode]map[string]loWitness)
	for _, node := range cg.Nodes() {
		m := make(map[string]loWitness)
		for _, a := range summaries[node].acquires {
			if _, ok := m[a.lock]; !ok {
				m[a.lock] = loWitness{pos: a.pos}
			}
		}
		acquired[node] = m
	}
	for changed := true; changed; {
		changed = false
		for _, node := range cg.Nodes() {
			m := acquired[node]
			for _, e := range node.Edges {
				for _, lock := range sortedKeys(acquired[e.Callee]) {
					if _, ok := m[lock]; !ok {
						m[lock] = loWitness{pos: e.Site, via: e.Callee}
						changed = true
					}
				}
			}
		}
	}
	return acquired
}

// lockGraph composes the per-function facts into global ordered-acquisition
// edges. For each (held h, acquire L) pair — direct, or through a call whose
// callee transitively acquires L — one deterministic witness edge h→L is
// kept.
func (LockOrder) lockGraph(cg *CallGraph, summaries map[*CGNode]*loSummary, acquired map[*CGNode]map[string]loWitness) (map[[2]string]*loEdge, []string) {
	edges := make(map[[2]string]*loEdge)
	keep := func(e *loEdge) {
		k := [2]string{e.from, e.to}
		if _, ok := edges[k]; !ok {
			edges[k] = e
		}
	}
	for _, node := range cg.Nodes() {
		sum := summaries[node]
		for _, a := range sum.acquires {
			for _, h := range sortedKeys(a.held) {
				if h == a.lock {
					continue
				}
				keep(&loEdge{
					from: h, to: a.lock, holder: node, holdPos: a.held[h],
					site: a.pos, finalPos: a.pos, acquirer: node,
				})
			}
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, e := range c.edges {
				for _, lock := range sortedKeys(acquired[e.Callee]) {
					// Walk the witness chain to the function whose body
					// takes the lock.
					chain := []*CGNode{e.Callee}
					final := e.Callee
					w := acquired[e.Callee][lock]
					for w.via != nil {
						final = w.via
						chain = append(chain, w.via)
						w = acquired[w.via][lock]
					}
					for _, h := range sortedKeys(c.held) {
						if h == lock {
							continue
						}
						keep(&loEdge{
							from: h, to: lock, holder: node, holdPos: c.held[h],
							site: c.pos, chain: chain, finalPos: w.pos, acquirer: final,
						})
					}
				}
			}
		}
	}
	var order []string
	seen := make(map[string]bool)
	for k := range edges {
		for _, id := range []string{k[0], k[1]} {
			if !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
		}
	}
	sort.Strings(order)
	return edges, order
}

// reportCycles finds strongly connected components of the lock graph and
// reports one deterministic cycle per component, with every edge's
// acquisition sites. Returns the set of locks inside reported cycles so the
// cross-package report does not duplicate them.
func (l LockOrder) reportCycles(mp *ModulePass, cg *CallGraph, edges map[[2]string]*loEdge, order []string) map[string]bool {
	adj := make(map[string][]string)
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}
	inCycle := make(map[string]bool)
	for _, scc := range stronglyConnected(order, adj) {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[string]bool, len(scc))
		for _, id := range scc {
			inSCC[id] = true
		}
		cycle := walkCycle(scc[0], adj, inSCC)
		for _, id := range cycle[:len(cycle)-1] {
			inCycle[id] = true
		}
		var parts []string
		var anchor token.Pos
		for i := 0; i+1 < len(cycle); i++ {
			e := edges[[2]string{cycle[i], cycle[i+1]}]
			if i == 0 {
				anchor = e.site
			}
			parts = append(parts, l.edgeDesc(mp, cg, e))
		}
		mp.Reportf(anchor,
			"potential deadlock: lock-order cycle %s; %s; establish one global acquisition order or annotate the audited exception with //lint:allow lockorder",
			strings.Join(shortLocks(cg, cycle), " → "), strings.Join(parts, "; "))
	}
	return inCycle
}

// reportCrossPackage reports acquire-while-holding edges whose holder and
// acquirer live in different packages, skipping locks already reported in a
// cycle.
func (l LockOrder) reportCrossPackage(mp *ModulePass, cg *CallGraph, edges map[[2]string]*loEdge, order []string, inCycle map[string]bool) {
	for _, from := range order {
		for _, to := range order {
			e := edges[[2]string{from, to}]
			if e == nil || (inCycle[from] && inCycle[to]) {
				continue
			}
			if e.holder.Pkg.Path == e.acquirer.Pkg.Path {
				continue
			}
			mp.Reportf(e.site,
				"cross-package lock chain: %s; nested acquisition across packages fixes a lock order other call paths may invert — keep the second acquisition package-local, or annotate the established order with //lint:allow lockorder",
				l.edgeDesc(mp, cg, e))
		}
	}
}

// edgeDesc renders one lock-graph edge with both sites: where the held lock
// was taken and where the second lock is acquired, via which call chain.
func (l LockOrder) edgeDesc(mp *ModulePass, cg *CallGraph, e *loEdge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (held since %s) while acquiring %s at %s",
		cg.shortName(e.from), shortPos(mp.Fset, e.holdPos), cg.shortName(e.to), shortPos(mp.Fset, e.finalPos))
	if len(e.chain) > 0 {
		names := []string{cg.shortName(e.holder.Name)}
		for _, n := range e.chain {
			names = append(names, cg.shortName(n.Name))
		}
		fmt.Fprintf(&b, " via %s", strings.Join(names, " → "))
	} else {
		fmt.Fprintf(&b, " in %s", cg.shortName(e.holder.Name))
	}
	return b.String()
}

func shortLocks(cg *CallGraph, ids []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = cg.shortName(id)
	}
	return out
}

// shortPos renders a position as basename:line so messages stay
// byte-deterministic across checkouts.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stronglyConnected is an iterative Tarjan over the lock graph, visiting
// roots and successors in sorted order so component order is deterministic.
func stronglyConnected(order []string, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// walkCycle extracts one deterministic cycle through start inside an SCC by
// always following the smallest in-SCC successor; it terminates because
// every node of a non-trivial SCC has an in-SCC successor.
func walkCycle(start string, adj map[string][]string, inSCC map[string]bool) []string {
	cycle := []string{start}
	visited := map[string]bool{start: true}
	cur := start
	for {
		nextHop := ""
		for _, w := range adj[cur] {
			if inSCC[w] {
				nextHop = w
				break
			}
		}
		if nextHop == "" {
			return cycle // unreachable for a non-trivial SCC; guards a stall
		}
		cycle = append(cycle, nextHop)
		if nextHop == start {
			return cycle
		}
		if visited[nextHop] {
			// Closed a loop that does not pass through start; rotate to it.
			for i, id := range cycle[:len(cycle)-1] {
				if id == nextHop {
					return cycle[i:]
				}
			}
			return cycle
		}
		visited[nextHop] = true
		cur = nextHop
	}
}
