package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// dumpGraph renders a call graph as one deterministic string — node and edge
// order are part of the graph's contract, so the dump doubles as the
// determinism probe.
func dumpGraph(g *CallGraph) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "%s\n", g.shortName(n.Name))
		for _, e := range n.Edges {
			fmt.Fprintf(&b, "  -> %s [%s]\n", g.shortName(e.Callee.Name), e.Kind)
		}
	}
	return b.String()
}

// TestCallGraphEdges pins the three resolution strategies on the call-chain
// corpus: static calls (direct and cross-package), interface dispatch
// over-approximated to every in-module implementation, and function values
// tracked one assignment deep.
func TestCallGraphEdges(t *testing.T) {
	mod, pkgs := loadCorpus(t, "nondetsink", "nondethelper")
	g := BuildCallGraph(mod.Path, pkgs)

	edges := make(map[string]CGEdgeKind)
	for _, n := range g.Nodes() {
		for _, e := range n.Edges {
			edges[g.shortName(n.Name)+" -> "+g.shortName(e.Callee.Name)] = e.Kind
		}
	}
	for key, kind := range map[string]CGEdgeKind{
		"nondetsink.Sample -> nondethelper.Stamp":             EdgeStatic,
		"nondethelper.Stamp -> nondethelper.nowNanos":         EdgeStatic,
		"nondetsink.Total -> nondethelper.SortedTotal":        EdgeStatic,
		"nondetsink.ViaFuncValue -> nondethelper.Stamp":       EdgeFuncValue,
		"nondetsink.Ticks -> (nondethelper.WallClock).Ticks":  EdgeInterface,
		"nondetsink.Ticks -> (nondethelper.FixedClock).Ticks": EdgeInterface,
	} {
		if got, ok := edges[key]; !ok {
			t.Errorf("missing edge %s", key)
		} else if got != kind {
			t.Errorf("edge %s resolved as %s, want %s", key, got, kind)
		}
	}
	// Out-of-module callees (time.Now, os.Environ, sort.Strings) must not
	// appear as edges.
	for key := range edges {
		if strings.Contains(key, "time.") || strings.Contains(key, "os.") || strings.Contains(key, "sort.") {
			t.Errorf("out-of-module edge leaked into the graph: %s", key)
		}
	}
}

// TestCallGraphDeterminism requires two independent loads and builds to
// produce byte-identical graphs.
func TestCallGraphDeterminism(t *testing.T) {
	build := func() string {
		mod, pkgs := loadCorpus(t, "nondetsink", "nondethelper", "lockorder", "lockorderx", "lockhelper")
		return dumpGraph(BuildCallGraph(mod.Path, pkgs))
	}
	first, second := build(), build()
	if first != second {
		t.Fatalf("call graph dump diverged between builds:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "(*lockorder.Pair).TransferBA\n  -> (*lockorder.Pair).lockA [static]") {
		t.Fatalf("expected method edge missing from dump:\n%s", first)
	}
}
