package allocator

import (
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/milp"
	"proteus/internal/models"
	"proteus/internal/profiles"
)

// TestChildRelaxationsTakeDualPath checks that the solver's fast path is the
// one in use on the default model (20 devices, the whole zoo, 2× SLOs),
// searched by branch-and-bound (treeSolve): a child inherits a basis that is
// dual feasible and primal infeasible in one row, so nearly every non-root
// relaxation should be re-optimised by dual pivots alone, in about a dozen
// of them (the primal phase 1 + phase 2 this replaced took 22.7 per node).
// Three control periods of rising demand go through one allocator, as the
// controller drives it, and each tree starts from the local search's plan
// (treeSolve) — at 550 QPS, which the local search does not pack, from the
// DP's optimum; the counts are deterministic, so the thresholds cannot
// flake.
func TestChildRelaxationsTakeDualPath(t *testing.T) {
	m := NewMILP(nil)
	for _, totalQPS := range []float64{250, 400, 550} {
		in := defaultClusterInput(totalQPS)
		st, fromDP := treeSolve(t, m, in, milp.Options{StallNodes: 400, RelGap: 1e-6})
		if st == nil {
			t.Fatalf("%v QPS: no plan serves the demand", totalQPS)
		}
		if _, err := m.Allocate(in); err != nil {
			t.Fatalf("%v QPS: %v", totalQPS, err)
		}
		if st.Nodes < 100 {
			t.Fatalf("%v QPS: only %d nodes — the model no longer makes the search branch", totalQPS, st.Nodes)
		}
		children := st.Nodes - 1
		if st.DualNodes*100 < children*95 {
			t.Errorf("%v QPS: %d of %d non-root relaxations were solved by dual pivots alone, want ≥ 95 %%", totalQPS, st.DualNodes, children)
		}
		if perNode := float64(st.LPIters) / float64(st.Nodes); perNode > 15 {
			t.Errorf("%v QPS: %.1f simplex pivots per node (%d over %d nodes), want ≤ 15", totalQPS, perNode, st.LPIters, st.Nodes)
		}
		t.Logf("%v QPS: %d nodes, %d pivots (%.1f per node), %d dual-only relaxations, from the DP's optimum: %v", totalQPS, st.Nodes, st.LPIters, float64(st.LPIters)/float64(st.Nodes), st.DualNodes, fromDP)
	}
}

// defaultClusterInput is the default model — 20 devices, the whole zoo, 2×
// SLOs — under a Zipf-like family mix: family q gets a share ∝ 1/(q+1) of
// totalQPS.
func defaultClusterInput(totalQPS float64) *Input {
	fams := models.Zoo()
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	norm := 0.0
	for q := range fams {
		norm += 1 / float64(q+1)
	}
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
		demand[q] = totalQPS / float64(q+1) / norm
	}
	return &Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand}
}
