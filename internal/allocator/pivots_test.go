package allocator

import (
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
)

// TestChildRelaxationsTakeDualPath checks that the solver's fast path is the
// one in use on the default model (20 devices, the whole zoo, 2× SLOs): a
// branch-and-bound child inherits a basis that is dual feasible and primal
// infeasible in one row, so nearly every non-root relaxation should be
// re-optimised by dual pivots alone, in about a dozen of them (the primal
// phase 1 + phase 2 this replaced took 22.7 per node). Three control periods
// of rising demand go through one allocator, as the controller drives it;
// the counts are deterministic, so the thresholds cannot flake.
func TestChildRelaxationsTakeDualPath(t *testing.T) {
	m := NewMILP(&MILPOptions{StallNodes: 400})
	for _, totalQPS := range []float64{250, 400, 550} {
		plan, err := m.Allocate(defaultClusterInput(totalQPS))
		if err != nil {
			t.Fatalf("%v QPS: %v", totalQPS, err)
		}
		st := plan.Stats
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
		t.Logf("%v QPS: %d nodes, %d pivots (%.1f per node), %d dual-only relaxations", totalQPS, st.Nodes, st.LPIters, float64(st.LPIters)/float64(st.Nodes), st.DualNodes)
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
