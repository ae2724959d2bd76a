package controlplane

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
)

// TestPlanRecordOmitsWallTimes: a plan record's JSON leaves out the solve's
// wall times, which differ between two runs of one seed, and keeps the
// solver's work — bound, nodes and gap — which does not.
func TestPlanRecordOmitsWallTimes(t *testing.T) {
	r := PlanRecord{Seq: 3, SolveTime: 42 * time.Millisecond, Stats: allocator.SolverStats{
		Objective: 1.5, Bound: 1.6, RelGap: 0.05, Nodes: 17, SolverTime: 40 * time.Millisecond,
	}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	for _, key := range []string{`"solve_time_ns"`, `"solver_time_ns"`} {
		if strings.Contains(js, key) {
			t.Errorf("%s serialized: %s", key, js)
		}
	}
	for _, kv := range []string{`"bound":1.6`, `"nodes":17`, `"rel_gap":0.05`} {
		if !strings.Contains(js, kv) {
			t.Errorf("%s missing: %s", kv, js)
		}
	}
}
