package experiments

import (
	"testing"
	"time"
)

func TestDesignAblations(t *testing.T) {
	o := quick()
	o.TraceSeconds = 90
	rows, err := DesignAblations(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(name string) DesignAblationRow {
		for _, r := range rows {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return DesignAblationRow{}
	}
	def := get("default")
	noSwitch := get("no-switch-cost")
	if def.ViolationRatio <= 0 && def.AvgThroughput <= 0 {
		t.Fatal("default run empty")
	}
	// Without the switch-cost term the plan churns more (or at worst the
	// same, if demand happened to be stable).
	if noSwitch.ModelLoads < def.ModelLoads {
		t.Logf("note: no-switch-cost loaded fewer models (%d < %d) on this trace",
			noSwitch.ModelLoads, def.ModelLoads)
	}
}

// TestCompareFormulations runs the formulations table on one size: both
// formulations plan. TestLiteralMatchesDP holds their optima equal.
func TestCompareFormulations(t *testing.T) {
	cmp, err := CompareFormulations([]int{8}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 1 {
		t.Fatalf("%d comparisons", len(cmp))
	}
	if c := cmp[0]; c.AggregatedAccuracy <= 0 || c.PerDeviceAccuracy <= 0 {
		t.Fatalf("aggregated accuracy %.2f, per-device %.2f; want both plans", c.AggregatedAccuracy, c.PerDeviceAccuracy)
	}
}
