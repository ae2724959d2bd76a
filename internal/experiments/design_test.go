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

func TestCompareFormulations(t *testing.T) {
	cmp, err := CompareFormulations([]int{8}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 1 {
		t.Fatalf("%d comparisons", len(cmp))
	}
	c := cmp[0]
	if c.AggregatedAccuracy <= 0 {
		t.Fatal("aggregated solve produced no plan")
	}
	if c.PerDeviceAccuracy > 0 {
		// Both exact formulations must agree on the optimum within the
		// combined gap tolerances.
		diff := c.AggregatedAccuracy - c.PerDeviceAccuracy
		if diff < 0 {
			diff = -diff
		}
		if diff > 2.5 {
			t.Fatalf("formulations disagree: aggregated %.2f vs per-device %.2f",
				c.AggregatedAccuracy, c.PerDeviceAccuracy)
		}
	}
}
