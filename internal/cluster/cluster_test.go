package cluster

import "testing"

// countByType returns the number of devices of each built-in type.
func countByType(c *Cluster) map[DeviceType]int {
	out := map[DeviceType]int{}
	for _, d := range c.Devices() {
		out[d.Spec.Type]++
	}
	return out
}

func TestPaperTestbed(t *testing.T) {
	c := ScaledTestbed(40)
	if c.Size() != 40 {
		t.Fatalf("size %d, want 40", c.Size())
	}
	counts := countByType(c)
	if counts[CPU] != 20 || counts[GTX1080Ti] != 10 || counts[V100] != 10 {
		t.Fatalf("counts %v", counts)
	}
}

func TestDeviceIDsAreDense(t *testing.T) {
	c := ScaledTestbed(40)
	for i, d := range c.Devices() {
		if d.ID != i {
			t.Fatalf("device %d has ID %d", i, d.ID)
		}
	}
}

func TestDeviceAccessor(t *testing.T) {
	c := New([]TypeCount{{Type: V100, Count: 2}})
	d := c.Device(1)
	if d.Spec.Type != V100 || d.Name != "v100-1" {
		t.Fatalf("unexpected device %+v", d)
	}
}

func TestDevicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([]TypeCount{{Type: CPU, Count: 1}}).Device(5)
}

func TestSpecPanicsOnUnknownType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Spec(DeviceType("tpu"))
}

func TestScaledTestbedRatio(t *testing.T) {
	c := ScaledTestbed(16)
	counts := countByType(c)
	if counts[CPU] != 8 || counts[GTX1080Ti] != 4 || counts[V100] != 4 {
		t.Fatalf("counts %v", counts)
	}
	if ScaledTestbed(1).Size() != 4 {
		t.Fatal("minimum cluster must have 4 devices")
	}
}

func TestGroupByType(t *testing.T) {
	c := ScaledTestbed(40)
	groups := c.GroupByType()
	if len(groups) != 3 {
		t.Fatalf("groups %d, want 3", len(groups))
	}
	total := 0
	seen := map[int]bool{}
	for _, g := range groups {
		total += len(g.Devices)
		for _, id := range g.Devices {
			if seen[id] {
				t.Fatalf("device %d appears in two groups", id)
			}
			seen[id] = true
			if c.Device(id).Spec != g.Spec {
				t.Fatalf("device %d spec mismatch", id)
			}
		}
	}
	if total != 40 {
		t.Fatalf("grouped %d devices, want 40", total)
	}
}

func TestGroupByTypeDeterministic(t *testing.T) {
	a := ScaledTestbed(40).GroupByType()
	b := ScaledTestbed(40).GroupByType()
	for i := range a {
		if a[i].Spec.Type != b[i].Spec.Type {
			t.Fatal("group order not deterministic")
		}
	}
}

func TestCustomSpecOverride(t *testing.T) {
	custom := TypeSpec{Type: "fpga", MemoryMB: 1024, FixedOverheadMS: 1, EffGFLOPsPerMS: 0.5}
	c := New([]TypeCount{{Type: "fpga", Count: 2, Spec: custom}})
	if c.Device(0).Spec != custom {
		t.Fatalf("custom spec not applied: %+v", c.Device(0).Spec)
	}
	groups := c.GroupByType()
	if len(groups) != 1 || len(groups[0].Devices) != 2 {
		t.Fatalf("grouping of custom spec wrong: %+v", groups)
	}
}

func TestDeviceTypeOrderingOfSpeed(t *testing.T) {
	// Sanity of built-in specs: V100 > 1080Ti > CPU in effective compute.
	if !(Spec(V100).EffGFLOPsPerMS > Spec(GTX1080Ti).EffGFLOPsPerMS &&
		Spec(GTX1080Ti).EffGFLOPsPerMS > Spec(CPU).EffGFLOPsPerMS) {
		t.Fatal("device speed ordering broken")
	}
	if Spec(CPU).MemoryMB <= Spec(V100).MemoryMB {
		t.Fatal("CPU workers must have the largest memory (they host the giant NLP models)")
	}
}
