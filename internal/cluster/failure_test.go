package cluster

import (
	"testing"
	"time"
)

func TestSpecForUnknownType(t *testing.T) {
	if _, err := SpecFor(DeviceType("tpu")); err == nil {
		t.Fatal("expected error for unknown type")
	}
	spec, err := SpecFor(V100)
	if err != nil || spec.Type != V100 {
		t.Fatalf("SpecFor(V100) = %+v, %v", spec, err)
	}
}

func TestNewFromSpec(t *testing.T) {
	c, err := NewFromSpec([]TypeCount{{Type: CPU, Count: 2}, {Type: V100, Count: 1}})
	if err != nil || c.Size() != 3 {
		t.Fatalf("NewFromSpec: %v (size %d)", err, c.Size())
	}
	for _, bad := range [][]TypeCount{
		nil,
		{{Type: DeviceType("tpu"), Count: 2}},
		{{Type: CPU, Count: -1}},
		{{Type: CPU, Count: 0}},
	} {
		if _, err := NewFromSpec(bad); err == nil {
			t.Fatalf("NewFromSpec(%v) should error", bad)
		}
	}
}

func TestWithHealth(t *testing.T) {
	c := ScaledTestbed(8)
	if len(c.HealthyDevices()) != c.Size() {
		t.Fatal("fresh cluster must be fully healthy")
	}
	down := make([]bool, c.Size())
	down[0], down[3] = true, true
	h := c.WithHealth(down)
	if len(c.HealthyDevices()) != c.Size() {
		t.Fatal("WithHealth must not mutate the original")
	}
	if h.Healthy(0) || h.Healthy(3) || !h.Healthy(1) {
		t.Fatal("health mask not applied")
	}
	if got := len(h.HealthyDevices()); got != c.Size()-2 {
		t.Fatalf("HealthyDevices returned %d", got)
	}
	// IDs stay dense and stable: device 1 is still device 1.
	if h.Device(1).ID != 1 || h.Size() != c.Size() {
		t.Fatal("health must not renumber devices")
	}
	// Short mask: unspecified devices are healthy; nil clears.
	if h2 := c.WithHealth([]bool{true}); h2.Healthy(0) || !h2.Healthy(c.Size()-1) {
		t.Fatal("short mask semantics")
	}
	if h3 := h.WithHealth(nil); len(h3.HealthyDevices()) != c.Size() {
		t.Fatal("nil mask must clear failures")
	}
	// Out-of-range IDs are never healthy.
	if h.Healthy(-1) || h.Healthy(c.Size()) {
		t.Fatal("out-of-range IDs must be unhealthy")
	}
}

func TestGroupByTypeExcludesDown(t *testing.T) {
	c := ScaledTestbed(8) // 4 CPU, 2 GTX, 2 V100
	total := 0
	for _, g := range c.GroupByType() {
		total += len(g.Devices)
	}
	if total != c.Size() {
		t.Fatalf("healthy groups cover %d devices, want %d", total, c.Size())
	}
	down := make([]bool, c.Size())
	down[0] = true
	h := c.WithHealth(down)
	total = 0
	for _, g := range h.GroupByType() {
		for _, d := range g.Devices {
			if d == 0 {
				t.Fatal("down device still grouped")
			}
			total++
		}
	}
	if total != c.Size()-1 {
		t.Fatalf("groups cover %d devices, want %d", total, c.Size()-1)
	}
}

func TestWithExtraPreservesHealth(t *testing.T) {
	c := ScaledTestbed(8)
	down := make([]bool, c.Size())
	down[2] = true
	h := c.WithHealth(down).WithExtra(V100)
	if h.Healthy(2) {
		t.Fatal("WithExtra dropped the health mask")
	}
	if !h.Healthy(h.Size() - 1) {
		t.Fatal("new device must start healthy")
	}
}

func TestFailureScheduleValidate(t *testing.T) {
	var nilSched *FailureSchedule
	if err := nilSched.Validate(4); err != nil {
		t.Fatalf("nil schedule must validate: %v", err)
	}
	if !nilSched.Empty() {
		t.Fatal("nil schedule must be empty")
	}
	good := &FailureSchedule{Events: []FailureEvent{
		{Device: 0, FailAt: time.Second, RecoverAt: 3 * time.Second},
		{Device: 1, FailAt: time.Second}, // never recovers
	}}
	if err := good.Validate(2); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for _, bad := range []*FailureSchedule{
		{Events: []FailureEvent{{Device: 5, FailAt: time.Second}}},
		{Events: []FailureEvent{{Device: 0, FailAt: -time.Second}}},
		{Events: []FailureEvent{{Device: 0, FailAt: 2 * time.Second, RecoverAt: time.Second}}},
	} {
		if err := bad.Validate(2); err == nil {
			t.Fatalf("schedule %+v should be invalid", bad.Events)
		}
	}
}

func TestKillFraction(t *testing.T) {
	c := ScaledTestbed(8)
	s := KillFraction(c, 0.25, 10*time.Second, 20*time.Second)
	if len(s.Events) != 2 {
		t.Fatalf("25%% of 8 devices = 2 victims, got %d", len(s.Events))
	}
	if err := s.Validate(c.Size()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Events {
		if ev.FailAt != 10*time.Second || ev.RecoverAt != 20*time.Second {
			t.Fatalf("event times wrong: %+v", ev)
		}
	}
	// Deterministic: same inputs, same victims.
	s2 := KillFraction(c, 0.25, 10*time.Second, 20*time.Second)
	for i := range s.Events {
		if s.Events[i] != s2.Events[i] {
			t.Fatal("KillFraction is not deterministic")
		}
	}
	// Victims spread across type groups, not one pool.
	types := map[DeviceType]bool{}
	for _, ev := range s.Events {
		types[c.Device(ev.Device).Spec.Type] = true
	}
	if len(types) < 2 {
		t.Fatalf("victims all in one type group: %v", types)
	}
	if got := KillFraction(c, 0, 0, 0); !got.Empty() {
		t.Fatal("zero fraction must kill nothing")
	}
	if got := KillFraction(c, 0.01, 0, 0); len(got.Events) != 1 {
		t.Fatal("tiny positive fraction still kills one device")
	}
	if got := KillFraction(c, 2.0, 0, 0); len(got.Events) != c.Size() {
		t.Fatal("fraction above 1 kills everything")
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	c := ScaledTestbed(8)
	cfg := RandomScheduleConfig{
		MTBF:    5 * time.Minute,
		MTTR:    time.Minute,
		Horizon: time.Hour,
		Seed:    7,
	}
	s1, err := RandomSchedule(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Validate(c.Size()); err != nil {
		t.Fatal(err)
	}
	if len(s1.Events) == 0 {
		t.Fatal("an hour at 5min MTBF over 8 devices must fail something")
	}
	s2, _ := RandomSchedule(c, cfg)
	if len(s1.Events) != len(s2.Events) {
		t.Fatal("same seed must reproduce the schedule")
	}
	for i := range s1.Events {
		if s1.Events[i] != s2.Events[i] {
			t.Fatal("same seed must reproduce the schedule")
		}
	}
	cfg.Seed = 8
	s3, _ := RandomSchedule(c, cfg)
	same := len(s3.Events) == len(s1.Events)
	if same {
		for i := range s1.Events {
			if s1.Events[i] != s3.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
	if _, err := RandomSchedule(c, RandomScheduleConfig{MTTR: time.Second, Horizon: time.Hour}); err == nil {
		t.Fatal("missing MTBF must error")
	}
	if _, err := RandomSchedule(c, RandomScheduleConfig{MTBF: time.Second, MTTR: time.Second}); err == nil {
		t.Fatal("missing horizon must error")
	}
}
