package router

import (
	"math"
	"slices"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/numeric"
)

func alloc2x3() *allocator.Allocation {
	// 2 families, 3 devices.
	return &allocator.Allocation{
		Hosted: make([]*allocator.VariantRef, 3),
		Routing: [][]float64{
			{0.6, 0.4, 0},
			{0, 0, 0.5}, // sheds half of family 1's load
		},
	}
}

func TestBuildTableNormalizes(t *testing.T) {
	tab := BuildTable(alloc2x3(), 2)
	if got := tab.Devices(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("family 0 devices %v", got)
	}
	// Family 1 routes everything to device 2 despite the 0.5 row sum.
	if got := tab.Devices(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("family 1 devices %v", got)
	}
	if tab.Entries() != 3 {
		t.Fatalf("entries %d", tab.Entries())
	}
}

func TestPickDistribution(t *testing.T) {
	tab := BuildTable(alloc2x3(), 2)
	rng := numeric.NewRNG(5)
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[tab.Pick(0, rng)]++
	}
	if got := float64(counts[0]) / n; math.Abs(got-0.6) > 0.01 {
		t.Fatalf("device 0 share %v, want ~0.6", got)
	}
	if counts[2] != 0 {
		t.Fatal("family 0 routed to device 2")
	}
	// Family 1's plan row sums to 0.5: admission control sheds ~half and
	// routes the admitted half to device 2.
	shed, routed := 0, 0
	for i := 0; i < 100000; i++ {
		switch d := tab.Pick(1, rng); d {
		case -1:
			shed++
		case 2:
			routed++
		default:
			t.Fatalf("family 1 routed to %d", d)
		}
	}
	if frac := float64(routed) / 100000; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("admitted fraction %v, want ~0.5", frac)
	}
}

func TestAdmissionOverride(t *testing.T) {
	tab := BuildTable(alloc2x3(), 2)
	if tab.admit[1] != 0.5 {
		t.Fatalf("admission %v, want 0.5", tab.admit[1])
	}
	tab.SetAdmission([]float64{1, 2}) // 2 clamps to 1
	if tab.admit[0] != 1 || tab.admit[1] != 1 {
		t.Fatalf("override failed: %v %v", tab.admit[0], tab.admit[1])
	}
	rng := numeric.NewRNG(9)
	for i := 0; i < 100; i++ {
		if d := tab.Pick(1, rng); d != 2 {
			t.Fatalf("family 1 with admission 1 routed to %d", d)
		}
	}
}

func TestPickExcludingRenormalizes(t *testing.T) {
	tab := BuildTable(alloc2x3(), 2)
	rng := numeric.NewRNG(11)
	// Banning device 0 sends all of family 0's traffic to device 1.
	for i := 0; i < 1000; i++ {
		if d := tab.PickExcluding(0, rng, func(d int) bool { return d == 0 }); d != 1 {
			t.Fatalf("pick with device 0 banned = %d, want 1", d)
		}
	}
	// Nil predicate matches Pick's distribution.
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[tab.PickExcluding(0, rng, nil)]++
	}
	if got := float64(counts[0]) / n; math.Abs(got-0.6) > 0.01 {
		t.Fatalf("device 0 share %v, want ~0.6", got)
	}
}

func TestPickExcludingAllBannedFallsBack(t *testing.T) {
	tab := BuildTable(alloc2x3(), 2)
	rng := numeric.NewRNG(13)
	// Every candidate banned: fall back to the full plan weights so the
	// deadline admission controller stays the backstop.
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[tab.PickExcluding(0, rng, func(int) bool { return true })]++
	}
	if counts[-1] != 0 || counts[0]+counts[1] != 1000 {
		t.Fatalf("all-banned fallback counts = %v", counts)
	}
}

func TestPickExcludingAdmission(t *testing.T) {
	tab := BuildTable(alloc2x3(), 2)
	rng := numeric.NewRNG(17)
	// Family 1's 0.5 admission fraction applies before the exclusion logic
	// and consumes exactly one rng draw, matching Pick.
	shed := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if tab.PickExcluding(1, rng, func(int) bool { return false }) == -1 {
			shed++
		}
	}
	if frac := float64(shed) / n; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("shed fraction %v, want ~0.5", frac)
	}
}

func TestPickNoRoute(t *testing.T) {
	a := alloc2x3()
	a.Routing[0] = []float64{0, 0, 0}
	tab := BuildTable(a, 2)
	rng := numeric.NewRNG(1)
	if d := tab.Pick(0, rng); d != -1 {
		t.Fatalf("expected -1, got %d", d)
	}
	if d := tab.Pick(9, rng); d != -1 {
		t.Fatalf("out-of-range family must return -1, got %d", d)
	}
}

// TestRefillMatchesBuildTable refills one table in place over random
// sequences of allocations — rows that empty out and fill again, families
// and devices that come and go — and holds it after every refill to a fresh
// BuildTable of the same allocation.
func TestRefillMatchesBuildTable(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := numeric.NewRNG(seed)
		tab := BuildTable(&allocator.Allocation{}, 0)
		for step := 0; step < 40; step++ {
			families, devices := 1+rng.Intn(6), 1+rng.Intn(8)
			a := &allocator.Allocation{Routing: make([][]float64, families)}
			for q := range a.Routing {
				a.Routing[q] = make([]float64, devices)
				if rng.Intn(3) == 0 {
					continue // no device serves q in this plan
				}
				for d := range a.Routing[q] {
					switch rng.Intn(4) {
					case 0:
						a.Routing[q][d] = rng.Float64()
					case 1:
						a.Routing[q][d] = -rng.Float64() // never routed to
					}
				}
			}
			tab.Refill(a, families)
			fresh := BuildTable(a, families)
			for q := 0; q < families; q++ {
				if !slices.Equal(tab.Devices(q), fresh.Devices(q)) ||
					!slices.Equal(tab.weights[q], fresh.weights[q]) ||
					tab.admit[q] != fresh.admit[q] {
					t.Fatalf("seed %d step %d family %d: refilled %v %v %v, fresh %v %v %v", seed, step, q,
						tab.Devices(q), tab.weights[q], tab.admit[q],
						fresh.Devices(q), fresh.weights[q], fresh.admit[q])
				}
			}
			if len(tab.devices) != families || len(tab.weights) != families || len(tab.admit) != families ||
				tab.Entries() != fresh.Entries() {
				t.Fatalf("seed %d step %d: refilled table has %d/%d/%d rows and %d entries, fresh %d rows and %d",
					seed, step, len(tab.devices), len(tab.weights), len(tab.admit), tab.Entries(), families, fresh.Entries())
			}
		}
	}
}

// TestRefillAllocatesNothingOnceSized refills a table with plans it has
// already held: the per-family slices are reused.
func TestRefillAllocatesNothingOnceSized(t *testing.T) {
	a, b := alloc2x3(), alloc2x3()
	b.Routing[0] = []float64{0, 0, 0}
	tab := BuildTable(a, 2)
	if n := testing.AllocsPerRun(100, func() {
		tab.Refill(b, 2)
		tab.Refill(a, 2)
	}); n != 0 {
		t.Fatalf("%v allocations per pair of refills", n)
	}
}

func TestMonitorRate(t *testing.T) {
	m := NewMonitor(10, 1.5)
	// 5 arrivals per second for 10 seconds.
	for s := 0; s < 10; s++ {
		for i := 0; i < 5; i++ {
			m.Observe(time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond)
		}
	}
	got := m.Rate(10 * time.Second)
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("rate %v, want 5", got)
	}
}

func TestMonitorRatePartialWindow(t *testing.T) {
	m := NewMonitor(30, 1.5)
	for i := 0; i < 20; i++ {
		m.Observe(time.Duration(i) * 100 * time.Millisecond) // 20 arrivals in [0,2s)
	}
	// At t=2s only 2 seconds have elapsed; rate must be 10, not 20/30.
	if got := m.Rate(2 * time.Second); math.Abs(got-10) > 1e-9 {
		t.Fatalf("rate %v, want 10", got)
	}
}

func TestMonitorExcludesCurrentSecond(t *testing.T) {
	m := NewMonitor(10, 1.5)
	m.Observe(500 * time.Millisecond)
	if got := m.Rate(900 * time.Millisecond); got != 0 {
		t.Fatalf("rate %v includes the partial current second", got)
	}
	if got := m.Rate(1100 * time.Millisecond); math.Abs(got-1) > 1e-9 {
		t.Fatalf("rate %v after the second closed", got)
	}
}

func TestMonitorBucketRecycling(t *testing.T) {
	m := NewMonitor(3, 1.5)
	m.Observe(0)
	// Much later, the old bucket must not leak into the estimate.
	m.Observe(100 * time.Second)
	if got := m.Rate(101 * time.Second); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Fatalf("rate %v, want 1/3", got)
	}
}

func TestMonitorBurst(t *testing.T) {
	m := NewMonitor(30, 1.5)
	m.SetPlanned(10)
	if m.planned != 10 {
		t.Fatal("planned not stored")
	}
	for i := 0; i < 12; i++ {
		m.Observe(time.Duration(i) * 80 * time.Millisecond) // 12 in second 0
	}
	if m.Burst(time.Second + time.Millisecond) {
		t.Fatal("12 QPS vs planned 10 must not trip a 1.5x burst detector")
	}
	for i := 0; i < 20; i++ {
		m.Observe(time.Second + time.Duration(i)*40*time.Millisecond) // 20 in second 1
	}
	if !m.Burst(2*time.Second + time.Millisecond) {
		t.Fatal("20 QPS vs planned 10 must trip the burst detector")
	}
}

func TestMonitorBurstWithoutPlan(t *testing.T) {
	m := NewMonitor(10, 1.5)
	for i := 0; i < 100; i++ {
		m.Observe(time.Duration(i) * time.Millisecond)
	}
	if m.Burst(2 * time.Second) {
		t.Fatal("burst without a plan baseline")
	}
}

func TestMonitorDefaults(t *testing.T) {
	m := NewMonitor(0, 0)
	if m.WindowSeconds != 1 || m.BurstFactor != 1.5 {
		t.Fatalf("defaults: %d %v", m.WindowSeconds, m.BurstFactor)
	}
}
