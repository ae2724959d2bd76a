package allocator

import (
	"math"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
)

// testInput builds a small allocation problem: 2 CPU + 1 GTX 1080 Ti +
// 1 V100, serving EfficientNet and MobileNet with 2x SLOs.
func testInput(t *testing.T, demand []float64) *Input {
	t.Helper()
	c := cluster.New([]cluster.TypeCount{
		{Type: cluster.CPU, Count: 2},
		{Type: cluster.GTX1080Ti, Count: 1},
		{Type: cluster.V100, Count: 1},
	})
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	if len(fams) != 2 {
		t.Fatal("fixture families missing")
	}
	slos := make([]time.Duration, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
	}
	return &Input{Cluster: c, Families: fams, SLOs: slos, Demand: demand}
}

func clusterCapacityHA(in *Input) float64 {
	// Upper bound on demand servable with most accurate variants: sum of
	// per-device best peaks.
	total := 0.0
	for _, d := range in.Cluster.Devices() {
		best := 0.0
		for _, ref := range in.Variants() {
			if p := in.Peak(d, ref); p > best {
				best = p
			}
		}
		total += best
	}
	return total
}

func TestMILPLowDemandPicksAccurateVariants(t *testing.T) {
	in := testInput(t, []float64{2, 2})
	a := NewMILP(nil)
	alloc, err := a.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Check(in); err != nil {
		t.Fatal(err)
	}
	if alloc.DemandScale != 1 {
		t.Fatalf("demand scale %v, want 1 at low demand", alloc.DemandScale)
	}
	if !alloc.Optimal {
		t.Fatal("small MILP must solve to optimality")
	}
	// At trivial demand the optimum serves everything with 100-accuracy
	// variants.
	if alloc.PredictedAccuracy < 99.9 {
		t.Fatalf("predicted accuracy %v, want ~100 at low demand", alloc.PredictedAccuracy)
	}
}

func TestMILPRoutingServesFullDemand(t *testing.T) {
	in := testInput(t, []float64{50, 30})
	alloc, err := NewMILP(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Check(in); err != nil {
		t.Fatal(err)
	}
	for q := range in.Families {
		sum := 0.0
		for _, y := range alloc.Routing[q] {
			sum += y
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("family %d routing sums to %v, want 1", q, sum)
		}
	}
}

func TestMILPAccuracyDegradesWithDemand(t *testing.T) {
	a := NewMILP(nil)
	var accs []float64
	for _, demand := range []float64{5, 100, 400} {
		in := testInput(t, []float64{demand, demand / 4})
		alloc, err := a.Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, alloc.PredictedAccuracy)
	}
	if !(accs[0] >= accs[1] && accs[1] >= accs[2]) {
		t.Fatalf("accuracy not non-increasing with demand: %v", accs)
	}
	if accs[2] >= accs[0] {
		t.Fatalf("accuracy scaling never engaged: %v", accs)
	}
}

func TestMILPBacksOffWhenOverloaded(t *testing.T) {
	in := testInput(t, []float64{100000, 100000})
	alloc, err := NewMILP(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.DemandScale >= 1 {
		t.Fatalf("demand scale %v, want < 1 under overload", alloc.DemandScale)
	}
	if err := alloc.Check(in); err != nil {
		t.Fatal(err)
	}
	// Served QPS should be close to the achievable capacity, not tiny.
	served := alloc.ServedQPS[0] + alloc.ServedQPS[1]
	if served < 100 {
		t.Fatalf("served %v QPS under overload, suspiciously low", served)
	}
}

func TestMILPPerDeviceMatchesAggregated(t *testing.T) {
	demand := []float64{40, 20}
	inA := testInput(t, demand)
	inB := testInput(t, demand)
	aggAlloc, err := NewMILP(nil).Allocate(inA)
	if err != nil {
		t.Fatal(err)
	}
	pdAlloc, err := NewMILP(&MILPOptions{PerDevice: true}).Allocate(inB)
	if err != nil {
		t.Fatal(err)
	}
	if err := pdAlloc.Check(inB); err != nil {
		t.Fatal(err)
	}
	// The two exact formulations must agree on the optimal objective.
	if math.Abs(aggAlloc.PredictedAccuracy-pdAlloc.PredictedAccuracy) > 0.01 {
		t.Fatalf("aggregated %.4f vs per-device %.4f predicted accuracy",
			aggAlloc.PredictedAccuracy, pdAlloc.PredictedAccuracy)
	}
}

func TestMILPIdleSystemStillHostsModels(t *testing.T) {
	in := testInput(t, []float64{0, 0})
	alloc, err := NewMILP(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for _, h := range alloc.Hosted {
		if h != nil {
			hosted++
		}
	}
	if hosted == 0 {
		t.Fatal("idle system hosts nothing; demand floor not applied")
	}
}

func TestMILPStickyPlacementAcrossCalls(t *testing.T) {
	a := NewMILP(nil)
	in := testInput(t, []float64{20, 10})
	first, err := a.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for d := range first.Hosted {
		if first.HostedID(d) != second.HostedID(d) {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d devices changed hosting with unchanged demand", moved)
	}
}

func TestMILPFilterRestrictsVariants(t *testing.T) {
	opts := &MILPOptions{Filter: func(ref VariantRef, in *Input) bool {
		return ref.Variant.Name == "b0" || ref.Variant.Name == "0.25"
	}}
	in := testInput(t, []float64{10, 10})
	alloc, err := NewMILP(opts).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range alloc.Hosted {
		if h == nil {
			continue
		}
		if h.Variant.Name != "b0" && h.Variant.Name != "0.25" {
			t.Fatalf("filter violated: hosted %s", h.Variant.ID())
		}
	}
}

func TestInfaasProducesValidAllocation(t *testing.T) {
	in := testInput(t, []float64{50, 25})
	alloc, err := NewInfaasAccuracy().Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Check(in); err != nil {
		t.Fatal(err)
	}
	if alloc.PredictedAccuracy <= 0 {
		t.Fatalf("predicted accuracy %v", alloc.PredictedAccuracy)
	}
}

func TestInfaasNeverBeatsMILP(t *testing.T) {
	// The MILP is optimal; the greedy heuristic can at best match it.
	for _, demand := range [][]float64{{10, 5}, {80, 40}, {300, 100}} {
		in := testInput(t, demand)
		opt, err := NewMILP(nil).Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := NewInfaasAccuracy().Allocate(in)
		if err != nil {
			t.Fatal(err)
		}
		// Compare at equal served volume only when both serve everything.
		grServed := gr.ServedQPS[0] + gr.ServedQPS[1]
		optServed := opt.ServedQPS[0] + opt.ServedQPS[1]
		if grServed >= optServed-1e-6 && gr.PredictedAccuracy > opt.PredictedAccuracy+0.05 {
			t.Fatalf("demand %v: greedy accuracy %.3f beats optimal %.3f at served %.1f>=%.1f",
				demand, gr.PredictedAccuracy, opt.PredictedAccuracy, grServed, optServed)
		}
	}
}

func TestInfaasUsesLeftoverDevicesForAccuracy(t *testing.T) {
	// With tiny demand, all devices should still be put to work hosting
	// accurate variants.
	in := testInput(t, []float64{1, 1})
	alloc, err := NewInfaasAccuracy().Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for _, h := range alloc.Hosted {
		if h != nil {
			hosted++
		}
	}
	if hosted < in.Cluster.Size() {
		t.Fatalf("only %d/%d devices hosted", hosted, in.Cluster.Size())
	}
}

func TestSommelierFreezesPlacement(t *testing.T) {
	s := NewSommelier(nil)
	in := testInput(t, []float64{20, 10})
	first, err := s.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	famOf := func(a *Allocation, d int) int {
		if a.Hosted[d] == nil {
			return -1
		}
		return a.Hosted[d].Family
	}
	// Second call with much higher demand: variants may change, families
	// must not.
	in2 := testInput(t, []float64{400, 100})
	second, err := s.Allocate(in2)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Check(in2); err != nil {
		t.Fatal(err)
	}
	for d := range first.Hosted {
		f1, f2 := famOf(first, d), famOf(second, d)
		if f2 != -1 && f1 != f2 {
			t.Fatalf("device %d switched family %d -> %d", d, f1, f2)
		}
	}
}

func TestSommelierDowngradesUnderLoad(t *testing.T) {
	s := NewSommelier(nil)
	low := testInput(t, []float64{5, 2})
	first, err := s.Allocate(low)
	if err != nil {
		t.Fatal(err)
	}
	high := testInput(t, []float64{400, 100})
	second, err := s.Allocate(high)
	if err != nil {
		t.Fatal(err)
	}
	if second.EffectiveAccuracy(high) >= first.EffectiveAccuracy(low) {
		t.Fatalf("no accuracy scaling: %.2f -> %.2f",
			first.EffectiveAccuracy(low), second.EffectiveAccuracy(high))
	}
}

func TestClipperHTUsesLeastAccurate(t *testing.T) {
	in := testInput(t, []float64{20, 10})
	alloc, err := NewClipperHT(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range alloc.Hosted {
		if h == nil {
			continue
		}
		f := in.Families[h.Family]
		// The hosted variant must be the least accurate feasible one.
		for _, v := range f.Variants {
			if v.Accuracy < h.Variant.Accuracy &&
				feasibleSomewhere(in, VariantRef{Family: h.Family, Variant: v}) {
				t.Fatalf("clipper-ht hosted %s though %s is less accurate and feasible",
					h.Variant.ID(), v.ID())
			}
		}
	}
}

func TestClipperHAUsesMostAccurate(t *testing.T) {
	in := testInput(t, []float64{2, 2})
	alloc, err := NewClipperHA(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range alloc.Hosted {
		if h == nil {
			continue
		}
		f := in.Families[h.Family]
		for _, v := range f.Variants {
			if v.Accuracy > h.Variant.Accuracy &&
				feasibleSomewhere(in, VariantRef{Family: h.Family, Variant: v}) {
				t.Fatalf("clipper-ha hosted %s though %s is more accurate and feasible",
					h.Variant.ID(), v.ID())
			}
		}
	}
}

func TestClipperIsStatic(t *testing.T) {
	c := NewClipperHT(nil)
	if c.Dynamic() {
		t.Fatal("clipper must be static")
	}
	in := testInput(t, []float64{20, 10})
	first, err := c.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := testInput(t, []float64{500, 200})
	second, err := c.Allocate(in2)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("clipper re-allocated")
	}
}

func TestWithoutSelectionKeepsFullAccuracy(t *testing.T) {
	in := testInput(t, []float64{10, 5})
	alloc, err := NewWithoutSelection(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	// Every hosted variant is the most accurate feasible one; with our zoo
	// those are the accuracy-100 variants for these families.
	for _, h := range alloc.Hosted {
		if h == nil {
			continue
		}
		if h.Variant.Accuracy < 99.9 {
			t.Fatalf("w/o-MS hosted %s (accuracy %v)", h.Variant.ID(), h.Variant.Accuracy)
		}
	}
}

func TestWithoutAssignmentUniformRouting(t *testing.T) {
	in := testInput(t, []float64{50, 25})
	alloc, err := NewWithoutAssignment(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for q := range in.Families {
		var weights []float64
		for d, y := range alloc.Routing[q] {
			if alloc.Hosted[d] != nil && alloc.Hosted[d].Family == q {
				weights = append(weights, y)
			} else if y != 0 {
				t.Fatalf("family %d routed to non-hosting device %d", q, d)
			}
		}
		for _, w := range weights[1:] {
			if math.Abs(w-weights[0]) > 1e-9 {
				t.Fatalf("family %d routing not uniform: %v", q, weights)
			}
		}
	}
}

func TestByNameAllocators(t *testing.T) {
	names := []string{"ilp", "infaas_v2", "sommelier", "clipper-ht", "clipper-ha",
		"proteus-wo-ms", "proteus-wo-mp", "proteus-wo-qa"}
	for _, n := range names {
		a, err := ByName(n, nil)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if a.Name() != n {
			t.Fatalf("name %q, want %q", a.Name(), n)
		}
	}
	for _, n := range []string{"bogus", "ilp-fair"} {
		if _, err := ByName(n, nil); err == nil {
			t.Fatalf("%s: expected error", n)
		}
	}
}

// TestFilteredWrappersDefaultOnce holds the allocators that wrap a filtered
// MILP to the caller's "disabled" and "exact" settings: a negative
// SwitchCost, RelGap or StallNodes reaches the inner MILP as 0, not as the
// default a second defaulting pass would restore.
func TestFilteredWrappersDefaultOnce(t *testing.T) {
	opts := &MILPOptions{SwitchCost: -1, RelGap: -1, StallNodes: -1}
	for name, inner := range map[string]*MILP{
		"clipper-ht":    NewClipperHT(opts).inner,
		"clipper-ha":    NewClipperHA(opts).inner,
		"proteus-wo-ms": NewWithoutSelection(opts).inner,
	} {
		o := inner.opts
		if o.SwitchCost != 0 || o.RelGap != 0 || o.StallNodes != 0 {
			t.Errorf("%s: SwitchCost %v, RelGap %v, StallNodes %d; want all 0",
				name, o.SwitchCost, o.RelGap, o.StallNodes)
		}
		if o.Filter == nil {
			t.Errorf("%s: filter lost", name)
		}
	}
	if opts.Filter != nil {
		t.Error("the wrappers wrote their filter into the caller's options")
	}
}

func TestTable2FeatureMatrix(t *testing.T) {
	// Table 2 of the paper.
	ht, _ := ByName("clipper-ht", nil)
	som, _ := ByName("sommelier", nil)
	inf, _ := ByName("infaas_v2", nil)
	pro, _ := ByName("ilp", nil)
	if f := ht.Features(); f.Method != "Static" || f.AccuracyScaling {
		t.Fatalf("clipper features %+v", f)
	}
	if f := som.Features(); f.DynamicPlacement || !f.DynamicSelection {
		t.Fatalf("sommelier features %+v", f)
	}
	if f := inf.Features(); !f.DynamicPlacement || f.Method != "Heuristic" {
		t.Fatalf("infaas features %+v", f)
	}
	if f := pro.Features(); !f.DynamicPlacement || !f.DynamicSelection || !f.AccuracyScaling || f.Method != "MILP" {
		t.Fatalf("proteus features %+v", f)
	}
}

func TestInputValidate(t *testing.T) {
	in := testInput(t, []float64{1, 1})
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testInput(t, []float64{1, 1})
	bad.Demand = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected length mismatch error")
	}
	bad2 := testInput(t, []float64{-1, 1})
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected negative demand error")
	}
	bad3 := testInput(t, []float64{1, 1})
	bad3.SLOs[0] = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected bad SLO error")
	}
}

func TestAllocationCheckCatchesBadRouting(t *testing.T) {
	in := testInput(t, []float64{10, 10})
	alloc := NewAllocation(in)
	alloc.Routing[0][0] = 0.5 // routes to an idle device
	if err := alloc.Check(in); err == nil {
		t.Fatal("Check missed routing to idle device")
	}
}

func TestHostedIDOnRoutedDevices(t *testing.T) {
	in := testInput(t, []float64{10, 10})
	alloc, err := NewMILP(nil).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	for q := range in.Families {
		for d, y := range alloc.Routing[q] {
			if y > 1e-12 && alloc.HostedID(d) == "" {
				t.Fatal("serving device reports empty hosting")
			}
		}
	}
}

func TestCapacitySanity(t *testing.T) {
	in := testInput(t, []float64{1, 1})
	if clusterCapacityHA(in) <= 0 {
		t.Fatal("fixture has no capacity")
	}
}
