package core

import (
	"math"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/trace"
)

func smallFamilies(t *testing.T) []models.Family {
	t.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	if len(fams) != 2 {
		t.Fatal("families missing")
	}
	return fams
}

func smallConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Cluster:   cluster.ScaledTestbed(8),
		Families:  smallFamilies(t),
		Allocator: allocator.NewMILP(nil),
		Seed:      42,
	}
}

func flatTrace(t *testing.T, fams []models.Family, total float64, seconds int) *trace.Trace {
	t.Helper()
	per := make([]float64, len(fams))
	for i := range per {
		per[i] = total / float64(len(fams))
	}
	return trace.NewFlat(models.FamilyNames(fams), per, seconds)
}

func TestRunLowLoadServesEverythingAccurately(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 20, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Queries == 0 {
		t.Fatal("no queries simulated")
	}
	// The SLO = 2x batch-1 latency regime is knife-edge by construction
	// (§6.6 shows ~100% violations at 1x), so a small residual is expected
	// even at trivial load.
	if res.Summary.ViolationRatio > 0.03 {
		t.Fatalf("violation ratio %v at trivial load", res.Summary.ViolationRatio)
	}
	// At trivial load the system should serve with (near-)max accuracy.
	if res.Summary.EffectiveAccuracy < 99 {
		t.Fatalf("effective accuracy %v at trivial load", res.Summary.EffectiveAccuracy)
	}
}

func TestRunAccuracyScalesDownUnderLoad(t *testing.T) {
	cfg := smallConfig(t)
	lowSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := lowSys.Run(flatTrace(t, cfg.Families, 20, 120))
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig(t)
	highSys, err := NewSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	high, err := highSys.Run(flatTrace(t, cfg.Families, 500, 120))
	if err != nil {
		t.Fatal(err)
	}
	if !(high.Summary.EffectiveAccuracy < low.Summary.EffectiveAccuracy) {
		t.Fatalf("accuracy did not scale down: low %.2f, high %.2f",
			low.Summary.EffectiveAccuracy, high.Summary.EffectiveAccuracy)
	}
	if high.Summary.AvgThroughput < 10*low.Summary.AvgThroughput {
		t.Fatalf("throughput did not scale: low %.1f, high %.1f",
			low.Summary.AvgThroughput, high.Summary.AvgThroughput)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() *Result {
		cfg := smallConfig(t)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(flatTrace(t, cfg.Families, 100, 60))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Summary.Queries != b.Summary.Queries ||
		a.Summary.Served != b.Summary.Served ||
		a.Summary.Dropped != b.Summary.Dropped ||
		math.Abs(a.Summary.EffectiveAccuracy-b.Summary.EffectiveAccuracy) > 1e-9 {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Summary, b.Summary)
	}
}

func TestRunSeedChangesArrivals(t *testing.T) {
	cfg := smallConfig(t)
	sys1, _ := NewSystem(cfg)
	res1, err := sys1.Run(flatTrace(t, cfg.Families, 100, 60))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	sys2, _ := NewSystem(cfg)
	res2, err := sys2.Run(flatTrace(t, cfg.Families, 100, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Summary.Queries == res2.Summary.Queries && res1.Summary.Served == res2.Summary.Served {
		t.Log("different seeds produced identical counts (unlikely but possible)")
	}
}

func TestConservationOfQueries(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 300, 90))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Served+s.Late+s.Dropped != s.Queries {
		t.Fatalf("conservation violated: %d + %d + %d != %d", s.Served, s.Late, s.Dropped, s.Queries)
	}
}

func TestStaticAllocatorNeverReallocates(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Allocator = allocator.NewClipperHT(nil)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 100, 120))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 1 {
		t.Fatalf("static allocator re-planned: %d plans", len(res.Plans))
	}
}

func TestDynamicAllocatorReallocatesOnDemandChange(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fams := models.FamilyNames(cfg.Families)
	tr := trace.NewMacroBurst(trace.MacroBurstConfig{
		Seconds: 180, LowQPS: 30, HighQPS: 400, PeriodSeconds: 60, Families: fams,
	})
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) < 3 {
		t.Fatalf("expected re-allocations across the burst, got %d plans", len(res.Plans))
	}
	burst := false
	for _, p := range res.Plans {
		if p.Trigger == "burst" {
			burst = true
		}
	}
	if !burst {
		t.Fatal("no burst-triggered re-allocation despite a 13x demand jump")
	}
}

func TestStableDemandSkipsReallocation(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 100, 300))
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly flat Poisson demand: after the initial plan and at most a
	// couple of settling re-plans, the stability check must hold the plan.
	if len(res.Plans) > 4 {
		t.Fatalf("%d plans on flat demand; churn damping broken", len(res.Plans))
	}
}

func TestModelLoadDelayCausesLoadEvents(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fams := models.FamilyNames(cfg.Families)
	tr := trace.NewMacroBurst(trace.MacroBurstConfig{
		Seconds: 120, LowQPS: 30, HighQPS: 500, PeriodSeconds: 60, Families: fams,
	})
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The burst forces accuracy scaling, i.e. at least one variant load
	// beyond the initial ones.
	if res.ModelLoads == 0 {
		t.Fatal("no model loads recorded")
	}
}

func TestBatchingFactorySelectsPolicy(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Batching = func() batching.Policy { return batching.NewStatic(1) }
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 50, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Served == 0 {
		t.Fatal("static batching served nothing")
	}
}

func TestPerFamilyMetricsCoverAllFamilies(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(flatTrace(t, cfg.Families, 100, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFamily) != len(cfg.Families) {
		t.Fatalf("per-family summaries %d", len(res.PerFamily))
	}
	total := 0
	for _, s := range res.PerFamily {
		total += s.Queries
	}
	if total != res.Summary.Queries {
		t.Fatalf("per-family queries %d != total %d", total, res.Summary.Queries)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := smallConfig(t)
	cfg.Cluster = nil
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("nil cluster accepted")
	}
	cfg = smallConfig(t)
	cfg.Allocator = nil
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("nil allocator accepted")
	}
}

func TestTraceFamilyMismatchRejected(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewFlat([]string{"only-one"}, []float64{10}, 10)
	if _, err := sys.Run(tr); err == nil {
		t.Fatal("family count mismatch accepted")
	}
}

func TestProteusBeatsStaticOnBursts(t *testing.T) {
	// The headline claim, miniature: on a bursty trace Proteus (accuracy
	// scaling) must beat Clipper-HA (static most-accurate) on violations.
	fams := smallFamilies(t)
	names := models.FamilyNames(fams)
	tr := trace.NewMacroBurst(trace.MacroBurstConfig{
		Seconds: 240, LowQPS: 50, HighQPS: 600, PeriodSeconds: 60, Families: names,
	})
	run := func(a allocator.Allocator) *Result {
		cfg := Config{Cluster: cluster.ScaledTestbed(8), Families: fams, Allocator: a, Seed: 7}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	proteus := run(allocator.NewMILP(nil))
	clipperHA := run(allocator.NewClipperHA(nil))
	if proteus.Summary.ViolationRatio >= clipperHA.Summary.ViolationRatio {
		t.Fatalf("Proteus violations %.4f not better than Clipper-HA %.4f",
			proteus.Summary.ViolationRatio, clipperHA.Summary.ViolationRatio)
	}
	if proteus.Summary.AvgThroughput <= clipperHA.Summary.AvgThroughput {
		t.Fatalf("Proteus throughput %.1f not better than Clipper-HA %.1f",
			proteus.Summary.AvgThroughput, clipperHA.Summary.AvgThroughput)
	}
}

func TestElasticProvisioningAbsorbsOverload(t *testing.T) {
	// A sustained overload on a tiny cluster: without elasticity the system
	// sheds; with it, servers arrive after the provisioning delay and both
	// throughput and accuracy recover (§7, hardware scaling in tandem).
	fams := smallFamilies(t)
	tr := flatTrace(t, fams, 900, 240) // far beyond a 4-device cluster
	run := func(elastic *ElasticConfig) *Result {
		cfg := Config{
			Cluster:   cluster.ScaledTestbed(4),
			Families:  fams,
			Allocator: allocator.NewMILP(nil),
			Elastic:   elastic,
			Seed:      5,
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := run(nil)
	elastic := run(&ElasticConfig{MaxExtra: 3, ProvisionDelay: 45 * time.Second})
	if elastic.ExtraDevices == 0 {
		t.Fatal("no servers provisioned despite sustained overload")
	}
	if fixed.ExtraDevices != 0 {
		t.Fatal("fixed cluster provisioned servers")
	}
	if elastic.Summary.AvgThroughput <= fixed.Summary.AvgThroughput {
		t.Fatalf("elasticity did not add throughput: %.1f vs %.1f",
			elastic.Summary.AvgThroughput, fixed.Summary.AvgThroughput)
	}
	if elastic.Summary.ViolationRatio >= fixed.Summary.ViolationRatio {
		t.Fatalf("elasticity did not cut violations: %.4f vs %.4f",
			elastic.Summary.ViolationRatio, fixed.Summary.ViolationRatio)
	}
}

func TestElasticRespectsMaxExtra(t *testing.T) {
	fams := smallFamilies(t)
	tr := flatTrace(t, fams, 2000, 200)
	cfg := Config{
		Cluster:   cluster.ScaledTestbed(4),
		Families:  fams,
		Allocator: allocator.NewMILP(nil),
		Elastic:   &ElasticConfig{MaxExtra: 2, ProvisionDelay: 20 * time.Second},
		Seed:      5,
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraDevices > 2 {
		t.Fatalf("provisioned %d devices, cap was 2", res.ExtraDevices)
	}
}

func TestRunArrivalsRejectsBadInitialDemand(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunArrivals(nil, time.Second, []float64{1}); err == nil {
		t.Fatal("mismatched initial demand accepted")
	}
}

func TestRunArrivalsExplicitSequence(t *testing.T) {
	cfg := smallConfig(t)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arr []trace.Arrival
	for i := 0; i < 200; i++ {
		arr = append(arr, trace.Arrival{Time: time.Duration(i) * 50 * time.Millisecond, Family: i % 2})
	}
	res, err := sys.RunArrivals(arr, 10*time.Second, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Queries != 200 {
		t.Fatalf("queries %d", res.Summary.Queries)
	}
	if res.Summary.Served == 0 {
		t.Fatal("nothing served")
	}
}
