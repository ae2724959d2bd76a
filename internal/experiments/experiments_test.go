package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/metrics"
	"proteus/internal/trace"
)

// quick returns a fast experiment configuration for tests. End-to-end
// orderings need at least a few control periods, so the trace cannot be
// arbitrarily short.
func quick() Options {
	return Options{
		ClusterSize:  20,
		TraceSeconds: 150,
		BaseQPS:      150,
		PeakQPS:      420,
		Seed:         7,
		SolverBudget: 440,
	}
}

func TestFig1aShape(t *testing.T) {
	rows := Fig1a()
	if len(rows) != 3*8 {
		t.Fatalf("%d rows, want 24 (3 devices x 8 variants)", len(rows))
	}
	// Within a device, lower accuracy means higher batch-1 throughput.
	byDevice := map[cluster.DeviceType][]Fig1aRow{}
	for _, r := range rows {
		byDevice[r.Device] = append(byDevice[r.Device], r)
	}
	for dev, rs := range byDevice {
		for i := 1; i < len(rs); i++ {
			if rs[i].Accuracy > rs[i-1].Accuracy && rs[i].QPS > rs[i-1].QPS {
				t.Errorf("%s: accuracy-throughput trade-off violated at %s", dev, rs[i].Variant)
			}
		}
	}
	// Headline calibration: V100 B0 around 55 QPS.
	for _, r := range rows {
		if r.Device == cluster.V100 && r.Variant == "b0" {
			if r.QPS < 45 || r.QPS > 65 {
				t.Errorf("V100 b0 at %.1f QPS, want ~55 (Fig. 1a)", r.QPS)
			}
		}
	}
}

func TestFig1bEnumeratesAllConfigs(t *testing.T) {
	points := Fig1b()
	if len(points) != 3125 {
		t.Fatalf("%d configurations, want 5^5 = 3125", len(points))
	}
	frontier := ParetoFrontier(points)
	if len(frontier) < 5 || len(frontier) > 300 {
		t.Fatalf("frontier size %d implausible", len(frontier))
	}
	// The frontier must be monotone: capacity up, accuracy down.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].CapacityQPS < frontier[i-1].CapacityQPS {
			t.Fatal("frontier not sorted by capacity")
		}
		if frontier[i].Accuracy > frontier[i-1].Accuracy+1e-9 {
			t.Fatal("frontier accuracy not non-increasing in capacity")
		}
	}
	// No frontier point may be dominated by any other point.
	for _, f := range frontier {
		for _, p := range points {
			if p.CapacityQPS > f.CapacityQPS+1e-9 && p.Accuracy > f.Accuracy+1e-9 {
				t.Fatal("dominated point marked as frontier")
			}
		}
	}
}

func TestFig4Orderings(t *testing.T) {
	results, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d systems", len(results))
	}
	get := func(name string) SystemResult {
		for _, r := range results {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("system %s missing", name)
		return SystemResult{}
	}
	ha, ht := get("clipper-ha"), get("clipper-ht")
	proteus := get("ilp")
	// The paper's headline orderings (§6.2).
	if ha.Summary.EffectiveAccuracy != 100 {
		t.Errorf("Clipper-HA accuracy %.2f, want 100", ha.Summary.EffectiveAccuracy)
	}
	if ha.Summary.MaxAccuracyDrop != 0 {
		t.Errorf("Clipper-HA max drop %.2f, want 0", ha.Summary.MaxAccuracyDrop)
	}
	if !(proteus.Summary.ViolationRatio < ht.Summary.ViolationRatio &&
		proteus.Summary.ViolationRatio < ha.Summary.ViolationRatio) {
		t.Errorf("Proteus violations %.4f not below Clipper (HT %.4f, HA %.4f)",
			proteus.Summary.ViolationRatio, ht.Summary.ViolationRatio, ha.Summary.ViolationRatio)
	}
	if proteus.Summary.AvgThroughput <= ha.Summary.AvgThroughput {
		t.Errorf("Proteus throughput %.1f not above Clipper-HA %.1f",
			proteus.Summary.AvgThroughput, ha.Summary.AvgThroughput)
	}
	for _, r := range results {
		if r.Name == "clipper-ha" || r.Name == "clipper-ht" {
			if r.Plans != 1 {
				t.Errorf("%s re-planned %d times; static baselines must not", r.Name, r.Plans)
			}
			continue
		}
		if r.Plans < 2 {
			t.Errorf("%s planned only %d times", r.Name, r.Plans)
		}
	}
	if ht.Summary.MaxAccuracyDrop <= proteus.Summary.MaxAccuracyDrop {
		t.Errorf("Clipper-HT max drop %.2f not above Proteus %.2f",
			ht.Summary.MaxAccuracyDrop, proteus.Summary.MaxAccuracyDrop)
	}
}

func TestFig5BurstResponse(t *testing.T) {
	o := quick()
	results, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	var proteus, ha SystemResult
	for _, r := range results {
		switch r.Name {
		case "ilp":
			proteus = r
		case "clipper-ha":
			ha = r
		}
	}
	if proteus.Summary.ViolationRatio >= ha.Summary.ViolationRatio {
		t.Fatalf("Proteus violations %.4f not below Clipper-HA %.4f on bursts",
			proteus.Summary.ViolationRatio, ha.Summary.ViolationRatio)
	}
	// Proteus must have re-allocated in response to the bursts.
	if proteus.Plans < 2 {
		t.Fatalf("Proteus planned %d times across bursts", proteus.Plans)
	}
}

func TestFig6BatchingOrdering(t *testing.T) {
	o := quick()
	points, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("%d cells, want 9", len(points))
	}
	cell := func(p trace.ArrivalProcess, b string) Fig6Point {
		for _, pt := range points {
			if pt.Process == p && pt.Batching == b {
				return pt
			}
		}
		t.Fatalf("cell %v/%s missing", p, b)
		return Fig6Point{}
	}
	// §6.4: all policies do fine on uniform arrivals; AccScale beats both
	// baselines on the bursty Gamma trace.
	for _, b := range Fig6BatchingNames {
		u := cell(trace.Uniform, b)
		if u.ViolationRatio > 0.15 {
			t.Errorf("%s on uniform arrivals: violation ratio %.4f too high", b, u.ViolationRatio)
		}
	}
	acc := cell(trace.GammaProcess, "accscale")
	nex := cell(trace.GammaProcess, "nexus")
	aimd := cell(trace.GammaProcess, "aimd")
	if acc.ViolationRatio >= nex.ViolationRatio {
		t.Errorf("gamma: accscale %.4f not below nexus %.4f", acc.ViolationRatio, nex.ViolationRatio)
	}
	if acc.ViolationRatio >= aimd.ViolationRatio {
		t.Errorf("gamma: accscale %.4f not below aimd %.4f", acc.ViolationRatio, aimd.ViolationRatio)
	}
}

func TestFig7AblationDirections(t *testing.T) {
	results, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	get := func(name string) SystemResult {
		for _, r := range results {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("ablation %s missing", name)
		return SystemResult{}
	}
	full := get("ilp")
	noMS := get("proteus-wo-ms")
	noAB := get("ilp+static")
	// w/o MS never scales accuracy: effective accuracy pinned at ~100 and
	// the largest violation hit (§6.5).
	if noMS.Summary.EffectiveAccuracy < 99 {
		t.Errorf("w/o-MS accuracy %.2f, want ~100", noMS.Summary.EffectiveAccuracy)
	}
	if noMS.Summary.ViolationRatio <= full.Summary.ViolationRatio {
		t.Errorf("w/o-MS violations %.4f not above full Proteus %.4f",
			noMS.Summary.ViolationRatio, full.Summary.ViolationRatio)
	}
	if noAB.Summary.ViolationRatio <= full.Summary.ViolationRatio {
		t.Errorf("w/o-AB violations %.4f not above full Proteus %.4f",
			noAB.Summary.ViolationRatio, full.Summary.ViolationRatio)
	}
}

func TestFig8SLOTrends(t *testing.T) {
	o := quick()
	o.TraceSeconds = 60
	points, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6*5 {
		t.Fatalf("%d points, want 30", len(points))
	}
	// For Proteus, violations must broadly decrease as SLOs relax.
	var first, last float64
	for _, p := range points {
		if p.System != "ilp" {
			continue
		}
		if p.SLOMultiplier == 1 {
			first = p.ViolationRatio
		}
		if p.SLOMultiplier == 3.5 {
			last = p.ViolationRatio
		}
	}
	if last >= first {
		t.Errorf("Proteus violations did not improve with relaxed SLOs: 1x=%.4f 3.5x=%.4f", first, last)
	}
}

func TestFig9Breakdown(t *testing.T) {
	r, families, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(families) != 9 || len(r.PerFamily) != 9 {
		t.Fatalf("families %d, perFamily %d", len(families), len(r.PerFamily))
	}
	if len(r.FamilySeries) != 9 {
		t.Fatalf("family series %d", len(r.FamilySeries))
	}
	// The Zipf head (resnet) must see the highest throughput (§6.7).
	if r.PerFamily[0].AvgThroughput <= r.PerFamily[8].AvgThroughput {
		t.Errorf("Zipf ordering not visible: resnet %.1f <= gpt2 %.1f",
			r.PerFamily[0].AvgThroughput, r.PerFamily[8].AvgThroughput)
	}
}

func TestFig10Growth(t *testing.T) {
	points, err := Fig10(Fig10Options{
		Devices:   []int{4, 8},
		Variants:  []int{9, 17},
		Types:     []int{1, 3},
		TimeLimit: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.SolveTime <= 0 {
			t.Errorf("%s=%d: non-positive solve time", p.Dimension, p.Value)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	want := map[string][3]string{
		"Clipper":   {"Static", "Static", "No"},
		"Sommelier": {"Static", "Heuristic", "Limited"},
		"INFaaS":    {"Heuristic", "Heuristic", "Yes"},
		"Proteus":   {"MILP", "MILP", "Yes"},
	}
	for _, r := range rows {
		w, ok := want[r.System]
		if !ok {
			t.Fatalf("unexpected system %q", r.System)
		}
		if r.ModelPlacement != w[0] || r.ModelSelection != w[1] || r.AccuracyScaling != w[2] {
			t.Errorf("%s: got (%s, %s, %s), want %v", r.System, r.ModelPlacement, r.ModelSelection, r.AccuracyScaling, w)
		}
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderFig1a(&buf, Fig1a()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "v100") {
		t.Fatal("fig1a render missing device")
	}
	buf.Reset()
	if err := RenderFig1b(&buf, Fig1b()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pareto") {
		t.Fatal("fig1b render missing frontier")
	}
	buf.Reset()
	rows, _ := Table2(Options{})
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Model placement", "MILP", "Limited"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table2 render missing %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	sys := []SystemResult{{Name: "ilp", ModelLoads: 3, Plans: 2}}
	if err := RenderSystems(&buf, sys); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ilp") || !strings.Contains(buf.String(), "violations") {
		t.Fatalf("systems render: %s", buf.String())
	}

	buf.Reset()
	if err := RenderSeriesCSV(&buf, "ilp", []metrics.Point{
		{Start: 0, DemandQPS: 10, ThroughputQPS: 9, EffectiveAccuracy: 95, Violations: 1},
		{Start: 10 * time.Second, EffectiveAccuracy: math.NaN()},
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "second,ilp_demand") || !strings.Contains(out, "10.00,9.00,95.00,1") {
		t.Fatalf("series CSV: %s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatal("NaN leaked into the CSV")
	}

	buf.Reset()
	if err := RenderDesignAblations(&buf, []DesignAblationRow{{Name: "default", ModelLoads: 5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "default") {
		t.Fatal("design render empty")
	}

	buf.Reset()
	if err := RenderFormulations(&buf, []AggregationComparison{{Devices: 8}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aggregated time") {
		t.Fatal("formulations render empty")
	}

	buf.Reset()
	if err := RenderFig6(&buf, []Fig6Point{{Batching: "accscale"}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderFig8(&buf, []Fig8Point{{System: "ilp", SLOMultiplier: 2}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderFig10(&buf, []Fig10Point{{Dimension: "devices", Value: 8}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderFig9(&buf, SystemResult{PerFamily: make([]metrics.Summary, 2)}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "family-1") {
		t.Fatal("fig9 fallback family name missing")
	}
}
