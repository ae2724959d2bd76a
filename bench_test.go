// Top-level benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§6), plus the §6.8 overhead microbenchmarks. Each
// end-to-end benchmark runs the corresponding experiment from
// internal/experiments at a bench-friendly scale and reports the headline
// quantities as custom metrics (violation ratios, accuracies, solve times),
// so `go test -bench=.` regenerates the paper's result shapes.
// EXPERIMENTS.md records paper-vs-measured values from the full-scale runs
// of cmd/proteus-bench.
package proteus_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus"
	"proteus/internal/allocator"
	"proteus/internal/batching"
	"proteus/internal/cluster"
	"proteus/internal/lp"
	"proteus/internal/milp"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/profiles"
	"proteus/internal/router"
	"proteus/internal/simulation"
	"proteus/internal/trace"
)

// benchOptions is the shared bench-scale experiment configuration.
func benchOptions() proteus.ExperimentOptions {
	return proteus.ExperimentOptions{
		ClusterSize:  20,
		TraceSeconds: 150,
		BaseQPS:      180,
		PeakQPS:      480,
		Seed:         20240427,
		SolverBudget: 640,
	}
}

func findResult(b *testing.B, results []proteus.SystemResult, name string) proteus.SystemResult {
	b.Helper()
	for _, r := range results {
		if r.Name == name {
			return r
		}
	}
	b.Fatalf("system %s missing", name)
	return proteus.SystemResult{}
}

// BenchmarkFig1aAccuracyThroughput regenerates the Figure 1a trade-off
// points (EfficientNet variants on three device types at batch one).
func BenchmarkFig1aAccuracyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := proteus.Fig1a()
		if len(rows) != 24 {
			b.Fatalf("%d rows", len(rows))
		}
		for _, r := range rows {
			if r.Device == proteus.V100 && r.Variant == "b0" {
				b.ReportMetric(r.QPS, "v100-b0-qps")
			}
		}
	}
}

// BenchmarkFig1bParetoFrontier enumerates all 3125 placements of Figure 1b
// and extracts the Pareto frontier.
func BenchmarkFig1bParetoFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := proteus.Fig1b()
		frontier := proteus.ParetoFrontier(points)
		if len(points) != 3125 || len(frontier) == 0 {
			b.Fatalf("points %d frontier %d", len(points), len(frontier))
		}
		b.ReportMetric(float64(len(frontier)), "frontier-points")
	}
}

// BenchmarkTable2FeatureMatrix regenerates the feature-comparison matrix.
func BenchmarkTable2FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := proteus.Table2(benchOptions())
		if err != nil || len(rows) != 4 {
			b.Fatalf("table2: %v (%d rows)", err, len(rows))
		}
	}
}

// BenchmarkFig4EndToEnd runs the five-system end-to-end comparison on the
// Twitter-like trace and reports each system's violation ratio.
func BenchmarkFig4EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := proteus.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		pro := findResult(b, results, "ilp")
		ha := findResult(b, results, "clipper-ha")
		b.ReportMetric(pro.Summary.ViolationRatio, "proteus-violations")
		b.ReportMetric(ha.Summary.ViolationRatio, "clipper-ha-violations")
		b.ReportMetric(pro.Summary.EffectiveAccuracy, "proteus-accuracy%")
		b.ReportMetric(pro.Summary.MaxAccuracyDrop, "proteus-maxdrop%")
		b.ReportMetric(pro.Summary.AvgThroughput, "proteus-qps")
	}
}

// BenchmarkFig5BurstyWorkload runs the macro-burst responsiveness
// comparison (§6.3).
func BenchmarkFig5BurstyWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := proteus.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		pro := findResult(b, results, "ilp")
		inf := findResult(b, results, "infaas_v2")
		b.ReportMetric(pro.Summary.ViolationRatio, "proteus-violations")
		b.ReportMetric(inf.Summary.ViolationRatio, "infaas-violations")
		b.ReportMetric(float64(pro.Plans), "proteus-replans")
	}
}

// BenchmarkFig6AdaptiveBatching runs the batching isolation grid (§6.4) and
// reports the Gamma-trace violation ratio per policy.
func BenchmarkFig6AdaptiveBatching(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		points, err := proteus.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Process == trace.GammaProcess {
				b.ReportMetric(p.ViolationRatio, "gamma-"+p.Batching+"-violations")
			}
		}
	}
}

// BenchmarkFig7Ablation runs the §6.5 ablation study.
func BenchmarkFig7Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := proteus.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		full := findResult(b, results, "ilp")
		noMS := findResult(b, results, "proteus-wo-ms")
		noAB := findResult(b, results, "ilp+static")
		b.ReportMetric(full.Summary.ViolationRatio, "full-violations")
		b.ReportMetric(noMS.Summary.ViolationRatio, "wo-ms-violations")
		b.ReportMetric(noAB.Summary.ViolationRatio, "wo-ab-violations")
	}
}

// BenchmarkFig8SLOSensitivity sweeps the latency SLO multiplier 1x-3.5x
// (§6.6). The sweep is 30 end-to-end runs; the bench scale keeps each short.
func BenchmarkFig8SLOSensitivity(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		points, err := proteus.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.System != "ilp" {
				continue
			}
			if p.SLOMultiplier == 1 {
				b.ReportMetric(p.ViolationRatio, "proteus-1x-violations")
			}
			if p.SLOMultiplier == 3.5 {
				b.ReportMetric(p.ViolationRatio, "proteus-3.5x-violations")
			}
		}
	}
}

// BenchmarkFig9FamilyBreakdown runs the §6.7 per-family breakdown.
func BenchmarkFig9FamilyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, families, err := proteus.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.PerFamily) != len(families) {
			b.Fatal("family breakdown incomplete")
		}
		b.ReportMetric(r.PerFamily[0].AvgThroughput, "resnet-qps")
		b.ReportMetric(r.PerFamily[len(families)-1].AvgThroughput, "gpt2-qps")
	}
}

// BenchmarkFig10MILPScalability runs the §6.8 per-device MILP solve-time
// sweep (small bench-scale points; cmd/proteus-bench runs the full sweep).
func BenchmarkFig10MILPScalability(b *testing.B) {
	o := proteus.Fig10Options{
		Devices:   []int{4, 8, 16},
		Variants:  []int{9, 17},
		Types:     []int{1, 3},
		TimeLimit: 2 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		points, err := proteus.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Dimension == "devices" && p.Value == 16 {
				b.ReportMetric(p.SolveTime.Seconds(), "solve-16-devices-sec")
			}
		}
	}
}

// simLiveLegs is what one arrival list did to the two drivers of the shared
// serving engine: their summaries and their controllers' audit logs.
type simLiveLegs struct {
	sim, live           proteus.Summary
	simPlans, livePlans []proteus.PlanRecord
}

// zooFamilies returns the named families in the model zoo's order.
func zooFamilies(names ...string) []models.Family {
	var fams []models.Family
	for _, f := range models.Zoo() {
		for _, name := range names {
			if f.Name == name {
				fams = append(fams, f)
			}
		}
	}
	return fams
}

// runSimAndLive sends one arrival list over fams through the discrete-event
// simulator and through the wall-clock live cluster, both planned for demand
// at the start and re-planning every controlPeriod.
func runSimAndLive(tb testing.TB, fams []models.Family, demand []float64, arrivals []trace.Arrival, window, controlPeriod time.Duration) simLiveLegs {
	tb.Helper()
	names := models.FamilyNames(fams)
	newAllocator := func() proteus.Allocator {
		a, err := proteus.NewAllocator("infaas_v2", nil)
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}

	sys, err := proteus.NewSystem(proteus.SystemConfig{
		Cluster:         cluster.ScaledTestbed(8),
		Families:        fams,
		Allocator:       newAllocator(),
		ControlPeriod:   controlPeriod,
		MetricsInterval: time.Second, // align bins with the live collector
		Seed:            9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// RunArrivals fails unless arrivals = served + late + dropped per family.
	simRes, err := sys.RunArrivals(arrivals, window, demand)
	if err != nil {
		tb.Fatal(err)
	}

	srv, err := proteus.NewLiveServer(proteus.LiveConfig{
		Cluster:       cluster.ScaledTestbed(8),
		Families:      fams,
		Allocator:     newAllocator(),
		ControlPeriod: controlPeriod,
		ExecNoiseFrac: -1, // the simulator's executor has no noise either
		InitialDemand: demand,
		Seed:          9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	// Absolute due times: sleep overshoot must not thin or bunch the offered
	// load, or the comparison is between different workloads.
	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range arrivals {
		if d := time.Until(start.Add(a.Time)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Infer(names[a.Family])
		}()
	}
	wg.Wait()
	if !srv.Drain(time.Second) {
		tb.Fatal("live server did not drain")
	}
	return simLiveLegs{sim: simRes.Summary, live: srv.Summary(), simPlans: simRes.Plans, livePlans: srv.History()}
}

// simVsLive sends one seeded arrival list (two families, ≈120 QPS for 3 s)
// through both drivers under one plan for the whole run and returns both
// summaries: the paper's §6.2 simulator-fidelity check (they report 0.12%
// accuracy / 0.82% throughput deltas).
func simVsLive(tb testing.TB) (sim, live proteus.Summary) {
	tb.Helper()
	fams := zooFamilies("efficientnet", "mobilenet")
	const seconds = 3
	demand := []float64{60, 60}
	arrivals := trace.NewFlat(models.FamilyNames(fams), demand, seconds).Arrivals(numeric.NewRNG(13))
	legs := runSimAndLive(tb, fams, demand, arrivals, seconds*time.Second, time.Minute)
	return legs.sim, legs.live
}

// TestSimVsLive is the differential test between the two drivers of the
// shared serving engine. The tolerances are set from what may legitimately
// differ. Routing draws come in a different order (the live generator's
// goroutines reach the router in scheduler order), which moved effective
// accuracy by at most 0.06 points over the ≈360 queries in forty runs; 1
// point fails a run that served a different variant mix. On-time share
// differs through wall-clock effects only — the live policy decides 5 ms
// ahead of its clock, so it gives up on (drops) a query the simulator still
// serves with under 5 ms to spare, plus timer and scheduler jitter: live was
// 2.0–4.5 points below the simulator (median 2.5) in twenty runs on an idle
// two-core host — 1.1–4.2 (median 2.2) when the worker woke 5 ms early and
// polled instead, with late answers where there are now drops — and 5 points
// fails a run where a batching or admission decision diverged. One run in
// forty lost 10 points to a host stall of a few hundred milliseconds, so a
// diverging attempt is repeated: a stall does not recur, a divergence in the
// engine does.
func TestSimVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential run (≈3 s)")
	}
	const attempts = 3
	for attempt := 1; ; attempt++ {
		sim, live := simVsLive(t)
		t.Logf("sim: %v", sim)
		t.Logf("live: %v", live)
		for _, s := range []struct {
			name string
			sum  proteus.Summary
		}{{"sim", sim}, {"live", live}} {
			if s.sum.Queries == 0 || s.sum.Queries != s.sum.Served+s.sum.Late+s.sum.Dropped {
				t.Fatalf("%s: %d arrivals != %d served + %d late + %d dropped",
					s.name, s.sum.Queries, s.sum.Served, s.sum.Late, s.sum.Dropped)
			}
		}
		if sim.Queries != live.Queries {
			t.Fatalf("sim saw %d arrivals, live %d: the two legs must replay one list", sim.Queries, live.Queries)
		}
		onTime := func(s proteus.Summary) float64 { return 100 * float64(s.Served) / float64(s.Queries) }
		dOnTime := math.Abs(onTime(sim) - onTime(live))
		dAccuracy := math.Abs(sim.EffectiveAccuracy - live.EffectiveAccuracy)
		if dOnTime <= 5 && dAccuracy <= 1 {
			return
		}
		msg := fmt.Sprintf("attempt %d: on-time share sim %.2f%% / live %.2f%% (|Δ| %.2f, limit 5 points), effective accuracy sim %.2f%% / live %.2f%% (|Δ| %.2f, limit 1 point)",
			attempt, onTime(sim), onTime(live), dOnTime, sim.EffectiveAccuracy, live.EffectiveAccuracy, dAccuracy)
		if attempt == attempts {
			t.Fatal(msg)
		}
		t.Log(msg)
	}
}

// TestSimVsLiveReplanDecisions pins the two drivers to one re-planning
// rule: the demand estimate is headroomed before it is compared with the
// last plan's (headroomed) demand, 10 % + 1 QPS apart meaning "changed".
// One family planned for 200 QPS gets evenly spaced arrivals at 229 QPS —
// 14.5 % up — for 2.6 s with a 2 s control period, so each driver's one
// periodic tick sees 229 QPS over two complete seconds: 240.5 against 210,
// past the 22 QPS threshold, and both must re-plan. When the live driver
// compared the bare 229 with 210 it kept its plan up to 232 QPS, where the
// simulator had been re-planning since 221. The live count may lose up to
// eight arrivals a second (3.5 %) to a late start or a stall before it
// drops under 221; a run that loses more is repeated.
func TestSimVsLiveReplanDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential run (≈3 s)")
	}
	fams := zooFamilies("efficientnet")
	const rate, window = 229, 2600 * time.Millisecond
	var arrivals []trace.Arrival
	for i := 0; ; i++ {
		at := time.Duration(i) * time.Second / rate
		if at >= window {
			break
		}
		arrivals = append(arrivals, trace.Arrival{Time: at})
	}
	triggers := func(plans []proteus.PlanRecord) string {
		var out []string
		for _, p := range plans {
			out = append(out, p.Trigger)
		}
		return strings.Join(out, ",")
	}
	const attempts = 3
	for attempt := 1; ; attempt++ {
		legs := runSimAndLive(t, fams, []float64{200}, arrivals, window, 2*time.Second)
		sim, live := triggers(legs.simPlans), triggers(legs.livePlans)
		if sim != "initial,periodic" {
			t.Fatalf("simulator planned on %q, want initial,periodic", sim)
		}
		if live == sim {
			return
		}
		msg := fmt.Sprintf("attempt %d: live planned on %q, the simulator on %q", attempt, live, sim)
		if attempt == attempts {
			t.Fatal(msg)
		}
		t.Log(msg)
	}
}

// BenchmarkSimVsLive reports the two legs' effective accuracy and throughput.
func BenchmarkSimVsLive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, live := simVsLive(b)
		b.ReportMetric(sim.EffectiveAccuracy, "sim-accuracy%")
		b.ReportMetric(live.EffectiveAccuracy, "live-accuracy%")
		b.ReportMetric(sim.AvgThroughput, "sim-qps")
		b.ReportMetric(live.AvgThroughput, "live-qps")
	}
}

// ---------------------------------------------------------------------------
// §6.8 overhead microbenchmarks

// BenchmarkRouterLookup measures the request router's per-query routing
// decision; the paper reports < 1 ms (§6.8) — this path is nanoseconds.
func BenchmarkRouterLookup(b *testing.B) {
	fams := models.Zoo()
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
		demand[q] = 40
	}
	in := &allocator.Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand}
	plan, err := allocator.NewMILP(&allocator.MILPOptions{MaxNodes: 800, RelGap: 0.01}).Allocate(in)
	if err != nil {
		b.Fatal(err)
	}
	table := router.BuildTable(plan, len(fams))
	rng := numeric.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Pick(i%len(fams), rng)
	}
}

// BenchmarkMILPSolve measures one full Proteus resource-manager solve at
// the default experiment scale (the paper reports 4.2 s with Gurobi on 40
// devices; see DESIGN.md for the substitution discussion).
func BenchmarkMILPSolve(b *testing.B) {
	fams := models.Zoo()
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	z := numeric.NewZipf(len(fams), 1.001)
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
		demand[q] = 400 * z.P(q)
	}
	for i := 0; i < b.N; i++ {
		a := allocator.NewMILP(&allocator.MILPOptions{TimeLimit: 2 * time.Second, RelGap: 0.005})
		in := &allocator.Input{Cluster: cluster.ScaledTestbed(20), Families: fams, SLOs: slos, Demand: demand}
		alloc, err := a.Allocate(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(alloc.PredictedAccuracy, "predicted-accuracy%")
	}
}

// BenchmarkLPSolve measures one simplex solve of a mid-size LP.
func BenchmarkLPSolve(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem()
		const n = 60
		vars := make([]int, n)
		for i := range vars {
			vars[i] = p.AddVariable("x", 0, float64(1+i%7))
			p.SetObjective(vars[i], float64((i*13)%17))
		}
		for r := 0; r < 40; r++ {
			var terms []lp.Term
			for j := 0; j < n; j += 2 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: float64((r+j)%5) + 1})
			}
			p.AddConstraint(terms, lp.LE, float64(50+r*3))
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(build(), nil)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve: %v %v", err, sol.Status)
		}
	}
}

// BenchmarkBranchAndBound measures a small knapsack MILP solve.
func BenchmarkBranchAndBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := milp.NewProblem()
		var terms []lp.Term
		for j := 0; j < 24; j++ {
			v := p.AddBinary("x")
			p.SetObjective(v, float64(10+(j*7)%13))
			terms = append(terms, lp.Term{Var: v, Coef: float64(3 + (j*11)%9)})
		}
		p.AddConstraint(terms, lp.LE, 60)
		sol := milp.Solve(p, nil)
		if sol.Status != milp.Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}

// BenchmarkAdaptiveBatchingDecide measures the per-decision cost of the §5
// algorithm (it sits on every worker's critical path).
func BenchmarkAdaptiveBatchingDecide(b *testing.B) {
	policy := batching.NewAccScale()
	queue := make([]batching.Query, 48)
	for i := range queue {
		queue[i] = batching.Query{ID: uint64(i), Deadline: time.Duration(200+i) * time.Millisecond}
	}
	ctx := &batching.Context{
		Now:      0,
		Queue:    queue,
		MaxBatch: 32,
		MemBatch: 512,
		ProcTime: func(n int) time.Duration { return time.Duration(16+2*n) * time.Millisecond },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Decide(ctx)
	}
}

// BenchmarkSimulationEngine measures raw event throughput of the
// discrete-event core (events scheduled out of order, fired in order).
func BenchmarkSimulationEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := simulation.NewEngine()
		count := 0
		const n = 4096
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration((j*7919)%n)*time.Microsecond, func() { count++ })
		}
		e.Run()
		if count != n {
			b.Fatal("events lost")
		}
	}
}

// BenchmarkDesignAblations measures the repository's own design choices
// (DESIGN.md): switch-cost churn control, admission control, and the §7
// fairness extension, each toggled individually.
func BenchmarkDesignAblations(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		rows, err := proteus.DesignAblations(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "default" {
				b.ReportMetric(float64(r.ModelLoads), "default-loads")
				b.ReportMetric(r.ViolationRatio, "default-violations")
			}
			if r.Name == "no-admission" {
				b.ReportMetric(r.ViolationRatio, "no-admission-violations")
			}
		}
	}
}

// BenchmarkOverloadRobustness runs the overload experiment (no-guard vs
// shed-only vs degrade+shed on the stale-plan adversarial trace) and reports
// the headline robustness quantities.
func BenchmarkOverloadRobustness(b *testing.B) {
	o := benchOptions()
	o.TraceSeconds = 90
	for i := 0; i < b.N; i++ {
		reports, err := proteus.OverloadRobustness(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.Trace != "adversarial" {
				continue
			}
			for _, run := range rep.Runs {
				switch run.Guard {
				case "no-guard":
					b.ReportMetric(run.Result.Summary.ViolationRatio, "no-guard-violations")
				case "degrade+shed":
					b.ReportMetric(run.Result.Summary.ViolationRatio, "degrade-shed-violations")
					b.ReportMetric(run.Goodput, "degrade-shed-goodput")
				}
			}
		}
	}
}

// BenchmarkFormulationComparison contrasts the exact aggregated MILP with
// the per-device formulation on an identical instance.
func BenchmarkFormulationComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := proteus.CompareFormulations([]int{12}, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AggregatedTime.Seconds(), "aggregated-sec")
		b.ReportMetric(rows[0].PerDeviceTime.Seconds(), "per-device-sec")
	}
}
