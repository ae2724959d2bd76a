package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/models"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// burnRun drives a deliberately overloaded small cluster so the SLO monitor
// enters a burn episode, then assembles the run's Dump.
func burnRun(t *testing.T) (*Dump, *telemetry.Tracer, *core.Result) {
	t.Helper()
	return burnRunWith(t, &allocator.MILPOptions{MaxNodes: 320, RelGap: 0.01})
}

func burnRunWith(t *testing.T, opts *allocator.MILPOptions) (*Dump, *telemetry.Tracer, *core.Result) {
	t.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	if len(fams) != 2 {
		t.Fatal("families missing from zoo")
	}
	cl := cluster.ScaledTestbed(4)
	rec := tsdb.NewRecorder(tsdb.Config{
		SampleInterval: time.Second,
		SLO: tsdb.SLOConfig{
			Target:      0.01,
			BurnRate:    2,
			ShortWindow: 5 * time.Second,
			LongWindow:  30 * time.Second,
		},
	})
	tracer := telemetry.NewTracer(0) // default capacity: burns must not be evicted by later events
	sys, err := core.NewSystem(core.Config{
		Cluster:   cl,
		Families:  fams,
		Allocator: allocator.NewMILP(opts),
		Seed:      7,
		TSDB:      rec,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	per := []float64{300, 300} // ~5x what 4 devices can absorb
	res, err := sys.Run(trace.NewFlat(models.FamilyNames(fams), per, 90))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range cl.Devices() {
		names = append(names, d.Name)
	}
	d := Build(BuildInput{
		Label:       "burn-test",
		Seed:        7,
		Collector:   res.Collector,
		Recorder:    rec,
		Plans:       res.Plans,
		DeviceNames: names,
	})
	return d, tracer, res
}

func TestEndToEndDumpAndHTMLByteIdentical(t *testing.T) {
	d1, _, _ := burnRun(t)
	d2, _, _ := burnRun(t)

	var j1, j2 bytes.Buffer
	if err := d1.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := d2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("same-seed dump JSON diverged (%d vs %d bytes)", j1.Len(), j2.Len())
	}

	h1 := RenderHTML(d1)
	h2 := RenderHTML(d2)
	if !bytes.Equal(h1, h2) {
		t.Errorf("same-seed HTML reports diverged (%d vs %d bytes)", len(h1), len(h2))
	}

	// Round-trip: a parsed dump renders the same report.
	rd, err := ReadDump(bytes.NewReader(j1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(RenderHTML(rd), h1) {
		t.Error("HTML from round-tripped dump differs from original")
	}
}

// TestDumpCarriesSolverProgress runs the seeded system under a node budget
// tight enough to cut solves short: every MILP plan in the dump must carry
// the solver's progress (nodes, bound, gap) and none may be marked
// time-limited, a node budget being work, not time.
func TestDumpCarriesSolverProgress(t *testing.T) {
	const budget = 3
	d, _, _ := burnRunWith(t, &allocator.MILPOptions{MaxNodes: budget, RelGap: -1})
	fired := false
	for _, p := range d.Plans {
		if p.Solver != "ilp" {
			continue
		}
		if p.Stats.Nodes <= 0 || p.Stats.Bound <= 0 || p.Stats.RelGap < 0 || p.Stats.TimeLimited {
			t.Errorf("plan %d: solver progress missing from the dump: %+v", p.Seq, p.Stats)
		}
		fired = fired || p.Stats.Nodes >= budget
	}
	if !fired {
		t.Errorf("no solve reached the %d-node budget; the test exercises nothing", budget)
	}
}

func TestDumpCapturesBurnsSamplesAndWindows(t *testing.T) {
	d, tracer, res := burnRun(t)

	if len(d.Burns) == 0 {
		t.Fatal("overloaded run produced no SLO burn events")
	}
	if !d.Burns[0].Start {
		t.Error("first burn transition should be a start")
	}
	if d.Burns[0].ShortBurn < d.Meta.SLOBurnRate || d.Burns[0].LongBurn < d.Meta.SLOBurnRate {
		t.Errorf("burn start below threshold: short=%v long=%v", d.Burns[0].ShortBurn, d.Burns[0].LongBurn)
	}
	if len(d.Samples) == 0 {
		t.Fatal("no device samples recorded")
	}
	wantSamples := 90 * 4 // 90 ticks x 4 devices
	if len(d.Samples) != wantSamples {
		t.Errorf("samples = %d, want %d", len(d.Samples), wantSamples)
	}
	busy := false
	for _, s := range d.Samples {
		if s.UtilMilli < 0 || s.UtilMilli > 1000 {
			t.Fatalf("utilization out of range: %+v", s)
		}
		if s.UtilMilli > 500 {
			busy = true
		}
	}
	if !busy {
		t.Error("overloaded run shows no device above 50% utilization")
	}
	if len(d.Windows) == 0 {
		t.Fatal("no windows in dump")
	}
	// Accuracy scaling absorbs much of the overload, but the warmup bins
	// must still show violations (they triggered the burn episode).
	violated := false
	for _, w := range d.Windows {
		if w.ViolationRatio > 0 {
			violated = true
		}
	}
	if !violated {
		t.Error("overloaded run shows no window with violations")
	}

	// The burn transitions must also reach the lifecycle trace...
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"slo_burn_start"`) {
		t.Error("trace export is missing slo_burn_start events")
	}
	// ...and the controller's decision audit.
	audited := 0
	for _, p := range res.Plans {
		audited += len(p.SLOBurns)
	}
	if audited == 0 {
		t.Error("no burn events drained into PlanRecord.SLOBurns")
	}
	if audited != len(d.Burns) {
		t.Errorf("audit has %d burn records, recorder logged %d", audited, len(d.Burns))
	}
}

func TestRenderHTMLPanels(t *testing.T) {
	d, _, _ := burnRun(t)
	html := string(RenderHTML(d))
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Demand vs served throughput",
		"Effective accuracy",
		"SLO violation ratio and burn episodes",
		"Latency percentiles per window",
		"Device utilization heatmap",
		"Per-family results",
		"SLO burn transitions",
		"Control decisions",
		"<svg xmlns",
		"efficientnet",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(html, "<script") {
		t.Error("report must not contain scripts")
	}
	if strings.Contains(html, "NaN") {
		t.Error("report contains NaN")
	}
}

func TestRenderHTMLEmptyDump(t *testing.T) {
	html := string(RenderHTML(&Dump{}))
	if !strings.Contains(html, "<!DOCTYPE html>") || !strings.Contains(html, "Run summary") {
		t.Error("empty dump did not render a minimal report")
	}
}
