package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"proteus/internal/controlplane"
	"proteus/internal/flightrec"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

func testBundle() *flightrec.Bundle {
	return &flightrec.Bundle{
		ID:     "incident-000002-slo_burn",
		Seq:    2,
		AtNS:   int64(42 * time.Second),
		Reason: "slo_burn",
		Detail: "family=1 short=3.10 long=2.40 <script>",
		Family: 1,
		Device: -1,
		TraceEvents: []telemetry.Event{
			{At: 41_900 * time.Millisecond, Seq: 7, Kind: telemetry.EvArrival, Query: 9, Family: 1, Device: -1, Batch: -1},
			{At: 41_950 * time.Millisecond, Seq: 8, Kind: telemetry.EvDone, Query: 9, Family: 1, Device: 2, Batch: 4},
		},
		Counters: []flightrec.CounterSnap{
			{AtNS: int64(41 * time.Second), Metrics: []telemetry.Metric{{Name: "queries_arrived_total", Value: 100, Kind: "counter"}}},
			{AtNS: int64(42 * time.Second), Metrics: []telemetry.Metric{{Name: "queries_arrived_total", Value: 140, Kind: "counter"}}},
		},
		Burns: []tsdb.BurnEvent{
			{At: 42 * time.Second, Family: 1, Start: true, ShortBurn: 3.1, LongBurn: 2.4},
		},
		Phases: []tsdb.PhaseStat{
			{Scope: "family", Index: 1, Phase: "exec", Count: 50, MeanUS: 9000, P50US: 8000, P95US: 15000, P99US: 20000, MaxUS: 30000},
			{Scope: "device", Index: 2, Phase: "queue", Count: 50, MeanUS: 500, P50US: 400, P95US: 900, P99US: 1000, MaxUS: 1200},
		},
		Plans: []controlplane.PlanRecord{
			{At: 40 * time.Second, Trigger: "periodic", Stage: "primary", Solver: "milp", PredictedAccuracy: 0.81, DemandScale: 1, Loads: 2},
		},
		Runtime: []flightrec.RuntimeSnap{
			{AtNS: int64(42 * time.Second), HeapAllocBytes: 32 << 20, HeapSysBytes: 64 << 20, GCPauseTotalNS: 1_500_000, NumGC: 3, Goroutines: 12},
		},
	}
}

func TestRenderIncident(t *testing.T) {
	b := testBundle()
	html := string(RenderIncident(b))

	for _, w := range []string{
		"incident-000002-slo_burn",
		"trigger #2", "reason slo_burn", "at 42s", "family 1",
		"<h2>Process runtime</h2>",
		"<h2>Counters at 42s (last of 2 snapshots)</h2>",
		"queries_arrived_total", "<td>140</td>",
		"<h2>Phase decomposition</h2>",
		"<td>family 1</td><td>exec</td><td>50</td><td>9</td>",
		"<td>device 2</td><td>queue</td>",
		"<h2>SLO burn transitions</h2>",
		"<th>family</th><th>event</th>",
		"<td>family 1</td><td>start</td><td>3.10</td><td>2.40</td>",
		"<h2>Control decisions</h2>",
		"<th>unloads</th><th>burns</th>",
		"<td>periodic</td><td>primary</td><td>milp</td><td>0.81</td><td>1.000</td><td>2</td><td>0</td><td>0</td>",
		"<h2>Trace tail (2 of 2 events)</h2>",
		"<td>done</td>",
	} {
		if !strings.Contains(html, w) {
			t.Errorf("incident page missing %q", w)
		}
	}
	// Detail text is HTML-escaped.
	if strings.Contains(html, "<script>") {
		t.Error("unescaped detail text in incident page")
	}
	if !strings.Contains(html, "&lt;script&gt;") {
		t.Error("escaped detail text missing")
	}
	// Rendering is a pure function of the bundle.
	if !bytes.Equal(RenderIncident(b), RenderIncident(testBundle())) {
		t.Error("incident render not deterministic")
	}
}

func TestRenderIncidentMinimal(t *testing.T) {
	// A bundle triggered before any tick has only its header; every section
	// must degrade to absence, not panic.
	b := &flightrec.Bundle{ID: "incident-000001-manual", Seq: 1, Reason: "manual", Family: -1, Device: -1}
	html := string(RenderIncident(b))
	for _, absent := range []string{"<h2>Process runtime", "<h2>Counters", "<h2>Phase", "<h2>SLO burn", "<h2>Control decisions", "<h2>Trace tail"} {
		if strings.Contains(html, absent) {
			t.Errorf("empty bundle renders section %q", absent)
		}
	}
	if !strings.Contains(html, "incident-000001-manual") {
		t.Error("bundle ID missing")
	}
}

func TestHTMLReportPhaseSection(t *testing.T) {
	d := &Dump{
		Meta:     Meta{Devices: []string{"cpu-0", "v100-0"}},
		Families: []FamilySummary{{Name: "efficientnet"}},
		Phases: []tsdb.PhaseStat{
			{Scope: "family", Index: 0, Phase: "queue", Count: 10, MeanUS: 1500, P95US: 4000, MaxUS: 5000},
			{Scope: "device", Index: 1, Phase: "exec", Count: 10, MeanUS: 7000, P95US: 9000, MaxUS: 9500},
		},
	}
	html := string(RenderHTML(d))
	for _, w := range []string{
		"<h2>Phase decomposition</h2>",
		"<td>efficientnet</td><td>queue</td><td>10</td><td>1.5</td>",
		"<td>v100-0</td><td>exec</td>",
	} {
		if !strings.Contains(html, w) {
			t.Errorf("report missing %q", w)
		}
	}
	// No phases → no section.
	d.Phases = nil
	if strings.Contains(string(RenderHTML(d)), "Phase decomposition") {
		t.Error("phase section rendered without data")
	}
}
