package flightrec_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/flightrec"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/report"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// burnRun drives a deliberately overloaded small cluster (the recipe the
// report package's end-to-end tests use) at qps per family with the flight
// recorder attached, so the SLO monitor enters a burn episode and triggers
// incident bundles; 300 is ~5x what the 4 devices can absorb. The recorder
// gets fcfg; edit, when set, amends the system's config.
func burnRun(t *testing.T, fcfg flightrec.Config, qps float64, edit func(*core.Config)) *flightrec.Recorder {
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
	rec := tsdb.NewRecorder(tsdb.Config{
		SampleInterval: time.Second,
		SLO: tsdb.SLOConfig{
			Target:      0.01,
			BurnRate:    2,
			ShortWindow: 5 * time.Second,
			LongWindow:  30 * time.Second,
		},
	})
	flight := flightrec.New(fcfg)
	cfg := core.Config{
		Cluster:  cluster.ScaledTestbed(4),
		Families: fams,
		Allocator: allocator.NewMILP(&allocator.MILPOptions{
			MaxNodes: 320, RelGap: 0.01,
		}),
		Seed:      7,
		TSDB:      rec,
		Tracer:    telemetry.NewTracer(0),
		Telemetry: telemetry.NewRegistry(),
		Flight:    flight,
	}
	if edit != nil {
		edit(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := []float64{qps, qps}
	if _, err := sys.Run(trace.NewFlat(models.FamilyNames(fams), per, 90)); err != nil {
		t.Fatal(err)
	}
	if err := flight.WriteError(); err != nil {
		t.Fatalf("bundle write error: %v", err)
	}
	return flight
}

// TestSLOBurnProducesBundle asserts the tentpole end to end: an overloaded
// run trips the burn monitor, the flight recorder snapshots an incident
// bundle, and the bundle carries the phase decomposition and the captured
// controller plan records.
func TestSLOBurnProducesBundle(t *testing.T) {
	dir := t.TempDir()
	flight := burnRun(t, flightrec.Config{Dir: dir}, 300, nil)

	bundles := flight.Incidents()
	if len(bundles) == 0 {
		t.Fatal("overloaded run triggered no incident bundles")
	}
	var burn *flightrec.Bundle
	for _, b := range bundles {
		if b.Reason == "slo_burn" {
			burn = b
			break
		}
	}
	if burn == nil {
		t.Fatalf("no slo_burn bundle among %d incidents", len(bundles))
	}
	if burn.Family < 0 {
		t.Errorf("burn bundle has no family: %+v", burn.Family)
	}
	if !strings.Contains(burn.Detail, "short=") || !strings.Contains(burn.Detail, "long=") {
		t.Errorf("burn detail %q missing burn rates", burn.Detail)
	}
	if len(burn.TraceEvents) == 0 {
		t.Error("burn bundle has no trace events")
	}
	if len(burn.Plans) == 0 {
		t.Error("burn bundle captured no plan records")
	}
	if js, err := json.Marshal(burn.Plans); err != nil || bytes.Contains(js, []byte("_time_ns")) {
		t.Fatalf("solver wall time leaked into the bundle's plans: %s, %v", js, err)
	}

	// A burn starting mid-run happens after at least one sampling tick, so
	// the rings must hold samples, counters and the phase decomposition.
	// (The first bundle of a run can beat the first tick; slo_burn cannot,
	// because burns are evaluated on the sampling cadence.)
	if len(burn.Samples) == 0 {
		t.Error("burn bundle has no device samples")
	}
	if len(burn.Counters) == 0 {
		t.Error("burn bundle has no counter snapshots")
	}
	if len(burn.Phases) == 0 {
		t.Fatal("burn bundle has no phase decomposition")
	}
	phases := map[string]bool{}
	var exec *tsdb.PhaseStat
	for i, ps := range burn.Phases {
		phases[ps.Phase] = true
		if ps.Scope == "family" && ps.Index == burn.Family && ps.Phase == "exec" {
			exec = &burn.Phases[i]
		}
	}
	for _, want := range []string{"admission", "queue", "exec"} {
		if !phases[want] {
			t.Errorf("phase %q missing from bundle decomposition", want)
		}
	}
	if exec == nil {
		t.Fatal("no exec histogram for the burning family")
	}
	if exec.Count == 0 || exec.MeanUS <= 0 || exec.P95US < exec.P50US || exec.MaxUS < exec.P99US {
		t.Errorf("implausible exec histogram: %+v", *exec)
	}

	// Every retained bundle also landed in the incident log.
	l, err := flightrec.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bundles {
		if !slices.Contains(l.IDs(), b.ID) {
			t.Errorf("bundle %s not in the incident log", b.ID)
		}
	}
}

// TestBundleBytesMatchEncodingJSON holds the incident log, which holds each
// ring element once for every bundle that shares it, to encoding/json on a
// seeded run with device faults, the overload guard and SLO burns: every
// bundle of the log reads back and renders, and each one the recorder still
// holds in memory (the newest) equals the in-memory bundle through one
// encoding/json round trip and renders the same incident page. The load is
// 200 QPS per family: from 250 up no degradation opens in this run, so no
// overload bundle is written (the optimal plans there host fewer variants
// per family, and the guard only degrades a family that has a lower tier
// hosted).
func TestBundleBytesMatchEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	flight := burnRun(t, flightrec.Config{Dir: dir}, 200, func(cfg *core.Config) {
		faults, err := cluster.RandomSchedule(cfg.Cluster, cluster.RandomScheduleConfig{
			MTBF: 60 * time.Second, MTTR: 10 * time.Second, Horizon: 90 * time.Second, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = faults
		cfg.Overload = &overload.Config{
			Enabled:           true,
			HighWater:         64,
			LowWater:          32,
			RestoreHold:       5 * time.Second,
			EscalateAfter:     10 * time.Second,
			RedegradeCooldown: 10 * time.Second,
		}
	})
	l, err := flightrec.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]*flightrec.Bundle{}
	for _, b := range flight.Incidents() {
		held[b.ID] = b
	}
	reasons := map[string]int{}
	for _, id := range l.IDs() {
		got, err := l.Bundle(id)
		if err != nil {
			t.Fatal(err)
		}
		reasons[got.Reason]++
		b := held[id]
		if b == nil {
			if len(report.RenderIncident(got)) == 0 {
				t.Fatalf("bundle %s rendered empty", id)
			}
			continue
		}
		delete(held, id)
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		var want flightrec.Bundle
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("bundle %s read from the log differs from encoding/json's round trip", b.ID)
		}
		if !bytes.Equal(report.RenderIncident(got), report.RenderIncident(b)) {
			t.Fatalf("bundle %s read from the log renders differently", b.ID)
		}
	}
	for id := range held {
		t.Errorf("bundle %s is not in the incident log", id)
	}
	for _, r := range []string{"slo_burn", "overload", "device_failure"} {
		if reasons[r] == 0 {
			t.Errorf("no %s bundle among %v", r, reasons)
		}
	}
}

// TestSameSeedBundlesByteIdentical runs the same overloaded scenario twice
// and compares the two incident logs byte for byte.
func TestSameSeedBundlesByteIdentical(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	f1 := burnRun(t, flightrec.Config{Dir: dir1}, 300, nil)
	f2 := burnRun(t, flightrec.Config{Dir: dir2}, 300, nil)

	b1, b2 := f1.Incidents(), f2.Incidents()
	if len(b1) == 0 || len(b1) != len(b2) {
		t.Fatalf("incident counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i].ID != b2[i].ID {
			t.Fatalf("bundle %d IDs differ: %s vs %s", i, b1[i].ID, b2[i].ID)
		}
	}
	raw1, err := os.ReadFile(filepath.Join(dir1, flightrec.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(filepath.Join(dir2, flightrec.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("same-seed incident logs diverged (%d vs %d bytes)", len(raw1), len(raw2))
	}
}

// FuzzReadIncidentLog feeds the incident log reader arbitrary bytes, as
// proteus-report does with a file from outside the program: it must not
// panic, a length past the end of the input is a torn tail rather than an
// allocation, a bundle read back from the input grows it at most by a
// constant factor, measured as the bundle's encoding/json encoding (the
// worst known input is a log of empty plan records, 6 bytes each, that read
// back as zero PlanRecords of 286 bytes each), and every bundle it returns
// renders. testdata/fuzz holds a real log excerpt (the records and index of
// the first bundle proteus-sim logs on configs/incident_smoke.json), the
// log's first 1000 bytes (a torn tail and no index), and one whose first
// record claims a length far past the input's end.
func FuzzReadIncidentLog(f *testing.F) {
	f.Add([]byte("proteus incident log 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := flightrec.ParseLog(data)
		if err != nil {
			return
		}
		for _, id := range l.IDs() {
			b, err := l.Bundle(id)
			if err != nil {
				continue
			}
			js, err := json.Marshal(b)
			if err != nil {
				t.Fatalf("bundle %q read back but does not encode: %v", id, err)
			}
			if len(js) > 64*len(data)+1024 {
				t.Fatalf("bundle %q: %d bytes read back from a %d-byte log", id, len(js), len(data))
			}
			if len(report.RenderIncident(b)) == 0 {
				t.Fatalf("bundle %q rendered empty", id)
			}
		}
	})
}

// TestIncidentExcerptReadsBack holds the reader to a log the simulator
// writes: every bundle of the FuzzReadIncidentLog excerpt reads back, with
// its trace and phase rows.
func TestIncidentExcerptReadsBack(t *testing.T) {
	data, err := os.ReadFile("testdata/fuzz/FuzzReadIncidentLog/incident_smoke_excerpt")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")\n")
	if !ok || !ok2 {
		t.Fatal("excerpt is not a one-value []byte fuzz corpus file")
	}
	raw, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	l, err := flightrec.ParseLog([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.IDs()) == 0 {
		t.Fatal("excerpt holds no bundle")
	}
	for _, id := range l.IDs() {
		b, err := l.Bundle(id)
		if err != nil {
			t.Errorf("bundle %q: %v", id, err)
			continue
		}
		if len(b.TraceEvents) == 0 || len(b.Phases) == 0 {
			t.Errorf("bundle %q: %d trace events, %d phase rows", id, len(b.TraceEvents), len(b.Phases))
		}
	}
}
