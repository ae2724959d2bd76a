package flightrec_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/flightrec"
	"proteus/internal/models"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// burnRun drives a deliberately overloaded small cluster (the recipe the
// report package's end-to-end tests use) with the flight recorder attached,
// so the SLO monitor enters a burn episode and triggers incident bundles.
func burnRun(t *testing.T, dir string) *flightrec.Recorder {
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
	flight := flightrec.New(flightrec.Config{Dir: dir})
	sys, err := core.NewSystem(core.Config{
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
	})
	if err != nil {
		t.Fatal(err)
	}
	per := []float64{300, 300} // ~5x what 4 devices can absorb
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
	flight := burnRun(t, dir)

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
	for _, p := range burn.Plans {
		if p.SolveTime != 0 || p.Stats.SolverTime != 0 {
			t.Fatalf("solver wall time leaked into bundle: %+v", p)
		}
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
	for _, want := range []string{"admission", "queue", "batch_form", "exec"} {
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

	// Every retained bundle also landed on disk.
	for _, b := range bundles {
		if _, err := os.Stat(filepath.Join(dir, b.ID+".json")); err != nil {
			t.Errorf("bundle %s not on disk: %v", b.ID, err)
		}
	}
}

// TestSameSeedBundlesByteIdentical runs the same overloaded scenario twice
// and diffs every bundle file byte for byte.
func TestSameSeedBundlesByteIdentical(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	f1 := burnRun(t, dir1)
	f2 := burnRun(t, dir2)

	b1, b2 := f1.Incidents(), f2.Incidents()
	if len(b1) == 0 || len(b1) != len(b2) {
		t.Fatalf("incident counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i].ID != b2[i].ID {
			t.Fatalf("bundle %d IDs differ: %s vs %s", i, b1[i].ID, b2[i].ID)
		}
		raw1, err := os.ReadFile(filepath.Join(dir1, b1[i].ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		raw2, err := os.ReadFile(filepath.Join(dir2, b2[i].ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw1, raw2) {
			t.Errorf("same-seed bundle %s diverged (%d vs %d bytes)", b1[i].ID, len(raw1), len(raw2))
		}
	}
}
