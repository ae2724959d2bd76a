// The sim-vs-live differential test: one seeded arrival list through the
// discrete-event simulator and through the wall-clock live cluster. The
// paper's figures are regenerated by cmd/proteus-bench and guarded by the
// tests of internal/experiments; the per-layer costs are rows of bench/.
package proteus_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"proteus"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/numeric"
	"proteus/internal/trace"
)

// simVsLive sends one seeded arrival list (two families, ≈120 QPS for 3 s)
// through the discrete-event simulator and through the wall-clock live
// cluster under one plan for the whole run and returns both summaries: the
// paper's §6.2 simulator-fidelity check (they report 0.12% accuracy / 0.82%
// throughput deltas).
func simVsLive(tb testing.TB) (sim, live proteus.Summary) {
	tb.Helper()
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" || f.Name == "mobilenet" {
			fams = append(fams, f)
		}
	}
	names := models.FamilyNames(fams)
	const seconds = 3
	demand := []float64{60, 60}
	arrivals := trace.NewFlat(names, demand, seconds).Arrivals(numeric.NewRNG(13))
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
		ControlPeriod:   time.Minute,
		MetricsInterval: time.Second, // align bins with the live collector
		Seed:            9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// RunArrivals fails unless arrivals = served + late + dropped per family.
	simRes, err := sys.RunArrivals(arrivals, seconds*time.Second, demand)
	if err != nil {
		tb.Fatal(err)
	}

	srv, err := proteus.NewLiveServer(proteus.LiveConfig{
		Cluster:       cluster.ScaledTestbed(8),
		Families:      fams,
		Allocator:     newAllocator(),
		ControlPeriod: time.Minute,
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
	return simRes.Summary, srv.Summary()
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
