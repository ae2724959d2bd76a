package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/trace"
	"proteus/internal/tsdb"
)

// TestRunArrivalsUnsortedEqualsStableSorted pins what an unsorted arrival
// slice means: the run of its stable sort by time, which is the order the
// event heap used to impose on it. The caller's slice is left alone.
func TestRunArrivalsUnsortedEqualsStableSorted(t *testing.T) {
	// Pairs of arrivals share a time and differ in family, so the order
	// among ties decides which query gets which id.
	var shuffled []trace.Arrival
	for i := 0; i < 1500; i++ {
		shuffled = append(shuffled, trace.Arrival{Time: time.Duration(i/2) * 20 * time.Millisecond, Family: i % 2})
	}
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if slices.IsSortedFunc(shuffled, trace.ByTime) {
		t.Fatal("the shuffle left the arrivals sorted")
	}
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, trace.ByTime)

	run := func(arr []trace.Arrival) (*Result, []byte) {
		cfg := smallConfig(t)
		cfg.Allocator = allocator.NewInfaasAccuracy()
		cfg.Tracer = telemetry.NewTracer(1 << 16)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunArrivals(arr, 20*time.Second, []float64{50, 50})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Tracer.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	before := slices.Clone(shuffled)
	gotRes, gotTrace := run(shuffled)
	if !slices.Equal(shuffled, before) {
		t.Fatal("RunArrivals reordered the caller's slice")
	}
	wantRes, wantTrace := run(sorted)
	if gotRes.Summary.Queries != len(shuffled) {
		t.Fatalf("%d queries, want %d", gotRes.Summary.Queries, len(shuffled))
	}
	if gotRes.Summary != wantRes.Summary {
		t.Errorf("summaries differ:\n  shuffled: %+v\n  sorted:   %+v", gotRes.Summary, wantRes.Summary)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("traces differ (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

func TestRunArrivalsRejectsNegativeTime(t *testing.T) {
	sys, err := NewSystem(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	arr := []trace.Arrival{{Time: time.Second}, {Time: -time.Millisecond}}
	if _, err := sys.RunArrivals(arr, 2*time.Second, []float64{1, 1}); err == nil {
		t.Fatal("an arrival before time zero was accepted")
	}
}

// TestArrivalHandledBeforeEventsAtItsTime pins the arrival cursor's tie
// rule against each kind of event it can meet: a batch completion, an
// overload-guard tick (whole seconds) and a periodic re-allocation (whole
// control periods). A probe run of an overloaded system finds a time at
// which the event leaves a mark; a second run with one more arrival at
// exactly that time — identical to the probe up to it — must show the
// arrival's mark first.
func TestArrivalHandledBeforeEventsAtItsTime(t *testing.T) {
	const period = 4 * time.Second
	var fams []models.Family
	for _, f := range models.Zoo() {
		if f.Name == "efficientnet" {
			fams = append(fams, f)
		}
	}
	// flood is 200 QPS from time zero, off the whole-second grid.
	flood := func(d time.Duration) []trace.Arrival {
		var arr []trace.Arrival
		for at := 2500 * time.Microsecond; at < d; at += 5 * time.Millisecond {
			arr = append(arr, trace.Arrival{Time: at})
		}
		return arr
	}
	onGrid := func(at time.Duration) bool { return (at-2500*time.Microsecond)%(5*time.Millisecond) == 0 }
	run := func(devices []cluster.TypeCount, base []trace.Arrival, extra time.Duration) (*Result, []telemetry.Event) {
		if extra > 0 {
			base = append(slices.Clone(base), trace.Arrival{Time: extra})
		}
		cfg := Config{
			Cluster:       cluster.New(devices),
			Families:      fams,
			Allocator:     allocator.NewInfaasAccuracy(),
			ControlPeriod: period,
			BurstCooldown: period,
			Tracer:        telemetry.NewTracer(1 << 16),
			TSDB: tsdb.NewRecorder(tsdb.Config{SLO: tsdb.SLOConfig{
				ShortWindow: time.Second, LongWindow: 2 * time.Second,
			}}),
			Overload: &overload.Config{Enabled: true, RestoreHold: time.Nanosecond},
			Seed:     1,
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunArrivals(base, 6*time.Second, []float64{10})
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Tracer.Events()
	}
	// arrivalFirst finds the first event mark matches in a probe run, adds an
	// arrival at its time and compares the two positions in the new trace.
	arrivalFirst := func(name string, devices []cluster.TypeCount, base []trace.Arrival, mark func(telemetry.Event) bool) {
		_, probe := run(devices, base, 0)
		i := slices.IndexFunc(probe, mark)
		if i < 0 {
			t.Fatalf("the probe run shows no %s: the scenario no longer covers it", name)
		}
		at := probe[i].At
		_, evs := run(devices, base, at)
		arrival := slices.IndexFunc(evs, func(ev telemetry.Event) bool { return ev.Kind == telemetry.EvArrival && ev.At == at })
		event := slices.IndexFunc(evs, func(ev telemetry.Event) bool { return mark(ev) && ev.At == at })
		if arrival < 0 || event < 0 {
			t.Fatalf("%s at %v: arrival at trace index %d, event at %d; both must be traced", name, at, arrival, event)
		}
		if arrival > event {
			t.Errorf("%s at %v was handled before the arrival at the same time", name, at)
		}
	}
	oneDevice := []cluster.TypeCount{{Type: cluster.V100, Count: 1}}

	arrivalFirst("batch completion", oneDevice, flood(6*time.Second), func(ev telemetry.Event) bool {
		return (ev.Kind == telemetry.EvDone || ev.Kind == telemetry.EvLate) && !onGrid(ev.At)
	})

	// The guard degrades a family only between two hosted variants, so this
	// one needs two devices. Two seconds of overload start an SLO burn and a
	// degradation; once the burn has cleared, only a guard tick restores.
	arrivalFirst("guard tick", []cluster.TypeCount{{Type: cluster.V100, Count: 1}, {Type: cluster.CPU, Count: 1}},
		flood(2*time.Second), func(ev telemetry.Event) bool {
			return ev.Kind == telemetry.EvDegradeEnd && ev.At%time.Second == 0
		})

	// The periodic re-allocation leaves no trace event. An arrival at
	// exactly one control period, where the burst cooldown ends too, sees a
	// burst and re-plans — unless the periodic plan came first and restarted
	// the cooldown.
	planAt := func(res *Result) string {
		for _, p := range res.Plans {
			if p.At == period {
				return p.Trigger
			}
		}
		return ""
	}
	if res, _ := run(oneDevice, flood(6*time.Second), 0); planAt(res) != "periodic" {
		t.Fatalf("plans %v: the probe run has no periodic plan at %v", planTriggers(res), period)
	}
	if res, _ := run(oneDevice, flood(6*time.Second), period); planAt(res) != "burst" {
		t.Errorf("plans %v: the arrival at %v should have re-planned on a burst before the periodic re-allocation ran",
			planTriggers(res), period)
	}
}

// planTriggers renders a run's plan history as "trigger@time" for messages.
func planTriggers(res *Result) []string {
	var out []string
	for _, p := range res.Plans {
		out = append(out, p.Trigger+"@"+p.At.String())
	}
	return out
}

// TestRunAllocationCeiling keeps the run loop's allocations per query under
// a ceiling that any per-event or per-batch allocation breaks: closures or
// heap nodes for arrivals, batch completions or wake-ups cost one to three
// per query, a fresh slice per batch about 0.2. The run takes about 0.06
// (0.063 under -race), most of it the latency histograms, queue growth and
// the plans; routing-table rebuilds refill one table in place.
func TestRunAllocationCeiling(t *testing.T) {
	names := make([]string, 0, 9)
	for _, f := range models.Zoo() {
		names = append(names, f.Name)
	}
	per := make([]float64, len(names))
	for q := range per {
		per[q] = 200 / float64(len(names))
	}
	tr := trace.NewFlat(names, per, 60)
	sys, err := NewSystem(Config{
		Cluster:   cluster.ScaledTestbed(20),
		Families:  models.Zoo(),
		Allocator: allocator.NewInfaasAccuracy(),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sys.Run(tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Queries < 10000 {
		t.Fatalf("only %d queries", res.Summary.Queries)
	}
	// Expanding the arrivals is part of Run: one slice for all of them, and
	// a second's scratch that grows to the densest second.
	perQuery := float64(after.Mallocs-before.Mallocs) / float64(res.Summary.Queries)
	t.Logf("%.3f mallocs per query over %d queries", perQuery, res.Summary.Queries)
	if perQuery > 0.08 {
		t.Errorf("%.3f mallocs per query, ceiling 0.08", perQuery)
	}
}
