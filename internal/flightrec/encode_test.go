package flightrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"proteus/internal/allocator"
	"proteus/internal/buildinfo"
	"proteus/internal/controlplane"
	"proteus/internal/overload"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// oracle is what reading b back from the incident log must return: b
// through one encoding/json round trip, which is how the nested records are
// logged and read, and how strings lose their invalid UTF-8.
func oracle(b *Bundle) (*Bundle, error) {
	data, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	var back Bundle
	if err := json.Unmarshal(data, &back); err != nil {
		return nil, err
	}
	return &back, nil
}

// checkLogRoundTrip fails t unless b, logged into a fresh incident log with
// its ring sections from ordinal first and read back from it, is the
// oracle's, or fails to log where the oracle fails.
func checkLogRoundTrip(t *testing.T, name string, b *Bundle, first uint64) {
	t.Helper()
	want, wantErr := oracle(b)
	var st logState
	firsts := [nSections]uint64{first, first, first, first, first, first, first}
	data, err := st.appendBundle([]byte(logMagic), b, &firsts)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: logging error %v, encoding/json error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	l, err := ParseLog(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkRead(t, l, want)
}

// checkRead fails t unless the bundle with want's ID, read back from l, is
// want.
func checkRead(t *testing.T, l *Log, want *Bundle) {
	t.Helper()
	got, err := l.Bundle(want.ID)
	if err != nil {
		t.Fatalf("bundle %q: %v", want.ID, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bundle %q read from the log differs from encoding/json's round trip\n got: %+v\nwant: %+v", want.ID, got, want)
	}
}

// nasty needs every kind of JSON string escaping: quote and backslash, the
// HTML characters, control bytes, U+2028/U+2029, invalid UTF-8 — and keeps
// one non-ASCII rune that needs none.
const nasty = "<a href=\"x\">&amp;</a> \\ \t\n\x00\x1f\x7f \u2028\u2029 \xff\xfe\xc3 é"

// TestLogRoundTripEdgeCases logs and reads back bundles at the edges of
// every field's encoding: nil and empty sections, strings that need
// escaping or hold invalid UTF-8 (every byte value, in the header and the
// flat records), extreme numbers, omitted fields and a float encoding/json
// cannot encode.
func TestLogRoundTripEdgeCases(t *testing.T) {
	every := []byte("é\u2028\u2029\ufffd日本")
	for c := range 256 {
		every = append(every, 'a', byte(c))
	}
	plan := controlplane.PlanRecord{
		Seq: 4, At: 30 * time.Second, Demand: []float64{12.5, 0, 1e-9},
		PredictedAccuracy: 0.9271, DemandScale: 1, Trigger: "periodic", Solver: "milp (fallback)",
		Stage: "fallback", Err: nasty,
		Stats:          allocator.SolverStats{Objective: 44134.9, Bound: 45000, RelGap: -1, Nodes: 800, Backoffs: 2},
		HostedVariants: map[string]int{"resnet50": 2, "b": 1, nasty: 3},
		Changes:        []controlplane.DeviceChange{{Device: 3, From: "", To: "resnet50"}},
		Loads:          1, RoutingDelta: 0.25,
		SLOBurns:  []tsdb.BurnEvent{{At: time.Second, Family: 1, Start: true, ShortBurn: 3, LongBurn: 2.5}},
		Overloads: []overload.Change{{At: 2 * time.Second, Family: 0, Kind: overload.Degrade, Level: 1, Episode: 7, Reason: nasty}},
	}
	for _, tc := range []struct {
		name string
		b    Bundle
	}{
		{"zero", Bundle{}},
		{"empty sections", Bundle{
			ID: "incident-000001-manual", TraceEvents: []TraceEvent{}, Counters: []CounterSnap{},
			Samples: []tsdb.Sample{}, Burns: []tsdb.BurnEvent{}, Phases: []tsdb.PhaseStat{},
			Plans: []controlplane.PlanRecord{}, Runtime: []RuntimeSnap{},
		}},
		{"escaping", Bundle{
			ID: nasty, Reason: nasty, Detail: nasty, Family: -1, Device: -7,
			TraceEvents: []TraceEvent{{Kind: nasty, Cause: nasty, Family: -1, Device: -1, Batch: -1}},
			Counters:    []CounterSnap{{Metrics: []telemetry.Metric{{Name: nasty, Value: -3, Kind: nasty}}}},
			Samples:     []tsdb.Sample{{At: -5, Device: -2, Variant: nasty}},
			Phases:      []tsdb.PhaseStat{{Scope: nasty, Index: -1, Phase: nasty}},
			Build:       buildinfo.Info{GoVersion: nasty, Path: "proteus", Revision: "abc", Modified: true},
		}},
		{"every byte", Bundle{
			ID: string(every), Detail: string(every),
			TraceEvents: []TraceEvent{{Kind: string(every), Cause: string(every)}},
			Samples:     []tsdb.Sample{{Variant: string(every)}},
			Phases:      []tsdb.PhaseStat{{Scope: string(every), Phase: string(every)}},
		}},
		{"causal stamps", Bundle{Family: 2, Device: 0, TraceEvents: []TraceEvent{
			{},
			{Kind: "dropped", Plan: 3},
			{Kind: "requeued", Episode: -2},
			{Kind: "dropped", Cause: "stale_route"},
			{AtUS: math.MaxInt64, Seq: math.MaxUint64, Kind: "done", Query: math.MaxUint64,
				Family: math.MinInt32, Device: math.MaxInt32, Batch: 32, Plan: math.MaxInt32, Episode: 1, Cause: "expired"},
		}}},
		{"samples", Bundle{Samples: []tsdb.Sample{
			{},
			{At: time.Second, Device: 3, Up: true, QueueDepth: 7, BatchSize: 8, UtilMilli: 1000, Variant: "resnet50"},
			{At: math.MinInt64, SatMilli: -1, Pressured: true},
			{At: math.MaxInt64, Device: math.MaxInt64, QueueDepth: math.MinInt64, SatMilli: 1500},
		}}},
		{"counters", Bundle{Counters: []CounterSnap{
			{AtNS: 1},
			{AtNS: 2, Metrics: []telemetry.Metric{}},
			{AtNS: 3, Metrics: []telemetry.Metric{{Name: "a_total", Value: math.MaxInt64, Kind: "counter"}, {Name: "up", Kind: "gauge"}}},
		}}},
		{"burns, phases and plans", Bundle{
			Burns:  []tsdb.BurnEvent{{At: time.Second, Family: 1, Start: true, ShortBurn: 3.25, LongBurn: 1e21}, {LongBurn: -0.5}},
			Phases: []tsdb.PhaseStat{{Scope: "device", Index: 3, Phase: "exec", Count: math.MaxUint64, MeanUS: 12, P50US: 10, P95US: 30, P99US: 40, MaxUS: 99}},
			Plans:  []controlplane.PlanRecord{{}, plan},
		}},
		{"live runtime", Bundle{Reason: "manual", Runtime: []RuntimeSnap{
			{AtNS: 5, HeapAllocBytes: 1 << 40, HeapSysBytes: math.MaxUint64, GCPauseTotalNS: 7, NumGC: math.MaxUint32, Goroutines: 12},
			{},
		}}},
		{"unencodable float", Bundle{Burns: []tsdb.BurnEvent{{ShortBurn: math.NaN()}}}},
	} {
		checkLogRoundTrip(t, tc.name, &tc.b, 1<<40)
	}
}

// FuzzBundleEncoding checks the bundle logged and read back from the
// incident log against encoding/json's round trip, on bundles built from
// the fuzzed values: s fills every string, i/u/x the numbers, and the
// bits of mask pick which sections are nil, empty or present and which
// omitempty fields are set. testdata/fuzz holds the seeds that reach
// escaping, extremes and unencodable floats.
func FuzzBundleEncoding(f *testing.F) {
	f.Add("incident-000001-slo_burn", int64(-1), uint64(7), 2.5, uint16(0xffff))
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, x float64, mask uint16) {
		bit := func(k uint) bool { return mask&(1<<k) != 0 }
		sect := func(k uint) int { // nil, empty, one or two elements
			return int(mask>>k) & 3
		}
		b := Bundle{ID: s, Seq: int(i), AtNS: i, Reason: s, Family: int(i), Device: int(int32(u))}
		if bit(0) {
			b.Detail = s
		}
		if bit(1) {
			b.Build = buildinfo.Info{GoVersion: s, Revision: s, Modified: bit(2)}
		}
		str := func(on bool) string {
			if on {
				return s
			}
			return ""
		}
		fill := func(k uint, add func(j int)) {
			for j := range sect(k) - 1 {
				add(j)
			}
		}
		if sect(3) > 0 {
			b.TraceEvents = []TraceEvent{}
			fill(3, func(j int) {
				b.TraceEvents = append(b.TraceEvents, TraceEvent{AtUS: i, Seq: u, Kind: s, Query: u + uint64(j),
					Family: int32(i), Device: int32(u), Batch: int32(i >> 32), Plan: int32(i) * int32(j),
					Episode: int32(u>>32) * int32(j), Cause: str(bit(0) && j > 0)})
			})
		}
		if sect(5) > 0 {
			b.Samples = []tsdb.Sample{}
			fill(5, func(j int) {
				b.Samples = append(b.Samples, tsdb.Sample{At: time.Duration(i), Device: j, Up: bit(2), QueueDepth: int(u),
					BatchSize: int(i), UtilMilli: int(u >> 1), Variant: str(bit(1)), SatMilli: int(i) * j, Pressured: bit(2) && j > 0})
			})
		}
		if sect(7) > 0 {
			b.Counters = []CounterSnap{}
			fill(7, func(j int) {
				var m []telemetry.Metric
				if bit(9) {
					m = []telemetry.Metric{}
				}
				for range j + 1 {
					m = append(m, telemetry.Metric{Name: s, Value: i, Kind: s})
				}
				b.Counters = append(b.Counters, CounterSnap{AtNS: i, Metrics: m})
			})
		}
		if sect(10) > 0 {
			b.Burns = []tsdb.BurnEvent{}
			b.Phases = []tsdb.PhaseStat{}
			fill(10, func(j int) {
				b.Burns = append(b.Burns, tsdb.BurnEvent{At: time.Duration(u), Family: j, Start: bit(2), ShortBurn: x, LongBurn: -x})
				b.Phases = append(b.Phases, tsdb.PhaseStat{Scope: s, Index: int(i), Phase: s, Count: u, MeanUS: i})
			})
		}
		if sect(12) > 0 {
			b.Plans = []controlplane.PlanRecord{}
			fill(12, func(j int) {
				b.Plans = append(b.Plans, controlplane.PlanRecord{Seq: j, Demand: []float64{x}, Trigger: s, Err: str(bit(0)),
					HostedVariants: map[string]int{s: int(i), "b": j}, Stats: allocator.SolverStats{RelGap: x, Nodes: int(i)}})
			})
		}
		if sect(14) > 0 {
			b.Runtime = []RuntimeSnap{}
			fill(14, func(j int) {
				b.Runtime = append(b.Runtime, RuntimeSnap{AtNS: i, HeapAllocBytes: u, NumGC: uint32(u), Goroutines: j})
			})
		}
		checkLogRoundTrip(t, "fuzzed bundle", &b, u>>2)
	})
}

// TestEncodeTraceWindows drives the trace cache through the windows that
// concurrent triggers can bring in any order — newer, shorter, older,
// disjoint, empty, and reads whose skipped head a trigger that joined first
// has trimmed — and holds every bundle, read back from the incident log, to
// the oracle. A read issued with the cache's end at the time joins later; a
// join refused (the trigger then reads again) must leave the cache as it
// was and log nothing.
func TestEncodeTraceWindows(t *testing.T) {
	dir := t.TempDir()
	tracer := telemetry.NewTracer(64)
	for q := 0; q < 40; q++ {
		tracer.RecordCtx(time.Duration(q)*time.Microsecond, telemetry.EvArrival, uint64(1000+q), q%3, -1, -1,
			telemetry.Ctx{Plan: int32(q / 10), Cause: telemetry.Cause(q % 3)})
	}
	all := tracer.Events()
	r := New(Config{Dir: dir})
	r.lim.trace = 20
	r.Init(Sources{Tracer: tracer})

	// read is one trigger's read of the tracer: the window [first, end) of
	// the tracer's newest events, asked for from the cache's end at the
	// time, from.
	type read struct{ first, end, from uint64 }
	issue := func(first, end uint64) read {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.trace.end() > end {
			t.Fatalf("window [%d, %d) issued after the cache reached %d", first, end, r.trace.end())
		}
		return read{first, end, r.trace.end()}
	}
	type joined struct {
		b    *Bundle
		want []TraceEvent
	}
	var bundles []joined
	join := func(rd read, wantOK bool) {
		t.Helper()
		r.log.mu.Lock()
		defer r.log.mu.Unlock()
		r.mu.Lock()
		before, logged := r.runState, r.log.logState
		ok := r.joinTrace(tracer, rd.first, rd.from, all[max(rd.first, rd.from):rd.end])
		if ok != wantOK {
			r.mu.Unlock()
			t.Fatalf("window [%d, %d) from %d: joined %v, want %v", rd.first, rd.end, rd.from, ok, wantOK)
		}
		if !ok {
			same := r.trace.base == before.trace.base && r.trace.start == before.trace.start &&
				len(r.trace.all) == len(before.trace.all) && cap(r.trace.all) == cap(before.trace.all)
			r.mu.Unlock()
			if !same {
				t.Fatalf("window [%d, %d) from %d: a refused join changed the cache", rd.first, rd.end, rd.from)
			}
			if r.log.size != logged.size || r.log.next != logged.next || logSize(t, dir) != logged.size {
				t.Fatalf("window [%d, %d) from %d: a refused join logged something", rd.first, rd.end, rd.from)
			}
			return
		}
		b := &Bundle{ID: fmt.Sprintf("window-%02d-%02d-%02d", len(bundles), rd.first, rd.end), TraceEvents: r.trace.window()}
		first := r.windows()
		r.mu.Unlock()
		if err := r.log.append(dir, b, &first); err != nil {
			t.Fatal(err)
		}
		want := make([]TraceEvent, 0, rd.end-rd.first)
		for _, ev := range all[rd.first:rd.end] {
			want = append(want, toTraceEvent(ev))
		}
		if len(b.TraceEvents) != len(want) || (len(want) > 0 && !reflect.DeepEqual(b.TraceEvents, want)) {
			t.Fatalf("window [%d, %d): trace events %+v, want %+v", rd.first, rd.end, b.TraceEvents, want)
		}
		checkBundleFile(t, dir, b)
		bundles = append(bundles, joined{b, want})
	}

	join(issue(0, 0), true)   // empty
	join(issue(5, 10), true)  // into the empty cache
	join(issue(7, 12), true)  // newer, overlapping
	join(issue(8, 12), true)  // shorter, nothing new
	join(issue(6, 12), false) // older: its head is trimmed
	older, newer := issue(9, 13), issue(10, 14)
	join(newer, true)
	join(older, false) // its head is cached, but the cache has moved past it
	older, newer = issue(11, 15), issue(12, 16)
	join(newer, true)
	join(older, false) // a concurrent trigger trimmed what this read skipped
	join(issue(12, 16), true)
	stale := issue(0, 20)
	join(issue(25, 30), true) // disjoint: the cache starts afresh
	join(stale, false)        // older than the whole cache
	join(issue(25, 40), true)
	wide, narrow := issue(30, 40), issue(35, 40)
	join(narrow, true)
	join(wide, false) // nothing new to read, but its head is trimmed
	join(issue(39, 40), true)

	for _, jb := range bundles {
		if len(jb.b.TraceEvents) != len(jb.want) || (len(jb.want) > 0 && !reflect.DeepEqual(jb.b.TraceEvents, jb.want)) {
			t.Fatalf("bundle %s changed after later joins", jb.b.ID)
		}
	}
}

// checkBundleFile fails t unless b, read back from the incident log in dir,
// is the oracle's.
func checkBundleFile(t *testing.T, dir string, b *Bundle) {
	t.Helper()
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkLogged(t, l, b)
}

// checkLogged fails t unless b, read back from l, is the oracle's.
func checkLogged(t *testing.T, l *Log, b *Bundle) {
	t.Helper()
	want, err := oracle(b)
	if err != nil {
		t.Fatal(err)
	}
	checkRead(t, l, want)
}

// logSize returns the size of the incident log in dir, 0 when there is none.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, LogFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestBundleFilesMatchOracle drives the incident log's watermarks through
// everything that could leave a bundle pointing at a wrong or missing
// record — ticks that shift full rings between triggers, two triggers at
// one instant, a trace ring that has wrapped, plans that come and go, and a
// second Init whose new tracer and plans reuse the old Seqs with other
// content — and holds every bundle read back from the log to the oracle.
func TestBundleFilesMatchOracle(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Dir: dir})
	r.lim = limits{trace: 5, counters: 2, samples: 3, burns: 2, plans: 2, incidents: maxIncidents}
	check := func(b *Bundle) {
		t.Helper()
		checkBundleFile(t, dir, b)
	}
	for run, kind := range []telemetry.EventKind{telemetry.EvArrival, telemetry.EvDropped} {
		tracer := telemetry.NewTracer(16)
		registry := telemetry.NewRegistry()
		rec := tsdb.NewRecorder(tsdb.Config{SampleInterval: time.Second})
		rec.Init(2, nil)
		var plans []controlplane.PlanRecord
		r.Init(Sources{
			Tracer: tracer, Registry: registry, TSDB: rec,
			Plans: func() []controlplane.PlanRecord { return plans },
		})
		// The second run's first bundle holds the trace and plan Seqs the
		// first run's last bundle held, with other content.
		for q := 0; q < 36*run; q++ {
			tracer.Record(0, kind, uint64(q), 1, -1, -1)
		}
		for len(plans) < 4*run {
			plans = append(plans, controlplane.PlanRecord{Seq: len(plans) + 1, Trigger: "primed"})
		}
		check(r.Trigger(0, "manual", "first", -1, -1))
		for sec := 0; sec < 12; sec++ {
			now := time.Duration(sec) * time.Second
			for q := 0; q < 3; q++ {
				tracer.RecordCtx(now, kind, uint64(100*run+q), q%2, sec%4, -1,
					telemetry.Ctx{Plan: int32(sec / 3), Episode: int32(run), Cause: telemetry.Cause(q)})
			}
			registry.Counter("queries_arrived_total").Add(int64(sec + run))
			rec.Arrival(now, 0)
			if sec < 6 {
				rec.Violation(now, 0) // a burn on family 0 that ends in the second half
			}
			rec.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: sec + run}, {Up: sec%2 == 0, Variant: "resnet50"}})
			rec.RecordPhases(sec%2, sec%2, tsdb.PhaseDurations{Queue: now, Exec: time.Millisecond})
			if sec%3 == 0 {
				plans = append(plans, controlplane.PlanRecord{Seq: len(plans) + 1, At: now, Trigger: kind.String(), SolveTime: time.Second})
			}
			r.Tick(now)
			check(r.Trigger(now, "manual", "", -1, -1))
			if sec%4 == 1 {
				check(r.Trigger(now, "slo_burn", "same instant", 0, -1))
			}
		}
		if tracer.Dropped() == 0 {
			t.Fatal("trace ring never wrapped")
		}
		if _, n := rec.BurnsSince(0); n < 2 {
			t.Fatalf("%d burn transitions, want a start and an end", n)
		}
		check(r.Trigger(time.Minute, "manual", "after the last tick", -1, -1))
	}
	if err := r.WriteError(); err != nil {
		t.Fatal(err)
	}
}
