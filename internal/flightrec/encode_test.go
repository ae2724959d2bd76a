package flightrec

import (
	"bytes"
	"encoding/binary"
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
// logged and read, and how strings lose their invalid UTF-8. A phase row
// naming a scope or phase no tsdb recorder writes fails to log, as an event
// kind outside its enum fails to encode.
func oracle(b *Bundle) (*Bundle, error) {
	for _, p := range b.Phases {
		if !p.Valid() {
			return nil, fmt.Errorf("phase row %q/%q", p.Scope, p.Phase)
		}
	}
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
			ID: "incident-000001-manual", TraceEvents: []telemetry.Event{}, Counters: []CounterSnap{},
			Samples: []tsdb.Sample{}, Burns: []tsdb.BurnEvent{}, Phases: []tsdb.PhaseStat{},
			Plans: []controlplane.PlanRecord{}, Runtime: []RuntimeSnap{},
		}},
		{"escaping", Bundle{
			ID: nasty, Reason: nasty, Detail: nasty, Family: -1, Device: -7,
			TraceEvents: []telemetry.Event{{Kind: telemetry.EvDropped, Cause: telemetry.CauseDraining, Family: -1, Device: -1, Batch: -1}},
			Counters:    []CounterSnap{{Metrics: []telemetry.Metric{{Name: nasty, Value: -3, Kind: nasty}}}},
			Samples:     []tsdb.Sample{{At: -5, Device: -2, Variant: nasty}},
			Phases:      []tsdb.PhaseStat{{Scope: "family", Index: -1, Phase: "admission"}},
			Build:       buildinfo.Info{GoVersion: nasty, Path: "proteus", Revision: "abc", Modified: true},
		}},
		{"every byte", Bundle{
			ID: string(every), Detail: string(every),
			Samples: []tsdb.Sample{{Variant: string(every)}},
		}},
		{"causal stamps", Bundle{Family: 2, Device: 0, TraceEvents: []telemetry.Event{
			{},
			{Kind: telemetry.EvDropped, Plan: 3},
			{Kind: telemetry.EvRequeued, Episode: -2},
			{Kind: telemetry.EvDropped, Cause: telemetry.CauseStaleRoute},
			{At: 1999 * time.Nanosecond, Kind: telemetry.EvDegradeEnd},
			{At: math.MinInt64, Kind: telemetry.EvSLOBurnStart, Batch: -1},
			{At: math.MaxInt64, Seq: math.MaxUint64, Kind: telemetry.EvDone, Query: math.MaxUint64,
				Family: math.MinInt32, Device: math.MaxInt32, Batch: 32, Plan: math.MaxInt32, Episode: 1, Cause: telemetry.CauseExpired},
		}}},
		{"kind outside its enum", Bundle{TraceEvents: []telemetry.Event{{Kind: telemetry.EvDegradeEnd + 1}}}},
		{"cause outside its enum", Bundle{TraceEvents: []telemetry.Event{{Kind: telemetry.EvDropped, Cause: telemetry.CauseDraining + 1}}}},
		{"phase outside tsdb's", Bundle{Phases: []tsdb.PhaseStat{{Scope: "device", Phase: "response"}}}},
		{"scope outside tsdb's", Bundle{Phases: []tsdb.PhaseStat{{Scope: nasty, Phase: "exec"}}}},
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
		checkTraceJSON(t, tc.name, &tc.b)
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
			b.TraceEvents = []telemetry.Event{}
			fill(3, func(j int) {
				// One kind in 15 and one cause in 11 are outside their enums.
				var cause telemetry.Cause
				if bit(0) && j > 0 {
					cause = telemetry.Cause(uint64(i) % 11)
				}
				b.TraceEvents = append(b.TraceEvents, telemetry.Event{At: time.Duration(i), Seq: u, Kind: telemetry.EventKind(u % 15),
					Query: u + uint64(j), Family: int32(i), Device: int32(u), Batch: int32(i >> 32), Plan: int32(i) * int32(j),
					Episode: int32(u>>32) * int32(j), Cause: cause})
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
				// One phase name in four is s, outside tsdb's unless s is one.
				phase := [...]string{"admission", "queue", "exec", s}[u%4]
				b.Phases = append(b.Phases, tsdb.PhaseStat{Scope: [...]string{"family", "device"}[j], Index: int(i), Phase: phase, Count: u, MeanUS: i})
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
		checkTraceJSON(t, "fuzzed bundle", &b)
	})
}

// TestTraceRecordRejectsWhatNoEventEncodes holds the trace record's reader
// to the encoder's enums: a kind or cause name outside them — batch_formed,
// a stage older engines traced, included — or a time in microseconds no
// Duration holds, is a malformed record, so Log.Bundle refuses the bundle.
func TestTraceRecordRejectsWhatNoEventEncodes(t *testing.T) {
	record := func(us int64, kind, cause string) []byte {
		rec := binary.AppendUvarint(binary.AppendVarint(nil, us), 7)
		rec = binary.AppendUvarint(appendStr(rec, kind), 9)
		for range 5 {
			rec = binary.AppendVarint(rec, -1)
		}
		return appendStr(rec, cause)
	}
	var ev telemetry.Event
	if err := traceElem(record(-3, "dropped", "expired"), &ev); err != nil ||
		ev.At != -3*time.Microsecond || ev.Kind != telemetry.EvDropped || ev.Cause != telemetry.CauseExpired || ev.Query != 9 {
		t.Fatalf("well-formed record read as %+v, %v", ev, err)
	}
	for _, rec := range [][]byte{
		record(0, "dispatched", ""),
		record(0, "batch_formed", ""),
		record(0, "dropped", "lost"),
		record(0, "event(14)", ""),
		record(math.MaxInt64/1000+1, "done", ""),
		record(math.MinInt64, "done", ""),
	} {
		if err := traceElem(rec, &ev); !errors.Is(err, errBadRecord) {
			t.Errorf("record %q read as %+v, %v; want a malformed record", rec, ev, err)
		}
	}
}

// TestPhaseRecordRejectsWhatNoRecorderWrites holds the phase record's reader
// to tsdb's rows: a scope other than family or device, or a phase outside
// tsdb.Phase's names — response and batch_form, stages older engines
// recorded, included — is a malformed record, so Log.Bundle refuses the
// bundle.
func TestPhaseRecordRejectsWhatNoRecorderWrites(t *testing.T) {
	record := func(scope, phase string) []byte {
		rec := binary.AppendVarint(appendStr(nil, scope), 3)
		rec = binary.AppendUvarint(appendStr(rec, phase), 23)
		for range 5 {
			rec = binary.AppendVarint(rec, 7)
		}
		return rec
	}
	var p tsdb.PhaseStat
	if err := phaseElem(record("device", "queue"), &p); err != nil ||
		p != (tsdb.PhaseStat{Scope: "device", Index: 3, Phase: "queue", Count: 23, MeanUS: 7, P50US: 7, P95US: 7, P99US: 7, MaxUS: 7}) {
		t.Fatalf("well-formed record read as %+v, %v", p, err)
	}
	for _, rec := range [][]byte{
		record("device", "response"),
		record("family", "batch_form"),
		record("family", ""),
		record("model", "exec"),
		record("", "admission"),
	} {
		if err := phaseElem(rec, &p); !errors.Is(err, errBadRecord) {
			t.Errorf("record %q read as %+v, %v; want a malformed record", rec, p, err)
		}
	}
}

// TraceEvent is the type a bundle's trace events had before bundles held
// telemetry.Event, kept as the reference for the bundle JSON of an event.
type TraceEvent struct {
	AtUS    int64  `json:"at_us"`
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Query   uint64 `json:"query"`
	Family  int32  `json:"family"`
	Device  int32  `json:"device"`
	Batch   int32  `json:"batch"`
	Plan    int32  `json:"plan,omitempty"`
	Episode int32  `json:"episode,omitempty"`
	Cause   string `json:"cause,omitempty"`
}

func toTraceEvent(ev telemetry.Event) TraceEvent {
	te := TraceEvent{
		AtUS:    ev.At.Microseconds(),
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Query:   ev.Query,
		Family:  ev.Family,
		Device:  ev.Device,
		Batch:   ev.Batch,
		Plan:    ev.Plan,
		Episode: ev.Episode,
	}
	if ev.Cause != telemetry.CauseNone {
		te.Cause = ev.Cause.String()
	}
	return te
}

// checkTraceJSON fails t unless b's trace events encode as the reference
// TraceEvent encodes them, byte for byte, in b's bundle JSON too, or fail to
// encode exactly when one has a kind or cause outside its enum.
func checkTraceJSON(t *testing.T, name string, b *Bundle) {
	t.Helper()
	got, err := json.Marshal(b.TraceEvents)
	valid := true
	ref := make([]TraceEvent, len(b.TraceEvents))
	for k, ev := range b.TraceEvents {
		valid = valid && ev.Kind.Valid() && ev.Cause.Valid()
		ref[k] = toTraceEvent(ev)
	}
	if (err == nil) != valid {
		t.Fatalf("%s: trace events' JSON error %v, but their kinds and causes valid: %v", name, err, valid)
	}
	if err != nil || len(ref) == 0 {
		return
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: trace events' JSON\n%s\nwant the reference's\n%s", name, got, want)
	}
	if data, err := json.Marshal(b); err == nil && !bytes.Contains(data, append([]byte(`,"trace_events":`), want...)) {
		t.Fatalf("%s: bundle JSON\n%s\ndoes not hold the reference trace events", name, data)
	}
}

// TestTraceReadsLandOutOfOrder lands triggers' reads of the tracer in an
// order other than the one they were read in, as concurrent triggers can:
// newer, older, the same, empty, disjoint from the log's newest event, and
// from a tracer that has wrapped and moved its events to a fresh array.
// Each bundle's trace must be the newest events of the latest read landed so
// far, held in the recorder's own array rather than the tracer's, every
// bundle read back from the incident log must be the oracle's, and no bundle
// may change after later landings. A read of a tracer that Init has since
// replaced lands nothing. The recorder's limit is below the tracer's
// capacity of 32, and above it, where the ring must drop what it holds that
// the tracer has dropped.
func TestTraceReadsLandOutOfOrder(t *testing.T) {
	for _, limit := range []int{20, 40} {
		t.Run(fmt.Sprint("limit", limit), func(t *testing.T) { landOutOfOrder(t, limit) })
	}
}

func landOutOfOrder(t *testing.T, limit int) {
	dir := t.TempDir()
	tracer := telemetry.NewTracer(32)
	r := New(Config{Dir: dir})
	r.lim.trace = limit
	r.Init(Sources{Tracer: tracer})

	type read struct {
		events []telemetry.Event
		end    uint64
	}
	reads := map[uint64]read{}
	var all []telemetry.Event
	newest := func(end uint64) []telemetry.Event { return all[end-min(end, 32, uint64(limit)) : end] }
	for _, end := range []uint64{0, 10, 12, 14, 16, 40, 90} {
		for q := uint64(len(all)); q < end; q++ {
			tracer.RecordCtx(time.Duration(q)*time.Microsecond+time.Duration(q), telemetry.EvArrival, 1000+q, int(q%3), -1, -1,
				telemetry.Ctx{Plan: int32(q / 10), Cause: telemetry.Cause(q % 3)})
			events, _ := tracer.Window()
			all = append(all, events[len(events)-1])
		}
		events, got := tracer.Window()
		reads[end] = read{events, got}
	}

	type landed struct {
		b    *Bundle
		json []byte
	}
	var bundles []landed
	latest := uint64(0)
	for _, end := range []uint64{0, 12, 10, 12, 16, 14, 40, 16, 0, 90, 40, 90} {
		rd := reads[end]
		latest = max(latest, end)
		b := r.cut(&Bundle{Reason: "manual", Detail: fmt.Sprintf("read to %d", end), Family: -1, Device: -1}, tracer, rd.events, rd.end)
		want := newest(latest)
		if len(b.TraceEvents) != len(want) || (len(want) > 0 && !reflect.DeepEqual(b.TraceEvents, want)) {
			t.Fatalf("read to %d landed after one to %d: trace %+v, want %+v", end, latest, b.TraceEvents, want)
		}
		if n, m := len(b.TraceEvents), len(rd.events); n > 0 && m > 0 && &b.TraceEvents[n-1] == &rd.events[m-1] {
			t.Fatalf("read to %d: the bundle's trace is a window of the tracer's array", end)
		}
		checkBundleFile(t, dir, b)
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, landed{b, data})
	}
	for _, l := range bundles {
		if data, err := json.Marshal(l.b); err != nil || !bytes.Equal(data, l.json) {
			t.Fatalf("bundle %s changed after later landings (%v)", l.b.ID, err)
		}
	}

	old := telemetry.NewTracer(200)
	for q := range 100 {
		old.Record(time.Duration(q), telemetry.EvDone, uint64(q), 0, -1, -1)
	}
	events, end := old.Window()
	b := r.cut(&Bundle{Reason: "manual", Family: -1, Device: -1}, old, events, end)
	if !reflect.DeepEqual(b.TraceEvents, newest(90)) {
		t.Fatalf("a read of another tracer landed: trace %+v", b.TraceEvents)
	}
	checkBundleFile(t, dir, b)
	if err := r.WriteError(); err != nil {
		t.Fatal(err)
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
