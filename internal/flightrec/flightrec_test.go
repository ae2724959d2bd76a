package flightrec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// fixture assembles a recorder wired to real observability sources with some
// state already in them.
func fixture(cfg Config) (*Recorder, Sources) {
	tracer := telemetry.NewTracer(1 << 10)
	registry := telemetry.NewRegistry()
	registry.Counter("queries_arrived_total").Add(5)
	registry.Gauge("devices_up").Set(4)
	rec := tsdb.NewRecorder(tsdb.Config{SampleInterval: time.Second})
	rec.Init(2, nil)
	plans := []controlplane.PlanRecord{
		{At: 0, Trigger: "initial", Stage: "primary", Solver: "milp", SolveTime: 123},
		{At: 10 * time.Second, Trigger: "periodic", Stage: "primary", Solver: "milp", SolveTime: 456},
	}
	src := Sources{
		Tracer:   tracer,
		Registry: registry,
		TSDB:     rec,
		Plans:    func() []controlplane.PlanRecord { return plans },
	}
	r := New(cfg)
	r.Init(src)
	return r, src
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Init(Sources{})
	r.Tick(time.Second)
	if b := r.Trigger(time.Second, "manual", "", -1, -1); b != nil {
		t.Fatal("nil recorder returned a bundle")
	}
	if r.Incidents() != nil || r.WriteError() != nil || r.Dir() != "" {
		t.Fatal("nil recorder accessors not empty")
	}
}

// TestNilRecorderAllocatesNothing holds "nil is off, and off is free" as a
// property of the code rather than of the host: the sampling-loop probe and
// a trigger site return from a nil recorder without allocating.
func TestNilRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Tick", func() { r.Tick(time.Second) }},
		{"Trigger", func() {
			if r.Trigger(time.Second, "slo_burn", "", 0, -1) != nil {
				t.Error("nil recorder returned a bundle")
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.call); n != 0 {
			t.Errorf("%s on a nil recorder allocates %v per call, want 0", tc.name, n)
		}
	}
}

func TestTriggerCapturesState(t *testing.T) {
	r, src := fixture(Config{})
	src.Tracer.Record(0, telemetry.EvArrival, 1, 0, -1, -1)
	src.Tracer.Record(time.Millisecond, telemetry.EvDone, 1, 0, 2, 4)
	src.TSDB.Sample(time.Second, []tsdb.DeviceState{{Up: true}, {Up: true, QueueDepth: 7}})
	src.TSDB.RecordPhases(0, 1, tsdb.PhaseDurations{Queue: time.Millisecond, Exec: 2 * time.Millisecond})
	r.Tick(time.Second)

	b := r.Trigger(2*time.Second, "slo_burn", "family=0 short=3.00 long=2.50", 0, -1)
	if b == nil {
		t.Fatal("no bundle")
	}
	if b.ID != "incident-000001-slo_burn" || b.Seq != 1 {
		t.Fatalf("bundle identity %q seq %d", b.ID, b.Seq)
	}
	if b.AtNS != int64(2*time.Second) || b.Reason != "slo_burn" || b.Family != 0 || b.Device != -1 {
		t.Fatalf("bundle header %+v", b)
	}
	if len(b.TraceEvents) != 2 || b.TraceEvents[0].Kind != telemetry.EvArrival || b.TraceEvents[1].Batch != 4 {
		t.Fatalf("trace events %+v", b.TraceEvents)
	}
	if len(b.Samples) != 2 || b.Samples[1].QueueDepth != 7 {
		t.Fatalf("samples %+v", b.Samples)
	}
	if len(b.Counters) != 1 || len(b.Counters[0].Metrics) == 0 {
		t.Fatalf("counters %+v", b.Counters)
	}
	if len(b.Phases) == 0 {
		t.Fatal("phases missing from bundle")
	}
	if len(b.Plans) != 2 {
		t.Fatalf("plans %+v", b.Plans)
	}
	if js, err := json.Marshal(b.Plans); err != nil || bytes.Contains(js, []byte("_time_ns")) {
		t.Fatalf("plans' JSON %s, %v: want no solver wall time", js, err)
	}
	if len(b.Runtime) != 0 {
		t.Fatal("runtime snaps present without Live mode")
	}
	if got := r.Incidents(); len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("incident log %+v", got)
	}
}

func TestRingWrap(t *testing.T) {
	r, src := fixture(Config{})
	r.lim = limits{trace: 3, counters: 2, samples: 3, burns: maxBurns, plans: 1, incidents: 2}
	for i := 0; i < 10; i++ {
		src.Tracer.Record(time.Duration(i)*time.Millisecond, telemetry.EvArrival, uint64(i), 0, -1, -1)
		src.TSDB.Sample(time.Duration(i)*time.Second, []tsdb.DeviceState{{Up: true, QueueDepth: i}})
		r.Tick(time.Duration(i) * time.Second)
	}
	b := r.Trigger(time.Minute, "manual", "", -1, -1)
	if len(b.TraceEvents) != 3 || b.TraceEvents[2].Query != 9 {
		t.Fatalf("trace ring not bounded to newest 3: %+v", b.TraceEvents)
	}
	if len(b.Counters) != 2 {
		t.Fatalf("counter ring %d, want 2", len(b.Counters))
	}
	if len(b.Samples) != 3 || b.Samples[2].QueueDepth != 9 {
		t.Fatalf("sample ring not bounded to newest 3: %+v", b.Samples)
	}
	if len(b.Plans) != 1 || b.Plans[0].Trigger != "periodic" {
		t.Fatalf("plan ring not bounded to newest 1: %+v", b.Plans)
	}
	// The in-memory incident list keeps only the newest bundles.
	r.Trigger(time.Minute, "manual", "", -1, -1)
	r.Trigger(time.Minute, "manual", "", -1, -1)
	got := r.Incidents()
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("incident log after wrap: %d bundles, seqs %d/%d", len(got), got[0].Seq, got[1].Seq)
	}
}

// TestTickBatchOverflowsRing pins the window a tick keeps: a tick that
// brings more samples than a bundle holds (five devices, a bound of three),
// on an empty and then on a full window, keeps exactly the newest in order.
func TestTickBatchOverflowsRing(t *testing.T) {
	r, src := fixture(Config{})
	r.lim.samples = 3
	for tick := 0; tick < 2; tick++ {
		devs := make([]tsdb.DeviceState, 5)
		for d := range devs {
			devs[d] = tsdb.DeviceState{Up: true, QueueDepth: 10*tick + d}
		}
		now := time.Duration(tick) * time.Second
		src.TSDB.Sample(now, devs)
		r.Tick(now)
		b := r.Trigger(now, "manual", "", -1, -1)
		if len(b.Samples) != 3 {
			t.Fatalf("tick %d: sample ring %d, want 3", tick, len(b.Samples))
		}
		for i, s := range b.Samples {
			if want := 10*tick + 2 + i; s.QueueDepth != want || s.Device != 2+i {
				t.Fatalf("tick %d: ring[%d] = device %d depth %d, want device %d depth %d", tick, i, s.Device, s.QueueDepth, 2+i, want)
			}
		}
	}
}

// TestTriggerStorm races concurrent triggers against ticks and asserts every
// bundle is complete and non-interleaved: unique sequence numbers, matching
// IDs, self-consistent sections, and all 32 in the incident log in Seq
// order, each read back from it equal to the oracle. Run with -race.
func TestTriggerStorm(t *testing.T) {
	dir := t.TempDir()
	r, src := fixture(Config{Dir: dir})
	src.TSDB.Sample(0, []tsdb.DeviceState{{Up: true}})
	r.Tick(0)

	const n = 32
	var wg sync.WaitGroup
	bundles := make([]*Bundle, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src.Tracer.Record(time.Duration(i), telemetry.EvArrival, uint64(i), 0, -1, -1)
			if i%4 == 0 {
				r.Tick(time.Duration(i) * time.Second)
			}
			bundles[i] = r.Trigger(time.Duration(i)*time.Second, "manual", fmt.Sprintf("storm %d", i), -1, -1)
		}(i)
	}
	wg.Wait()

	seen := map[int]bool{}
	for i, b := range bundles {
		if b == nil {
			t.Fatalf("trigger %d returned nil", i)
		}
		if seen[b.Seq] {
			t.Fatalf("duplicate bundle seq %d", b.Seq)
		}
		seen[b.Seq] = true
		if want := fmt.Sprintf("incident-%06d-manual", b.Seq); b.ID != want {
			t.Fatalf("bundle ID %q does not match seq %d", b.ID, b.Seq)
		}
	}
	if err := r.WriteError(); err != nil {
		t.Fatalf("write error: %v", err)
	}
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := l.IDs()
	if len(ids) != n {
		t.Fatalf("%d bundles in the log, want %d", len(ids), n)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("incident-%06d-manual", i+1); id != want {
			t.Fatalf("log bundle %d is %s, want %s", i, id, want)
		}
	}
	for _, b := range bundles {
		checkLogged(t, l, b)
	}
}

func TestBundleByteDeterminism(t *testing.T) {
	run := func() []byte {
		r, src := fixture(Config{})
		src.Tracer.Record(0, telemetry.EvArrival, 1, 0, -1, -1)
		src.TSDB.Sample(time.Second, []tsdb.DeviceState{{Up: true, QueueDepth: 2}})
		src.TSDB.RecordPhases(0, 0, tsdb.PhaseDurations{Exec: time.Millisecond})
		r.Tick(time.Second)
		b := r.Trigger(2*time.Second, "slo_burn", "family=0 short=3.00 long=2.50", 0, -1)
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different bundle bytes (%d vs %d)", len(a), len(b))
	}
}

// TestWriteErrorSurfaced starts with no incident directory, which the first
// trigger creates, then puts a plain file in its place, log and all, for one
// trigger and removes it again: the failure is reported, the in-memory log
// keeps the bundle, and every later bundle — whose elements the lost log
// held — reads back equal to the oracle from the log the next trigger
// starts in a directory of its own making.
func TestWriteErrorSurfaced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	r, src := fixture(Config{Dir: dir})
	step := func(sec int) *Bundle {
		now := time.Duration(sec) * time.Second
		src.Tracer.Record(now, telemetry.EvArrival, uint64(sec), 0, -1, -1)
		src.TSDB.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: sec}})
		r.Tick(now)
		return r.Trigger(now, "manual", "", -1, -1)
	}
	step(1)
	if err := r.WriteError(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	step(2)
	if r.WriteError() == nil {
		t.Fatal("unwritable bundle dir produced no write error")
	}
	// The in-memory log still has the bundle: disk trouble must not lose it.
	if len(r.Incidents()) != 2 {
		t.Fatal("bundle lost on write failure")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	later := []*Bundle{step(3), step(4)}
	if r.WriteError() == nil {
		t.Fatal("a later write cleared the reported failure")
	}
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := l.IDs(); len(ids) != 2 || ids[0] != later[0].ID || ids[1] != later[1].ID {
		t.Fatalf("log holds %v, want the two bundles after the failure", ids)
	}
	for _, b := range later {
		checkLogged(t, l, b)
	}
}

// TestFailedAppendIsTruncated makes one append fail part-way through its
// write: the log is cut back to where it was, and the next trigger writes
// the records the failed one had written again, so no bundle in the log
// names a record that is not there.
func TestFailedAppendIsTruncated(t *testing.T) {
	dir := t.TempDir()
	r, src := fixture(Config{Dir: dir})
	step := func(sec int) *Bundle {
		now := time.Duration(sec) * time.Second
		for q := 0; q < 3; q++ {
			src.Tracer.Record(now, telemetry.EvArrival, uint64(3*sec+q), 0, -1, -1)
		}
		src.TSDB.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: sec}})
		r.Tick(now)
		return r.Trigger(now, "manual", "", -1, -1)
	}
	first := step(1)
	size := logSize(t, dir)
	failed := errors.New("disk full")
	writeLog = func(f *os.File, p []byte, off int64) (int, error) {
		n, _ := f.WriteAt(p[:len(p)/2], off)
		return n, failed
	}
	step(2)
	writeLog = (*os.File).WriteAt
	if !errors.Is(r.WriteError(), failed) {
		t.Fatalf("write error %v, want %v", r.WriteError(), failed)
	}
	if got := logSize(t, dir); got != size {
		t.Fatalf("failed append left the log at %d bytes, want %d", got, size)
	}
	third := step(3)
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := l.IDs(); len(ids) != 2 || ids[0] != first.ID || ids[1] != third.ID {
		t.Fatalf("log holds %v, want %s and %s", ids, first.ID, third.ID)
	}
	checkLogged(t, l, first)
	checkLogged(t, l, third)
}

// TestInitStartsFreshLog holds a second run to its own log: Init empties
// the log's state, and the run's first trigger truncates the first run's
// log rather than appending to it or leaving its bundles beside its own.
func TestInitStartsFreshLog(t *testing.T) {
	dir := t.TempDir()
	r, src := fixture(Config{Dir: dir})
	for i := 0; i < 3; i++ {
		src.Tracer.Record(time.Duration(i), telemetry.EvArrival, uint64(i), 0, -1, -1)
		r.Trigger(time.Duration(i), "manual", "first run", -1, -1)
	}
	r.Init(src)
	if got := logSize(t, dir); got == 0 {
		t.Fatal("first run left no log")
	}
	var second []*Bundle
	for i := 0; i < 2; i++ {
		src.Tracer.Record(time.Duration(10+i), telemetry.EvDone, uint64(i), 1, 0, 1)
		second = append(second, r.Trigger(time.Duration(10+i), "slo_burn", "second run", 1, -1))
	}
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids := l.IDs(); len(ids) != 2 || ids[0] != second[0].ID || ids[1] != second[1].ID {
		t.Fatalf("log after a second Init holds %v, want only the second run's bundles", ids)
	}
	for _, b := range second {
		checkLogged(t, l, b)
	}
}

// TestLogCutAnywhereInLastWrite is the crash rule: the log cut at every byte
// of its last trigger's write still reads without an error, every earlier
// bundle reads back equal to the oracle, and the cut bundle is simply absent.
func TestLogCutAnywhereInLastWrite(t *testing.T) {
	dir := t.TempDir()
	r, src := fixture(Config{Dir: dir})
	r.lim.trace, r.lim.samples = 16, 8
	var want []*Bundle
	var ids []string
	var before int64
	for sec := 0; sec < 4; sec++ {
		now := time.Duration(sec) * time.Second
		for q := 0; q < 5; q++ {
			src.Tracer.RecordCtx(now, telemetry.EvEnqueue, uint64(5*sec+q), q%2, sec, -1, telemetry.Ctx{Plan: int32(sec)})
		}
		src.TSDB.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: sec}, {Up: true, Variant: "resnet50"}})
		src.TSDB.RecordPhases(0, 1, tsdb.PhaseDurations{Queue: now, Exec: time.Millisecond})
		r.Tick(now)
		before = logSize(t, dir)
		b := r.Trigger(now, "manual", fmt.Sprintf("tick %d", sec), -1, -1)
		rt, err := oracle(b)
		if err != nil {
			t.Fatal(err)
		}
		want, ids = append(want, rt), append(ids, b.ID)
	}
	data, err := os.ReadFile(filepath.Join(dir, LogFile))
	if err != nil {
		t.Fatal(err)
	}
	if int(before) >= len(data)-1 {
		t.Fatalf("last write spans %d..%d bytes", before, len(data))
	}
	for cut := int(before); cut < len(data); cut++ {
		l, err := ParseLog(data[:cut])
		if err != nil {
			t.Fatalf("log cut at byte %d of %d: %v", cut, len(data), err)
		}
		if got := l.IDs(); !slices.Equal(got, ids[:len(ids)-1]) {
			t.Fatalf("log cut at byte %d of %d holds %v, want %v", cut, len(data), got, ids[:len(ids)-1])
		}
		for i, id := range ids[:len(ids)-1] {
			got, err := l.Bundle(id)
			if err != nil || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("log cut at byte %d: bundle %s not read back (%v)", cut, id, err)
			}
		}
	}
	l, err := ParseLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.IDs(); !slices.Equal(got, ids) {
		t.Fatalf("whole log holds %v, want %v", got, ids)
	}
}

func TestLiveModeRuntimeSnaps(t *testing.T) {
	r, _ := fixture(Config{Live: true})
	r.Tick(time.Second)
	b := r.Trigger(2*time.Second, "manual", "", -1, -1)
	if len(b.Runtime) != 1 {
		t.Fatalf("runtime snaps = %d, want 1", len(b.Runtime))
	}
	if b.Runtime[0].HeapAllocBytes == 0 || b.Runtime[0].Goroutines == 0 {
		t.Fatalf("empty runtime snap: %+v", b.Runtime[0])
	}
}

// TestBundlesNeverChange holds the sharing contract: a bundle's sections are
// windows of the recorder's rings and the tsdb recorder's logs, so nothing
// they or the tracer do later — more events, samples, ticks and triggers,
// rings compacting, logs growing into fresh arrays, a new tracer, a second
// Init of both recorders — may
// change a bundle it has returned. Every bundle's encoding at trigger time
// must still be its encoding at the end, and its samples and burns must be
// the tsdb logs' own elements, not copies.
func TestBundlesNeverChange(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Dir: dir})
	r.lim = limits{trace: 5, counters: 2, samples: 3, burns: 2, plans: 1, incidents: 1 << 10}
	snaps := map[*Bundle][]byte{}
	rec := tsdb.NewRecorder(tsdb.Config{SampleInterval: time.Second})
	snap := func(b *Bundle) {
		t.Helper()
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		snaps[b] = data
		samples, _ := rec.SamplesSince(0)
		burns, _ := rec.BurnsSince(0)
		if !isTail(b.Samples, samples) || !isTail(b.Burns, burns) {
			t.Fatalf("bundle %s: its %d samples and %d burns are not the tsdb logs' newest, in place", b.ID, len(b.Samples), len(b.Burns))
		}
	}
	sampleArrays := map[*tsdb.Sample]bool{}
	sawBurns := false
	for run := 0; run < 2; run++ {
		tracer := telemetry.NewTracer(16)
		registry := telemetry.NewRegistry()
		rec.Init(2, nil)
		var plans []controlplane.PlanRecord
		r.Init(Sources{
			Tracer: tracer, Registry: registry, TSDB: rec,
			Plans: func() []controlplane.PlanRecord { return plans },
		})
		for sec := 0; sec < 20; sec++ {
			now := time.Duration(sec) * time.Second
			for q := 0; q < 3; q++ {
				tracer.RecordCtx(now, telemetry.EvEnqueue, uint64(100*run+3*sec+q), q%2, sec%4, -1, telemetry.Ctx{Plan: int32(sec / 3)})
			}
			registry.Counter("queries_arrived_total").Add(int64(sec + run))
			rec.Arrival(now, 0)
			if sec < 8 {
				rec.Violation(now, 0)
			}
			rec.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: sec + run}, {Up: sec%2 == 0, Variant: "resnet50"}})
			rec.RecordPhases(sec%2, sec%2, tsdb.PhaseDurations{Queue: now, Exec: time.Millisecond})
			plans = append(plans, controlplane.PlanRecord{Seq: len(plans) + 1, At: now, Trigger: "periodic"})
			r.Tick(now)
			r.mu.Lock()
			sampleArrays[&r.samples.Window()[0]] = true
			r.mu.Unlock()
			b := r.Trigger(now, "manual", "", -1, -1)
			snap(b)
			sawBurns = sawBurns || len(b.Burns) > 0
			if sec%3 == 0 {
				snap(r.Trigger(now, "slo_burn", "same instant", 0, -1))
			}
		}
	}
	if len(sampleArrays) < 4 {
		t.Fatalf("bundles' samples came from %d arrays, want the log's regrowths", len(sampleArrays))
	}
	if !sawBurns {
		t.Fatal("no bundle held a burn transition")
	}
	// More samples and a third Init of the tsdb recorder: the second run's
	// bundles hold windows of the log it replaces.
	rec.Sample(time.Minute, []tsdb.DeviceState{{Up: true, QueueDepth: 99}})
	rec.Init(2, nil)
	rec.Sample(time.Minute, []tsdb.DeviceState{{Up: true, QueueDepth: 98}})
	// Init empties the incident log; the first run's bundles are still held
	// here, and still share the arrays of the rings they were cut from.
	got := r.Incidents()
	if want := len(snaps) / 2; len(got) != want {
		t.Fatalf("%d incidents in the second run, want %d", len(got), want)
	}
	for b := range snaps {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, snaps[b]) {
			t.Fatalf("bundle %s changed after it was returned\n now: %s\nthen: %s", b.ID, data, snaps[b])
		}
	}
	for _, b := range got { // the second run's log replaced the first's
		checkBundleFile(t, dir, b)
	}
	if err := r.WriteError(); err != nil {
		t.Fatal(err)
	}
}

// isTail reports whether window is the newest values of log, in place: the
// same elements, not copies.
func isTail[T any](window, log []T) bool {
	return len(window) == 0 || len(window) <= len(log) && &window[0] == &log[len(log)-len(window)]
}

// TestBundlesNeverChangeConcurrent races triggers against ticks and the
// tracer, as TestTriggerStorm does, and holds every bundle to its encoding
// at trigger time and its trace events to one run of consecutive Seqs. Run
// with -race: a recorder write into an array a bundle shares shows there.
func TestBundlesNeverChangeConcurrent(t *testing.T) {
	dir := t.TempDir()
	r, src := fixture(Config{Dir: dir})
	r.lim.trace, r.lim.counters, r.lim.samples = 8, 2, 3
	const n = 32
	var wg sync.WaitGroup
	bundles := make([]*Bundle, n)
	snaps := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			now := time.Duration(i) * time.Second
			for q := 0; q < 5; q++ {
				src.Tracer.Record(now, telemetry.EvArrival, uint64(5*i+q), 0, -1, -1)
			}
			if i%3 == 0 {
				src.TSDB.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: i}, {Up: true}})
				r.Tick(now)
			}
			b := r.Trigger(now, "manual", fmt.Sprintf("storm %d", i), -1, -1)
			data, err := json.Marshal(b)
			if err != nil {
				t.Error(err)
			}
			bundles[i], snaps[i] = b, data
		}(i)
	}
	wg.Wait()
	for i, b := range bundles {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, snaps[i]) {
			t.Fatalf("bundle %s changed after it was returned", b.ID)
		}
		for k := 1; k < len(b.TraceEvents); k++ {
			if b.TraceEvents[k].Seq != b.TraceEvents[k-1].Seq+1 {
				t.Fatalf("bundle %s: trace Seqs %d then %d", b.ID, b.TraceEvents[k-1].Seq, b.TraceEvents[k].Seq)
			}
		}
		checkBundleFile(t, dir, b)
	}
	if err := r.WriteError(); err != nil {
		t.Fatal(err)
	}
}

// TestTriggerCopiesNothingHeld pins the copy-free trigger: with the trace
// cache and every ring full and nothing new since the last trigger, a
// trigger allocates its bundle's header, plans and log append, not copies
// of its 1 024 trace events and 2 048 samples or a fresh write buffer.
func TestTriggerCopiesNothingHeld(t *testing.T) {
	r, src := fixture(Config{Dir: t.TempDir()})
	for i := 0; i < 8000; i++ {
		src.Tracer.Record(time.Duration(i)*time.Microsecond, telemetry.EvArrival, uint64(i), i%2, -1, -1)
	}
	for tick := 0; tick < 1100; tick++ {
		now := time.Duration(tick) * time.Second
		src.TSDB.Sample(now, []tsdb.DeviceState{{Up: true, QueueDepth: tick}, {Up: true, Variant: "resnet50"}})
		src.TSDB.RecordPhases(tick%2, tick%2, tsdb.PhaseDurations{Queue: time.Millisecond, Exec: time.Duration(tick) * time.Microsecond})
		r.Tick(now)
	}
	r.Trigger(time.Hour, "manual", "", -1, -1)
	b := r.Trigger(time.Hour, "manual", "", -1, -1)
	if len(b.TraceEvents) != 1<<10 || len(b.Samples) != 2048 {
		t.Fatalf("bundle holds %d trace events and %d samples, want 1024 and 2048", len(b.TraceEvents), len(b.Samples))
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		r.Trigger(time.Hour, "manual", "", -1, -1)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 16<<10 {
		t.Fatalf("a trigger with nothing new allocates %d B, want < 16 KiB", per)
	}
	if err := r.WriteError(); err != nil {
		t.Fatal(err)
	}
}
