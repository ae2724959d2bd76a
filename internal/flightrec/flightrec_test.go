package flightrec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	if r.Incidents() != nil || r.WriteError() != nil || r.Dir() != "" || r.Live() {
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
	if len(b.TraceEvents) != 2 || b.TraceEvents[0].Kind != "arrival" || b.TraceEvents[1].Batch != 4 {
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
	for _, p := range b.Plans {
		if p.SolveTime != 0 || p.Stats.SolverTime != 0 {
			t.Fatalf("solver wall time not zeroed: %+v", p)
		}
	}
	if len(b.Runtime) != 0 {
		t.Fatal("runtime snaps present without Live mode")
	}
	if got := r.Incidents(); len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("incident log %+v", got)
	}
}

func TestRingWrap(t *testing.T) {
	r, src := fixture(Config{TraceEvents: 3, CounterSnaps: 2, Samples: 3, Plans: 1, MaxIncidents: 2})
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
	// Incident log keeps only the newest MaxIncidents bundles.
	r.Trigger(time.Minute, "manual", "", -1, -1)
	r.Trigger(time.Minute, "manual", "", -1, -1)
	got := r.Incidents()
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("incident log after wrap: %d bundles, seqs %d/%d", len(got), got[0].Seq, got[1].Seq)
	}
}

// TestTickBatchOverflowsRing pins the one-trim-per-tick append: a tick that
// brings more samples than the ring holds (five devices, ring of three), on
// an empty and then on a full ring, keeps exactly the newest in order.
func TestTickBatchOverflowsRing(t *testing.T) {
	r, src := fixture(Config{Samples: 3})
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
// IDs, and self-consistent sections. Run with -race.
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
		// Each bundle must parse back from its file identically — the atomic
		// rename means no reader ever sees a torn write.
		onDisk, err := ReadBundleFile(filepath.Join(dir, b.ID+".json"))
		if err != nil {
			t.Fatalf("bundle %s not readable: %v", b.ID, err)
		}
		var a, c bytes.Buffer
		if err := b.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := onDisk.WriteJSON(&c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("bundle %s differs on disk", b.ID)
		}
	}
	if err := r.WriteError(); err != nil {
		t.Fatalf("write error: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n {
		t.Fatalf("%d bundle files, want %d", len(files), n)
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
		var buf bytes.Buffer
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different bundle bytes (%d vs %d)", len(a), len(b))
	}
}

func TestWriteErrorSurfaced(t *testing.T) {
	r, _ := fixture(Config{Dir: filepath.Join(string(os.PathSeparator), "nonexistent", "proteus-test")})
	r.Trigger(0, "manual", "", -1, -1)
	if r.WriteError() == nil {
		t.Fatal("unwritable bundle dir produced no write error")
	}
	// The in-memory log still has the bundle: disk trouble must not lose it.
	if len(r.Incidents()) != 1 {
		t.Fatal("bundle lost on write failure")
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
