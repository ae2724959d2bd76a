package tsdb

import (
	"reflect"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Init(3, nil)
	r.Arrival(time.Second, 0)
	r.Violation(time.Second, 0)
	r.Sample(time.Second, []DeviceState{{Up: true}})
	if r.Samples() != nil || r.Burns() != nil {
		t.Fatal("nil recorder must return nil slices")
	}
	if r.SampleInterval() != 0 || r.Burning(0) {
		t.Fatal("nil recorder accessors must return zero values")
	}
}

// TestNilRecorderAllocatesNothing holds "nil is off, and off is free" as a
// property of the code rather than of the host: the three calls the data
// path makes per query return from a nil recorder without allocating.
func TestNilRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	pd := PhaseDurations{Queue: time.Millisecond, Exec: time.Millisecond}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Arrival", func() { r.Arrival(time.Second, 0) }},
		{"Violation", func() { r.Violation(time.Second, 0) }},
		{"RecordPhases", func() { r.RecordPhases(0, 1, pd) }},
	} {
		if n := testing.AllocsPerRun(100, tc.call); n != 0 {
			t.Errorf("%s on a nil recorder allocates %v per call, want 0", tc.name, n)
		}
	}
}

func TestRecorderUtilizationFromBusyDeltas(t *testing.T) {
	r := NewRecorder(Config{SampleInterval: time.Second})
	r.Init(1, nil)
	// Tick 1: device 0 busy 500ms of the first second; device 1 idle.
	r.Sample(time.Second, []DeviceState{
		{Up: true, QueueDepth: 3, LastBatch: 4, Variant: "resnet-18", BusyTime: 500 * time.Millisecond},
		{Up: true, BusyTime: 0},
	})
	// Tick 2: device 0 fully busy; device 1 reports a decreasing counter
	// (restart) which must clamp to zero, not go negative.
	r.Sample(2*time.Second, []DeviceState{
		{Up: true, QueueDepth: 1, LastBatch: 8, Variant: "resnet-34", BusyTime: 1500 * time.Millisecond},
		{Up: false, BusyTime: 0},
	})
	got := r.Samples()
	want := []Sample{
		{At: time.Second, Device: 0, Up: true, QueueDepth: 3, BatchSize: 4, UtilMilli: 500, Variant: "resnet-18"},
		{At: time.Second, Device: 1, Up: true},
		{At: 2 * time.Second, Device: 0, Up: true, QueueDepth: 1, BatchSize: 8, UtilMilli: 1000, Variant: "resnet-34"},
		{At: 2 * time.Second, Device: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples:\n got %+v\nwant %+v", got, want)
	}
}

func TestRecorderUtilClampsToInterval(t *testing.T) {
	r := NewRecorder(Config{SampleInterval: time.Second})
	r.Init(1, nil)
	// Busy time jumps by 3s within a 1s interval (batch completion folds a
	// long batch's full latency at once): clamp to 1000 milli.
	r.Sample(time.Second, []DeviceState{{Up: true, BusyTime: 3 * time.Second}})
	if got := r.Samples()[0].UtilMilli; got != 1000 {
		t.Fatalf("util = %d, want clamped 1000", got)
	}
}

func TestRecorderGrowsForElasticDevices(t *testing.T) {
	r := NewRecorder(Config{})
	r.Init(1, nil)
	r.Sample(time.Second, []DeviceState{{Up: true, BusyTime: time.Second}})
	// A device joined: the recorder must grow its delta state.
	r.Sample(2*time.Second, []DeviceState{
		{Up: true, BusyTime: 2 * time.Second},
		{Up: true, BusyTime: 400 * time.Millisecond},
	})
	got := r.Samples()
	if len(got) != 3 {
		t.Fatalf("want 3 samples, got %d", len(got))
	}
	if got[2].Device != 1 || got[2].UtilMilli != 400 {
		t.Fatalf("new device sample wrong: %+v", got[2])
	}
}

func TestRecorderBurnCallbackAndLog(t *testing.T) {
	r := NewRecorder(Config{SLO: SLOConfig{Target: 0.01, BurnRate: 2, ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second}})
	var fired []BurnEvent
	r.Init(1, func(ev BurnEvent) { fired = append(fired, ev) })
	// Fully violated seconds 0..4.
	for s := 0; s < 5; s++ {
		at := time.Duration(s)*time.Second + 100*time.Millisecond
		for i := 0; i < 10; i++ {
			r.Arrival(at, 0)
			r.Violation(at, 0)
		}
	}
	if !r.Burning(0) {
		t.Fatal("family 0 should be burning after sustained violations")
	}
	// Sampling with quiet data path ends the episode once windows drain.
	r.Sample(20*time.Second, nil)
	if r.Burning(0) {
		t.Fatal("burn episode should end after windows drain")
	}
	burns := r.Burns()
	if len(burns) != 2 || !burns[0].Start || burns[1].Start {
		t.Fatalf("want [start end], got %+v", burns)
	}
	if !reflect.DeepEqual(fired, burns) {
		t.Fatal("callback events differ from the burn log")
	}
}

func TestRecorderIgnoresOutOfRangeFamily(t *testing.T) {
	r := NewRecorder(Config{})
	r.Init(1, nil)
	r.Arrival(time.Second, -1)
	r.Arrival(time.Second, 5)
	r.Violation(time.Second, 5)
	if len(r.Burns()) != 0 {
		t.Fatal("out-of-range families must be ignored")
	}
}

func TestRecorderDeterministicReplay(t *testing.T) {
	run := func() ([]Sample, []BurnEvent) {
		r := NewRecorder(Config{SLO: SLOConfig{ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second}})
		r.Init(2, nil)
		for s := 0; s < 8; s++ {
			at := time.Duration(s) * time.Second
			for i := 0; i < 20; i++ {
				r.Arrival(at+time.Duration(i)*time.Millisecond, s%2)
				if i%3 == 0 {
					r.Violation(at+time.Duration(i)*time.Millisecond, s%2)
				}
			}
			r.Sample(at+time.Second, []DeviceState{
				{Up: true, QueueDepth: s, LastBatch: i2b(s), BusyTime: time.Duration(s) * 300 * time.Millisecond},
			})
		}
		return r.Samples(), r.Burns()
	}
	s1, b1 := run()
	s2, b2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("identical replays must produce identical recordings")
	}
}

// TestBurnLogUnchangedByPerSecondEvaluation replays one recorded sequence of
// arrivals, violations and sample ticks through the recorder as it is — the
// burn state derived once per family per second — and through a reference
// that forgets the last evaluated second before every call, i.e. re-sums
// both windows on every observation as the recorder used to. The burn logs,
// BurnEvent.At included, must be identical, whichever of Arrival and
// Violation is the call that opens a second.
func TestBurnLogUnchangedByPerSecondEvaluation(t *testing.T) {
	type obs struct {
		at       time.Duration
		family   int
		violated bool
	}
	// 34 s of traffic, two families, 30 queries a second each; family 0
	// violates heavily in seconds 5–11 and 24–27, family 1 in 8–9 and from
	// 30 on; then the data path goes quiet and ticks end the last episode.
	var seq []obs
	rng := uint64(12345)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	bad := func(f, sec int) bool {
		if f == 0 {
			return sec >= 5 && sec <= 11 || sec >= 24 && sec <= 27
		}
		return sec >= 8 && sec <= 9 || sec >= 30
	}
	for sec := 0; sec < 34; sec++ {
		for i := 0; i < 60; i++ {
			f := i % 2
			at := time.Duration(sec)*time.Second + time.Duration(i)*16*time.Millisecond + time.Duration(next(1000))*time.Microsecond
			seq = append(seq, obs{at: at, family: f, violated: bad(f, sec) && next(4) == 0})
		}
	}
	replay := func(violationFirst, everyCall bool) []BurnEvent {
		r := NewRecorder(Config{SLO: SLOConfig{ShortWindow: 2 * time.Second, LongWindow: 4 * time.Second}})
		r.Init(2, nil)
		forget := func() {
			if everyCall {
				for f := range r.slo.fams {
					r.slo.fams[f].evalSec = -1
				}
			}
		}
		arrive := func(o obs) { forget(); r.Arrival(o.at, o.family) }
		violate := func(o obs) {
			if o.violated {
				forget()
				r.Violation(o.at, o.family)
			}
		}
		// Ticks land mid-second, so while there is traffic it is the data
		// path that opens each second and detects the transitions.
		tick := 500 * time.Millisecond
		for _, o := range seq {
			for ; tick <= o.at; tick += time.Second {
				forget()
				r.Sample(tick, nil)
			}
			if violationFirst {
				violate(o)
				arrive(o)
			} else {
				arrive(o)
				violate(o)
			}
		}
		for ; tick <= 45*time.Second; tick += time.Second {
			forget()
			r.Sample(tick, nil)
		}
		return r.Burns()
	}
	for _, violationFirst := range []bool{false, true} {
		got, want := replay(violationFirst, false), replay(violationFirst, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("violationFirst=%v: per-second evaluation changed the burn log\n got %+v\nwant %+v", violationFirst, got, want)
		}
		starts := 0
		for _, ev := range got {
			if ev.Start {
				starts++
			}
		}
		if starts < 3 || len(got) != 2*starts {
			t.Fatalf("violationFirst=%v: want at least three complete episodes, got %+v", violationFirst, got)
		}
	}
}

func i2b(s int) int {
	if s == 0 {
		return 0
	}
	return 1 << uint(s%4)
}
