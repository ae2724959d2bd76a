package tsdb

import (
	"reflect"
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	want := []string{"admission", "queue", "exec"}
	if NumPhases != len(want) {
		t.Fatalf("NumPhases = %d, want %d", NumPhases, len(want))
	}
	for p := 0; p < NumPhases; p++ {
		if got := Phase(p).String(); got != want[p] {
			t.Errorf("Phase(%d) = %q, want %q", p, got, want[p])
		}
	}
}

func TestRecordPhasesNilSafe(t *testing.T) {
	var r *Recorder
	r.RecordPhases(0, 0, PhaseDurations{Exec: time.Second}) // must not panic
	if got := r.PhaseStats(); got != nil {
		t.Fatalf("nil recorder PhaseStats = %v, want nil", got)
	}
}

func TestRecordPhasesAndStats(t *testing.T) {
	r := NewRecorder(Config{})
	r.Init(2, nil)
	pd := PhaseDurations{
		Admission: 1 * time.Millisecond,
		Queue:     2 * time.Millisecond,
		Exec:      10 * time.Millisecond,
	}
	r.RecordPhases(0, 1, pd)
	r.RecordPhases(0, 1, pd)
	r.RecordPhases(1, 0, pd)

	stats := r.PhaseStats()
	if len(stats) == 0 {
		t.Fatal("no phase stats after recording")
	}
	// Family rows come first, then device rows; within a scope rows are
	// ordered by index then phase.
	sawDevice := false
	for _, s := range stats {
		switch s.Scope {
		case "family":
			if sawDevice {
				t.Fatalf("family row after device rows: %+v", s)
			}
		case "device":
			sawDevice = true
		default:
			t.Fatalf("unknown scope %q", s.Scope)
		}
	}
	if !sawDevice {
		t.Fatal("no device-scope rows")
	}
	// Family 0 exec: two recordings of 10ms.
	found := false
	for _, s := range stats {
		if s.Scope == "family" && s.Index == 0 && s.Phase == "exec" {
			found = true
			if s.Count != 2 {
				t.Errorf("family 0 exec count = %d, want 2", s.Count)
			}
			if s.MeanUS < 9_000 || s.MeanUS > 11_000 {
				t.Errorf("family 0 exec mean = %dus, want ~10000", s.MeanUS)
			}
			if s.P95US <= 0 || s.MaxUS <= 0 {
				t.Errorf("family 0 exec quantiles missing: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("family 0 exec row missing")
	}
	// Within one scope+index, all phases carry the same count so the
	// decomposition always sums whole queries.
	counts := map[string]uint64{}
	for _, s := range stats {
		if s.Scope == "family" && s.Index == 0 {
			counts[s.Phase] = s.Count
		}
	}
	for ph, c := range counts {
		if c != 2 {
			t.Errorf("family 0 phase %s count = %d, want 2", ph, c)
		}
	}
}

func TestRecordPhasesClampsNegative(t *testing.T) {
	r := NewRecorder(Config{})
	r.Init(1, nil)
	r.RecordPhases(0, 0, PhaseDurations{Queue: -time.Second, Exec: time.Millisecond})
	for _, s := range r.PhaseStats() {
		if s.Phase == "queue" && (s.MaxUS != 0 || s.MeanUS != 0) {
			t.Fatalf("negative queue duration not clamped: %+v", s)
		}
	}
}

func TestRecordPhasesBounds(t *testing.T) {
	r := NewRecorder(Config{})
	r.Init(1, nil)
	// Out-of-range family and absurd device indexes are dropped, not panics.
	r.RecordPhases(-1, 0, PhaseDurations{Exec: time.Second})
	r.RecordPhases(5, 0, PhaseDurations{Exec: time.Second})
	r.RecordPhases(0, -1, PhaseDurations{Exec: time.Second})
	r.RecordPhases(0, 1<<20, PhaseDurations{Exec: time.Second})
	for _, s := range r.PhaseStats() {
		if s.Scope == "family" && s.Index != 0 {
			t.Fatalf("out-of-range family recorded: %+v", s)
		}
	}
	// Device side grows on demand for reasonable indexes.
	r.RecordPhases(0, 7, PhaseDurations{Exec: time.Second})
	foundDev := false
	for _, s := range r.PhaseStats() {
		if s.Scope == "device" && s.Index == 7 && s.Phase == "exec" && s.Count == 1 {
			foundDev = true
		}
	}
	if !foundDev {
		t.Fatal("device 7 exec row missing after on-demand growth")
	}
}

func TestSamplesSinceAndBurnsSince(t *testing.T) {
	var nilRec *Recorder
	if s, c := nilRec.SamplesSince(3); s != nil || c != 0 {
		t.Fatal("nil recorder SamplesSince not empty")
	}
	if b, c := nilRec.BurnsSince(3); b != nil || c != 0 {
		t.Fatal("nil recorder BurnsSince not empty")
	}

	r := NewRecorder(Config{SampleInterval: time.Second})
	r.Init(1, nil)
	devs := []DeviceState{{Up: true}, {Up: true, QueueDepth: 3}}
	r.Sample(0, devs)
	all, cur := r.SamplesSince(0)
	if len(all) != 2 || cur != 2 {
		t.Fatalf("SamplesSince(0) = %d samples cursor %d, want 2/2", len(all), cur)
	}
	r.Sample(time.Second, devs)
	tail, cur2 := r.SamplesSince(cur)
	if len(tail) != 2 || cur2 != 4 {
		t.Fatalf("SamplesSince(%d) = %d samples cursor %d, want 2/4", cur, len(tail), cur2)
	}
	// Cursors beyond the end clamp instead of panicking.
	none, cur3 := r.SamplesSince(99)
	if len(none) != 0 || cur3 != 4 {
		t.Fatalf("clamped SamplesSince = %d/%d", len(none), cur3)
	}

	// A window ends at its capacity, so appending to it copies: neither the
	// caller's longer slice nor the log sees the other's later appends. Six
	// samples leave the log's array room for two more.
	r.Sample(2*time.Second, devs)
	before, _ := r.SamplesSince(0)
	if cap(tail) != len(tail) || cap(before) != len(before) {
		t.Fatalf("window caps %d/%d, lens %d/%d", cap(tail), cap(before), len(tail), len(before))
	}
	mine := append(before, Sample{Device: 99})
	r.Sample(3*time.Second, devs)
	logged, _ := r.SamplesSince(0)
	if mine[len(before)].Device != 99 || logged[len(before)].Device != 0 {
		t.Fatalf("an append to a window shares the log's array: mine %+v, log %+v", mine[len(before)], logged[len(before)])
	}
	if !reflect.DeepEqual(logged[:len(before)], before) {
		t.Fatal("a later sample changed a window")
	}

	// The same for burns: a second whose one arrival was violated starts a
	// burn once the second is complete, and a quiet short window ends it.
	// Three transitions leave the log's array room for one more.
	burn := func(at time.Duration) {
		r.Arrival(at, 0)
		r.Violation(at, 0)
		r.Sample(at+time.Second, devs)
	}
	burn(4 * time.Second)
	r.Sample(20*time.Second, devs)
	burn(21 * time.Second)
	burns, n := r.BurnsSince(0)
	if len(burns) != 3 || n != 3 || cap(burns) != 3 || !burns[2].Start {
		t.Fatalf("BurnsSince(0) = %+v cursor %d cap %d, want start, end, start capped at 3", burns, n, cap(burns))
	}
	mineBurns := append(burns, BurnEvent{Family: 99})
	r.Sample(40*time.Second, devs) // the burn ends
	if got, _ := r.BurnsSince(0); len(got) != 4 || got[3].Start || got[3].Family != 0 || mineBurns[3].Family != 99 {
		t.Fatalf("an append to a burn window shares the log's array: log %+v, mine %+v", got, mineBurns)
	}
}
