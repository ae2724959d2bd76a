package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"proteus/internal/trace"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the code in step: the same
// workloads in the same order, and exactly the end-to-end metrics the
// workloads report.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	want := map[string]bool{mSetup: true, mOps: true, mCPU: true, mLatP50: true, mLatTail: true, mSLOOK: true, mAccuracy: true}
	for _, m := range spec.EndToEnd {
		if !want[m.Name] {
			t.Errorf("BENCHMARK.json lists end-to-end metric %q, which no workload reports", m.Name)
		}
		delete(want, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range want {
		t.Errorf("end-to-end metric %q is reported but missing from BENCHMARK.json", name)
	}
}

func TestMidmean(t *testing.T) {
	if got := midmean([]float64{100, 2, 3, 4, 5, 1, 6, 7}); got != 4.5 {
		t.Errorf("midmean of eight = %v, want 4.5 (mean of 3,4,5,6)", got)
	}
	if got := midmean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("midmean of three = %v, want the mean 3", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{8, 0, false},    // eight solves: not even the median has ten beyond it
		{20, 50, true},   // 10 beyond p50
		{40, 75, true},   // 10 beyond p75, 4 beyond p90
		{100, 90, true},  // 10 beyond p90
		{999, 95, true},  // 9.99 beyond p99
		{1000, 99, true}, // exactly 10 beyond p99
		{9000, 99, true}, // 9 beyond p99.9
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestSupportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupportedPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestWeightedPercentile(t *testing.T) {
	ws := []weighted{{v: 3, n: 1}, {v: 1, n: 98}, {v: 2, n: 1}}
	if got := weightedPercentile(ws, 50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := weightedPercentile(ws, 99); got != 2 {
		t.Errorf("p99 = %v, want 2", got)
	}
	if got := weightedPercentile(ws, 100); got != 3 {
		t.Errorf("p100 = %v, want 3", got)
	}
}

// scheduleBytes serializes a schedule.
func scheduleBytes(s []trace.Arrival) []byte {
	out := make([]byte, 0, len(s)*12)
	for _, a := range s {
		out = binary.LittleEndian.AppendUint64(out, uint64(a.Time))
		out = binary.LittleEndian.AppendUint32(out, uint32(a.Family))
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	w := newWorld()
	a := scheduleBytes(poissonSchedule(w, 7, liveQPS, 2*time.Second))
	b := scheduleBytes(poissonSchedule(w, 7, liveQPS, 2*time.Second))
	c := scheduleBytes(poissonSchedule(w, 8, liveQPS, 2*time.Second))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a) / 12; n < 400 || n > 800 {
		t.Errorf("%d arrivals in 2 s at %v QPS", n, liveQPS)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a: union is 10..60
		{ID: 3, Parent: 0, Name: "c", StartNS: 90, EndNS: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Name: "a1", StartNS: 15, EndNS: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 50 - 10, 1: 25, 2: 30, 3: 30, 4: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	var r *spanRecorder
	if id := r.start("x", -1); id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	r.end(-1)
}

// smokeEnv is a reduced-size leg: the shortest traces, a few MILP nodes.
func smokeEnv(t *testing.T, budget time.Duration, spans *spanRecorder) *runEnv {
	t.Helper()
	return &runEnv{world: newWorld(), seed: 3, budget: budget, scale: 0.01, spans: spans, tmpDir: t.TempDir()}
}

func checkLeg(t *testing.T, l *leg, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.problems {
		t.Errorf("output check failed: %s", p)
	}
	if l.attempted < 1 || l.failed != 0 {
		t.Errorf("attempted %d, failed %d", l.attempted, l.failed)
	}
	for _, k := range []string{mOps, mCPU, mLatP50, mLatTail, mSLOOK, mAccuracy} {
		if v, ok := l.e2e[k]; !ok || !(v > 0) {
			t.Errorf("%s = %v (reported: %v), want > 0", k, v, ok)
		}
	}
	if len(l.setupS) == 0 {
		t.Error("no set-up sample")
	}
}

func TestSmokeSimSteady(t *testing.T) {
	l, err := runSim(smokeEnv(t, 0, nil), false)
	checkLeg(t, l, err)
}

func TestSmokeSimIncident(t *testing.T) {
	spans := newSpanRecorder()
	l, err := runSim(smokeEnv(t, 0, spans), true)
	checkLeg(t, l, err)
	if _, ok := l.layer["flightrec.bundles"]; !ok {
		t.Error("traced incident leg reported no flight-recorder rows")
	}
	if len(spans.snapshot()) == 0 {
		t.Error("traced leg recorded no spans")
	}
}

func TestSmokeLiveSteady(t *testing.T) {
	l, err := runLive(smokeEnv(t, 400*time.Millisecond, nil))
	checkLeg(t, l, err)
}

func TestSmokeAllocReplay(t *testing.T) {
	l, err := runAlloc(smokeEnv(t, 0, nil))
	checkLeg(t, l, err)
}
