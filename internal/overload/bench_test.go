package overload

import (
	"testing"
	"time"
)

func benchGuard() *Guard {
	g := New(Config{Enabled: true}, 2, 4)
	g.SetPlan(0, []DeviceProfile{
		{Family: 0, Accuracy: 80, MaxBatch: 8, Lat1: 10 * time.Millisecond, LatMax: 40 * time.Millisecond, SLO: 100 * time.Millisecond},
		{Family: 0, Accuracy: 70, MaxBatch: 16, Lat1: 5 * time.Millisecond, LatMax: 30 * time.Millisecond, SLO: 100 * time.Millisecond},
		{Family: 1, Accuracy: 90, MaxBatch: 4, Lat1: 20 * time.Millisecond, LatMax: 50 * time.Millisecond, SLO: 200 * time.Millisecond},
		{Family: -1},
	})
	g.NoteDepth(0, 12)
	g.NoteDepth(1, 3)
	return g
}

// BenchmarkAdmissionDisabled measures the admission check through a nil
// guard — the path every run with overload protection off takes. An
// ungated developer probe: TestNilGuardAllocatesNothing holds "off is free"
// as a property, and BENCHMARK.json's overload.admit_ns prices the live path.
func BenchmarkAdmissionDisabled(b *testing.B) {
	var g *Guard
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Admit(time.Duration(i), 0, time.Duration(i)+100*time.Millisecond)
	}
}

// BenchmarkAdmissionEnabled measures the live admission bound (mutex + the
// affine queue-delay arithmetic).
func BenchmarkAdmissionEnabled(b *testing.B) {
	g := benchGuard()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Admit(time.Duration(i), 0, time.Duration(i)+100*time.Millisecond)
	}
}

// BenchmarkSaturationSignalDisabled measures the per-device saturation
// signal through a nil guard (sampled on every tsdb tick, so the disabled
// path must stay negligible).
func BenchmarkSaturationSignalDisabled(b *testing.B) {
	var g *Guard
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.DeviceSignal(i & 3)
	}
}

// BenchmarkSaturationSignalEnabled measures the live saturation signal.
func BenchmarkSaturationSignalEnabled(b *testing.B) {
	g := benchGuard()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.DeviceSignal(i & 3)
	}
}

// BenchmarkBannedEnabled measures the router-side exclusion predicate, the
// per-candidate cost PickExcluding pays when the guard is on.
func BenchmarkBannedEnabled(b *testing.B) {
	g := benchGuard()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Banned(0, i&3)
	}
}
