package flightrec

import (
	"testing"
	"time"

	"proteus/internal/tsdb"
)

// BenchmarkFlightTickDisabled measures the sampling-loop probe when the
// flight recorder is off (nil recorder) — the path every run without
// -incidents takes; a nil-receiver check is ~1ns. The benchmarks in this
// file are ungated developer probes: TestNilRecorderAllocatesNothing holds
// "off is free" as a property, and BENCHMARK.json's flightrec.tick_us /
// tsdb.record_phases_ns price the live path.
func BenchmarkFlightTickDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Tick(time.Duration(i))
	}
}

// BenchmarkFlightTriggerDisabled measures a trigger call site (burn start,
// device failure, ...) with the recorder off.
func BenchmarkFlightTriggerDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Trigger(time.Duration(i), "slo_burn", "", 0, -1)
	}
}

// BenchmarkPhaseRecordDisabled measures the per-query phase-decomposition
// probe with no tsdb recorder — the completion-path cost added by this
// feature when observability is off.
func BenchmarkPhaseRecordDisabled(b *testing.B) {
	var r *tsdb.Recorder
	pd := tsdb.PhaseDurations{Queue: time.Millisecond, Exec: time.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordPhases(0, 1, pd)
	}
}

// BenchmarkPhaseRecordEnabled measures the live phase-recording cost: one
// mutex acquisition plus five histogram inserts on each of two scopes.
func BenchmarkPhaseRecordEnabled(b *testing.B) {
	r := tsdb.NewRecorder(tsdb.Config{})
	r.Init(1, nil)
	pd := tsdb.PhaseDurations{Queue: time.Millisecond, Exec: time.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordPhases(0, 1, pd)
	}
}

// BenchmarkFlightTickEnabled measures a live tick against real sources with
// nothing new to collect — the steady-state per-tick floor.
func BenchmarkFlightTickEnabled(b *testing.B) {
	r, _ := fixture(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Tick(time.Duration(i))
	}
}
