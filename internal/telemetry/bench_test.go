package telemetry

import (
	"testing"
	"time"
)

// BenchmarkTracerDisabled measures the cost of an instrumented call site
// when tracing is off (nil tracer) — the path every production run takes
// by default. A nil-receiver check is ~1ns, well under any batch-formation
// cost. The benchmarks in this file are ungated developer probes:
// TestNilReceiversAllocateNothing holds "off is free" as a property, and
// BENCHMARK.json's telemetry.record_ns / counter_inc_ns price the live path.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(time.Duration(i), EvDone, uint64(i), 0, 1, 2)
	}
}

// BenchmarkTracerEnabled measures the tracer-on hot path (mutex + ring
// write).
func BenchmarkTracerEnabled(b *testing.B) {
	tr := NewTracer(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(time.Duration(i), EvDone, uint64(i), 0, 1, 2)
	}
}

// BenchmarkCounterDisabled measures a counter increment through a nil
// counter (telemetry registry absent).
func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterEnabled measures a live atomic counter increment.
func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
