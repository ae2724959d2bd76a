package flightrec

import (
	"proteus/internal/buildinfo"
	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// CounterSnap is one sampling tick's counter-registry snapshot.
type CounterSnap struct {
	AtNS    int64              `json:"at_ns"`
	Metrics []telemetry.Metric `json:"metrics"`
}

// RuntimeSnap is one sampling tick's process runtime state (live mode
// only — absent from simulator bundles so they stay deterministic).
type RuntimeSnap struct {
	AtNS           int64  `json:"at_ns"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	NumGC          uint32 `json:"num_gc"`
	Goroutines     int    `json:"goroutines"`
}

// Bundle is one incident's atomic snapshot of the flight recorder's rings.
// Field order is the JSON order. Every section but Plans is a window of one
// of the recorder's append-only rings, shared with the recorder and with
// other bundles rather than copied: the recorder never writes an element
// again once pushed, so a bundle never changes after Trigger returns it.
// Sections are read-only; a caller must not write to them. In the incident
// log a bundle is an index into the records its sections share with other
// bundles; Log.Bundle reads it back from them.
type Bundle struct {
	// ID names the bundle in the recorder and its incident log:
	// "incident-<seq>-<reason>".
	ID string `json:"id"`
	// Seq is the 1-based trigger sequence number within the run.
	Seq int `json:"seq"`
	// AtNS is the trigger time: virtual in the simulator, duration since
	// server start in live serving.
	AtNS int64 `json:"at_ns"`
	// Reason is "slo_burn", "overload", "alloc_fallback", "device_failure"
	// or "manual"; Detail carries trigger-specific context.
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	// Family / Device locate the trigger when applicable, else -1.
	Family int `json:"family"`
	Device int `json:"device"`

	// TraceEvents is the tail of the tracer's ring at trigger time, in the
	// JSON form of telemetry.Event.MarshalJSON.
	TraceEvents []telemetry.Event `json:"trace_events,omitempty"`
	// Counters are the per-tick registry snapshots leading up to the
	// trigger, oldest first.
	Counters []CounterSnap `json:"counters,omitempty"`
	// Samples / Burns are the device time-series and SLO burn transitions
	// captured through the last tick before the trigger.
	Samples []tsdb.Sample    `json:"samples,omitempty"`
	Burns   []tsdb.BurnEvent `json:"burns,omitempty"`
	// Phases is the per-family / per-device latency decomposition summary
	// as of the last tick.
	Phases []tsdb.PhaseStat `json:"phases,omitempty"`
	// Plans are the controller's newest audit records at trigger time, with
	// solver wall times zeroed for determinism.
	Plans []controlplane.PlanRecord `json:"plans,omitempty"`
	// Runtime holds live-mode process snapshots (empty in the simulator).
	Runtime []RuntimeSnap `json:"runtime,omitempty"`
	// Build identifies the binary that produced the bundle, so incidents
	// can be joined back to a commit. Identical across same-seed runs of
	// one binary, keeping bundles byte-deterministic.
	Build buildinfo.Info `json:"build"`
}
