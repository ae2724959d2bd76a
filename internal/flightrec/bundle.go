package flightrec

import (
	"cmp"
	"encoding/json"
	"io"
	"strconv"

	"proteus/internal/buildinfo"
	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// TraceEvent mirrors telemetry.Event with JSON tags matching the tracer's
// JSONL export, so bundles and trace files read the same way.
type TraceEvent struct {
	AtUS   int64  `json:"at_us"`
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Query  uint64 `json:"query"`
	Family int32  `json:"family"`
	Device int32  `json:"device"`
	Batch  int32  `json:"batch"`
	// Causal attribution stamps: the control-plan sequence number and
	// overload episode id in force when the event was recorded, and the
	// drop/requeue cause (omitted when zero, like the JSONL export).
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
// bundles; Log.BundleJSON rebuilds its JSON from them.
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

	// TraceEvents is the tail of the tracer's ring at trigger time.
	TraceEvents []TraceEvent `json:"trace_events,omitempty"`
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

// WriteJSON writes the bundle as indented JSON: byte for byte what
// json.Encoder with SetIndent("", "  ") writes, so struct fields serialize
// in declaration order and map keys sorted.
func (b *Bundle) WriteJSON(w io.Writer) error {
	var e sections
	err := e.encodeAll(b)
	if err == nil {
		_, err = w.Write(b.appendJSON(nil, &e))
	}
	return err
}

// sections holds the encodings of a bundle's array sections, one per
// element, indexed by section tag. Each encoding is the element's indented
// JSON at array depth (json.MarshalIndent with prefix elemPrefix), without
// the leading indent.
type sections [nSections][][]byte

// sectionKeys are the sections' JSON keys.
var sectionKeys = [nSections]string{"trace_events", "counters", "samples", "burns", "phases", "plans", "runtime"}

// elemPrefix is the indent of an array element: bundle object, then array.
const elemPrefix = "    "

// encodeAll encodes every element of b.
func (e *sections) encodeAll(b *Bundle) error {
	var errs [nSections]error
	e[secTrace], errs[secTrace] = encodeEach(b.TraceEvents, encodeTraceEvent)
	e[secCounters], errs[secCounters] = encodeEach(b.Counters, marshalElem[CounterSnap])
	e[secSamples], errs[secSamples] = encodeEach(b.Samples, encodeSample)
	e[secBurns], errs[secBurns] = encodeEach(b.Burns, marshalElem[tsdb.BurnEvent])
	e[secPhases], errs[secPhases] = encodeEach(b.Phases, encodePhaseStat)
	e[secPlans], errs[secPlans] = encodeEach(b.Plans, marshalElem[controlplane.PlanRecord])
	e[secRuntime], errs[secRuntime] = encodeEach(b.Runtime, marshalElem[RuntimeSnap])
	return cmp.Or(errs[:]...)
}

// encodeEach encodes every element of vs.
func encodeEach[T any](vs []T, encode func(*T) ([]byte, error)) ([][]byte, error) {
	enc := make([][]byte, len(vs))
	for i := range vs {
		var err error
		if enc[i], err = encode(&vs[i]); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// marshalElem is the reflective element encoder, for the nested types.
func marshalElem[T any](v *T) ([]byte, error) {
	return json.MarshalIndent(v, elemPrefix, "  ")
}

// appendJSON appends the bundle's JSON to dst, taking the array elements
// from e, which must encode b's sections. The incident log's reader
// assembles a bundle with it too, from the elements' records.
func (b *Bundle) appendJSON(dst []byte, e *sections) []byte {
	dst = appendString(append(dst, "{\n  \"id\": "...), b.ID)
	dst = strconv.AppendInt(topKey(dst, "seq"), int64(b.Seq), 10)
	dst = strconv.AppendInt(topKey(dst, "at_ns"), b.AtNS, 10)
	dst = appendString(topKey(dst, "reason"), b.Reason)
	if b.Detail != "" {
		dst = appendString(topKey(dst, "detail"), b.Detail)
	}
	dst = strconv.AppendInt(topKey(dst, "family"), int64(b.Family), 10)
	dst = strconv.AppendInt(topKey(dst, "device"), int64(b.Device), 10)
	for s, key := range sectionKeys {
		dst = appendArray(dst, key, e[s])
	}
	build, _ := json.MarshalIndent(b.Build, "  ", "  ") // flat strings and a bool: cannot fail
	return append(append(topKey(dst, "build"), build...), "\n}\n"...)
}

// topKey starts a bundle field after the first.
func topKey(dst []byte, key string) []byte {
	return append(append(append(dst, ",\n  \""...), key...), "\": "...)
}

// elemKey starts an array element's field after the first.
func elemKey(dst []byte, key string) []byte {
	return append(append(append(dst, ",\n      \""...), key...), "\": "...)
}

// appendArray appends a non-empty section; an empty one is omitted, as
// omitempty does.
func appendArray(dst []byte, key string, elems [][]byte) []byte {
	if len(elems) == 0 {
		return dst
	}
	dst = append(topKey(dst, key), '[')
	for i, el := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, "\n"+elemPrefix...), el...)
	}
	return append(dst, "\n  ]"...)
}

// appendString appends s as a JSON string. Strings that need no escaping —
// every name the engines write — are copied; any other goes through
// encoding/json, which escapes HTML characters, U+2028/U+2029 and control
// bytes and replaces invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// encodeTraceEvent, encodeSample and encodePhaseStat are marshalElem for the
// flat types that fill most of a bundle.
func encodeTraceEvent(te *TraceEvent) ([]byte, error) {
	dst := make([]byte, 0, 256)
	dst = strconv.AppendInt(append(dst, "{\n      \"at_us\": "...), te.AtUS, 10)
	dst = strconv.AppendUint(elemKey(dst, "seq"), te.Seq, 10)
	dst = appendString(elemKey(dst, "kind"), te.Kind)
	dst = strconv.AppendUint(elemKey(dst, "query"), te.Query, 10)
	dst = strconv.AppendInt(elemKey(dst, "family"), int64(te.Family), 10)
	dst = strconv.AppendInt(elemKey(dst, "device"), int64(te.Device), 10)
	dst = strconv.AppendInt(elemKey(dst, "batch"), int64(te.Batch), 10)
	if te.Plan != 0 {
		dst = strconv.AppendInt(elemKey(dst, "plan"), int64(te.Plan), 10)
	}
	if te.Episode != 0 {
		dst = strconv.AppendInt(elemKey(dst, "episode"), int64(te.Episode), 10)
	}
	if te.Cause != "" {
		dst = appendString(elemKey(dst, "cause"), te.Cause)
	}
	return append(dst, "\n"+elemPrefix+"}"...), nil
}

func encodeSample(s *tsdb.Sample) ([]byte, error) {
	dst := make([]byte, 0, 256)
	dst = strconv.AppendInt(append(dst, "{\n      \"at_ns\": "...), int64(s.At), 10)
	dst = strconv.AppendInt(elemKey(dst, "device"), int64(s.Device), 10)
	dst = strconv.AppendBool(elemKey(dst, "up"), s.Up)
	dst = strconv.AppendInt(elemKey(dst, "queue_depth"), int64(s.QueueDepth), 10)
	dst = strconv.AppendInt(elemKey(dst, "batch_size"), int64(s.BatchSize), 10)
	dst = strconv.AppendInt(elemKey(dst, "util_milli"), int64(s.UtilMilli), 10)
	if s.Variant != "" {
		dst = appendString(elemKey(dst, "variant"), s.Variant)
	}
	if s.SatMilli != 0 {
		dst = strconv.AppendInt(elemKey(dst, "sat_milli"), int64(s.SatMilli), 10)
	}
	if s.Pressured {
		dst = strconv.AppendBool(elemKey(dst, "pressured"), s.Pressured)
	}
	return append(dst, "\n"+elemPrefix+"}"...), nil
}

func encodePhaseStat(p *tsdb.PhaseStat) ([]byte, error) {
	dst := make([]byte, 0, 256)
	dst = appendString(append(dst, "{\n      \"scope\": "...), p.Scope)
	dst = strconv.AppendInt(elemKey(dst, "index"), int64(p.Index), 10)
	dst = appendString(elemKey(dst, "phase"), p.Phase)
	dst = strconv.AppendUint(elemKey(dst, "count"), p.Count, 10)
	dst = strconv.AppendInt(elemKey(dst, "mean_us"), p.MeanUS, 10)
	dst = strconv.AppendInt(elemKey(dst, "p50_us"), p.P50US, 10)
	dst = strconv.AppendInt(elemKey(dst, "p95_us"), p.P95US, 10)
	dst = strconv.AppendInt(elemKey(dst, "p99_us"), p.P99US, 10)
	dst = strconv.AppendInt(elemKey(dst, "max_us"), p.MaxUS, 10)
	return append(dst, "\n"+elemPrefix+"}"...), nil
}
