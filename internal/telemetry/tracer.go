package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// EventKind identifies a point in a query's lifecycle.
type EventKind uint8

const (
	// EvArrival: query entered the system.
	EvArrival EventKind = iota
	// EvRoute: router assigned the query to a device.
	EvRoute
	// EvEnqueue: query joined a device queue.
	EvEnqueue
	// EvBatchFormed: batching policy committed the query to a batch.
	EvBatchFormed
	// EvExecStart: the batch containing the query began executing.
	EvExecStart
	// EvDone: query completed within its SLO.
	EvDone
	// EvLate: query completed after its deadline.
	EvLate
	// EvDropped: query was shed (no route, admission control, expiry, or
	// retry budget exhausted).
	EvDropped
	// EvRequeued: query was stranded by a device failure and re-entered
	// routing.
	EvRequeued
	// EvRetried: stranded query was granted a retry and re-routed.
	EvRetried
	// EvSLOBurnStart: a family's SLO burn rate exceeded the alerting
	// threshold in both monitor windows (family in the Family field; the
	// query ID is 0 — burn events are per family, not per query).
	EvSLOBurnStart
	// EvSLOBurnEnd: the burn episode ended.
	EvSLOBurnEnd
	// EvDegradeStart: the overload guard opened or escalated an emergency
	// accuracy-degradation episode (family in the Family field, the new
	// degradation level in the Batch field; query ID 0 — like burn events,
	// degradations are per family).
	EvDegradeStart
	// EvDegradeEnd: the overload guard restored the planned routing.
	EvDegradeEnd

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvArrival:      "arrival",
	EvRoute:        "route",
	EvEnqueue:      "enqueue",
	EvBatchFormed:  "batch_formed",
	EvExecStart:    "exec_start",
	EvDone:         "done",
	EvLate:         "late",
	EvDropped:      "dropped",
	EvRequeued:     "requeued",
	EvRetried:      "retried",
	EvSLOBurnStart: "slo_burn_start",
	EvSLOBurnEnd:   "slo_burn_end",
	EvDegradeStart: "degrade_start",
	EvDegradeEnd:   "degrade_end",
}

// String returns the stable wire name of the event kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// KindByName maps a wire name back to its EventKind. ok is false for
// unknown names.
func KindByName(name string) (EventKind, bool) {
	for k, n := range eventKindNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Cause classifies why a query was dropped, requeued, or retried. It rides
// on EvDropped / EvRequeued / EvRetried events so latency attribution can
// tell a failure re-route from an admission shed without re-deriving engine
// state.
type Cause uint8

const (
	// CauseNone: the event needs no cause (the zero value).
	CauseNone Cause = iota
	// CauseDeviceFailure: the query was stranded in a failed device's queue
	// or mailbox.
	CauseDeviceFailure
	// CauseStaleRoute: the query was routed to a device that was already
	// down (the routing table lagged the failure).
	CauseStaleRoute
	// CauseMidflight: the device died while the query's batch was executing
	// (live mode only; the simulator completes in-flight batches).
	CauseMidflight
	// CauseShedAdmission: deadline admission control shed the query at
	// routing time.
	CauseShedAdmission
	// CauseNoRoute: no hosted variant / all candidate devices banned.
	CauseNoRoute
	// CauseExpired: the query's deadline passed before it could be served.
	CauseExpired
	// CauseRetryBudget: a stranded query exhausted its retry budget.
	CauseRetryBudget
	// CausePolicyDrop: the batching policy shed the query.
	CausePolicyDrop
	// CauseDraining: the server refused the query during graceful shutdown
	// (live mode only).
	CauseDraining

	numCauses
)

var causeNames = [numCauses]string{
	CauseNone:          "",
	CauseDeviceFailure: "device_failure",
	CauseStaleRoute:    "stale_route",
	CauseMidflight:     "midflight",
	CauseShedAdmission: "shed_admission",
	CauseNoRoute:       "no_route",
	CauseExpired:       "expired",
	CauseRetryBudget:   "retry_budget",
	CausePolicyDrop:    "policy_drop",
	CauseDraining:      "draining",
}

// String returns the stable wire name of the cause ("" for CauseNone).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// CauseByName maps a wire name back to its Cause; "" maps to CauseNone.
func CauseByName(name string) (Cause, bool) {
	for c, n := range causeNames {
		if n == name {
			return Cause(c), true
		}
	}
	return 0, false
}

// Ctx is the causal context stamped onto an event: which control plan and
// overload episode were active, and — for drop/requeue/retry events — why
// the query left its normal path. The zero Ctx means "no context", so call
// sites without causal information keep using Record unchanged.
type Ctx struct {
	// Plan is the sequence number of the control plan in force (0 when no
	// plan has been applied yet or the engine doesn't track plans).
	Plan int32
	// Episode is the overload guard's emergency-degradation episode id
	// active for the query's family (0 when none).
	Episode int32
	// Cause classifies drop/requeue/retry events (CauseNone otherwise).
	Cause Cause
}

// Event is one timestamped point in a query's lifecycle. At is relative to
// the trace origin: the virtual clock in simulation, time since server
// start in live serving. Device and Batch are -1 when not applicable.
type Event struct {
	At     time.Duration
	Seq    uint64 // global record order, breaks equal-At ties
	Query  uint64
	Kind   EventKind
	Family int32
	Device int32
	Batch  int32
	// Plan, Episode, and Cause are the causal context (see Ctx); all zero
	// for events recorded through Record.
	Plan    int32
	Episode int32
	Cause   Cause
}

// Tracer records lifecycle events into a bounded ring buffer: when more
// than its capacity arrive, the oldest are overwritten (Dropped counts
// them). A nil *Tracer discards all events, so call sites never need a
// guard. Record is safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded; buf index = (next-1) % cap
	// dropCounter, when set, is incremented once per ring-wrap eviction so
	// overflow is visible on /metrics (trace_dropped_total). Counter.Inc is
	// nil-safe, so an unset counter costs nothing extra.
	dropCounter *Counter
}

// DefaultTraceCapacity bounds tracer memory when callers don't choose:
// 1M events ≈ 48 MB.
const DefaultTraceCapacity = 1 << 20

// NewTracer returns a tracer holding the most recent capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Record appends a lifecycle event with no causal context. No-op on a nil
// tracer.
func (t *Tracer) Record(at time.Duration, kind EventKind, query uint64, family, device, batch int) {
	t.RecordCtx(at, kind, query, family, device, batch, Ctx{})
}

// RecordCtx appends a lifecycle event carrying causal context. No-op on a
// nil tracer. The nil check lives in this thin wrapper so it inlines into
// call sites and the disabled path stays a branch, not a call.
func (t *Tracer) RecordCtx(at time.Duration, kind EventKind, query uint64, family, device, batch int, ctx Ctx) {
	if t == nil {
		return
	}
	t.recordCtx(at, kind, query, family, device, batch, ctx)
}

func (t *Tracer) recordCtx(at time.Duration, kind EventKind, query uint64, family, device, batch int, ctx Ctx) {
	t.mu.Lock()
	ev := Event{
		At:      at,
		Seq:     t.next,
		Query:   query,
		Kind:    kind,
		Family:  int32(family),
		Device:  int32(device),
		Batch:   int32(batch),
		Plan:    ctx.Plan,
		Episode: ctx.Episode,
		Cause:   ctx.Cause,
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next%uint64(cap(t.buf))] = ev
		t.dropCounter.Inc()
	}
	t.next++
	t.mu.Unlock()
}

// SetDropCounter registers the counter incremented on every ring-wrap
// eviction (typically trace_dropped_total from a Registry). No-op on a nil
// tracer.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropCounter = c
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many events were overwritten because the ring
// filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next - uint64(len(t.buf))
}

// Events returns the buffered events in record order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	if len(t.buf) < cap(t.buf) || len(t.buf) == 0 {
		copy(out, t.buf)
		return out
	}
	// Ring has wrapped: the oldest event sits at next % cap.
	head := int(t.next % uint64(cap(t.buf)))
	n := copy(out, t.buf[head:])
	copy(out[n:], t.buf[:head])
	return out
}

// WriteJSONL writes one JSON object per line per event, in record order.
// Fields are emitted in a fixed order via fmt so that identical event
// sequences serialize to identical bytes. Timestamps are nanoseconds so the
// attribution engine's conservation invariant survives a round-trip.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, ev := range t.Events() {
		_, err := fmt.Fprintf(w,
			`{"at_ns":%d,"seq":%d,"kind":%q,"query":%d,"family":%d,"device":%d,"batch":%d,"plan":%d,"episode":%d,"cause":%q}`+"\n",
			ev.At.Nanoseconds(), ev.Seq, ev.Kind.String(), ev.Query, ev.Family, ev.Device, ev.Batch,
			ev.Plan, ev.Episode, ev.Cause.String())
		if err != nil {
			return err
		}
	}
	return nil
}

// maxTraceFamily bounds the family index ReadJSONL accepts. Readers of a
// trace keep one table row per family up to the largest seen
// (attrib.Report.Families), so the file must not be able to name that size.
const maxTraceFamily = 1 << 12

// ReadJSONL parses a trace written by WriteJSONL back into events. Unknown
// kinds or causes fail the parse rather than silently mis-attributing, and
// so do the values no tracer writes: a negative timestamp, or a family that
// is negative or beyond maxTraceFamily. Every error names the line.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var wire struct {
			AtNS    int64  `json:"at_ns"`
			Seq     uint64 `json:"seq"`
			Kind    string `json:"kind"`
			Query   uint64 `json:"query"`
			Family  int32  `json:"family"`
			Device  int32  `json:"device"`
			Batch   int32  `json:"batch"`
			Plan    int32  `json:"plan"`
			Episode int32  `json:"episode"`
			Cause   string `json:"cause"`
		}
		if err := json.Unmarshal([]byte(text), &wire); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		kind, ok := KindByName(wire.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: trace line %d: unknown event kind %q", line, wire.Kind)
		}
		cause, ok := CauseByName(wire.Cause)
		if !ok {
			return nil, fmt.Errorf("telemetry: trace line %d: unknown cause %q", line, wire.Cause)
		}
		if wire.AtNS < 0 {
			return nil, fmt.Errorf("telemetry: trace line %d: negative at_ns %d", line, wire.AtNS)
		}
		if wire.Family < 0 || wire.Family > maxTraceFamily {
			return nil, fmt.Errorf("telemetry: trace line %d: family %d outside [0, %d]", line, wire.Family, maxTraceFamily)
		}
		out = append(out, Event{
			At:      time.Duration(wire.AtNS),
			Seq:     wire.Seq,
			Query:   wire.Query,
			Kind:    kind,
			Family:  wire.Family,
			Device:  wire.Device,
			Batch:   wire.Batch,
			Plan:    wire.Plan,
			Episode: wire.Episode,
			Cause:   cause,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace: %w", err)
	}
	return out, nil
}

// WriteChromeTrace writes the buffered events in Chrome trace_event JSON
// array format (load via chrome://tracing or https://ui.perfetto.dev).
// Each event becomes an instant event ("ph":"i") on pid = device (+1 so
// device -1 maps to pid 0) and tid = family. Output is byte-stable for a
// given event sequence.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	events := t.Events()
	for i, ev := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w,
			`  {"name":%q,"ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t","args":{"query":%d,"seq":%d,"batch":%d,"plan":%d,"episode":%d,"cause":%q}}%s`+"\n",
			ev.Kind.String(), ev.At.Microseconds(), ev.Device+1, ev.Family, ev.Query, ev.Seq, ev.Batch,
			ev.Plan, ev.Episode, ev.Cause.String(), sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
