// Package flightrec is the black-box flight recorder: bounded rings of
// recent observability state (trace events, counter snapshots, device
// time-series samples, SLO burn transitions, solver audit records, and —
// in live mode — process runtime stats) that are continuously refreshed on
// the engine's sampling tick and atomically snapshotted into an incident
// bundle when something goes wrong. Triggers are SLO burn starts, overload
// episodes, allocator fallbacks, device failures, and manual requests; the
// bundle preserves the state *leading up to* the trigger, which is exactly
// what a post-hoc trace no longer has.
//
// Like the rest of the observability stack, a nil *Recorder turns every
// method into a ~1ns no-op, timestamps are supplied by the hosting engine
// (virtual clock in the simulator, wall-clock offsets in live serving), and
// bundle JSON is byte-deterministic for same-seed simulator runs: solver
// wall times are zeroed on capture and nondeterministic runtime stats are
// collected only when Config.Live is set. pprof captures (which need a real
// clock) live in the serving layer, outside this package.
//
// Sharing: the rings are append-only. An element is never rewritten once
// pushed — trimming advances a start index, and a full ring moves its newest
// elements to a fresh array — so a bundle's sections are windows of the ring
// arrays, not copies, and no bundle changes after Trigger returns it.
//
// Locking: the recorder's mutex is a leaf. Tick and Trigger read the
// sources (tracer, registry, tsdb recorder, controller) *before* taking it,
// which keeps Trigger safe to call from the tsdb burn callback (which runs
// under the tsdb recorder's lock) without ordering cycles. Bundle files are
// encoded and written outside it, serialised on the recorder's one output
// buffer instead.
package flightrec

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"proteus/internal/buildinfo"
	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// Config bounds the recorder's rings and selects live-mode extras.
type Config struct {
	// TraceEvents is the maximum number of tracer events a bundle holds
	// (the newest are kept). Default 4096.
	TraceEvents int
	// CounterSnaps / RuntimeSnaps / Samples / Burns bound the respective
	// rings. Defaults 64, 64, 2048, 256.
	CounterSnaps int
	RuntimeSnaps int
	Samples      int
	Burns        int
	// Plans is the maximum number of controller audit records copied into a
	// bundle (the newest are kept). Default 32.
	Plans int
	// MaxIncidents bounds the in-memory bundle log served by
	// /debug/incidents. Default 16.
	MaxIncidents int
	// Live enables nondeterministic runtime sampling (heap, GC pauses,
	// goroutine count). Leave false in the simulator so same-seed runs emit
	// byte-identical bundles.
	Live bool
	// Dir, when non-empty, receives one <bundle-id>.json file per trigger.
	Dir string
}

func (c Config) withDefaults() Config {
	if c.TraceEvents <= 0 {
		c.TraceEvents = 4096
	}
	if c.CounterSnaps <= 0 {
		c.CounterSnaps = 64
	}
	if c.RuntimeSnaps <= 0 {
		c.RuntimeSnaps = 64
	}
	if c.Samples <= 0 {
		c.Samples = 2048
	}
	if c.Burns <= 0 {
		c.Burns = 256
	}
	if c.Plans <= 0 {
		c.Plans = 32
	}
	if c.MaxIncidents <= 0 {
		c.MaxIncidents = 16
	}
	return c
}

// Sources are the observability components the recorder snapshots. Any of
// them may be nil/zero; the corresponding bundle sections stay empty.
type Sources struct {
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
	TSDB     *tsdb.Recorder
	// Plans returns the controller's audit log (controlplane.Controller's
	// History method). Must be safe to call from any goroutine.
	Plans func() []controlplane.PlanRecord
}

// Recorder is the flight recorder. A nil *Recorder no-ops every method.
// Tick is intended to be driven from the engine's single sampling loop;
// Trigger may race Tick and other Triggers freely — each trigger snapshots
// under the recorder's lock, so concurrent incidents yield two complete,
// non-interleaved bundles.
type Recorder struct {
	cfg Config

	mu  sync.Mutex
	src Sources
	runState

	// out is the bundle file buffer every trigger reuses; outMu serialises
	// the writers on it, so files are encoded and written outside mu.
	outMu sync.Mutex
	out   []byte
}

// runState is what a recorder accumulates over one run; Init zeroes it.
type runState struct {
	seq       int
	sampleCur int
	burnCur   int
	counters  ring[CounterSnap]
	samples   ring[tsdb.Sample]
	burns     ring[tsdb.BurnEvent]
	phases    ring[tsdb.PhaseStat] // replaced whole each tick, never trimmed
	runtime   ring[RuntimeSnap]
	// trace caches the tracer's newest events, converted, and traceEnd is
	// the Seq after the newest of them: the tracer never changes an event
	// once recorded, so a trigger reads and converts only those past it.
	trace    ring[TraceEvent]
	traceEnd uint64
	// planEnc[i] encodes the plan record with Seq planSeqs[i]: the
	// controller never changes a record it has handed out either. A bundle
	// file then costs the encoding of what is new since the last one.
	planSeqs  []int
	planEnc   [][]byte
	incidents []*Bundle
	writeErr  error
}

// ring is one of the recorder's bounded rings, oldest first: all[start:]
// of an append-only array, with each value's bundle encoding kept beside it
// once a bundle file has needed it. A value is never rewritten once pushed,
// so bundles hold windows of all rather than copies.
type ring[T any] struct {
	all   []T
	enc   [][]byte // enc[i] encodes all[i]; nil until first needed
	start int
}

// extend makes room for k (at most bound) more values and returns them to be
// filled in, keeping the newest bound. It writes only past the end of all:
// when the array is full, the values kept move to a fresh one twice the
// bound, so each value is moved at most once per bound values pushed.
func (r *ring[T]) extend(bound, k int) []T {
	n := len(r.all)
	if n+k > cap(r.all) {
		keep := min(n-r.start, bound-k)
		all := make([]T, keep, 2*bound)
		copy(all, r.all[n-keep:])
		enc := make([][]byte, keep, 2*bound)
		copy(enc, r.enc[n-keep:])
		r.all, r.enc, r.start, n = all, enc, 0, keep
	}
	r.all, r.enc = r.all[:n+k], r.enc[:n+k]
	r.start = max(r.start, n+k-bound)
	return r.all[n:]
}

// push appends vs, keeping the newest bound.
func (r *ring[T]) push(bound int, vs ...T) {
	if len(vs) > bound {
		vs = vs[len(vs)-bound:]
	}
	if len(vs) > 0 {
		copy(r.extend(bound, len(vs)), vs)
	}
}

// window returns the ring's values as a bundle section: capped at their
// end, so appending to it cannot reach the ring, and nil when empty, as a
// section with nothing in it always was.
func (r *ring[T]) window() []T {
	if r.start == len(r.all) {
		return nil
	}
	return r.all[r.start:len(r.all):len(r.all)]
}

// encoded returns the encodings of the ring's values, encoding those not
// yet encoded.
func (r *ring[T]) encoded(encode func(*T) ([]byte, error)) ([][]byte, error) {
	enc := r.enc[r.start:len(r.enc):len(r.enc)]
	return enc, encodeMissing(enc, r.all[r.start:], encode)
}

// New returns a flight recorder with defaults applied. The hosting engine
// connects it to its observability components via Init at assembly time.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg.withDefaults()}
}

// Init installs the snapshot sources and resets all rings, so a recorder
// serves exactly one run. Called once by the hosting engine.
func (r *Recorder) Init(src Sources) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.src = src
	r.runState = runState{}
}

// Dir returns the configured bundle output directory ("" when bundles are
// kept in memory only).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.cfg.Dir
}

// Live reports whether nondeterministic runtime sampling is enabled.
func (r *Recorder) Live() bool {
	if r == nil {
		return false
	}
	return r.cfg.Live
}

// Tick refreshes the rings from the sources: new tsdb samples and burn
// transitions since the last tick (via cursors, so each tick pays only for
// what is new), one counter snapshot, the current phase-decomposition
// summary, and — live mode only — one runtime snapshot. Rides the engine's
// existing tsdb sampling cadence; call it after Recorder.Sample so the tick
// sees the fresh point.
func (r *Recorder) Tick(now time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	src := r.src
	sampleCur, burnCur := r.sampleCur, r.burnCur
	r.mu.Unlock()

	// Source reads happen outside r.mu: each source takes its own lock and
	// r.mu must stay a leaf (Trigger is reachable from the tsdb burn
	// callback, which already holds the tsdb recorder's lock).
	samples, sampleCur := src.TSDB.SamplesSince(sampleCur)
	burns, burnCur := src.TSDB.BurnsSince(burnCur)
	phases := src.TSDB.PhaseStats()
	var metrics []telemetry.Metric
	if src.Registry != nil {
		metrics = src.Registry.Snapshot()
	}
	var rt *RuntimeSnap
	if r.cfg.Live {
		rt = readRuntime(now)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if sampleCur > r.sampleCur {
		r.sampleCur = sampleCur
	}
	if burnCur > r.burnCur {
		r.burnCur = burnCur
	}
	r.samples.push(r.cfg.Samples, samples...)
	r.burns.push(r.cfg.Burns, burns...)
	if phases != nil {
		r.phases = ring[tsdb.PhaseStat]{all: phases, enc: make([][]byte, len(phases))}
	}
	if metrics != nil {
		r.counters.push(r.cfg.CounterSnaps, CounterSnap{AtNS: int64(now), Metrics: metrics})
	}
	if rt != nil {
		r.runtime.push(r.cfg.RuntimeSnaps, *rt)
	}
}

// Trigger snapshots the rings — plus the tracer's event ring and the
// controller's newest audit records, gathered at trigger time — into a new
// incident bundle, appends it to the in-memory incident log, and (when
// Config.Dir is set) writes it to <Dir>/<bundle-id>.json. Reason is one of
// "slo_burn", "overload", "alloc_fallback", "device_failure", "manual";
// family/device are -1 when not applicable.
//
// Safe from any goroutine, including the tsdb burn callback: Trigger never
// calls back into the tsdb recorder, so ring contents reflect the last
// tick while the trace ring is current to the trigger instant.
func (r *Recorder) Trigger(now time.Duration, reason, detail string, family, device int) *Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	src, from := r.src, r.traceEnd
	r.mu.Unlock()

	var plans []controlplane.PlanRecord
	if src.Plans != nil {
		plans = src.Plans()
	}
	if n := r.cfg.Plans; len(plans) > n {
		plans = plans[len(plans)-n:]
	}
	// Solver wall times are real elapsed time even in the simulator, and a
	// budgeted solve's proof progress is timing-dependent; sanitize the
	// copy so same-seed bundles stay byte-identical (every serialization
	// surface shares this helper).
	plans = controlplane.SanitizePlans(append([]controlplane.PlanRecord(nil), plans...))

	// The tracer is read outside r.mu, for only the events past the cache,
	// and joined to the cache under it. A concurrent trigger may have moved
	// the cache in between; when the join cannot make the cache this read's
	// window, read again from where the cache ends now.
	for {
		first, events := src.Tracer.TailFrom(r.cfg.TraceEvents, from)
		r.mu.Lock()
		if r.joinTrace(src.Tracer, first, from, events) {
			break
		}
		src, from = r.src, r.traceEnd
		r.mu.Unlock()
	}
	r.seq++
	b := &Bundle{
		ID:          fmt.Sprintf("incident-%06d-%s", r.seq, reason),
		Seq:         r.seq,
		AtNS:        int64(now),
		Reason:      reason,
		Detail:      detail,
		Family:      family,
		Device:      device,
		TraceEvents: r.trace.window(),
		Counters:    r.counters.window(),
		Samples:     r.samples.window(),
		Burns:       r.burns.window(),
		Phases:      r.phases.window(),
		Plans:       plans,
		Runtime:     r.runtime.window(),
		Build:       buildinfo.Get(),
	}
	r.incidents = append(r.incidents, b)
	if over := len(r.incidents) - r.cfg.MaxIncidents; over > 0 {
		r.incidents = append(r.incidents[:0], r.incidents[over:]...)
	}
	dir := r.cfg.Dir
	var e sections
	var err error
	if dir != "" {
		e, err = r.encode(plans)
	}
	r.mu.Unlock()

	if dir != "" {
		if err == nil {
			err = r.write(filepath.Join(dir, b.ID+".json"), b, &e)
		}
		if err != nil {
			r.mu.Lock()
			r.writeErr = err
			r.mu.Unlock()
		}
	}
	return b
}

// joinTrace makes the trace cache the window of a read of the tracer from
// Seq from: the events from Seq first to the newest, of which the read
// returned those from max(first, from) on. It converts only what the cache
// lacks and trims the cache to the window. It reports false, leaving the
// cache as it is, when a concurrent trigger has moved the cache past the
// read or trimmed what the read skipped, or Init has replaced the tracer.
// Called under r.mu.
func (r *Recorder) joinTrace(tracer *telemetry.Tracer, first, from uint64, events []telemetry.Event) bool {
	c := &r.trace
	oldest := r.traceEnd - uint64(len(c.all)-c.start)
	got := max(first, from)
	end := got + uint64(len(events))
	if r.src.Tracer != tracer || r.traceEnd > end || oldest > first || (got > first && r.traceEnd < got) {
		return false
	}
	if r.traceEnd < first {
		// Everything cached is older than the window; the read has it all.
		*c = ring[TraceEvent]{}
		r.traceEnd = first
	}
	fresh := events[r.traceEnd-got:]
	if len(fresh) > 0 {
		dst := c.extend(r.cfg.TraceEvents, len(fresh))
		for k := range fresh {
			dst[k] = toTraceEvent(fresh[k])
		}
		r.traceEnd = end
	}
	c.start = len(c.all) - int(end-first)
	return true
}

// encode returns the encodings of the sections of the bundle Trigger has
// just built from the rings and plans. Every ring element, trace event and
// plan record is encoded once, the first time a bundle holds it, and
// spliced into every later bundle that holds it too. An encoding is never
// changed once set, so the sections stay valid after r.mu is released.
// Called under r.mu.
func (r *Recorder) encode(plans []controlplane.PlanRecord) (sections, error) {
	var e sections
	var errs [7]error
	e.trace, errs[0] = r.trace.encoded(encodeTraceEvent)
	e.counters, errs[1] = r.counters.encoded(marshalElem[CounterSnap])
	e.samples, errs[2] = r.samples.encoded(encodeSample)
	e.burns, errs[3] = r.burns.encoded(marshalElem[tsdb.BurnEvent])
	e.phases, errs[4] = r.phases.encoded(encodePhaseStat)
	e.plans, errs[5] = r.encodePlans(plans)
	e.runtime, errs[6] = r.runtime.encoded(marshalElem[RuntimeSnap])
	return e, cmp.Or(errs[:]...)
}

// write writes bundle b, whose sections e encodes, to path through the
// recorder's output buffer.
func (r *Recorder) write(path string, b *Bundle, e *sections) error {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	r.out = b.appendJSON(r.out[:0], e)
	return writeFileAtomic(path, r.out)
}

// encodePlans returns the encodings of plans, reusing those of the last
// bundle's plans with equal Seq. Seq 0 marks a record no controller
// numbered, so it is never reused.
func (r *Recorder) encodePlans(plans []controlplane.PlanRecord) ([][]byte, error) {
	enc := make([][]byte, len(plans))
	for i := range plans {
		if j := slices.Index(r.planSeqs, plans[i].Seq); j >= 0 && plans[i].Seq > 0 {
			enc[i] = r.planEnc[j]
		}
	}
	if err := encodeMissing(enc, plans, marshalElem[controlplane.PlanRecord]); err != nil {
		return nil, err
	}
	r.planSeqs = r.planSeqs[:0]
	for i := range plans {
		r.planSeqs = append(r.planSeqs, plans[i].Seq)
	}
	r.planEnc = enc
	return enc, nil
}

// Incidents returns the in-memory incident log, oldest first.
func (r *Recorder) Incidents() []*Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Bundle(nil), r.incidents...)
}

// WriteError returns the most recent bundle-file write failure, if any.
// Disk trouble must not break the data path, so Trigger records the error
// here instead of returning it.
func (r *Recorder) WriteError() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writeErr
}

// readRuntime samples process runtime state. Only called in live mode —
// heap and GC figures depend on allocator history, never on the seed.
func readRuntime(now time.Duration) *RuntimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &RuntimeSnap{
		AtNS:           int64(now),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		GCPauseTotalNS: ms.PauseTotalNs,
		NumGC:          ms.NumGC,
		Goroutines:     runtime.NumGoroutine(),
	}
}

// ReadBundle decodes one incident bundle from r.
func ReadBundle(rd io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("decode incident bundle: %w", err)
	}
	return &b, nil
}

// ReadBundleFile decodes the incident bundle at path.
func ReadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBundle(f)
}
