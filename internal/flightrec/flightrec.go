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
// Locking: the recorder's mutex is a leaf. Tick and Trigger read the
// sources (tracer, registry, tsdb recorder, controller) *before* taking it,
// which keeps Trigger safe to call from the tsdb burn callback (which runs
// under the tsdb recorder's lock) without ordering cycles.
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
	// TraceEvents is the maximum number of tracer events copied into a
	// bundle (the newest are kept). Default 4096.
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
	// traceEnc[i] encodes the trace event with Seq traceSeq0+i, and
	// planEnc[i] the plan record with Seq planSeqs[i]: the tracer and the
	// controller never change a record they have handed out. A bundle file
	// then costs the encoding of what is new since the last one.
	traceEnc  [][]byte
	traceSeq0 uint64
	planSeqs  []int
	planEnc   [][]byte
	lastSize  int // length of the last bundle written, to size the next
	incidents []*Bundle
	writeErr  error
}

// ring is one of the recorder's bounded rings, oldest first, with each
// value's bundle encoding kept beside it once a bundle file has needed it.
type ring[T any] struct {
	vals []T
	enc  [][]byte // enc[i] encodes vals[i]; nil until first needed
}

func (r *ring[T]) push(max int, vs ...T) {
	r.vals = appendBounded(r.vals, max, vs...)
	r.enc = appendBounded(append(r.enc, make([][]byte, len(vs))...), max)
}

// encoded returns the encodings of every value, encoding those new since
// the last call.
func (r *ring[T]) encoded(encode func(*T) ([]byte, error)) ([][]byte, error) {
	return r.enc, encodeMissing(r.enc, r.vals, encode)
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

// appendBounded appends vs to buf keeping at most max elements, dropping the
// oldest first. A tick's whole batch goes in one call, so a full ring shifts
// once per tick and not once per element.
func appendBounded[T any](buf []T, max int, vs ...T) []T {
	buf = append(buf, vs...)
	if over := len(buf) - max; over > 0 {
		buf = append(buf[:0], buf[over:]...)
	}
	return buf
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
		r.phases = ring[tsdb.PhaseStat]{vals: phases, enc: make([][]byte, len(phases))}
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
	src := r.src
	r.mu.Unlock()

	events := src.Tracer.Tail(r.cfg.TraceEvents)
	var plans []controlplane.PlanRecord
	if src.Plans != nil {
		plans = src.Plans()
	}
	if n := r.cfg.Plans; len(plans) > n {
		plans = plans[len(plans)-n:]
	}

	r.mu.Lock()
	r.seq++
	b := &Bundle{
		ID:     fmt.Sprintf("incident-%06d-%s", r.seq, reason),
		Seq:    r.seq,
		AtNS:   int64(now),
		Reason: reason,
		Detail: detail,
		Family: family,
		Device: device,
		Build:  buildinfo.Get(),
	}
	b.TraceEvents = make([]TraceEvent, len(events))
	for i, ev := range events {
		b.TraceEvents[i] = toTraceEvent(ev)
	}
	b.Counters = append([]CounterSnap(nil), r.counters.vals...)
	b.Samples = append([]tsdb.Sample(nil), r.samples.vals...)
	b.Burns = append([]tsdb.BurnEvent(nil), r.burns.vals...)
	b.Phases = append([]tsdb.PhaseStat(nil), r.phases.vals...)
	// Solver wall times are real elapsed time even in the simulator, and a
	// budgeted solve's proof progress is timing-dependent; sanitize the
	// copy so same-seed bundles stay byte-identical (every serialization
	// surface shares this helper).
	b.Plans = controlplane.SanitizePlans(append([]controlplane.PlanRecord(nil), plans...))
	b.Runtime = append([]RuntimeSnap(nil), r.runtime.vals...)
	r.incidents = appendBounded(r.incidents, r.cfg.MaxIncidents, b)
	dir := r.cfg.Dir
	var data []byte
	var err error
	if dir != "" {
		data, err = r.encode(b)
	}
	r.mu.Unlock()

	if dir != "" {
		if err == nil {
			err = writeFileAtomic(filepath.Join(dir, b.ID+".json"), data)
		}
		if err != nil {
			r.mu.Lock()
			r.writeErr = err
			r.mu.Unlock()
		}
	}
	return b
}

// encode returns bundle b's file contents, which Trigger has just built
// from the rings. Every ring element, trace event and plan record is encoded
// once, the first time a bundle holds it, and spliced into every later
// bundle that holds it too. Called under r.mu.
func (r *Recorder) encode(b *Bundle) ([]byte, error) {
	var e sections
	var errs [7]error
	e.trace, errs[0] = r.encodeTrace(b.TraceEvents)
	e.counters, errs[1] = r.counters.encoded(marshalElem[CounterSnap])
	e.samples, errs[2] = r.samples.encoded(encodeSample)
	e.burns, errs[3] = r.burns.encoded(marshalElem[tsdb.BurnEvent])
	e.phases, errs[4] = r.phases.encoded(marshalElem[tsdb.PhaseStat])
	e.plans, errs[5] = r.encodePlans(b.Plans)
	e.runtime, errs[6] = r.runtime.encoded(marshalElem[RuntimeSnap])
	if err := cmp.Or(errs[:]...); err != nil {
		return nil, err
	}
	data := b.appendJSON(make([]byte, 0, r.lastSize+r.lastSize/8), &e)
	r.lastSize = len(data)
	return data, nil
}

// encodeTrace returns the encodings of tes, the tracer's newest events with
// consecutive Seqs, reusing those of the last bundle's tail. A tail older
// than the cached one (a concurrent trigger that read the tracer first)
// restarts the cache.
func (r *Recorder) encodeTrace(tes []TraceEvent) ([][]byte, error) {
	if len(tes) == 0 {
		return nil, nil
	}
	first := tes[0].Seq
	if first < r.traceSeq0 || first-r.traceSeq0 > uint64(len(r.traceEnc)) {
		r.traceEnc = r.traceEnc[:0]
	} else {
		r.traceEnc = append(r.traceEnc[:0], r.traceEnc[first-r.traceSeq0:]...)
	}
	r.traceSeq0 = first
	kept := min(len(r.traceEnc), len(tes))
	r.traceEnc = append(r.traceEnc[:kept], make([][]byte, len(tes)-kept)...)
	return r.traceEnc, encodeMissing(r.traceEnc, tes, encodeTraceEvent)
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
