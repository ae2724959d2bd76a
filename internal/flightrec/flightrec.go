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
// bundles are byte-deterministic for same-seed simulator runs: plan records
// do not serialize solver wall times, and nondeterministic runtime stats are
// collected only when Config.Live is set. pprof captures (which need a real
// clock) live in the serving layer, outside this package.
//
// Sharing: no element a bundle holds is ever rewritten, so a bundle's
// sections are windows, not copies, and no bundle changes after Trigger
// returns it. The samples and burn transitions are windows of the tsdb
// recorder's own append-only logs, which the recorder reads in place: a
// flight recorder needs a tsdb recorder beside it (dataplane.New checks),
// and neither a tick nor a trigger copies any of them. The plan records are
// the tail of the controller's History copy; the other sections are windows
// of the recorder's own telemetry.Rings. The trace ring copies in only the
// tracer events it lacks, so a bundle keeps no array of the tracer's alive.
//
// Locking: the recorder's mutex is a leaf. Tick and Trigger read the
// sources (tracer, registry, tsdb recorder, controller) *before* taking it,
// which keeps Trigger safe to call from the tsdb burn callback (which runs
// under the tsdb recorder's lock) without ordering cycles. A trigger also
// holds the incident log's mutex, taken before the recorder's, from its
// snapshot through its write to the log (log.go); Tick never takes it, so
// no tick waits for the disk.
package flightrec

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"proteus/internal/buildinfo"
	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// The newest values a bundle holds of each section, and the number of
// bundles the in-memory incident list keeps for /debug/incidents.
const (
	maxTraceEvents  = 4096
	maxCounterSnaps = 64
	maxSamples      = 2048
	maxBurns        = 256
	maxPlans        = 32
	maxRuntimeSnaps = 64
	maxIncidents    = 16
)

// limits is a recorder's copy of those bounds. New sets it to the constants;
// a test in this package lowers it on a recorder of its own, before using
// the recorder, to wrap the rings in a few steps.
type limits struct {
	trace, counters, samples, burns, plans, incidents int
}

// Config selects where the incident log goes and the live-mode extras.
type Config struct {
	// Live enables nondeterministic runtime sampling (heap, GC pauses,
	// goroutine count), the newest maxRuntimeSnaps of them. Leave false in
	// the simulator so same-seed runs emit byte-identical bundles.
	Live bool
	// Dir, when non-empty, receives the run's incident log, Dir/incidents.log
	// (LogFile): a run's first trigger starts it afresh, and every trigger
	// appends the ring elements its bundle holds that the log lacks, then
	// the bundle's index. ReadLog(Dir) and Log.Bundle read a bundle back.
	// The first trigger creates the directory if it does not exist.
	Dir string
}

// Sources are the observability components the recorder snapshots. Any of
// them may be nil/zero; the corresponding bundle sections stay empty.
type Sources struct {
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
	TSDB     *tsdb.Recorder
	// Plans returns the controller's audit log (controlplane.Controller's
	// History method): a slice no one changes later, since a bundle keeps
	// its tail. Must be safe to call from any goroutine.
	Plans func() []controlplane.PlanRecord
}

// Recorder is the flight recorder. A nil *Recorder no-ops every method.
// Tick is intended to be driven from the engine's single sampling loop;
// Trigger may race Tick and other Triggers freely — each trigger snapshots
// under the recorder's lock, so concurrent incidents yield two complete,
// non-interleaved bundles.
type Recorder struct {
	cfg Config
	lim limits

	// log writes the incident log; its mutex is taken before mu.
	log incidentLog

	mu  sync.Mutex
	src Sources
	runState
}

// runState is what a recorder accumulates over one run; Init zeroes it.
// Every ring's ordinals are its source's: the tracer's Seqs for the trace,
// the tsdb logs' indices for samples and burns.
type runState struct {
	seq   int
	trace telemetry.Ring[telemetry.Event]
	// samples and burns are windows of the tsdb recorder's logs.
	samples   telemetry.Ring[tsdb.Sample]
	burns     telemetry.Ring[tsdb.BurnEvent]
	counters  telemetry.Ring[CounterSnap]
	phases    telemetry.Ring[tsdb.PhaseStat] // replaced whole each tick, never trimmed
	runtime   telemetry.Ring[RuntimeSnap]
	incidents []*Bundle
}

// New returns a flight recorder. The hosting engine connects it to its
// observability components via Init at assembly time.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, lim: limits{
		trace: maxTraceEvents, counters: maxCounterSnaps, samples: maxSamples,
		burns: maxBurns, plans: maxPlans, incidents: maxIncidents,
	}}
}

// Init installs the snapshot sources and resets all rings, so a recorder
// serves exactly one run; the run's first trigger starts the incident log
// afresh. Called once by the hosting engine.
func (r *Recorder) Init(src Sources) {
	if r == nil {
		return
	}
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.src = src
	r.runState = runState{}
	r.log.logState, r.log.err = logState{}, nil
}

// Dir returns the configured incident log directory ("" when bundles are
// kept in memory only).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.cfg.Dir
}

// Tick refreshes the rings from the sources: the newest tsdb samples and
// burn transitions, as windows of the tsdb recorder's logs (so a tick copies
// none of them), one counter snapshot, the current phase-decomposition
// summary, and — live mode only — one runtime snapshot. Rides the engine's
// existing tsdb sampling cadence; call it after Recorder.Sample so the tick
// sees the fresh point.
func (r *Recorder) Tick(now time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	src := r.src
	sampleEnd, burnEnd := int(r.samples.End()), int(r.burns.End())
	r.mu.Unlock()

	// Source reads happen outside r.mu: each source takes its own lock and
	// r.mu must stay a leaf (Trigger is reachable from the tsdb burn
	// callback, which already holds the tsdb recorder's lock).
	samples, nSamples := src.TSDB.SamplesSince(max(0, sampleEnd-r.lim.samples))
	burns, nBurns := src.TSDB.BurnsSince(max(0, burnEnd-r.lim.burns))
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
	r.samples.Track(r.lim.samples, samples, uint64(nSamples))
	r.burns.Track(r.lim.burns, burns, uint64(nBurns))
	if phases != nil {
		r.phases.Replace(phases)
	}
	if metrics != nil {
		r.counters.Push(r.lim.counters, CounterSnap{AtNS: int64(now), Metrics: metrics})
	}
	if rt != nil {
		r.runtime.Push(maxRuntimeSnaps, *rt)
	}
}

// Trigger snapshots the rings — plus the tracer's newest events and the
// controller's newest audit records, gathered at trigger time — into a new
// incident bundle, appends it to the in-memory incident log, and (when
// Config.Dir is set) logs it to <Dir>/incidents.log. Reason is one of
// "slo_burn", "overload", "alloc_fallback", "device_failure", "manual";
// family/device are -1 when not applicable.
//
// Safe from any goroutine, including the tsdb burn callback: Trigger never
// calls back into the tsdb recorder, so ring contents reflect the last
// tick while the trace is current to the trigger instant.
func (r *Recorder) Trigger(now time.Duration, reason, detail string, family, device int) *Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	src := r.src
	r.mu.Unlock()

	// The sources are read outside the locks, as Tick reads them: the
	// tracer's window is the tracer's own ring, so reading it copies nothing.
	events, traceEnd := src.Tracer.Window()
	var plans []controlplane.PlanRecord
	if src.Plans != nil {
		plans = src.Plans()
	}
	plans = plans[max(0, len(plans)-r.lim.plans):]
	return r.cut(&Bundle{AtNS: int64(now), Reason: reason, Detail: detail, Family: family, Device: device, Plans: plans},
		src.Tracer, events, traceEnd)
}

// cut completes and logs bundle b, whose header and plans its trigger has
// filled in: the trace ring copies in what it lacks of the trigger's read
// of tracer, events ending at Seq traceEnd, unless a concurrent trigger has
// landed a later read or Init has replaced the tracer, and every ring
// section is a window of its ring.
func (r *Recorder) cut(b *Bundle, tracer *telemetry.Tracer, events []telemetry.Event, traceEnd uint64) *Bundle {
	r.log.mu.Lock()
	r.mu.Lock()
	if r.src.Tracer == tracer {
		r.trace.Extend(r.lim.trace, events, traceEnd)
	}
	r.seq++
	b.ID, b.Seq = fmt.Sprintf("incident-%06d-%s", r.seq, b.Reason), r.seq
	b.TraceEvents, b.Counters, b.Samples = r.trace.Window(), r.counters.Window(), r.samples.Window()
	b.Burns, b.Phases, b.Runtime = r.burns.Window(), r.phases.Window(), r.runtime.Window()
	b.Build = buildinfo.Get()
	first := r.windows()
	r.incidents = append(r.incidents, b)
	if over := len(r.incidents) - r.lim.incidents; over > 0 {
		r.incidents = append(r.incidents[:0], r.incidents[over:]...)
	}
	r.mu.Unlock()

	// The log is written under its own lock only: the bundle's sections are
	// windows nothing writes again, and the next trigger logs after this one.
	if dir := r.cfg.Dir; dir != "" {
		if err := r.log.append(dir, b, &first); err != nil {
			r.log.err = fmt.Errorf("incident log: bundle %s: %w", b.ID, err)
		}
	}
	r.log.mu.Unlock()
	return b
}

// windows returns the ordinal of the first value of each ring section of a
// bundle cut now. Called under r.mu.
func (r *Recorder) windows() [nSections]uint64 {
	return [nSections]uint64{
		secTrace: r.trace.First(), secCounters: r.counters.First(), secSamples: r.samples.First(),
		secBurns: r.burns.First(), secPhases: r.phases.First(), secRuntime: r.runtime.First(),
	}
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

// WriteError returns the run's most recent failure to write the incident
// log, if any. Disk trouble must not break the data path, so Trigger
// records the error here instead of returning it.
func (r *Recorder) WriteError() error {
	if r == nil {
		return nil
	}
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	return r.log.err
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
